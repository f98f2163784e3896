"""Self-test of the benchmark.

    python3 -m pytest perfbench/test_perfbench.py

Checks that the tracer rebinds every name a function is bound under, that a
short traced run of each workload fires every span expected of it and
reports its per-layer metrics as nonzero, with identical artifacts traced
and untraced, and that the benchmark refuses to run without the program.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import tracer  # noqa: E402

# spans that must fire on each workload's traced run
EXPECTED_SPANS = {
    "census": ["cli", "expcycles.exp_map", "expcycles.count_k_periodic",
               "expcycles.count_k_periodic_by_tables", "expcycles.multiplicative_order",
               "expcycles.cycle_census", "expcycles.run_sweep",
               "expcycles.segmented_sieve", "expcycles.sweep_csv"],
    "tile": ["cli", "tiling.plan_parameters", "tiling.extract_eps_disjoint",
             "tiling.quasi_tile", "tiling.verify_tiling", "tiling.to_json",
             "tiling.from_json", "soficcheck.permutation", "bsgroup.mul",
             "bsgroup.shapes"],
    "conjugate": ["cli", "tiling.quasi_tile", "tiling.extract_eps_disjoint",
                  "soficcheck.permutation", "bsgroup.mul", "bsgroup.shapes",
                  "conjugacy.build_conjugator", "conjugacy.conjugacy_defect",
                  "conjugacy.to_json", "perm.orbit_order", "perm.compose",
                  "perm.inverse", "perm.hamming"],
    "search": ["cli", "localexp.search_local_exp", "localexp.defect_report",
               "perm.cycle_lengths"],
}

# per-layer metric -> the workload on which it must be nonzero
LAYER_WORKLOAD = {
    "cli.self_s": "tile",
    **{m: "census" for m in (
        "expcycles.exp_map_s", "expcycles.count_k_periodic_s",
        "expcycles.count_k_periodic_by_tables_s", "expcycles.multiplicative_order_s",
        "expcycles.cycle_census_self_s", "expcycles.segmented_sieve_s",
        "expcycles.sweep_csv_s", "expcycles.moduli", "expcycles.table_entries")},
    **{m: "tile" for m in (
        "tiling.extract_eps_disjoint_s", "tiling.quasi_tile_self_s",
        "tiling.verify_tiling_s", "tiling.to_json_s", "tiling.from_json_s",
        "tiling.sets_offered", "tiling.sets_kept", "tiling.keep_ratio", "tiling.b_size",
        "soficcheck.permutation_s", "soficcheck.permutations_built")},
    **{m: "conjugate" for m in (
        "bsgroup.mul_s", "bsgroup.mul_calls", "bsgroup.shapes_s",
        "conjugacy.build_conjugator_self_s", "conjugacy.conjugacy_defect_s",
        "conjugacy.to_json_s", "conjugacy.support_frac", "perm.orbit_order_s",
        "perm.compose_s", "perm.compose_calls", "perm.inverse_s", "perm.hamming_s")},
    **{m: "search" for m in (
        "perm.cycle_lengths_s", "localexp.search_local_exp_s", "localexp.step_us",
        "localexp.steps", "localexp.defect_report_s")},
}


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def test_benchmark_json_lists_what_the_run_reports():
    import run
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    layer = [*LAYER_WORKLOAD, "trace.overhead_frac"]
    assert sorted((m["name"], m["unit"]) for m in spec["per_layer"]) == \
        sorted((name, run.layer_unit(name)) for name in layer)
    assert [w["name"] for w in spec["workloads"]] == list(EXPECTED_SPANS)


def test_every_target_span_is_expected_somewhere():
    targets = {span for _, _, span in tracer.TARGETS}
    expected = {span for spans in EXPECTED_SPANS.values() for span in spans}
    assert targets == expected


def test_rebinding_covers_every_binding_and_restores():
    import soficlab
    from soficlab import cli, conjugacy, perm, tiling
    originals = {
        "cli.quasi_tile": cli.quasi_tile, "conjugacy.quasi_tile": conjugacy.quasi_tile,
        "soficlab.quasi_tile": soficlab.quasi_tile, "tiling.quasi_tile": tiling.quasi_tile,
        "conjugacy.orbit_order": conjugacy.orbit_order,
        "conjugacy.hamming": conjugacy.hamming, "cli.bs_rectangle": cli.bs_rectangle,
        "compose": perm.Permutation.__dict__["compose"],
        "__mul__": perm.Permutation.__dict__["__mul__"],
        "from_json": tiling.Tiling.__dict__["from_json"],
    }
    t = tracer.Tracer()
    t.install()
    try:
        assert cli.quasi_tile is conjugacy.quasi_tile is soficlab.quasi_tile is tiling.quasi_tile
        assert cli.quasi_tile is not originals["tiling.quasi_tile"]
        assert conjugacy.orbit_order is perm.orbit_order is not originals["conjugacy.orbit_order"]
        assert conjugacy.hamming is not originals["conjugacy.hamming"]
        assert perm.Permutation.__dict__["__mul__"] is perm.Permutation.__dict__["compose"]
        p = perm.Permutation([1, 2, 0])
        assert (p * p).image.tolist() == p.compose(p).image.tolist() == [2, 0, 1]
        assert tiling.Tiling.__dict__["from_json"] is not originals["from_json"]
    finally:
        t.uninstall()
    assert t.fired() == {"perm.compose": 2}
    assert cli.quasi_tile is originals["cli.quasi_tile"]
    assert soficlab.quasi_tile is originals["soficlab.quasi_tile"]
    assert conjugacy.orbit_order is originals["conjugacy.orbit_order"]
    assert perm.Permutation.__dict__["__mul__"] is originals["__mul__"]
    assert tiling.Tiling.__dict__["from_json"] is originals["from_json"]


@pytest.mark.parametrize("workload", sorted(EXPECTED_SPANS))
def test_traced_run(workload):
    proc = _run("--workload", workload, "--seed", "0", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    detail = json.loads(next(line for line in lines if line.startswith("detail "))[7:])
    # a failed op includes traced and untraced artifacts differing, and a
    # mismatch with the reference digests of the default seed
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    missing = [s for s in EXPECTED_SPANS[workload] if not detail["spans_fired"].get(s)]
    assert not missing
    metrics = result["metrics"]
    assert set(metrics) == set(LAYER_WORKLOAD) | {"trace.overhead_frac"}
    zero = [m for m, w in LAYER_WORKLOAD.items() if w == workload and metrics[m]["value"] == 0]
    assert not zero
    assert metrics["trace.overhead_frac"]["value"] != 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "census", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
