"""soficlab benchmark: seeded workloads run in-process through
`soficlab.cli.main(argv)`, with every artifact checked outside the timed
region.

    python3 perfbench/run.py --workload census --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20

Run from the repository root; the package is imported from `src/` next to
this directory, so no install step is needed.  `--trace 0` reports the
end-to-end metrics, `--trace 1` the per-layer metrics of a separate traced
run (see tracer.py), and the last line of output is one JSON object with
keys correct, attempted, failed and metrics.  `--workload all` runs every
workload both ways, each in a fresh process, and prints one row per
workload.

Inputs depend only on (workload, seed); for the default seed every artifact
except manifest.json (which holds the wall time) must also match the digest
recorded in reference_digests.json.  Op times are wall times scaled to a
reference CPU speed (see CpuSpeed).  Scratch output goes to
`.perfbench_work/` at the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import workloads
from tracer import COUNTED_OPS, Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference_digests.json"

DEFAULT_SEED = 0
SETUP_PROBES = 7

END_TO_END = (("op_p50_s", "s"), ("op_tail_s", "s"), ("items_per_s", "items/s"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))
LAYER_UNITS = {"_s": "s", "_us": "us", "_frac": "ratio", "_ratio": "ratio"}


def _import_program():
    """Import soficlab from this checkout's src/, never from elsewhere."""
    if not (SRC / "soficlab" / "cli.py").is_file():
        sys.exit(f"error: {SRC / 'soficlab'} not found; run from a soficlab checkout")
    sys.path.insert(0, str(SRC))
    import soficlab.cli
    if Path(soficlab.__file__).resolve().parent != (SRC / "soficlab").resolve():
        sys.exit(f"error: imported soficlab from {soficlab.__file__}, not {SRC}")
    return soficlab.cli


# ---------------------------------------------------------------------------
# Running one op

class OpRunner:
    """Runs ops of one workload inside a private work directory."""

    def __init__(self, workload: str, work: Path):
        self.workload = workload
        self.work = work
        self.cli = sys.modules["soficlab.cli"]

    def execute(self, op) -> Tuple[float, Optional[str]]:
        """Wall time of the op's CLI calls, and an error text or None."""
        for name, _ in op.steps:
            if (self.work / name).exists():
                shutil.rmtree(self.work / name)
        error = None
        start = time.perf_counter()
        try:
            for _, argv in op.steps:
                code = self.cli.main(list(argv))
                if code != 0:
                    error = f"exit code {code} from {' '.join(argv)}"
                    break
        except Exception:
            error = traceback.format_exc(limit=4)
        return time.perf_counter() - start, error

    def digests(self, op) -> Dict[str, str]:
        out = {}
        for name, _ in op.steps:
            for f in sorted((self.work / name).iterdir()):
                if f.name != "manifest.json":
                    out[f"{name}/{f.name}"] = hashlib.sha256(f.read_bytes()).hexdigest()
        return out

    def verify(self, op, error: Optional[str], want: Optional[Dict[str, str]]) -> Optional[str]:
        """The op's error: its own, a failed output check, or artifacts that
        differ from the reference digests `want`."""
        if error:
            return error
        try:
            workloads.check(self.workload, op, self.work)
        except Exception as exc:
            return f"check failed: {type(exc).__name__}: {exc}"
        got = self.digests(op)
        if want is not None and got != want:
            return f"artifact digests differ: {sorted(k for k in got if got[k] != want.get(k))}"
        return None


def load_reference(workload: str, seed: int) -> List[Dict[str, str]]:
    if seed != DEFAULT_SEED or not REFERENCE.is_file():
        return []
    entry = json.loads(REFERENCE.read_text())["workloads"].get(workload)
    if entry is None:
        return []
    return [dict(zip(entry["artifacts"], shas)) for shas in entry["ops"]]


# ---------------------------------------------------------------------------
# CPU speed

class CpuSpeed:
    """Scales op times to a reference CPU speed.

    On a shared host each CPU flips, for a tenth of a second to minutes at a
    time, between full speed and about 1.5 times slower as other tenants load
    the core and memory it shares.  Raw op times of one commit then differ
    by 20-40% from run to run, and the same holds for CPU time.  So around
    each op, outside the timed region, the benchmark times two fixed kernels
    that do not touch soficlab: an interpreter loop and a numpy pass over
    arrays larger than L2.  `slowdown()` is the mean of their times over
    REF_LOOP and REF_STREAM, their full-speed times on the baseline host (a
    2-vCPU Xeon); an op's time is divided by the mean slowdown before and
    after it.  Before each op the process is also pinned to the allowed CPU
    that is currently fastest.  At full speed the scaled time is the wall
    time.
    """

    REF_LOOP = 1.25e-3
    REF_STREAM = 0.70e-3

    def __init__(self) -> None:
        import numpy as np
        self.np = np
        self.cpus = sorted(os.sched_getaffinity(0))
        self.src = np.ones(1 << 19, dtype=np.int64)
        self.dst = np.empty_like(self.src)
        self.samples: List[float] = []

    def _loop(self) -> float:
        start = time.perf_counter()
        acc = 0
        for i in range(20_000):
            acc += i * i % 7
        return time.perf_counter() - start

    def _stream(self) -> float:
        start = time.perf_counter()
        self.np.multiply(self.src, 3, out=self.dst)
        self.np.add(self.dst, self.src, out=self.dst)
        return time.perf_counter() - start

    def slowdown(self) -> float:
        self._loop()                # warm the interpreter's caches first
        s = (self._loop() / self.REF_LOOP + self._stream() / self.REF_STREAM) / 2
        self.samples.append(s)
        return s

    def pin_fastest(self) -> float:
        """Pin to the CPU with the least slowdown now, and return it."""
        best = None
        for cpu in self.cpus:
            os.sched_setaffinity(0, {cpu})
            s = self.slowdown()
            if best is None or s < best[0]:
                best = (s, cpu)
        if best[1] != self.cpus[-1]:
            os.sched_setaffinity(0, {best[1]})
        return best[0]


# ---------------------------------------------------------------------------
# Set-up time

def _probe_setup(workload: str, seed: int) -> None:
    """Child side of a set-up probe: import, build the first op, report."""
    _import_program()
    workloads.OpStream(workload, seed).op(0)
    print("ready", flush=True)


def measure_setup(workload: str, seed: int, speed: CpuSpeed) -> float:
    """Median over fresh processes of process start to first op ready,
    scaled like an op time."""
    samples = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    for _ in range(SETUP_PROBES):
        before = speed.pin_fastest()
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline().strip()
            elapsed = time.perf_counter() - start
            child.stdout.read()
            code = child.wait(timeout=60)
        if line != "ready" or code != 0:
            sys.exit(f"error: set-up probe failed (exit {code}, said {line!r})")
        samples.append(elapsed / ((before + speed.slowdown()) / 2))
    return statistics.median(samples)


# ---------------------------------------------------------------------------
# Metrics

def tail(times: Sequence[float], q: float) -> Tuple[float, int]:
    """Nearest-rank q-th percentile of the op times, and how many ops lie
    beyond it."""
    ordered = sorted(times)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def layer_unit(name: str) -> str:
    for suffix, unit in LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


# ---------------------------------------------------------------------------
# One workload

def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> int:
    _import_program()
    speed = CpuSpeed()
    setup_s = None if trace else measure_setup(workload, seed, speed)
    stream = workloads.OpStream(workload, seed)
    reference = load_reference(workload, seed)
    work = WORK / f"{workload}-s{seed}-t{int(trace)}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    os.chdir(work)            # artifacts hold relative paths, as a user's would
    runner = OpRunner(workload, work)
    tracer = Tracer() if trace else None

    warm = stream.op(0)            # untimed: lazy imports and first-call costs
    failures: List[str] = []
    error = runner.verify(warm, runner.execute(warm)[1], reference[0] if reference else None)
    if error:
        failures.append(f"warm-up op 0: {error}")

    wall: List[float] = []         # untraced op wall times
    scaled: List[float] = []       # the same, scaled to reference CPU speed
    traced_scaled: List[float] = []
    traced_slowdown: Dict[int, float] = {}
    items = 0
    attempted = failed = 0
    i = 0
    deadline = time.perf_counter() + seconds
    while True:
        op = stream.op(i)
        want = reference[i] if i < len(reference) else None
        attempted += 1
        before = speed.pin_fastest()
        if not trace:
            elapsed, error = runner.execute(op)
            after = speed.slowdown()
            wall.append(elapsed)
            scaled.append(elapsed / ((before + after) / 2))
            error = runner.verify(op, error, want)
        else:
            # alternate which run goes first, so warm caches favour neither
            error = None
            got = {}
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                if traced:
                    tracer.op_id = i
                    tracer.install()
                try:
                    elapsed, run_error = runner.execute(op)
                finally:
                    tracer.uninstall()
                after = speed.slowdown()
                factor = (before + after) / 2
                (traced_scaled if traced else scaled).append(elapsed / factor)
                if traced:
                    traced_slowdown[i] = factor
                before = after
                error = error or runner.verify(op, run_error, want)
                got[traced] = None if error else runner.digests(op)
            if not error and got[True] != got[False]:
                error = "traced and untraced artifacts differ"
        if error:
            failed += 1
            failures.append(f"op {i} {dict(op.params)}: {error}")
        else:
            items += op.items
        i += 1
        if time.perf_counter() >= deadline:
            break
    os.chdir(ROOT)
    shutil.rmtree(work)

    for line in failures[:20]:
        print(f"FAILED {workload} {line}", file=sys.stderr)
    detail: Dict[str, object] = {
        "workload": workload, "seed": seed, "trace": int(trace), "ops": attempted,
        "failed": failed, "fail_frac": failed / attempted,
        "cpu_slowdown_median": statistics.median(speed.samples)}
    if trace:
        layer = layer_metrics(tracer, traced_slowdown)
        layer["trace.overhead_frac"] = sum(traced_scaled) / sum(scaled) - 1
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in layer.items()}
        detail["counted_ops"] = min(attempted, COUNTED_OPS)
        detail["spans_fired"] = tracer.fired()
        WORK.mkdir(exist_ok=True)
        tracer.write(WORK / f"trace-{workload}-s{seed}.json")
    else:
        tail_q = workloads.TAIL_PERCENTILE[workload]
        tail_s, beyond = tail(scaled, tail_q)
        detail.update(tail_percentile=tail_q, tail_beyond=beyond,
                      wall_op_p50_s=statistics.median(wall))
        values = {
            "op_p50_s": statistics.median(scaled),
            "op_tail_s": tail_s,
            "items_per_s": items / sum(scaled),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END}

    print(f"{workload} seed={seed} trace={int(trace)}: {attempted} ops, {failed} failed, "
          f"fail_frac={failed / attempted:.4f}"
          + ("" if trace else f", op_tail_s at p{tail_q:g} with {beyond} ops beyond"))
    for name, m in metrics.items():
        print(f"  {name:42s} {m['value']:.6g} {m['unit']}")
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


# ---------------------------------------------------------------------------
# Every workload, one row each

def run_all(seed: int, seconds: float) -> int:
    code = 0
    rows = []
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} trace={trace}: exit {proc.returncode}", file=sys.stderr)
                code = 1
                continue
            result = json.loads(lines[-1])
            detail = json.loads(next(l for l in lines if l.startswith("detail "))[7:])
            if not result["correct"]:
                code = 1
            rows.append((workload, trace, result, detail))
    for workload, trace, result, detail in rows:
        head = (f"{workload:9s} {'layer' if trace else 'e2e':5s} ops={detail['ops']} "
                f"failed={detail['failed']} fail_frac={detail['fail_frac']:.4f}")
        if not trace:
            head += f" tail=p{detail['tail_percentile']:g}(beyond={detail['tail_beyond']})"
        cells = [f"{k}={m['value']:.6g} {m['unit']}" for k, m in result["metrics"].items()]
        print(head + "  " + "  ".join(cells))
    return code


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("census", "tile", "conjugate", "search", "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        _probe_setup(args.workload, args.seed)
        return 0
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
