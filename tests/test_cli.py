import argparse
import copy
import hashlib
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from soficlab import cli, tiling
from soficlab.bsgroup import bs_a1, bs_a2
from soficlab.cli import (REQUIRED, _SUBCOMMANDS, _build_parser, _draw_unit, conjugate_shapes,
                          interval_shapes, load_config, main)
from soficlab.soficcheck import ArithmeticModel, SoficApprox
from soficlab.tiling import Tiling, plan_parameters, verify_tiling


def run(tmp_path, *argv):
    out = tmp_path / "out"
    return main(list(argv) + ["--out", str(out)]), out


def inverse_product_set(F):
    return {g.inverse() * h for g in F for h in F}


def tabulated_keys(tmp_path, monkeypatch, *argv):
    """The one key list the op asks the arithmetic model for, checked free
    of repeats, as a set."""
    domains, real = [], ArithmeticModel.approx_on

    def recording(model, keys):
        domains.append(list(keys))
        return real(model, domains[-1])
    monkeypatch.setattr(ArithmeticModel, "approx_on", recording)
    code, _ = run(tmp_path, *argv)
    assert code == 0
    [keys] = domains
    assert len(keys) == len(set(keys))
    return set(keys)


def grids_built(tmp_path, monkeypatch, *argv):
    """The size of the shape of every product grid the op builds."""
    calls, real = [], tiling.inverse_products

    def counting(F):
        calls.append(len(F))
        return real(F)
    monkeypatch.setattr(tiling, "inverse_products", counting)
    monkeypatch.setattr(cli, "inverse_products", counting)
    code, _ = run(tmp_path, *argv)
    assert code == 0
    return calls


class TestConfig:
    def test_defaults_provenance(self):
        cfg, source = load_config(None)
        assert cfg == {} and source == "defaults"

    def test_parse_and_comments(self, tmp_path):
        p = tmp_path / "cfg"
        p.write_text("m = 2   # base\nn=101\neps = 1/8\n\n# note\n")
        cfg, source = load_config(str(p))
        assert cfg["m"] == 2 and cfg["n"] == 101
        assert cfg["eps"].numerator == 1 and cfg["eps"].denominator == 8
        assert source == str(p)

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "cfg"
        p.write_text("bogus = 1\n")
        code = main(["heuristic", "--config", str(p), "--out", str(tmp_path / "o")])
        assert code == 1

    def test_missing_file(self, tmp_path):
        code = main(["heuristic", "--config", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "o")])
        assert code == 1

    def test_flag_overrides_config(self, tmp_path):
        p = tmp_path / "cfg"
        p.write_text("N = 5\n")
        code, out = run(tmp_path, "heuristic", "--config", str(p), "--N", "8")
        assert code == 0
        rows = (out / "heuristic.csv").read_text().strip().split("\n")
        assert len(rows) == 1 + 8
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["params"]["N"] == 8
        assert manifest["config_source"] == str(p)

    def test_out_flag_overrides_config(self, tmp_path):
        p = tmp_path / "cfg"
        p.write_text(f"out = {tmp_path / 'from_config'}\n")
        code, out = run(tmp_path, "heuristic", "--config", str(p), "--N", "3")
        assert code == 0
        assert (out / "heuristic.csv").is_file()
        assert not (tmp_path / "from_config").exists()

    def test_manifest_omits_overridden_out(self, tmp_path):
        p = tmp_path / "cfg"
        p.write_text(f"out = {tmp_path / 'from_config'}\n")
        code, out = run(tmp_path, "heuristic", "--config", str(p), "--N", "3")
        assert code == 0
        text = (out / "manifest.json").read_text()
        assert "out" not in json.loads(text)["params"]
        assert "from_config" not in text

    def test_out_from_config(self, tmp_path):
        p = tmp_path / "cfg"
        p.write_text(f"out = {tmp_path / 'from_config'}\n")
        assert main(["heuristic", "--config", str(p), "--N", "3"]) == 0
        assert (tmp_path / "from_config" / "heuristic.csv").is_file()


class TestHeuristic:
    def test_csv_p3_row(self, tmp_path):
        code, out = run(tmp_path, "heuristic", "--N", "6")
        assert code == 0
        lines = (out / "heuristic.csv").read_text().split("\n")
        assert lines[3].startswith("3,2,3,")

    def test_rerun_identical(self, tmp_path):
        _, out1 = run(tmp_path / "a", "heuristic", "--N", "20")
        _, out2 = run(tmp_path / "b", "heuristic", "--N", "20")
        assert (out1 / "heuristic.csv").read_bytes() == (out2 / "heuristic.csv").read_bytes()
        h1 = json.loads((out1 / "manifest.json").read_text())["content_hash"]
        h2 = json.loads((out2 / "manifest.json").read_text())["content_hash"]
        assert h1 == h2


class TestCycles:
    def test_sorted_rows_and_findings(self, tmp_path):
        code, out = run(tmp_path, "cycles", "--m", "2", "--primes", "3..100")
        assert code == 0
        lines = (out / "cycles.csv").read_text().strip().split("\n")[1:]
        ns = [int(line.split(",")[0]) for line in lines]
        assert ns == sorted(ns) and ns[0] == 3 and ns[-1] == 97
        assert json.loads((out / "findings.json").read_text()) == []

    def test_prime_powers_input(self, tmp_path):
        code, out = run(tmp_path, "cycles", "--m", "2", "--prime-powers", "3:1..3")
        assert code == 0
        lines = (out / "cycles.csv").read_text().strip().split("\n")[1:]
        assert [int(l.split(",")[0]) for l in lines] == [3, 9, 27]

    def test_int64_overflowing_modulus_exits_2(self, tmp_path):
        code, _ = run(tmp_path, "cycles", "--m", "2", "--n", "3037000501")
        assert code == 2

    def test_failed_check_leaves_manifest(self, tmp_path, capsys):
        code, out = run(tmp_path, "cycles", "--m", "2", "--n", "3037000501")
        assert code == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["exit_code"] == 2
        assert manifest["error"] in capsys.readouterr().err
        assert manifest["params"] == {"m": 2, "n": 3037000501}
        assert [f.name for f in out.iterdir()] == ["manifest.json"]

    def test_no_moduli(self, tmp_path, capsys):
        code, _ = run(tmp_path, "cycles", "--m", "2")
        assert code == 1
        assert "cycles needs --primes, --prime-powers or --n" in capsys.readouterr().err

    @pytest.mark.parametrize("option", [
        "--primes=24..28", "--primes=5..3", "--prime-powers=3:2..1",
        # moduli that the sweep would skip, each one below 2 or sharing a factor with m
        "--n=4", "--primes=2..2", "--prime-powers=1:1..3"])
    def test_empty_range_says_so(self, tmp_path, capsys, option):
        code, out = run(tmp_path, "cycles", "--m", "2", option)
        assert code == 1
        flag, _, value = option.partition("=")
        assert f"no modulus in {flag} {value}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("n", ["0", "1"])
    def test_modulus_below_two_is_usage_error(self, tmp_path, capsys, n):
        code, _ = run(tmp_path, "cycles", "--m", "2", "--n", n)
        assert code == 1
        assert "modulus must be >= 2" in capsys.readouterr().err


class TestSoficCheck:
    def test_arithmetic_model_passes(self, tmp_path):
        code, out = run(tmp_path, "sofic-check", "--m", "3", "--n", "101")
        assert code == 0
        report = json.loads((out / "sofic_report.json").read_text())
        assert report["passed"] and report["max_defect"][0] == 0


def drop_lowest_levels(data):
    # the top five levels of eps = 1/4 still satisfy the lambda recursion
    data["levels"] = data["levels"][3:]
    for j, lvl in enumerate(data["levels"], start=1):
        lvl["j"] = j


def one_level_eps_one(data):
    top = data["levels"][-1]
    top["j"], top["lam"] = 1, [1, 1]
    data["levels"] = [top]
    data["eps"] = data["kappa"] = [1, 1]


def drop_table_key(data):
    del data["table"][0]


def empty_level_3_shape(data):
    data["levels"][2]["shape"] = []


def repeat_level_2_key(data):
    data["levels"][1]["shape"].append(data["levels"][1]["shape"][0])


def repeat_table_key_before(data):
    # a reader keeping the last row would verify the real image
    key, image = data["table"][0]
    data["table"].insert(0, [key, image[::-1]])


def repeat_table_key_after(data):
    key, image = data["table"][0]
    data["table"].insert(1, [key, image[::-1]])


class TestTileVerify:
    def test_tile_then_verify(self, tmp_path):
        code, out = run(tmp_path, "tile", "--n", "1000")
        assert code == 0
        report = json.loads((out / "tile_report.json").read_text())
        assert report["passed"]
        code2, out2 = run(tmp_path / "v", "verify",
                          "--certificate", str(out / "tiling.json"))
        assert code2 == 0
        assert json.loads((out2 / "verify.json").read_text())["passed"]

    def test_verify_tampered(self, tmp_path):
        code, out = run(tmp_path, "tile", "--n", "1000")
        assert code == 0
        data = json.loads((out / "tiling.json").read_text())
        data["levels"][0]["centers"] = data["levels"][0]["centers"][:1]
        cert = tmp_path / "bad.json"
        cert.write_text(json.dumps(data))
        code2, out2 = run(tmp_path / "v", "verify", "--certificate", str(cert))
        assert code2 == 2
        assert not json.loads((out2 / "verify.json").read_text())["passed"]

    @pytest.mark.parametrize("key, value", [("n", 900), ("key_kind", "word")])
    def test_verify_malformed(self, tmp_path, key, value):
        code, out = run(tmp_path, "tile", "--n", "1000")
        assert code == 0
        data = json.loads((out / "tiling.json").read_text())
        data[key] = value
        cert = tmp_path / "bad.json"
        cert.write_text(json.dumps(data))
        code2, out2 = run(tmp_path / "v", "verify", "--certificate", str(cert))
        assert code2 == 2
        result = json.loads((out2 / "verify.json").read_text())
        assert result["passed"] is False and result["error"]

    @pytest.mark.parametrize("center", [-157, 1000])
    def test_verify_center_outside_ground_set(self, tmp_path, center):
        code, out = run(tmp_path, "tile", "--n", "1000")
        assert code == 0
        data = json.loads((out / "tiling.json").read_text())
        data["levels"][0]["centers"][0] = center
        cert = tmp_path / "bad.json"
        cert.write_text(json.dumps(data))
        code2, out2 = run(tmp_path / "v", "verify", "--certificate", str(cert))
        assert code2 == 2
        result = json.loads((out2 / "verify.json").read_text())
        assert result["passed"] is False and "outside" in result["error"]

    @pytest.mark.parametrize("mutate, reason", [
        (drop_lowest_levels, "the plan for eps = 1/4 has levels 1..8"),
        (one_level_eps_one, "eps=1 outside (0, 1/4]"),
        (drop_table_key, "table has no permutation for shape key"),
        (empty_level_3_shape, "Folner shape F_3 is empty"),
        (repeat_level_2_key, "Folner shape F_2 repeats a key"),
        (repeat_table_key_before, "table lists key BsElement(m=3, e=0, num=0, d=0) twice"),
        (repeat_table_key_after, "table lists key BsElement(m=3, e=0, num=0, d=0) twice"),
    ])
    def test_verify_rejects_certificate_off_plan(self, tmp_path, mutate, reason):
        code, out = run(tmp_path, "tile", "--n", "1000")
        assert code == 0
        data = json.loads((out / "tiling.json").read_text())
        mutate(data)
        cert = tmp_path / "bad.json"
        cert.write_text(json.dumps(data))
        code2, out2 = run(tmp_path / "v", "verify", "--certificate", str(cert))
        assert code2 == 2
        result = json.loads((out2 / "verify.json").read_text())
        assert result["passed"] is False and reason in result["error"]

    def test_eps_above_quarter(self, tmp_path):
        code, _ = run(tmp_path, "tile", "--n", "1000", "--eps", "3/10")
        assert code == 1

    @pytest.mark.parametrize("subcommand", ["tile", "conjugate"])
    @pytest.mark.parametrize("eps", ["0", "-1/4"])
    def test_eps_not_positive_is_usage_error(self, tmp_path, capsys, subcommand, eps):
        # "--eps=-1/4": argparse would read a separate "-1/4" as a flag
        code, _ = run(tmp_path, subcommand, "--n", "1000", f"--eps={eps}")
        assert code == 1
        assert "outside the tiling regime" in capsys.readouterr().err

    @pytest.mark.parametrize("kappa", ["0", "-1/4"])
    def test_kappa_not_positive_is_usage_error(self, tmp_path, capsys, kappa):
        code, out = run(tmp_path, "tile", "--n", "1000", f"--kappa={kappa}")
        assert code == 1
        assert f"kappa = {kappa} must be positive" in capsys.readouterr().err
        assert not out.exists()

    def test_tile_tabulates_exactly_inverse_products(self, tmp_path, monkeypatch):
        """tile asks the model for F_k^-1 F_k, the keys the B-mask reads, and
        for no other key."""
        top = interval_shapes(plan_parameters(Fraction(1, 4), Fraction(1, 4)).k, 3)[-1]
        keys = tabulated_keys(tmp_path, monkeypatch, "tile", "--n", "1000")
        assert keys == inverse_product_set(top)

    def test_one_grid_per_op(self, tmp_path, monkeypatch):
        """The domain and the B-mask read one F_k^-1 F_k grid."""
        assert grids_built(tmp_path, monkeypatch, "tile", "--n", "1000") == [27]

    def test_interval_shapes_monotone(self):
        shapes = interval_shapes(8, 3)
        sizes = [len(s) for s in shapes]
        assert sizes == sorted(sizes) and sizes[0] >= 2 and sizes[-1] <= 32

    def test_int64_overflowing_degree_exits_2(self, tmp_path, capsys):
        """Above expcycles.MAX_MODULUS the products a x overflow int64, so the
        model refuses the degree before it allocates a table."""
        code, out = run(tmp_path, "tile", "--n", "3037000501")
        assert code == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["exit_code"] == 2
        assert "exceeds 3037000499" in manifest["error"]
        assert manifest["error"] in capsys.readouterr().err


@pytest.fixture(scope="module")
def tile_certificate(tmp_path_factory):
    out = tmp_path_factory.mktemp("tile")
    assert main(["tile", "--n", "1000", "--out", str(out)]) == 0
    return json.loads((out / "tiling.json").read_text())


class TestVerifyMutatedCertificates:
    """verify on tile --n 1000 certificates with one center moved, added,
    dropped or copied to another level: it exits 0 exactly when
    verify_tiling passes the certificate, and verify.json holds that
    report's flags."""

    @given(kind=st.sampled_from(["move", "add", "drop", "copy"]), level=st.integers(0, 7),
           pick=st.integers(0, 10**6), point=st.integers(0, 999), shift=st.integers(1, 7))
    @settings(max_examples=30, deadline=None)
    def test_verify_agrees_with_verify_tiling(self, tile_certificate, tmp_path_factory,
                                              kind, level, pick, point, shift):
        data = copy.deepcopy(tile_certificate)
        centers = data["levels"][level]["centers"]
        i = pick % len(centers)
        if kind == "move":
            centers[i] = point
        elif kind == "add":
            centers.insert(i, point)
        elif kind == "drop":
            del centers[i]
        else:
            data["levels"][(level + shift) % 8]["centers"].insert(0, centers[i])
        tmp = tmp_path_factory.mktemp("mutated")
        cert = tmp / "tiling.json"
        cert.write_text(json.dumps(data))
        code = main(["verify", "--certificate", str(cert), "--out", str(tmp / "v")])
        report = verify_tiling(Tiling.from_json(cert.read_text()))
        assert code == (0 if report.passed else 2)
        assert json.loads((tmp / "v" / "verify.json").read_text()) == {
            "certificate": str(cert),
            "disjoint_ok": report.disjoint_ok,
            "injective_ok": report.injective_ok,
            "eps_disjoint_ok": report.eps_disjoint_ok,
            "cover_ratio": str(report.cover_ratio),
            "measure_ok": report.measure_ok,
            "passed": report.passed,
        }


@pytest.mark.parametrize("seed", [0, 1])
def test_conjugator_artifact_supports(tmp_path, seed):
    """conjugator.json lists Lambda_1 ascending and Lambda_2 = tau(Lambda_1)
    ascending, and Lambda_1 is the support fraction of the report."""
    code, out = run(tmp_path, "conjugate", "--n", "1000", "--seed", str(seed))
    assert code == 0
    conj = json.loads((out / "conjugator.json").read_text())
    report = json.loads((out / "conjugacy_report.json").read_text())
    lambda1, lambda2, tau = conj["lambda1"], conj["lambda2"], conj["tau"]
    assert all(x < y for x, y in zip(lambda1, lambda1[1:]))
    assert all(x < y for x, y in zip(lambda2, lambda2[1:]))
    assert lambda2 == sorted(tau[x] for x in lambda1)
    assert Fraction(len(lambda1), conj["n"]) == Fraction(report["support_fraction"])


def set_field(*path, value):
    """A mutation writing value at path in the certificate, which it
    returns; a callable value maps the entry it replaces."""
    def mutate(data):
        *parents, last = path
        entry = data
        for key in parents:
            entry = entry[key]
        entry[last] = value(entry[last]) if callable(value) else value
        return data
    return mutate


def as_list(data):
    return [data]


def drop_levels(data):
    del data["levels"]
    return data


def without_m(key):
    return {field: value for field, value in key.items() if field != "m"}


FIRST_IMAGE = ("table", 0, 1)
FIRST_LEVEL_1_CENTER = ("levels", 0, "centers", 0)


class TestVerifyRequiresJsonIntegers:
    """Every integer field of a certificate must be a JSON integer: a float
    or a string is rejected, not truncated or parsed, and so is true where a
    scalar is read.  A certificate, level or table row of the wrong shape is
    rejected by the field it breaks."""

    @pytest.mark.parametrize("mutate, field", [
        (set_field(*FIRST_IMAGE, 5, value=lambda x: x + 0.7), "table image"),
        (set_field(*FIRST_IMAGE, 5, value=str), "table image"),
        (set_field(*FIRST_IMAGE, 5, value=2**63), "table image"),
        (set_field(*FIRST_LEVEL_1_CENTER, value=lambda c: c + 0.5), "level 1 center"),
        (set_field(*FIRST_LEVEL_1_CENTER, value=str), "level 1 center"),
        (set_field("n", value="1000"), "n = '1000'"),
        (set_field("n", value=True), "n = True"),
        (set_field("b_size", value=12.9), "b_size = 12.9"),
        (set_field("levels", 0, "j", value=1.0), "j = 1.0"),
        (set_field("levels", 0, "shape", 0, "m", value=3.0), "m = 3.0"),
        (set_field("table", 0, 0, "num", value="0"), "num = '0'"),
        (set_field("eps", 0, value=1.0), "eps = 1.0"),
        (set_field("kappa", value=[1, 4, 1]), "kappa = [1, 4, 1]"),
        (set_field("levels", 0, "lam", 1, value=True), "lam = True"),
        (set_field("levels", 0, value="x"), "levels[0] is not a JSON object"),
        (set_field("table", 0, value=lambda row: row[:1]), "table[0] is not a [key, image] pair"),
        (as_list, "certificate is not a JSON object"),
        (drop_levels, "certificate has no field 'levels'"),
        (set_field("levels", value=5), "levels is not a JSON list"),
        (set_field("table", value=5), "table is not a JSON list"),
        (set_field("levels", 0, "shape", value=5), "levels[0].shape is not a JSON list"),
        (set_field("levels", 0, "centers", value=5), "levels[0].centers is not a JSON list"),
        (set_field("levels", 0, "shape", 0, value="x"), "levels[0].shape[0] is not a JSON object"),
        (set_field("table", 0, 0, value="x"), "table[0] key is not a JSON object"),
        (set_field("levels", 0, "shape", 0, value=without_m), "levels[0].shape[0] has no field 'm'"),
        (set_field("eps", value=[1, 0]), "eps = [1, 0] has denominator 0"),
        (set_field("levels", 0, "lam", value=[1, 0]), "lam = [1, 0] has denominator 0"),
    ])
    def test_rejected(self, tile_certificate, tmp_path, mutate, field):
        data = mutate(copy.deepcopy(tile_certificate))
        cert = tmp_path / "tiling.json"
        cert.write_text(json.dumps(data))
        code = main(["verify", "--certificate", str(cert), "--out", str(tmp_path / "v")])
        assert code == 2
        result = json.loads((tmp_path / "v" / "verify.json").read_text())
        assert result["passed"] is False and field in result["error"]

    def test_true_in_a_table_row_reads_as_one(self, tile_certificate, tmp_path):
        """numpy promotes a true among integers to 1, the same value; a check
        per entry in Python would cost more than reading the row, so this
        one is accepted."""
        data = copy.deepcopy(tile_certificate)
        assert data["table"][0][1][1] == 1
        data["table"][0][1][1] = True
        cert = tmp_path / "tiling.json"
        cert.write_text(json.dumps(data))
        assert main(["verify", "--certificate", str(cert), "--out", str(tmp_path / "v")]) == 0


class TestConjugate:
    def test_genuine_m_fails_its_support_check(self, tmp_path, capsys):
        code, out = run(tmp_path, "conjugate", "--n", "1000", "--m", "3")
        assert code == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert "matched support 714/1000 below 857.1" in manifest["error"]
        assert manifest["error"] in capsys.readouterr().err

    def test_one_grid_per_op(self, tmp_path, monkeypatch):
        """The domain and both sides' B-masks read one F_k^-1 F_k grid."""
        assert grids_built(tmp_path, monkeypatch, "conjugate", "--n", "1000") == [32]

    def test_conjugate_tabulates_exactly_inverse_products(self, tmp_path, monkeypatch):
        """conjugate asks the model for F_k^-1 F_k and the generators the
        defect reads, and for no other key."""
        keys = tabulated_keys(tmp_path, monkeypatch, "conjugate", "--n", "1000")
        assert keys == inverse_product_set(conjugate_shapes(999)[-1]) | {bs_a1(999), bs_a2(999)}

    def test_conjugated_side_builds_only_the_images_it_reads(self, tmp_path, monkeypatch):
        """The relabelled side gathers the images of the top shape's keys,
        which the tiling reads, and of a_1 and a_2, which the defect reads:
        not those of the rest of the 543 keys, which only its B-mask needs."""
        made, real = [], SoficApprox.conjugated

        def recording(phi, sigma):
            made.append(real(phi, sigma))
            return made[-1]
        monkeypatch.setattr(SoficApprox, "conjugated", recording)
        code, _ = run(tmp_path, "conjugate", "--n", "1000")
        assert code == 0
        [psi] = made
        built = {g for g, p in psi.table.items() if p._image is not None}
        assert len(psi.table) == 543
        assert built == set(conjugate_shapes(999)[-1]) | {bs_a1(999), bs_a2(999)}


@pytest.mark.parametrize("argv", [
    ("tile", "--n", "1000", "--m", "2"),
    ("conjugate", "--n", "1000", "--m", "2"),
    ("sofic-check", "--n", "10", "--m", "2"),
    ("search-f", "--n", "8", "--m", "2"),
    ("h3", "--n", "12", "--m", "2"),
])
def test_m_not_a_unit_is_usage_error(tmp_path, capsys, argv):
    code, out = run(tmp_path, *argv)
    assert code == 1
    assert f"gcd(2, {argv[2]}) != 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (("tile", "--n", "1"), "degree --n = 1 must be >= 2"),
    (("tile", "--n", "0"), "degree --n = 0 must be >= 2"),
    (("tile", "--m", "1", "--n", "1000"), "base --m = 1 must be >= 2"),
    (("sofic-check", "--n", "1", "--m", "2"), "degree --n = 1 must be >= 2"),
    (("sofic-check", "--n", "7", "--m", "1"), "base --m = 1 must be >= 2"),
    (("conjugate", "--n", "2"), "base --m = 1 must be >= 2"),     # m = n - 1
    (("h3", "--n", "0", "--m", "1"), "degree --n = 0 must be >= 2"),
    (("search-f", "--n", "0", "--m", "1"), "degree --n = 0 must be >= 2"),
    (("search-f", "--n", "1", "--m", "2"), "degree --n = 1 must be >= 2"),
    (("cycles", "--m=-2", "--n", "101"), "base --m = -2 must be >= 2"),
    (("cycles", "--m", "0", "--n", "101"), "base --m = 0 must be >= 2"),
    (("cycles", "--m", "1", "--n", "101"), "base --m = 1 must be >= 2"),
    (("cycles", "--m", "2", "--prime-powers", "1:1..3"),
     "no modulus in --prime-powers 1:1..3 is >= 2 and coprime to m = 2"),
])
def test_degree_or_base_below_two_is_usage_error(tmp_path, capsys, argv, message):
    code, out = run(tmp_path, *argv)
    assert code == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, flag", [
    (("tile", "--n", "1000", "--primes", "3..5"), "--primes"),
    (("heuristic", "--N", "5", "--seed", "1"), "--seed"),
    (("cycles", "--m", "2", "--n", "101", "--eps", "1/4"), "--eps"),
    (("verify", "--certificate", "tiling.json", "--n", "1000"), "--n"),
    (("heuristic", "--n", "5", "--N", "7"), "--n"),
])
def test_option_outside_table_is_usage_error(tmp_path, capsys, argv, flag):
    code, out = run(tmp_path, *argv)
    assert code == 1
    assert f"{argv[0]} does not read {flag}" in capsys.readouterr().err
    assert not out.exists()


def test_config_key_outside_table_is_usage_error(tmp_path, capsys):
    p = tmp_path / "cfg"
    p.write_text("primes = 3..5\n")
    code, out = run(tmp_path, "tile", "--n", "1000", "--config", str(p))
    assert code == 1
    assert "tile does not read --primes" in capsys.readouterr().err
    assert not out.exists()


class TestOtherSubcommands:
    def test_search_f(self, tmp_path):
        code, out = run(tmp_path, "search-f", "--n", "5", "--m", "2")
        assert code == 0
        data = json.loads((out / "search.json").read_text())
        assert data["exhaustive"] and data["defect"] == 2

    def test_h3_small_exhaustive(self, tmp_path):
        code, out = run(tmp_path, "h3", "--n", "5", "--m", "2")
        assert code == 0
        data = json.loads((out / "h3.json").read_text())
        assert data["min_failing_fraction"] == "2/5" and data["strictly_positive"]

    def test_h3_large_witness(self, tmp_path):
        code, out = run(tmp_path, "h3", "--n", "101", "--m", "2", "--seed", "3")
        assert code == 0
        data = json.loads((out / "h3.json").read_text())
        assert data["g1_displacement"] == [101, 101]

    @pytest.mark.parametrize("argv, keys", [
        (("--n", "8", "--m", "3"), {"n", "m", "min_failing_fraction", "strictly_positive"}),
        (("--n", "9", "--m", "2"),
         {"n", "m", "seed", "defect_fraction", "relator_defects", "g1_displacement"}),
    ])
    def test_h3_branch_at_sym_limit(self, tmp_path, argv, keys):
        # the orbit count up to SYM_EXHAUSTIVE_MAX = 8, one random map above
        code, out = run(tmp_path, "h3", *argv)
        assert code == 0
        assert set(json.loads((out / "h3.json").read_text())) == keys

    def test_padic(self, tmp_path):
        code, out = run(tmp_path, "padic", "--m", "2",
                        "--prime-powers", "3:2..3", "--tuples", "10")
        assert code == 0
        data = json.loads((out / "padic.json").read_text())
        assert [row["r"] for row in data] == [2, 3]
        assert all(row["cross_checked"] for row in data)

    @pytest.mark.parametrize("powers, tuples", [("3:4..4", "5"), ("3:2..2", "0")])
    def test_padic_not_cross_checked(self, tmp_path, powers, tuples):
        # 81^4 > 10^6 states are not brute-forced; zero tuples check nothing
        code, out = run(tmp_path, "padic", "--m", "2",
                        "--prime-powers", powers, "--tuples", tuples)
        assert code == 0
        assert not json.loads((out / "padic.json").read_text())[0]["cross_checked"]

    @pytest.mark.parametrize("p, r", [(2, 1), (2, 7), (3, 1), (3, 5), (5, 3), (7, 2), (101, 2)])
    def test_padic_draws_units_as_choice_from_their_list(self, p, r):
        q = p ** r
        units = [u for u in range(1, q) if u % p]
        for seed in range(5):
            drawn, chosen = random.Random(seed), random.Random(seed)
            assert ([_draw_unit(drawn, q, p) for _ in range(200)]
                    == [chosen.choice(units) for _ in range(200)])

    def test_padic_needs_prime_powers(self, tmp_path):
        code, _ = run(tmp_path, "padic", "--m", "2")
        assert code == 1

    @pytest.mark.parametrize("m, powers, message", [
        ("3", "3:2..3", "p = 3 divides m = 3"),
        ("3", "4:2..3", "p = 4 is not prime"),
        ("3", "3:0..1", "rmin = 0 must be >= 1"),
        ("2", "3:3..2", "no modulus in --prime-powers 3:3..2"),
    ])
    def test_padic_bad_prime_powers_is_usage_error(self, tmp_path, capsys, m, powers, message):
        code, out = run(tmp_path, "padic", "--m", m, "--prime-powers", powers)
        assert code == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--N"])
    def test_heuristic_zero_terms_is_usage_error(self, tmp_path, capsys, flag):
        code, out = run(tmp_path, "heuristic", flag, "0")
        assert code == 1
        assert "must be >= 1" in capsys.readouterr().err
        assert not (out / "heuristic.csv").exists()

    @pytest.mark.parametrize("eps", ["0", "1", "2"])
    def test_heuristic_eps_outside_unit_interval_is_usage_error(self, tmp_path, capsys, eps):
        code, out = run(tmp_path, "heuristic", "--N", "5", "--eps", eps)
        assert code == 1
        assert "outside (0, 1)" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("delta", ["2", "0", "-1/8"])
    def test_sofic_check_delta_outside_unit_interval_is_usage_error(self, tmp_path, capsys,
                                                                     delta):
        # "--delta=-1/8": argparse would read a separate "-1/8" as a flag
        code, out = run(tmp_path, "sofic-check", "--m", "3", "--n", "101", f"--delta={delta}")
        assert code == 1
        assert "outside (0, 1)" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ("search-f", "--n", "11", "--m", "7", "--budget=-3"),
        ("padic", "--m", "2", "--prime-powers", "3:2..3", "--tuples=-1"),
        ("sofic-check", "--m", "3", "--n", "101", "--exp-bound=-1"),
        ("sofic-check", "--m", "3", "--n", "101", "--num-bound=-1"),
        ("conjugate", "--n", "1000", "--seed=-1"),
        ("h3", "--n", "101", "--m", "2", "--seed=-1"),
        ("search-f", "--n", "30", "--m", "7", "--budget", "500", "--seed=-3"),
        ("padic", "--m", "2", "--prime-powers", "3:2..3", "--seed=-1"),
    ])
    def test_negative_count_is_usage_error(self, tmp_path, capsys, argv):
        # "--budget=-3": argparse would read a separate "-3" as a flag
        code, out = run(tmp_path, *argv)
        assert code == 1
        assert "must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["0", "-5"])
    def test_cycles_workers_below_one_is_usage_error(self, tmp_path, capsys, workers):
        # "--workers=-5": argparse would read a separate "-5" as a flag
        code, out = run(tmp_path, "cycles", "--m", "2", "--n", "101", f"--workers={workers}")
        assert code == 1
        assert f"workers = {workers} must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_sofic_check_identity_ball_is_usage_error(self, tmp_path, capsys):
        code, out = run(tmp_path, "sofic-check", "--m", "3", "--n", "101",
                        "--exp-bound", "0", "--num-bound", "0")
        assert code == 1
        err = capsys.readouterr().err
        assert "--exp-bound = 0 and --num-bound = 0" in err
        assert not out.exists()

    def test_sofic_check_one_zero_bound_still_checks(self, tmp_path):
        code, out = run(tmp_path, "sofic-check", "--m", "3", "--n", "101",
                        "--exp-bound", "1", "--num-bound", "0")
        assert code == 0
        assert json.loads((out / "sofic_report.json").read_text())["triples_checked"] == 7


class TestEntryPoint:
    def test_unknown_subcommand(self, tmp_path, capsys):
        assert main(["frobnicate", "--out", str(tmp_path / "o")]) == 1

    def test_manifest_fields(self, tmp_path):
        code, out = run(tmp_path, "heuristic", "--N", "5")
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["subcommand"] == "heuristic"
        assert set(manifest) >= {"params", "seed", "config_source",
                                 "content_hash", "wall_time_s", "version"}
        assert manifest["exit_code"] == 0 and manifest["error"] is None

    def test_manifest_records_default_seed_that_ran(self, tmp_path):
        code, out = run(tmp_path, "search-f", "--n", "11", "--m", "7", "--budget", "100")
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 0
        assert manifest["seed"] == json.loads((out / "search.json").read_text())["seed"]

    def test_manifest_seed_null_without_seed_option(self, tmp_path):
        code, out = run(tmp_path, "heuristic", "--N", "5")
        assert code == 0
        assert json.loads((out / "manifest.json").read_text())["seed"] is None

    def test_failed_certificate_manifest_has_exit_code(self, tmp_path):
        code, out = run(tmp_path, "sofic-check", "--m", "2", "--n", "7")
        assert code == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["exit_code"] == 2 and manifest["error"] is None


ROOT = Path(__file__).resolve().parents[1]


class TestRepeatedCalls:
    """main parses with one parser per process and may be called many times
    in one process: no call sees another's options, and each writes what a
    fresh process would."""

    @pytest.fixture(autouse=True)
    def fixed_width(self, monkeypatch, tmp_path):
        # argparse wraps usage and help text to the terminal width
        monkeypatch.setenv("COLUMNS", "80")
        monkeypatch.chdir(tmp_path)

    @staticmethod
    def fresh(*argv):
        """`soficlab argv` in a new process: exit code, stdout and stderr."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        proc = subprocess.run([sys.executable, "-m", "soficlab.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    def test_bad_flag_then_good_run(self, tmp_path, capsys):
        bad = ["cycles", "--m", "2", "--frobnicate", "1", "--out", "bad"]
        assert main(bad) == 1
        assert not (tmp_path / "bad").exists()
        assert self.fresh(*bad) == (1, "", capsys.readouterr().err)
        good = ["cycles", "--m", "2", "--primes", "1000..1100", "--slack", "0"]
        assert main([*good, "--out", "here"]) == 0
        assert self.fresh(*good, "--out", "there")[0] == 0
        for name in ("cycles.csv", "findings.json"):
            assert sha256(tmp_path / "here" / name) == sha256(tmp_path / "there" / name)
        here, there = (json.loads((tmp_path / d / "manifest.json").read_text())
                       for d in ("here", "there"))
        del here["wall_time_s"], there["wall_time_s"]
        assert here == there

    def test_config_does_not_carry_over(self, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text("N = 7\neps = 1/4\n")
        assert main(["heuristic", "--config", str(cfg), "--out", "with"]) == 0
        assert main(["heuristic", "--out", "without"]) == 0
        manifest = json.loads((tmp_path / "without" / "manifest.json").read_text())
        assert manifest["config_source"] == "defaults" and manifest["params"] == {}
        assert len((tmp_path / "without" / "heuristic.csv").read_text().splitlines()) == 1 + 50

    def test_help_exits_0_with_fresh_process_text(self, capsys):
        texts = []
        for _ in range(2):
            assert main(["--help"]) == 0
            texts.append(capsys.readouterr().out)
        assert self.fresh("--help") == (0, texts[0], "") and texts[0] == texts[1]

    def test_parser_built_once(self, monkeypatch):
        built = []
        real = argparse.ArgumentParser.__init__
        monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                            lambda *a, **k: built.append(1) or real(*a, **k))
        _build_parser.cache_clear()
        for argv in (["heuristic", "--N", "3", "--out", "a"], ["frobnicate"], ["--help"],
                     ["heuristic", "--N", "4", "--out", "b"]):
            main(argv)
        assert len(built) == 1


class TestReadmeOptionTable:
    """README's option table lists, row by row, each subcommand's option
    table in cli: the same options and the same defaults."""

    def readme_rows(self):
        rows = re.findall(r"^\| `([\w-]+)` \| `--([\w-]+)` \| ([^|]*?) \|",
                          (ROOT / "README.md").read_text(), re.M)
        return {(sub, flag.replace("-", "_")): default for sub, flag, default in rows}

    @staticmethod
    def default_text(default):
        """A default as README writes it; None for one derived from other options."""
        if default is REQUIRED:
            return "required"
        return "—" if default is None else None if callable(default) else str(default)

    def test_same_options_both_ways(self):
        table = {(sub, name) for sub, (_, opts) in _SUBCOMMANDS.items() for name in opts}
        readme = set(self.readme_rows())
        assert readme - table == set(), "README lists options the table lacks"
        assert table - readme == set(), "README omits options of the table"

    def test_same_defaults(self):
        rows = self.readme_rows()
        for sub, (_, opts) in _SUBCOMMANDS.items():
            for name, (default, _) in opts.items():
                want = self.default_text(default)
                if want is None:
                    assert rows[sub, name] not in ("required", "—", ""), (sub, name)
                else:
                    assert rows[sub, name] == want, (sub, name)

    @pytest.mark.parametrize("doc", ["README.md", ".github/workflows/tests.yml"])
    def test_documented_commands_read_only_table_options(self, doc):
        # a command followed by "||" is one CI expects to fail
        commands = re.findall(r"soficlab ([a-z0-9-]+)([^\n`]*)", (ROOT / doc).read_text())
        assert commands
        for sub, rest in commands:
            if sub in _SUBCOMMANDS and "||" not in rest:
                for flag in re.findall(r"--([\w-]+)", rest):
                    assert flag in ("out", "config") or flag.replace("-", "_") in \
                        _SUBCOMMANDS[sub][1], (sub, flag)


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestGoldenDigests:
    """sha256 of artifacts written before the tiling pipeline moved onto
    integer arrays (certificates) and before the reports went through one
    JSON encoder (reports); any change to construction order, tie-breaking
    or report layout shows here."""

    @pytest.mark.parametrize("argv, artifact, digest", [
        (("tile", "--n", "1000"), "tiling.json",
         "388352d80717bd71e2126a406571e75ca75152193069f1de8a4cc45cc1adfd58"),
        (("tile", "--n", "10007"), "tiling.json",
         "938601c0e68138f7100973f3cf5bddd2a3bf110fe20a34d947109685e9d19176"),
        (("conjugate", "--n", "1000", "--seed", "0"), "conjugator.json",
         "424bc9689f34189ac54bd6ef8e4fb7729990c55e93c7a9d5629cc821c8f74389"),
        (("sofic-check", "--m", "3", "--n", "101"), "sofic_report.json",
         "757815c65553cd09951c86198d6d3dd49b094cc2588cf9a8621a8caa4654dc71"),
        (("tile", "--n", "1000"), "tile_report.json",
         "cc50e47889b9bad736108e50b169a7b9b9fbe80fbae0dda420467ad793a29a44"),
        (("conjugate", "--n", "1000", "--seed", "0"), "conjugacy_report.json",
         "f6527e4792cf54f8eea1404141e75a8711668a69e928b0324600d67e1940d1d6"),
        (("search-f", "--n", "5", "--m", "2"), "search.json",
         "852741d3f5ac316c029ba57adba1e98e2fd8c525808fd037fefd9ca8bc3cac9a"),
        (("search-f", "--n", "16", "--m", "3", "--budget", "500"), "search.json",
         "4a59445095a3ebd4bd641f61463b89402cc8dc9de53323f0c84080e892d4cb67"),
        (("h3", "--n", "5", "--m", "2"), "h3.json",
         "82b12e51d8b08267678afaa1c7f5558a9455dabc1f39c5706ba26b29f8958f4c"),
        (("h3", "--n", "101", "--m", "2", "--seed", "3"), "h3.json",
         "7c6ab139b1769ca8bc1b9ddbfdb33d59878cdbd9b0af332629e41074f7da4c7f"),
        (("padic", "--m", "2", "--prime-powers", "3:2..3", "--tuples", "10"), "padic.json",
         "6dfe6c599d8b163a0691377dce2b1c3562e6840f8cf91bdade01a2373ae686fd"),
        # one finding: n = 5 has fix3 = 4 > 3n/4
        (("cycles", "--m", "2", "--prime-powers", "5:1..4", "--slack", "0"), "findings.json",
         "f287b53529c5ea7b8b270669716874294d21bf12602bd125f352dc9099d1c3e9"),
        (("cycles", "--m", "2", "--prime-powers", "5:1..4", "--slack", "0"), "cycles.csv",
         "d86c5d927dd301923deb6d36ed4d9b30c0e032d382a46099ae7ad201295cc37e"),
        (("heuristic", "--N", "20"), "heuristic.csv",
         "de50f00f9f5ef1630ee9ba9954b0bc616a4b2fb60d1380176b261a4a1467daa3"),
        # recorded from the full-recount annealer, before steps updated the
        # defect from the touched points only
        (("search-f", "--n", "1009", "--m", "7", "--budget", "20000", "--seed", "0"),
         "search.json",
         "24cf92cffc475b9473a066cafd6dafa8dda8f7fd9fe3e1238fedacec609d0b17"),
        # CI's two runs at and below SYM_EXHAUSTIVE_MAX: "3/7" and "5/8"
        # (appended last so the rows above keep their ids)
        (("h3", "--n", "7", "--m", "2"), "h3.json",
         "4b4f5d1e1a544df153b201754395e709d99bb57166d3865aa5836c9ecd8338e0"),
        (("h3", "--n", "8", "--m", "3"), "h3.json",
         "c3f7d9300a93c56e24885d01fa2fb437dcd5b46f325d6eefa6a966e7e8efffcb"),
    ])
    def test_artifact_digest(self, tmp_path, argv, artifact, digest):
        code, out = run(tmp_path, *argv)
        assert code == 0
        assert sha256(out / artifact) == digest

    def test_failing_report_digest(self, tmp_path):
        code, out = run(tmp_path, "sofic-check", "--m", "2", "--n", "7")
        assert code == 2
        assert sha256(out / "sofic_report.json") == (
            "52095675a1f99f87519710abec5c1dfee9fd628d30a6049e262723b31a49d5df")

    def test_verify_report_digest(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["tile", "--n", "1000", "--out", "t"]) == 0
        assert main(["verify", "--certificate", "t/tiling.json", "--out", "v"]) == 0
        assert sha256(tmp_path / "v" / "verify.json") == (
            "87088601761222029dd1a3596f315cf5f7e74bb71ea7ccb0e17a98217950e8fd")

    def test_failing_verify_report_digest(self, tmp_path, monkeypatch):
        """A tile --n 1000 certificate with the top level's centers emptied
        fails its measures; the bytes pin verify.json's key order too."""
        monkeypatch.chdir(tmp_path)
        assert main(["tile", "--n", "1000", "--out", "t"]) == 0
        data = json.loads(Path("t/tiling.json").read_text())
        data["levels"][-1]["centers"] = []
        Path("t/top_empty.json").write_text(json.dumps(data))
        assert main(["verify", "--certificate", "t/top_empty.json", "--out", "v"]) == 2
        assert sha256(tmp_path / "v" / "verify.json") == (
            "c709045a7062377ae5236b36048556431f1f614e5e0d4cd64afec500701fb36a")

    @pytest.mark.parametrize("argv, digest", [
        (("heuristic", "--N", "6", "--eps", "1/5"),
         "21c43e7f8f4ce6e683d1d18380a7f397809bf51f038cef1bb8cf53b76594402e"),
        (("tile", "--n", "1000", "--kappa", "1/8"),
         "70b28cc8f37dec0f5b1ada762caa5fd41d146be2e221cc0cd986989b1cd0651b"),
        (("sofic-check", "--m", "3", "--n", "101", "--delta", "1/10"),
         "83bb56f0045553649171c23bb2dd0a81b579f4511b9f7a58281fc369a2e7183f"),
    ])
    def test_manifest_content_hash(self, tmp_path, argv, digest):
        code, out = run(tmp_path, *argv)
        assert code == 0
        assert json.loads((out / "manifest.json").read_text())["content_hash"] == digest
