import json

import pytest

from soficlab.cli import interval_shapes, load_config, main


def run(tmp_path, *argv):
    out = tmp_path / "out"
    return main(list(argv) + ["--out", str(out)]), out


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

    def test_no_moduli(self, tmp_path):
        code, _ = run(tmp_path, "cycles", "--m", "2")
        assert code == 1


class TestSoficCheck:
    def test_arithmetic_model_passes(self, tmp_path):
        code, out = run(tmp_path, "sofic-check", "--m", "3", "--n", "101")
        assert code == 0
        report = json.loads((out / "sofic_report.json").read_text())
        assert report["passed"] and report["max_defect"][0] == 0


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

    def test_eps_above_quarter(self, tmp_path):
        code, _ = run(tmp_path, "tile", "--n", "1000", "--eps", "3/10")
        assert code == 1

    def test_interval_shapes_monotone(self):
        shapes = interval_shapes(8, 3)
        sizes = [len(s) for s in shapes]
        assert sizes == sorted(sizes) and sizes[0] >= 2 and sizes[-1] <= 32


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

    def test_padic(self, tmp_path):
        code, out = run(tmp_path, "padic", "--m", "2",
                        "--prime-powers", "3:2..3", "--tuples", "10")
        assert code == 0
        data = json.loads((out / "padic.json").read_text())
        assert [row["r"] for row in data] == [2, 3]
        assert all(row["cross_checked"] for row in data)

    def test_padic_needs_prime_powers(self, tmp_path):
        code, _ = run(tmp_path, "padic", "--m", "2")
        assert code == 1


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
