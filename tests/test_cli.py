import hashlib
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

    def test_no_moduli(self, tmp_path):
        code, _ = run(tmp_path, "cycles", "--m", "2")
        assert code == 1

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

    @pytest.mark.parametrize("flag", ["--n", "--N"])
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
        assert not any(out.iterdir())

    @pytest.mark.parametrize("argv", [
        ("search-f", "--n", "11", "--m", "7", "--budget=-3"),
        ("padic", "--m", "2", "--prime-powers", "3:2..3", "--tuples=-1"),
    ])
    def test_negative_count_is_usage_error(self, tmp_path, capsys, argv):
        # "--budget=-3": argparse would read a separate "-3" as a flag
        code, out = run(tmp_path, *argv)
        assert code == 1
        assert "must be >= 0" in capsys.readouterr().err
        assert not any(out.iterdir())


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
