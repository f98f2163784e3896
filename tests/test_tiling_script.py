"""scripts/run_tiling_experiments.py exits 2 when a certificate fails or
cannot be built, 1 on a bad --eps, and writes the reference certificate."""

import dataclasses
import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_tiling_experiments.py"


def load_script():
    spec = importlib.util.spec_from_file_location("run_tiling_experiments", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("failing_call", [0, 1], ids=["z_model", "amplified"])
def test_failed_certificate_exits_2(monkeypatch, failing_call):
    script = load_script()
    real = script.verify_tiling
    calls = []

    def verify_failing_once(tiling):
        report = real(tiling)
        calls.append(report.passed)
        if len(calls) - 1 == failing_call:
            return dataclasses.replace(report, passed=False)
        return report

    monkeypatch.setattr(script, "verify_tiling", verify_failing_once)
    monkeypatch.setattr(sys, "argv", [str(SCRIPT)])
    assert script.main() == 2
    assert calls == [True, True]


def test_construction_failure_exits_2(monkeypatch, capsys):
    script = load_script()
    monkeypatch.setattr(sys, "argv", [str(SCRIPT), "--eps", "1/16"])
    assert script.main() == 2
    err = capsys.readouterr().err
    assert err.startswith("failed: ") and "no available centers" in err


@pytest.mark.parametrize("eps", ["1/2", "0", "abc"])
def test_bad_eps_exits_1(monkeypatch, capsys, eps):
    script = load_script()
    monkeypatch.setattr(sys, "argv", [str(SCRIPT), "--eps", eps])
    assert script.main() == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""


# amplify() leaves point 9999 on an identity tail, which is not free, so the
# amplified certificate has |B| = 9999 of 10 000 and its offered centers have
# a gap; the models `soficlab tile` builds have every point in B.
AMPLIFIED_SHA256 = "6b2fa624bde28a31c1bf6d40842fd2f931f01709e0453077d8c8cdc30b0cab0c"


def test_amplified_certificate_digest(monkeypatch, tmp_path):
    script = load_script()
    out = tmp_path / "amplified.json"
    monkeypatch.setattr(sys, "argv", [str(SCRIPT), "--out", str(out)])
    assert script.main() == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == AMPLIFIED_SHA256
