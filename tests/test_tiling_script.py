"""scripts/run_tiling_experiments.py exits 2 when a certificate fails."""

import dataclasses
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
