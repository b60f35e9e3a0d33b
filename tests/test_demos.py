"""Smoke runs of the shipped demos; the optimizer demo on its smallest grid."""
import runpy
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name, expect", [
    ("quickstart", "low-cap"),
    ("protocol_gating", "protocol check"),
    ("oracle_sensitivity", "<- shipped"),
])
def test_demo_completes(name, expect, capsys):
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    assert expect in capsys.readouterr().out


def test_optimizer_demo_completes(capsys, monkeypatch):
    path = str(DEMOS / "optimize_parameters.py")
    monkeypatch.setattr(sys, "argv", [path, "--algorithm", "at", "--recordings", "2"])
    runpy.run_path(path, run_name="__main__")
    assert "shipped default" in capsys.readouterr().out
