"""Smoke runs of the shipped demos (all but the long optimizer demo)."""
import runpy
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
