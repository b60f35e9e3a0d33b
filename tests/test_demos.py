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


def optimizer_demo(algorithm, capsys, monkeypatch):
    """Output lines of the optimizer demo on two recordings, one grid, and
    the line after its table header: the winner."""
    path = str(DEMOS / "optimize_parameters.py")
    monkeypatch.setattr(sys, "argv", [path, "--algorithm", algorithm, "--recordings", "2"])
    runpy.run_path(path, run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    top = next(i for i, line in enumerate(lines) if line.endswith("top of the table:"))
    return lines, lines[top + 1]


def test_optimizer_demo_completes(capsys, monkeypatch):
    lines, winner = optimizer_demo("at", capsys, monkeypatch)
    # the search's winner is 20 uV, not the shipped 30 uV
    assert winner.endswith("{'at_threshold_uv': 20.0}")
    assert ("  shipped default: {'at_threshold_uv': 30.0}, rank 2 of 6, "
            "ed_error 0.8147, 0.0532 above the winner") in lines


def test_optimizer_demo_ranks_the_shipped_pll(capsys, monkeypatch):
    lines, winner = optimizer_demo("pll", capsys, monkeypatch)
    # the search's winner is (255 deg, 0.01), not the shipped (195 deg, 4e-4)
    assert winner.endswith("{'phi_target_deg': 255.0, 'k_pll': 0.01}")
    assert ("  shipped default: {'phi_target_deg': 195.0, 'k_pll': 0.0004}, rank 17 of 120, "
            "ed_error 0.7905, 0.0745 above the winner") in lines
