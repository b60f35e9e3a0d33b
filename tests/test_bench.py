"""Per-sample cost measurement: report shape, guards, static op counts."""
import ast
import inspect
import textwrap
from collections import Counter

import pytest

from swphase import trackers
from swphase.bench import (
    MAX_REPS,
    OP_COUNTS,
    check_timer,
    measure_pipeline_cost,
)
from swphase.errors import ConfigurationError

from conftest import sinusoid


def test_timer_is_fine_grained_here():
    assert check_timer() < 1e-6


@pytest.mark.parametrize("kw", [
    {"reps": 2},
    {"fs": 20000.5},
    {"reps": MAX_REPS + 1},
    {"fs": 100.0},
    {"fs": float("inf")},
    {"fs": float("nan")},
])
def test_measurement_guards(kw):
    with pytest.raises(ConfigurationError):
        measure_pipeline_cost(**kw)


@pytest.fixture(scope="module")
def report():
    return measure_pipeline_cost(reps=3)


def test_report_shape(report):
    r = report
    assert set(r.stage_ns) == {"preprocess", "gate", "at", "pll", "pv",
                               "pv@125", "pv@500"}
    assert all(ns >= 0.0 for ns in r.stage_ns.values())
    assert r.sample_period_ns == pytest.approx(4e6)   # 250 Hz
    for algo in ("at", "pll", "pv"):
        stages = r.stages(algo)
        assert list(stages) == ["preprocess", "tracker", "gate"]
        assert stages["tracker"] == r.stage_ns[algo]
        assert r.total_ns(algo) == pytest.approx(sum(stages.values()))
        assert r.rcr(algo) == pytest.approx(r.total_ns(algo) / 4e6)
        assert r.efficiency_pct(algo) == pytest.approx(100.0 * (1.0 - r.rcr(algo)))
    assert r.pv_pll_ratio == pytest.approx(r.stage_ns["pv"] / r.stage_ns["pll"])
    assert r.pv_ns_vs_fs == {125.0: r.stage_ns["pv@125"], 250.0: r.stage_ns["pv"],
                             500.0: r.stage_ns["pv@500"]}


def test_real_time_headroom(report):
    # the whole point: a 4 ms sample period dwarfs per-sample cost
    assert report.rcr("pv") < 0.5
    assert report.efficiency_pct("pv") > 50.0


def test_op_counts_are_static_and_complete():
    kinds = {"mul", "add", "trig", "atan2", "fmod", "cmp"}
    assert set(OP_COUNTS) == {"preprocess", "at", "pll", "pv"}
    for counts in OP_COUNTS.values():
        assert set(counts) == kinds
        assert all(isinstance(v, int) and v >= 0 for v in counts.values())
    # the vocoder arithmetic strictly outweighs the PLL's
    assert sum(OP_COUNTS["pv"].values()) > sum(OP_COUNTS["pll"].values())
    assert OP_COUNTS["pv"]["atan2"] >= 1 and OP_COUNTS["pll"]["atan2"] == 0


def _mod_count(fn) -> int:
    tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    return sum(isinstance(node, ast.Mod) for node in ast.walk(tree))


@pytest.mark.parametrize("algorithm", ["pll", "pv"])
def test_op_counts_follow_the_step_code(algorithm, monkeypatch):
    """trig, atan2 and fmod counts of one step outside a hold, taken from the
    code: calls through the trackers module's math names, plus every `%` in
    the recurrence and the crossing test (all of them run on such a step)."""
    tracker = trackers.make_tracker(trackers.TrackerConfig(algorithm=algorithm))
    for x in sinusoid(1.0, 50.0, 2.0):
        tracker.step(float(x))
    calls = Counter()
    for name in ("sin", "cos", "atan2", "fmod"):
        fn = getattr(trackers, name)
        monkeypatch.setattr(trackers, name,
                            lambda *a, _fn=fn, _name=name: calls.update([_name]) or _fn(*a))
    holds = getattr(tracker, "hold_count", 0)
    tracker.step(10.0)
    assert getattr(tracker, "hold_count", 0) == holds
    mods = _mod_count(type(tracker)._advance) + _mod_count(trackers._PhaseTracker.step)
    counts = OP_COUNTS[algorithm]
    assert calls["sin"] + calls["cos"] == counts["trig"]
    assert calls["atan2"] == counts["atan2"]
    assert calls["fmod"] + mods == counts["fmod"]


def test_tracker_ratio_in_expected_band():
    ratio = measure_pipeline_cost(reps=5).pv_pll_ratio
    assert 1.0 < ratio < 6.0
