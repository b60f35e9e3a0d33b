"""The batch kernels and the shared crossing scan against the step() path.

``run`` is a kernel (``phase_stream``, or the AT isolation filter) plus one
vectorised scan. These tests hold it equal to a ``step`` loop, counters
included, over uneven chunks, kernel block boundaries and PLL reset
samples, and the streaming session, fed in blocks of the same size, equal
to the batch session across those boundaries; they hold the optimizer's
phase streams equal to streams built with ``step``; and they hold every
entry point's refusal of a non-finite sample.
"""
import copy
import math
import pickle

import numpy as np
import pytest

import swphase.pipeline as pipeline
import swphase.trackers as trackers
from swphase import EegRecording, GateConfig, SynthSpec, generate
from swphase.dsp import IirFilter, design_sw_isolation
from swphase.errors import StreamIntegrityError, UndefinedStatisticError
from swphase.pipeline import evaluate_session, run_session, tracker_phase_stream
from swphase.trackers import (TrackerConfig, forward_arcs, make_tracker,
                              phase_hits)

from conftest import FS, phase_crossed

CONFIGS = {
    "at": TrackerConfig(algorithm="at"),
    "pll": TrackerConfig(algorithm="pll"),
    "pv": TrackerConfig(algorithm="pv"),
}


def signal(n, seed=5):
    rng = np.random.default_rng(seed)
    t = np.arange(n) / FS
    return (60.0 * np.sin(2 * np.pi * 1.1 * t) + 25.0 * rng.standard_normal(n)
            + 20.0 * np.sin(2 * np.pi * 0.3 * t))


def step_loop(tracker, x):
    events, estimates = [], []
    for v in np.asarray(x, dtype=float).tolist():
        out = tracker.step(v)
        if isinstance(out, tuple):
            estimates.append(out[0])
            out = out[-1]
        if out is not None:
            events.append(out)
    return events, np.asarray(estimates)


def counters(tracker):
    return {name: getattr(tracker, name) for name in
            ("slip_count", "hold_count", "reset_count", "_n", "_last_trigger")
            if hasattr(tracker, name)}


def chunked(tracker, x, bounds):
    events = []
    for a, b in zip([0] + bounds, bounds + [len(x)]):
        events += tracker.run(x[a:b])
    return events


@pytest.mark.parametrize("refractory_s", [0.25, 2.0])
@pytest.mark.parametrize("name", CONFIGS)
def test_uneven_chunks_equal_one_run_and_step_loop(monkeypatch, name, refractory_s):
    # at 2 s the refractory interval spans about two input cycles, so
    # crossings fall inside it on both sides of the chunk boundary
    monkeypatch.setattr(trackers, "REFRACTORY_S", refractory_s)
    cfg = CONFIGS[name]
    x = signal(12000)
    whole_tracker = make_tracker(cfg)
    whole = whole_tracker.run(x)
    stepped_tracker = make_tracker(cfg)
    stepped, _ = step_loop(stepped_tracker, x)
    assert len(whole) > 5
    assert whole == stepped
    assert counters(whole_tracker) == counters(stepped_tracker)

    # a chunk boundary half a refractory interval after a trigger
    refr = whole_tracker._refr
    inside = whole[len(whole) // 2].sample_index + refr // 2
    bounds = sorted({1, 8, 8 + 4096, inside, inside + 7})
    chunk_tracker = make_tracker(cfg)
    assert chunked(chunk_tracker, x, bounds) == whole
    assert counters(chunk_tracker) == counters(whole_tracker)


def test_at_chunk_starting_above_threshold():
    # a chunk that opens above the level must not fire: the carried
    # previous value, not 0, decides the first sample's crossing
    cfg = TrackerConfig(algorithm="at")
    x = signal(12000)
    v = IirFilter(design_sw_isolation(FS)).run(x)
    whole = make_tracker(cfg).run(x)
    fired = np.asarray([e.sample_index for e in whole])
    thr = cfg.at_threshold_uv
    above = np.flatnonzero((v[:-1] >= thr) & (v[1:] >= thr)) + 1
    refr = make_tracker(cfg)._refr
    cut = next(int(i) for i in above if np.all(np.abs(i - fired) >= refr))
    chunks = make_tracker(cfg)
    assert chunks.run(x[:cut]) + chunks.run(x[cut:]) == whole


# every window passes every condition
OPEN_GATE = GateConfig(nrem_low_threshold_uv2=1e-9, nrem_mid_threshold_uv2=1e-9,
                       nrem_beta_threshold_uv2=1e9, swa_threshold_uv2=1e-9,
                       beta_threshold_uv2=1e9, onoff_enabled=True)


@pytest.mark.parametrize("name", CONFIGS)
def test_kernel_block_boundaries(monkeypatch, name):
    monkeypatch.setattr(trackers, "BLOCK_SAMPLES", 257)
    cfg = CONFIGS[name]
    spikes = signal(5000, seed=9)
    # spikes in the first block, just past the boundary at 514, on the one
    # at 1285 and on the last sample
    spikes[[3, 518, 519, 1285, 4999]] = 400.0
    for x in (signal(5000, seed=9), spikes):
        blocked = make_tracker(cfg)
        stepped = make_tracker(cfg)
        assert blocked.run(x) == step_loop(stepped, x)[0]
        assert counters(blocked) == counters(stepped)
    # the streaming session is fed in blocks too, and 257 does not divide
    # the 1,000-sample gate window; past the 80 s cold start the open gate
    # delivers and the ON-OFF protocol suppresses
    x = signal(25000, seed=9)
    x[[518, 1285, 24999]] = 400.0
    rec = EegRecording(samples=x, fs=FS)
    streamed = run_session(rec, cfg, OPEN_GATE, streaming=True)
    batch = run_session(rec, cfg, OPEN_GATE)
    assert streamed.log == batch.log
    assert streamed.window_flags == batch.window_flags
    assert streamed.slip_count == batch.slip_count
    assert all(streamed.suppression_counts()[r] for r in ("nrem", "onoff"))
    assert streamed.delivered()


def test_events_carry_python_numbers():
    for cfg in CONFIGS.values():
        for e in make_tracker(cfg).run(signal(3000)):
            assert type(e.sample_index) is int
            assert type(e.time_s) is float
            assert type(e.amplitude_uv) is float
            assert e.tracker_phase_deg is None or type(e.tracker_phase_deg) is float


# a loop gain at which k_pll * x overflows on a huge sample: the PLL's reset
# is reached from finite input
OVERFLOW_PLL = TrackerConfig(algorithm="pll", k_pll=1e300)
HUGE_UV = 1e20


def test_pll_reset_samples_match_step_loop(monkeypatch):
    monkeypatch.setattr(trackers, "BLOCK_SAMPLES", 4096)
    x = signal(20000, seed=3)
    # resets first, last, adjacent, on both sides of a block boundary and
    # spread over the stream, from samples of both signs
    bad = np.array([0, 1, 2, 3001, 4095, 4096, 7777, 12000, 15555, 19999])
    x[bad] = HUGE_UV * np.where(bad % 2, 1.0, -1.0)
    stepped_tracker = make_tracker(OVERFLOW_PLL)
    stepped, est = step_loop(stepped_tracker, x)
    batch_tracker = make_tracker(OVERFLOW_PLL)
    assert batch_tracker.run(x) == stepped
    assert counters(batch_tracker) == counters(stepped_tracker)
    assert stepped_tracker.reset_count == len(bad)
    assert (est[bad] == 0.0).all()


@pytest.mark.parametrize("name", CONFIGS)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_sample_is_refused_and_leaves_the_state(monkeypatch, name, bad):
    # the bad sample lies in the input's second kernel block, so a tracker
    # that refused it block by block would already have moved
    monkeypatch.setattr(trackers, "BLOCK_SAMPLES", 257)
    tracker = make_tracker(CONFIGS[name])
    tracker.run(signal(1000))
    x = signal(600, seed=2)
    x[400] = bad
    before = pickle.dumps(tracker)
    kernel = tracker.band if name == "at" else tracker.phase_stream
    for call in (tracker.run, kernel, lambda x: tracker.step(x[400])):
        with pytest.raises(StreamIntegrityError, match="non-finite sample"):
            call(x)
        assert pickle.dumps(tracker) == before


def test_scan_equals_scalar_crossing_test():
    rng = np.random.default_rng(1)
    stream = np.concatenate([np.mod(np.cumsum(rng.uniform(0.0, 40.0, 3000)), 360.0),
                             rng.uniform(0.0, 360.0, 500),
                             [0.0, 359.99999999999994, 0.0, 180.0, 0.0,
                              0.0, 45.0, 45.0, 200.0]])
    for prev in (0.0, 123.4, 359.5):
        arcs, slips = forward_arcs(stream, prev)
        p = [prev] + stream[:-1].tolist()
        arc_list = [math.fmod(c - q, 360.0) % 360.0 for q, c in zip(p, stream)]
        assert slips == sum(a >= 180.0 for a in arc_list)
        for target in (0.0, 45.0, 195.0, 359.0):
            expect = [i for i, (q, c) in enumerate(zip(p, stream.tolist()))
                      if phase_crossed(q, c, target)]
            assert phase_hits(stream, arcs, target, prev).tolist() == expect


@pytest.mark.parametrize("algo", ["pll", "pv"])
def test_phase_stream_equals_step_built_stream(monkeypatch, algo):
    x = signal(9000, seed=4)
    cfg = TrackerConfig(algorithm=algo)
    ref = make_tracker(cfg)
    _, expected = step_loop(ref, x)

    made = []
    cls = getattr(pipeline, type(ref).__name__)

    def build(config):
        made.append(cls(config))
        return made[-1]
    monkeypatch.setattr(pipeline, type(ref).__name__, build)
    stream = tracker_phase_stream(x, cfg)
    assert stream.tobytes() == expected.tobytes()
    (tracker,) = made
    for name in ("slip_count", "hold_count", "reset_count"):
        assert getattr(tracker, name, None) == getattr(ref, name, None)


@pytest.fixture(scope="module")
def deep_sleep():
    return generate(SynthSpec(hypnogram=["N2"] * 12 + ["N3"] * 24, seed=4)).recording


class TestEvaluateStatistics:
    def test_undefined_mean_is_reported(self, deep_sleep, monkeypatch):
        session = run_session(deep_sleep, TrackerConfig(algorithm="pv"))

        def undefined(_phases):
            raise UndefinedStatisticError("zero resultant")
        monkeypatch.setattr(pipeline, "circular_mean_sd", undefined)
        report = evaluate_session(deep_sleep, session)
        assert report.circular_mean_deg is None

    def test_other_errors_propagate(self, deep_sleep, monkeypatch):
        session = run_session(deep_sleep, TrackerConfig(algorithm="pv"))

        def broken(_phases):
            raise ValueError("not a statistics problem")
        monkeypatch.setattr(pipeline, "circular_mean_sd", broken)
        with pytest.raises(ValueError):
            evaluate_session(deep_sleep, session)


STATE = {"pll": ("theta", "phi_p"), "pv": ("theta", "omega", "phi_e")}


@pytest.mark.parametrize("name", STATE)
def test_state_after_run_equals_step_loop(name):
    # uneven chunks, with spikes inside chunks
    cfg = CONFIGS[name]
    x = signal(9000, seed=6)
    x[[1234, 5000]] = 400.0
    bounds = [1, 333, 4100, 4101, 7777]
    ran = make_tracker(cfg)
    chunked(ran, x, bounds)
    stepped = make_tracker(cfg)
    step_loop(stepped, x)
    for attr in STATE[name]:
        assert getattr(ran, attr) == getattr(stepped, attr), attr
    assert counters(ran) == counters(stepped)
    if name == "pll":
        # theta is the free-run phase plus the correction accumulated in phi_p
        free_run = len(x) * trackers.TAU * trackers.NCO_CENTER_HZ / FS
        drift = (ran.theta - free_run - ran.phi_p) % trackers.TAU
        assert min(drift, trackers.TAU - drift) < 1e-9

    nxt = signal(400, seed=8)
    assert (copy.deepcopy(ran).phase_stream(nxt[:1]).tobytes()
            == copy.deepcopy(stepped).phase_stream(nxt[:1]).tobytes())
    outs = [(ran.step(v), stepped.step(v)) for v in nxt.tolist()]
    assert all(a == b for a, b in outs)
    assert any(a[-1] is not None for a, _ in outs)
    for attr in STATE[name]:
        assert getattr(ran, attr) == getattr(stepped, attr), attr
