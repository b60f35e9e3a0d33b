"""The parity claims as properties over drawn configurations.

Cascade step == run: for any cascade of stable first- and second-order
sections, input and chunking, a ``step`` loop, a chunked ``run`` and one
``run`` give the same output bits and leave every section in the same
state.

Chunking invariance: for any tracker, sampling rate, moving-average span,
chunking and placement of non-finite samples, ``run``
over the chunks gives the events of one ``run`` over the whole stream and
of a ``step`` loop, and leaves the same state behind: the health counters
(slip, vocoder hold and PLL reset counts) and everything else the next
sample would read. No event lies on a non-finite sample. The trackers are
fed directly, because ``PreprocessChain`` refuses non-finite samples.

Streaming == batch: for any tracker, sampling rate, gate thresholds and
ON/OFF protocol, ``run_session`` per sample and in batch
log the same candidates with the same gate decisions, and agree in the
window flags and the slip count.

Optimizer == pipeline: for any tracker, target, loop dynamics, gate thresholds and ON/OFF protocol, the search's cached
evaluator tallies a night as the pipeline does: ``run_session``, its
delivered triggers, and the oracle's phases and qualifying windows.
"""
import functools
import math
from itertools import accumulate

import numpy as np
import pytest

from swphase.dsp import IirFilter, PreprocessChain, check_fs
from swphase.errors import ConfigurationError
from swphase.gate import GateConfig, window_powers
from swphase.optimize import make_pipeline_evaluator, tally_from_phases
from swphase.oracle import compute_phase_track
from swphase.pipeline import qualifying_windows, run_session
from swphase.recording import EegRecording
from swphase.synth import SynthSpec, generate
from swphase.trackers import ALGORITHMS, TrackerConfig, make_tracker

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


def chunk_bounds(draw, n):
    """Chunk bounds for an n-sample stream: chunks of any length, down to
    empty and single samples, at the start and at the end of the stream."""
    sizes = draw(st.lists(st.one_of(st.integers(0, 3), st.integers(0, n)), max_size=8))
    tail = draw(st.integers(0, 3))
    return sorted({min(b, n) for b in accumulate(sizes)} | {max(n - tail, 0)})


def chunks(x, bounds):
    return [x[a:b] for a, b in zip([0] + bounds, bounds + [len(x)])]


@st.composite
def stable_sections(draw):
    """A (b, a) section of order 1 or 2, its poles within |z| <= 0.95, its
    a[0] not always 1."""
    order = draw(st.integers(1, 2))
    radius = st.floats(-0.95, 0.95)
    if order == 1:
        a = [1.0, -draw(radius)]
    elif draw(st.booleans()):   # a complex pair r exp(+-i theta)
        r, theta = abs(draw(radius)), draw(st.floats(0.0, math.pi))
        a = [1.0, -2.0 * r * math.cos(theta), r * r]
    else:                       # two real poles
        p, q = draw(radius), draw(radius)
        a = [1.0, -(p + q), p * q]
    b = draw(st.lists(st.floats(-2.0, 2.0), min_size=order + 1, max_size=order + 1))
    a0 = draw(st.floats(0.5, 2.0))
    return [v * a0 for v in b], [v * a0 for v in a]


@st.composite
def chunked_cascades(draw):
    sections = draw(st.lists(stable_sections(), min_size=1, max_size=3))
    x = np.array(draw(st.lists(st.floats(-1e3, 1e3), max_size=300)), dtype=float)
    return sections, x, chunk_bounds(draw, len(x))


def cascade_state(f):
    return np.array([z for _, z in f._steps]).tobytes()


@settings(derandomize=True, max_examples=200, deadline=None)
@given(chunked_cascades())
def test_cascade_step_loop_chunked_run_and_one_run_agree_bitwise(case):
    sections, x, bounds = case
    whole = IirFilter(*sections)
    want = whole.run(x)
    chunked = IirFilter(*sections)
    got = np.concatenate([chunked.run(c) for c in chunks(x, bounds)])
    stepped = IirFilter(*sections)
    looped = np.array([stepped.step(v) for v in x.tolist()], dtype=float)
    for out, f in ((got, chunked), (looped, stepped)):
        assert out.tobytes() == want.tobytes()
        assert cascade_state(f) == cascade_state(whole)


@st.composite
def chunked_streams(draw):
    cfg = TrackerConfig(
        algorithm=draw(st.sampled_from(ALGORITHMS)),
        sample_rate_hz=draw(st.floats(100.0, 600.0, exclude_min=True)),
        maf_span=draw(st.integers(1, 400)))
    n = draw(st.integers(0, 2500))
    t = np.arange(n) / cfg.sample_rate_hz
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    x = (draw(st.floats(20.0, 120.0)) * np.sin(2 * math.pi * draw(st.floats(0.5, 2.0)) * t)
         + 15.0 * rng.standard_normal(n))
    bounds = chunk_bounds(draw, n)
    # non-finite samples anywhere, and on either side of a chunk boundary
    edges = sorted({i for b in bounds for i in (b - 1, b) if 0 <= i < n})
    if n:
        anywhere = st.integers(0, n - 1)
        where = st.one_of(anywhere, st.sampled_from(edges)) if edges else anywhere
        for i in draw(st.lists(where, max_size=6)):
            x[i] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    return cfg, x, bounds


def events_and_state(tracker, events):
    """The events, and everything the tracker carries into its next sample:
    counters, phase, moving averages and the AT's filter memory."""
    state = dict(vars(tracker))
    if "_iso" in state:
        state["_iso"] = [list(z) for _, z in tracker._iso._steps]
    return events, state


@settings(derandomize=True, max_examples=200, deadline=None)
@given(chunked_streams())
def test_chunked_run_equals_one_run_and_step_loop(case):
    cfg, x, bounds = case
    whole = make_tracker(cfg)
    expected = events_and_state(whole, whole.run(x))
    assert np.isfinite(x[[e.sample_index for e in expected[0]]]).all()

    chunked = make_tracker(cfg)
    events = []
    for c in chunks(x, bounds):
        events += chunked.run(c)
    assert events_and_state(chunked, events) == expected

    stepped = make_tracker(cfg)
    events = []
    for v in x.tolist():
        out = stepped.step(v)
        ev = out[-1] if isinstance(out, tuple) else out
        if ev is not None:
            events.append(ev)
    assert events_and_state(stepped, events) == expected


def accepted(check, *args):
    try:
        check(*args)
    except ConfigurationError:
        return False
    return True


@st.composite
def gated_sessions(draw):
    fs = draw(st.floats(100.0, 400.0, exclude_min=True)
              .filter(lambda fs: accepted(check_fs, fs)))
    cfg = TrackerConfig(
        algorithm=draw(st.sampled_from(ALGORITHMS)),
        sample_rate_hz=fs,
        maf_span=draw(st.integers(1, 200)))
    n = (int((GateConfig.history_windows + draw(st.integers(1, 3)))
             * GateConfig.window_step_s * fs)
         + draw(st.integers(0, 50)))
    t = np.arange(n) / fs
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    x = (draw(st.floats(20.0, 120.0)) * np.sin(2 * math.pi * draw(st.floats(0.5, 2.0)) * t)
         + draw(st.floats(1.0, 20.0)) * rng.standard_normal(n))
    # thresholds drawn around the signal's own median window powers, so
    # that windows pass and fail each condition
    powers = window_powers(PreprocessChain(fs).run(x), fs, GateConfig.window_samples(fs))
    low, mid, high_beta, swa, beta = np.maximum(np.median(powers, axis=0), 1e-3)
    above, below = st.floats(0.05, 1.0), st.floats(1.0, 8.0)
    gate = GateConfig(
        nrem_low_threshold_uv2=low * draw(above),
        nrem_mid_threshold_uv2=mid * draw(above),
        nrem_beta_threshold_uv2=high_beta * draw(below),
        swa_threshold_uv2=swa * draw(above),
        beta_threshold_uv2=beta * draw(below),
        onoff_enabled=draw(st.booleans()))
    return EegRecording(samples=x, fs=fs), cfg, gate


@settings(derandomize=True, max_examples=60, deadline=None)
@given(gated_sessions())
def test_streaming_session_equals_batch(case):
    recording, cfg, gate = case
    batch = run_session(recording, cfg, gate)
    streamed = run_session(recording, cfg, gate, streaming=True)
    assert streamed.log == batch.log
    assert streamed.window_flags == batch.window_flags
    assert streamed.slip_count == batch.slip_count
    assert streamed.suppression_counts() == batch.suppression_counts()


@functools.cache
def short_night():
    """A 760 s night, mostly NREM: the recording, its oracle track and its
    median gate-window powers."""
    spec = SynthSpec(hypnogram=["W"] * 2 + ["N2"] * 12 + ["N3"] * 24, seed=4)
    rec = generate(spec).recording
    powers = window_powers(PreprocessChain(rec.fs).run(rec.samples), rec.fs,
                           GateConfig().window_samples(rec.fs))
    return rec, compute_phase_track(rec.samples, rec.fs), np.median(powers, axis=0)


@st.composite
def searched_combos(draw):
    algorithm = draw(st.sampled_from(ALGORITHMS))
    combo = {}
    if algorithm == "at":
        combo["at_threshold_uv"] = draw(st.floats(5.0, 80.0))
    else:
        combo["phi_target_deg"] = draw(st.floats(0.0, 360.0, exclude_max=True))
    if algorithm == "pll":
        combo["k_pll"] = draw(st.floats(1e-5, 1e-2))
    if algorithm == "pv":
        combo.update(k_pv=draw(st.floats(0.5, 4.0)), maf_span=draw(st.integers(1, 60)))
    # thresholds drawn around the night's median window powers
    low, mid, high_beta, swa, beta = short_night()[2]
    above, below = st.floats(0.05, 1.0), st.floats(1.0, 8.0)
    gate = GateConfig(
        nrem_low_threshold_uv2=low * draw(above),
        nrem_mid_threshold_uv2=mid * draw(above),
        nrem_beta_threshold_uv2=high_beta * draw(below),
        swa_threshold_uv2=swa * draw(above),
        beta_threshold_uv2=beta * draw(below),
        onoff_enabled=draw(st.booleans()))
    return algorithm, combo, gate


@settings(derandomize=True, max_examples=7, deadline=None)
@given(searched_combos())
def test_optimizer_tally_equals_the_pipelines(case):
    algorithm, combo, gate = case
    rec, track, _ = short_night()
    fast = make_pipeline_evaluator([rec], algorithm, gate)(combo, rec)
    cfg = TrackerConfig(algorithm=algorithm, sample_rate_hz=rec.fs, **combo)
    session = run_session(rec, cfg, gate)
    q_count, _, qual = qualifying_windows(rec, session.window_flags, gate, track.valid)
    idx = np.asarray([e.sample_index for e in session.delivered()], dtype=int)
    valid = idx[track.valid[idx]]
    win = int(round(2.0 * rec.fs))
    inw = [w < len(qual) and bool(qual[w]) for w in valid // win]
    assert fast == tally_from_phases(track.phase_deg[valid], inw, q_count)
