"""The parity claims as properties over drawn configurations.

Chunking invariance: for any tracker, sampling rate, moving-average span,
refractory interval, chunking and placement of non-finite samples, ``run``
over the chunks gives the events of one ``run`` over the whole stream and
of a ``step`` loop, and leaves the same state behind: the health counters
(slip, vocoder hold and PLL reset counts) and everything else the next
sample would read. No event lies on a non-finite sample. The trackers are
fed directly, because ``PreprocessChain`` refuses non-finite samples.

Streaming == batch: for any tracker, sampling rate, gate window, history,
thresholds and ON/OFF protocol, ``run_session`` per sample and in batch
log the same candidates with the same gate decisions, and agree in the
window flags and the slip count.
"""
import math
from itertools import accumulate

import numpy as np
import pytest

from swphase.dsp import PreprocessChain, check_fs
from swphase.errors import ConfigurationError
from swphase.gate import GateConfig, window_powers
from swphase.pipeline import run_session
from swphase.recording import EegRecording
from swphase.trackers import ALGORITHMS, TrackerConfig, make_tracker

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


@st.composite
def chunked_streams(draw):
    cfg = TrackerConfig(
        algorithm=draw(st.sampled_from(ALGORITHMS)),
        sample_rate_hz=draw(st.floats(100.0, 600.0, exclude_min=True)),
        maf_span=draw(st.integers(1, 400)),
        refractory_s=draw(st.floats(0.01, 2.0)),
        pv_trigger_on_nco=draw(st.booleans()))
    n = draw(st.integers(0, 2500))
    t = np.arange(n) / cfg.sample_rate_hz
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    x = (draw(st.floats(20.0, 120.0)) * np.sin(2 * math.pi * draw(st.floats(0.5, 2.0)) * t)
         + 15.0 * rng.standard_normal(n))
    # chunks of any length, down to empty and single samples, at the start
    # and at the end of the stream
    sizes = draw(st.lists(st.one_of(st.integers(0, 3), st.integers(0, n)), max_size=8))
    tail = draw(st.integers(0, 3))
    bounds = sorted({min(b, n) for b in accumulate(sizes)} | {max(n - tail, 0)})
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
        state["_iso"] = list(tracker._iso._z)
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
    for a, b in zip([0] + bounds, bounds + [len(x)]):
        events += chunked.run(x[a:b])
    assert events_and_state(chunked, events) == expected

    stepped = make_tracker(cfg)
    events = []
    for v in x.tolist():
        out = stepped.step(v)
        ev = out[-1] if isinstance(out, tuple) else out
        if ev is not None:
            events.append(ev)
    assert events_and_state(stepped, events) == expected


def accepted_rate(fs):
    try:
        check_fs(fs)
    except ConfigurationError:
        return False
    return True


@st.composite
def gated_sessions(draw):
    fs = draw(st.floats(100.0, 400.0, exclude_min=True).filter(accepted_rate))
    window_s = draw(st.floats(0.5, 4.0))
    history = draw(st.integers(1, 4))
    cfg = TrackerConfig(
        algorithm=draw(st.sampled_from(ALGORITHMS)),
        sample_rate_hz=fs,
        maf_span=draw(st.integers(1, 200)),
        refractory_s=draw(st.floats(0.05, 1.0)),
        pv_trigger_on_nco=draw(st.booleans()))
    n = (int((history + draw(st.integers(1, 3))) * window_s * fs)
         + draw(st.integers(0, 50)))
    t = np.arange(n) / fs
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    x = (draw(st.floats(20.0, 120.0)) * np.sin(2 * math.pi * draw(st.floats(0.5, 2.0)) * t)
         + draw(st.floats(1.0, 20.0)) * rng.standard_normal(n))
    # thresholds drawn around the signal's own median window powers, so
    # that windows pass and fail each condition (a band that holds no bin
    # of a short window has power 0)
    powers = window_powers(PreprocessChain(fs).run(x), fs, int(round(window_s * fs)))
    low, mid, high_beta, swa, beta = np.maximum(np.median(powers, axis=0), 1e-3)
    above, below = st.floats(0.05, 1.0), st.floats(1.0, 8.0)
    gate = GateConfig(
        nrem_low_threshold_uv2=low * draw(above),
        nrem_mid_threshold_uv2=mid * draw(above),
        nrem_beta_threshold_uv2=high_beta * draw(below),
        swa_threshold_uv2=swa * draw(above),
        beta_threshold_uv2=beta * draw(below),
        window_step_s=window_s,
        nrem_history_s=history * window_s,
        onoff_enabled=draw(st.booleans()),
        onoff_period_s=draw(st.floats(0.5, 10.0)))
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
