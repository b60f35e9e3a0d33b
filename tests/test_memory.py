"""Peak memory of the per-night array code, and its identity with the
plain formulas it replaced.

``tracemalloc`` counts numpy's data allocations exactly. A peak is given in
signal units (8 bytes per sample of the night the call reads) and includes
what the call returns. The bounds sit below the earlier formulas' peaks
(``generate`` 14.6, ``hilbert_phase`` 4.0, ``local_minima`` 4.25, AT's
``run`` 2.0, ``read_recording_csv`` 5.24 units, and 4.2 units for a
streaming session that held the whole night as Python floats).
"""
import os
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest
from scipy import signal

from swphase.dsp import MAX_FS
from swphase.gate import GateConfig, gate_flags_batch
from swphase.io import read_recording_csv, write_recording_csv
from swphase.metrics import PLATEAU_MAX_S, local_minima
from swphase.oracle import hilbert_phase, zero_phase_bandpass
from swphase.pipeline import run_session
from swphase.recording import STAGES, EegRecording, epoch_samples
from swphase.synth import SynthSpec, default_hypnogram, generate
from swphase.trackers import AmplitudeThresholdTracker, TrackerConfig

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

SLACK_BYTES = 1 << 16     # Python objects beside the arrays


def traced_peak(fn) -> int:
    """Bytes allocated at the high-water mark of fn(), its result included."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def night():
    spec = SynthSpec(hypnogram=default_hypnogram(1), seed=0)
    x = generate(spec).recording.samples
    return spec, zero_phase_bandpass(x, spec.fs), 8 * len(x)


class TestPeakMemory:
    def test_generate_within_six_signal_units(self, night):
        spec, _, unit = night
        assert traced_peak(lambda: generate(spec)) <= 6 * unit

    def test_hilbert_phase_within_three_signal_units(self, night):
        spec, filtered, unit = night
        peak = traced_peak(lambda: hilbert_phase(filtered, spec.fs))
        assert peak <= 3 * unit + SLACK_BYTES

    def test_local_minima_within_one_signal_unit(self, night):
        spec, filtered, unit = night
        assert traced_peak(lambda: local_minima(filtered, spec.fs)) <= unit

    def test_at_run_within_one_and_a_half_signal_units(self, night):
        # the band is the one signal-length array: lfilter's output
        spec, filtered, unit = night
        tracker = AmplitudeThresholdTracker(TrackerConfig(algorithm="at",
                                                          sample_rate_hz=spec.fs))
        assert traced_peak(lambda: tracker.run(filtered)) <= 1.5 * unit

    def test_csv_read_within_two_and_a_half_signal_units(self, night, tmp_path):
        # the samples are parsed into the array, not into a list first
        spec, _, unit = night
        path = tmp_path / "night.csv"
        write_recording_csv(path, generate(spec).recording)
        assert traced_peak(lambda: read_recording_csv(path)) <= 2.5 * unit


def test_streaming_session_holds_one_block_of_the_night():
    # a 760 s night is about three blocks: a session that held the whole
    # night as Python floats would peak near 4 units
    rec = generate(SynthSpec(hypnogram=["W"] * 2 + ["N2"] * 12 + ["N3"] * 24,
                             seed=4)).recording
    unit = 8 * len(rec.samples)
    peak = traced_peak(lambda: run_session(rec, TrackerConfig(algorithm="at"),
                                           streaming=True))
    assert peak <= 2 * unit


def test_largest_gate_window_at_the_highest_rate_stays_small():
    # the window's taper and bin frequencies are sized by the window, not by
    # the input: on one second of input they are all that is allocated
    window_bytes = 8 * GateConfig.window_samples(MAX_FS)
    one_second = np.zeros(int(MAX_FS))
    peak = traced_peak(lambda: gate_flags_batch(one_second, MAX_FS, GateConfig()))
    assert peak < 4 * window_bytes


@pytest.mark.parametrize("trim", [0, 1], ids=["even", "odd"])
def test_hilbert_phase_is_scipys_analytic_phase(night, trim):
    spec, filtered, _ = night
    x = filtered[:len(filtered) - trim]
    assert len(x) % 2 == trim
    expected = (np.degrees(np.angle(signal.hilbert(x))) + 90) % 360
    got = hilbert_phase(x, spec.fs).phase_deg
    np.testing.assert_array_equal(got.view(np.int64), expected.view(np.int64))


def diff_local_minima(x, fs):
    """The earlier rule over np.diff: one index per run boundary."""
    x = np.asarray(x, dtype=float)
    max_run = max(1, int(round(PLATEAU_MAX_S * fs)))
    with np.errstate(invalid="ignore"):              # inf - inf
        last = np.flatnonzero(np.diff(x) != 0.0)
    start, end = last[:-1] + 1, last[1:]
    keep = ((end - start < max_run) & (x[start - 1] > x[start])
            & (x[end + 1] > x[start]))
    return start[keep]


VALUES = st.one_of(st.integers(-3, 3).map(float),
                   st.sampled_from([np.nan, np.inf, -np.inf, -0.0]))


@st.composite
def run_signals(draw):
    """Runs of equal values, some longer than the 50 ms plateau cap, at
    sampling rates whose cap is 1, 3, 5 and 12 samples."""
    fs = draw(st.sampled_from([20.0, 60.0, 100.0, 250.0]))
    max_run = max(1, int(round(PLATEAU_MAX_S * fs)))
    runs = draw(st.lists(st.tuples(VALUES, st.integers(1, max_run + 2)),
                         max_size=12))
    return np.array([v for v, k in runs for _ in range(k)], dtype=float), fs


@settings(derandomize=True, max_examples=300, deadline=None)
@given(run_signals())
def test_local_minima_matches_the_diff_rule(case):
    x, fs = case
    got = local_minima(x, fs)
    np.testing.assert_array_equal(got, diff_local_minima(x, fs))
    assert got.dtype == np.intp


# A qualifying_windows call at a rate no check has bounded yet, run in a child
# whose address space is capped 256 MiB above its imports, so that a mask
# sized by the rate fails there as a MemoryError, not in the test's process.
UNBOUNDED_RATE_CALL = textwrap.dedent("""
    import resource
    import numpy as np
    from swphase.gate import GateConfig
    from swphase.pipeline import qualifying_windows
    from swphase.recording import EegRecording
    with open("/proc/self/statm") as f:
        cap = int(f.read().split()[0]) * resource.getpagesize() + (256 << 20)
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    rec = EegRecording(np.zeros(1000), 1e12, hypnogram=["N2"])
    try:
        qualifying_windows(rec, [], GateConfig(), np.ones(1000, dtype=bool))
    except Exception as e:
        print(type(e).__name__)
""")


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="needs Linux /proc")
def test_stage_mask_is_sized_by_the_recording_at_any_rate():
    # one epoch at 1e12 Hz is 2e13 samples: repeated whole, 18.2 TiB
    child = subprocess.run([sys.executable, "-c", UNBOUNDED_RATE_CALL],
                           env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
                           capture_output=True, text=True, timeout=120)
    assert child.stdout.strip() == "ConfigurationError", child.stderr


def repeated_stage_mask(rec, stages):
    """The earlier rule: every epoch repeated whole, then cropped."""
    scored = np.repeat(np.isin(rec.hypnogram or [], stages), epoch_samples(rec.fs))
    mask = np.zeros(len(rec.samples), dtype=bool)
    mask[:len(scored)] = scored[:len(mask)]
    return mask


@settings(derandomize=True, max_examples=300, deadline=None)
@given(n=st.integers(0, 400), fs=st.floats(0.01, 30.0),
       hypnogram=st.none() | st.lists(st.sampled_from(STAGES), max_size=12),
       stages=st.lists(st.sampled_from(STAGES), max_size=3))
def test_stage_mask_matches_the_repeated_epochs(n, fs, hypnogram, stages):
    # epochs of 0 to 600 samples, longer and shorter than the recording
    rec = EegRecording(np.zeros(n), fs, hypnogram=hypnogram)
    np.testing.assert_array_equal(rec.stage_mask(stages), repeated_stage_mask(rec, stages))
