"""Session runner: streaming/batch parity, gating fields, offline report."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swphase.dsp import PreprocessChain
from swphase.errors import ConfigurationError
from swphase.oracle import compute_phase_track, phase_at_triggers
from swphase.gate import (CLOSED, DELIVERED, OPEN, REASONS, GateConfig, GateFlags,
                          candidate_reasons, window_reasons)
from swphase.pipeline import (
    candidates_from_phase_stream,
    evaluate_session,
    qualifying_windows,
    run_session,
    tracker_phase_stream,
)
from swphase.recording import STAGES, EegRecording
from swphase.trackers import REFRACTORY_S, TrackerConfig, forward_arcs

ALGOS = ("at", "pll", "pv")


@pytest.fixture(scope="module")
def batch_sessions(short_synth):
    rec = short_synth.recording
    return {a: run_session(rec, TrackerConfig(algorithm=a)) for a in ALGOS}


@pytest.fixture(scope="module")
def preprocessed(short_synth):
    rec = short_synth.recording
    return PreprocessChain(rec.fs).run(rec.samples)


class TestStreamingParity:
    @pytest.mark.parametrize("algo", ALGOS)
    def test_streaming_equals_batch(self, short_synth, batch_sessions, algo):
        rec = short_synth.recording
        streamed = run_session(rec, TrackerConfig(algorithm=algo), streaming=True)
        batch = batch_sessions[algo]
        assert streamed.log == batch.log
        assert streamed.window_flags == batch.window_flags
        assert streamed.slip_count == batch.slip_count

    def test_streaming_session_refuses_a_rate_beyond_20khz(self):
        # the per-sample path sizes its filter and gate state by the rate: a
        # 1,000-sample recording whose header says 1 GHz is refused first
        rec = EegRecording(samples=np.zeros(1000), fs=1e9)
        with pytest.raises(ConfigurationError, match="at most 20000 Hz"):
            run_session(rec, TrackerConfig(algorithm="pv"), streaming=True)


class TestPhaseStreamFactorization:
    @pytest.mark.parametrize("algo", ("pll", "pv"))
    def test_candidates_match_full_tracker(self, batch_sessions, preprocessed,
                                           algo):
        # one phase-stream pass + crossing scan reproduces the tracker's
        # candidate set exactly (this is what makes the optimizer cheap)
        session = batch_sessions[algo]
        cfg = session.tracker_config
        stream = tracker_phase_stream(preprocessed, cfg)
        refr = max(1, math.ceil(REFRACTORY_S * cfg.sample_rate_hz))
        idx = candidates_from_phase_stream(stream, cfg.target_deg(), refr,
                                           forward_arcs(stream)[0])
        np.testing.assert_array_equal(
            idx, [e.sample_index for e in session.log])

    def test_at_has_no_phase_stream(self, preprocessed):
        with pytest.raises(Exception):
            tracker_phase_stream(preprocessed, TrackerConfig(algorithm="at"))

    def test_refractory_filter(self):
        # a stream crossing 45 deg once per 100 samples, refractory 150
        stream = np.tile(np.arange(100) * 3.6, 10)
        idx = candidates_from_phase_stream(stream, 45.0, 150, forward_arcs(stream)[0])
        assert np.all(np.diff(idx) >= 150)

    def test_first_sample_never_fires(self):
        stream = np.full(10, 50.0)
        # prev[0] is pinned at 0, so sample 0 sees arc 50 containing 45
        idx = candidates_from_phase_stream(stream, 45.0, 1, forward_arcs(stream)[0])
        assert 0 in idx
        stream2 = np.full(10, 350.0)
        assert 0 not in candidates_from_phase_stream(stream2, 45.0, 1,
                                                     forward_arcs(stream2)[0])


class TestDecisionOrder:
    CFG = GateConfig(onoff_enabled=True)

    @pytest.mark.parametrize("flags,t,expect", [
        (GateFlags(False, False, True), 7.0, (False, "nrem")),
        (GateFlags(True, False, True), 7.0, (False, "swa")),
        (GateFlags(True, True, True), 7.0, (False, "beta")),
        (GateFlags(True, True, False), 7.0, (False, "onoff")),
        (GateFlags(True, True, False), 0.0, (True, "")),
    ])
    def test_first_failing_condition(self, flags, t, expect):
        code = candidate_reasons(window_reasons([flags])[-1], t, self.CFG)
        assert (code == DELIVERED, REASONS[code]) == expect


class TestSessionBookkeeping:
    def test_counts_are_consistent(self, batch_sessions):
        for s in batch_sessions.values():
            delivered = s.delivered()
            counts = s.suppression_counts()
            assert len(delivered) + sum(counts.values()) == len(s.log)
            assert all(e.delivered for e in delivered)
            assert set(counts) == {"nrem", "swa", "beta", "onoff"}

    def test_sample_rate_follows_recording(self, short_synth):
        rec = short_synth.recording
        cfg = TrackerConfig(algorithm="at", sample_rate_hz=125.0)
        session = run_session(rec, cfg)
        assert session.tracker_config.sample_rate_hz == rec.fs

    def test_onoff_protocol_stamps_and_suppresses(self, short_synth):
        rec = short_synth.recording
        session = run_session(rec, TrackerConfig(algorithm="pv"),
                              GateConfig(onoff_enabled=True))
        delivered = session.delivered()
        assert delivered, "protocol run produced no deliveries"
        for e in delivered:
            assert e.on_window
            assert math.fmod(e.time_s, 12.0) < 6.0
        offs = [e for e in session.log if e.suppression_reason == "onoff"]
        assert offs, "no candidates landed in OFF windows"
        for e in offs:
            assert not e.on_window

    def test_truncated_run_is_a_prefix(self, short_synth, batch_sessions):
        rec = short_synth.recording
        cut = len(rec.samples) // 2
        head = EegRecording(samples=rec.samples[:cut], fs=rec.fs,
                            hypnogram=rec.hypnogram)
        session = run_session(head, TrackerConfig(algorithm="pv"))
        full = batch_sessions["pv"]
        expect = [e for e in full.log if e.sample_index < cut]
        assert session.log == expect


def make_recording(stages, fs=250.0):
    # hypnogram epochs are 20 s: each stage is 10 scoring windows of 2 s
    n = int(len(stages) * 20 * fs)
    return EegRecording(samples=np.zeros(n), fs=fs, hypnogram=list(stages))


class TestQualifyingWindows:
    def test_device_flags_gate_the_count(self):
        rec = make_recording(["W", "N2", "N3"])
        valid = np.ones(len(rec.samples), dtype=bool)
        open_flags = [GateFlags(True, True, False)] * 15
        q, mask, qual = qualifying_windows(rec, open_flags, GateConfig(), valid)
        assert q == 20
        assert not qual[:10].any() and qual[10:].all()   # the W epoch is out
        assert not mask[:5000].any() and mask[5000:].all()
        shut = [GateFlags(True, False, False)] * 15
        q2, mask2, _ = qualifying_windows(rec, shut, GateConfig(), valid)
        assert q2 == 0 and not mask2.any()

    def test_valid_mask_excludes_windows(self):
        rec = make_recording(["W", "N2", "N3"])
        flags = [GateFlags(True, True, False)] * 15
        valid = np.ones(len(rec.samples), dtype=bool)
        valid[5000:10000] = False          # the whole N2 epoch
        q, _, qual = qualifying_windows(rec, flags, GateConfig(), valid)
        assert q == 10
        assert not qual[10:20].any() and qual[20:30].all()

    def test_window_must_be_fully_inside_valid_region(self):
        rec = make_recording(["W", "N2", "N3"])
        flags = [GateFlags(True, True, False)] * 15
        valid = np.ones(len(rec.samples), dtype=bool)
        valid[5499] = False                # last sample of scoring window 10
        q, _, qual = qualifying_windows(rec, flags, GateConfig(), valid)
        assert not qual[10]
        assert q == 19


    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(fs=st.sampled_from((125.0, 250.0)), data=st.data())
    def test_mask_and_windows_follow_the_rule_per_sample(self, fs, data):
        epoch_n, window_n, win = int(20 * fs), GateConfig.window_samples(fs), int(2 * fs)
        n = data.draw(st.integers(0, 3 * epoch_n + epoch_n // 2))
        # hypnograms shorter than the recording, as long and one epoch longer
        epochs = data.draw(st.integers(0, -(-n // epoch_n) + 1))
        hyp = data.draw(st.lists(st.sampled_from(STAGES), min_size=epochs, max_size=epochs))
        flags = data.draw(st.lists(st.one_of(st.just(OPEN), st.builds(
            GateFlags, st.booleans(), st.booleans(), st.booleans())),
            max_size=n // window_n + 2))
        lo = data.draw(st.integers(0, n))
        hi = data.draw(st.integers(lo, n))
        valid = np.zeros(n, dtype=bool)
        valid[lo:hi] = True
        rec = EegRecording(samples=np.zeros(n), fs=fs, hypnogram=hyp)

        def stage(s):
            return hyp[s // epoch_n] if s // epoch_n < len(hyp) else None

        def governing(s):   # the last window completed before s, as in test_gate.py
            return ([CLOSED] + flags)[min(s // window_n, len(flags))]

        expect = [stage(s) in ("N2", "N3") and governing(s).nrem and governing(s).swa
                  and lo <= s < hi for s in range(n)]
        expect_qual = [expect[s] and lo <= s + win - 1 < hi
                       for s in range(0, n - win + 1, win)]
        q, mask, qual = qualifying_windows(rec, flags, GateConfig(), valid)
        assert mask.tolist() == expect
        assert qual.tolist() == expect_qual
        assert q == sum(expect_qual)

@pytest.fixture(scope="module")
def report(short_synth, batch_sessions):
    return evaluate_session(short_synth.recording, batch_sessions["pv"])


class TestEvaluateSession:
    def test_report_shape(self, report, batch_sessions):
        s = batch_sessions["pv"]
        assert report.algorithm == "pv"
        assert report.n_candidates == len(s.log)
        assert report.n_delivered == len(s.delivered())
        assert report.n_delivered > 100

    def test_oracle_phases_are_angles(self, report, short_synth, batch_sessions):
        rec = short_synth.recording
        p, kept = phase_at_triggers(compute_phase_track(rec.samples, rec.fs),
                                    batch_sessions["pv"].delivered())
        assert len(batch_sessions["pv"].delivered()) - len(kept) == report.n_oracle_dropped
        assert len(p) == report.n_delivered - report.n_oracle_dropped
        assert np.all((p >= 0.0) & (p < 360.0))

    def test_statistics_present_and_sane(self, report):
        assert report.circular_mean_deg is not None
        assert report.cmae45_deg < 45.0
        assert report.circular_sd_deg < 90.0
        assert report.pas_all is not None
        assert report.pas_all == report.pas_in_up + report.pas_not_up
        assert 0.0 < report.pas_all <= 100.0
        assert report.n_low_waves is not None
        assert report.up_phase_pct > 50.0
        assert report.median_interval_s > 0.25

    def test_suppression_counts_passed_through(self, report, batch_sessions):
        assert report.suppression_counts == batch_sessions["pv"].suppression_counts()
