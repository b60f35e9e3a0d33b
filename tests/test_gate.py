"""Stimulation gate: band powers, NREM vote, suppression order, causality."""
import math
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from swphase.dsp import PreprocessChain, band_powers
from swphase.errors import ConfigurationError
from swphase.gate import (
    CLOSED,
    DELIVERED,
    GATE_BANDS_HZ,
    REASONS,
    GateConfig,
    GateFlags,
    OPEN,
    StimulationGate,
    calibrate_gate,
    candidate_codes,
    gate_flags_batch,
    in_window,
    on_window_at,
    staged_mask,
    window_powers,
    window_reasons,
    window_rule,
)

from conftest import FS, sinusoid

WINDOW_N = int(4.0 * FS)


def gate_window(*components) -> np.ndarray:
    """One 4 s window built from (freq_hz, amp_uv) tones."""
    x = np.zeros(WINDOW_N)
    for freq, amp in components:
        x += sinusoid(freq, amp, 4.0)
    return x


# one row of window_powers, in GATE_BANDS_HZ order
WindowPowers = namedtuple("WindowPowers", "low mid high_beta swa beta")


def window_band_powers(window, fs):
    return WindowPowers(*window_powers(window, fs, len(window))[0].tolist())


def nrem_vote(history, config):
    """The nrem flag that window_rule gives the last window of a history."""
    return bool(window_rule(np.array(history), config)[-1, 0])


class TestWindowBandPowers:
    def test_tone_power_lands_in_its_band(self):
        # amplitude A contributes A^2/2 uV^2 to the containing band
        p = window_band_powers(gate_window((1.25, 30.0)), FS)
        assert p.low == pytest.approx(450.0, rel=0.02)
        assert p.swa == pytest.approx(450.0, rel=0.02)
        assert p.mid < 1.0
        assert p.beta < 1e-6
        assert p.high_beta < 1e-6

    def test_mid_band_tone(self):
        p = window_band_powers(gate_window((3.0, 6.0)), FS)
        assert p.mid == pytest.approx(18.0, rel=0.02)
        assert p.swa == pytest.approx(18.0, rel=0.02)
        assert p.low < 0.5

    def test_beta_bands_overlap_at_21_hz(self):
        # 21 Hz sits in both the 17-22 inhibit band and the 20-30 vote band
        p = window_band_powers(gate_window((21.0, 4.0)), FS)
        assert p.beta == pytest.approx(8.0, rel=0.02)
        assert p.high_beta == pytest.approx(8.0, rel=0.02)
        assert p.swa < 1e-6

    def test_two_tones_separate_cleanly(self):
        p = window_band_powers(gate_window((1.25, 10.0), (21.0, 4.0)), FS)
        assert p.low == pytest.approx(50.0, rel=0.03)
        assert p.beta == pytest.approx(8.0, rel=0.03)


class TestNremVote:
    def make(self, **kw):
        return GateConfig(**kw).validate()

    def powers(self, low=200.0, mid=20.0, high_beta=1.0):
        return WindowPowers(low=low, mid=mid, high_beta=high_beta,
                            swa=low + mid, beta=1.0)

    def test_short_history_is_false(self):
        cfg = self.make()
        hist = [self.powers()] * (cfg.history_windows - 1)
        assert nrem_vote(hist, cfg) is False

    def test_full_history_votes_true(self):
        cfg = self.make()
        hist = [self.powers()] * cfg.history_windows
        assert nrem_vote(hist, cfg) is True

    @pytest.mark.parametrize("kw", [
        {"low": 1.0},          # low band too weak
        {"mid": 1.0},          # mid band too weak
        {"high_beta": 50.0},   # beta too strong
    ])
    def test_any_failing_band_blocks(self, kw):
        cfg = self.make()
        hist = [self.powers(**kw)] * cfg.history_windows
        assert nrem_vote(hist, cfg) is False

    def test_vote_uses_the_average_not_each_window(self):
        cfg = self.make()
        ok = self.powers()
        bad = self.powers(low=1.0)
        # one weak window out of twenty barely dents the mean
        hist = [ok] * (cfg.history_windows - 1) + [bad]
        assert nrem_vote(hist, cfg) is True


class TestOnOffProtocol:
    def test_alternates_with_period(self):
        cfg = GateConfig(onoff_enabled=True).validate()
        assert on_window_at(0.0, cfg) is True
        assert on_window_at(5.999, cfg) is True
        assert on_window_at(6.0, cfg) is False
        assert on_window_at(11.999, cfg) is False
        assert on_window_at(12.0, cfg) is True

    def test_holds_for_large_times(self):
        cfg = GateConfig(onoff_enabled=True).validate()
        base = 12.0 * 10_000
        assert on_window_at(base + 3.0, cfg) is True
        assert on_window_at(base + 9.0, cfg) is False

    @settings(derandomize=True, max_examples=500, deadline=None)
    @given(data=st.data())
    def test_a_float_takes_the_array_verdict(self, data):
        # on each ON/OFF boundary of one day, one ulp either side, and between
        cfg = GateConfig(onoff_enabled=True)
        boundary = st.integers(0, round(86400.0 / cfg.onoff_period_s)).map(
            lambda k: k * cfg.onoff_period_s)
        near = st.tuples(boundary, st.sampled_from((-math.inf, None, math.inf))).map(
            lambda tb: tb[0] if tb[1] is None else math.nextafter(tb[0], tb[1]))
        times = data.draw(st.lists(near | st.floats(0.0, 86400.0), min_size=1,
                                   max_size=20))
        on = on_window_at(np.array(times), cfg).tolist()
        assert [on_window_at(t, cfg) for t in times] == on
        assert all(type(on_window_at(t, cfg)) is bool for t in times)


class TestConfigValidation:
    @pytest.mark.parametrize("kw", [
        {"nrem_low_threshold_uv2": 0.0},
        {"nrem_mid_threshold_uv2": -1.0},
        {"nrem_beta_threshold_uv2": 0.0},
        {"swa_threshold_uv2": -5.0},
        {"beta_threshold_uv2": 0.0},
        {"onoff_enabled": "no"},    # truthy: it would turn the protocol on
        {"onoff_enabled": 1},
        {"onoff_enabled": None},
        {"onoff_enabled": 0.0},
    ])
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ConfigurationError):
            GateConfig(**kw).validate()

    def test_timings_are_constants(self):
        assert (GateConfig.window_step_s, GateConfig.nrem_history_s,
                GateConfig.onoff_period_s) == (4.0, 80.0, 6.0)
        with pytest.raises(TypeError):
            GateConfig(window_step_s=2.0)

    def test_default_history_is_twenty_windows(self):
        assert GateConfig().validate().history_windows == 20


def nrem_like_window_signal(n_windows: int) -> np.ndarray:
    """Windows that satisfy every NREM band condition and the SWA bar."""
    one = gate_window((1.25, 30.0), (3.0, 6.0))
    return np.tile(one, n_windows)


class TestStreamingGate:
    def test_cold_start_suppresses_for_the_full_history(self):
        cfg = GateConfig().validate()
        gate = StimulationGate(cfg, FS)
        x = nrem_like_window_signal(cfg.history_windows + 2)
        nrem_at = None
        for i, v in enumerate(x):
            flags = gate.step(float(v))
            if nrem_at is None and flags.nrem:
                nrem_at = i
        # nrem turns on exactly when the 20th window completes (80 s)
        assert nrem_at == cfg.history_windows * WINDOW_N - 1
        log = gate.window_log
        assert len(log) == cfg.history_windows + 2
        assert not any(f.nrem for f in log[:cfg.history_windows - 1])
        assert all(f.nrem for f in log[cfg.history_windows - 1:])

    def test_swa_flag_reacts_per_window(self):
        gate = StimulationGate(GateConfig().validate(), FS)
        for v in gate_window((1.25, 30.0)):          # strong SWA window
            flags = gate.step(float(v))
        assert flags.swa is True
        for v in np.zeros(WINDOW_N - 1):             # silence, window open
            assert gate.step(0.0).swa is True        # still governed by window 0
        assert gate.step(0.0).swa is False           # boundary sample

    def test_decide_reports_first_failing_condition(self):
        cfg = GateConfig(onoff_enabled=True).validate()
        gate = StimulationGate(cfg, FS)
        cases = [
            (GateFlags(False, False, True), 7.0, (False, "nrem")),
            (GateFlags(True, False, True), 7.0, (False, "swa")),
            (GateFlags(True, True, True), 7.0, (False, "beta")),
            (GateFlags(True, True, False), 7.0, (False, "onoff")),
            (GateFlags(True, True, False), 3.0, (True, "")),
        ]
        for flags, t, expect in cases:
            gate._flags = flags
            assert gate.decide(t) == expect

    def test_decide_ignores_protocol_when_disabled(self):
        gate = StimulationGate(GateConfig(onoff_enabled=False).validate(), FS)
        gate._flags = GateFlags(True, True, False)
        assert gate.decide(7.0) == (True, "")


class TestBatchParity:
    def test_batch_flags_equal_streaming_log(self, short_synth):
        rec = short_synth.recording
        y = PreprocessChain(rec.fs).run(rec.samples)
        cfg = GateConfig().validate()
        batch = gate_flags_batch(y, rec.fs, cfg)
        gate = StimulationGate(cfg, rec.fs)
        for v in y:
            gate.step(float(v))
        assert batch == gate.window_log

    def test_batched_powers_equal_one_window_at_a_time(self, short_synth):
        # the streaming gate transforms one window at a time; the batch one
        # transforms them all at once and must give the same bits
        def reference(window, fs):
            n = len(window)
            w = np.hanning(n)
            spectrum = np.abs(np.fft.rfft(window * w)) ** 2
            freqs = np.fft.rfftfreq(n, 1.0 / fs)
            scale = 2.0 / (n * np.sum(w * w))
            return [float(np.sum(spectrum[(freqs >= lo) & (freqs <= hi)]) * scale)
                    for lo, hi in GATE_BANDS_HZ]
        rec = short_synth.recording
        y = PreprocessChain(rec.fs).run(rec.samples)
        batch = window_powers(y, rec.fs, WINDOW_N)
        windows = y[:len(batch) * WINDOW_N].reshape(len(batch), WINDOW_N)
        one_at_a_time = [band_powers(x, rec.fs, GATE_BANDS_HZ) for x in windows]
        assert batch.tobytes() == np.array(one_at_a_time).tobytes()
        assert batch.tolist() == [reference(x, rec.fs) for x in windows]

    def test_partial_trailing_window_is_dropped(self):
        cfg = GateConfig().validate()
        x = nrem_like_window_signal(3)[:-17]
        assert len(gate_flags_batch(x, FS, cfg)) == 2

    def test_history_mean_tie_stays_strict(self, short_synth):
        # a threshold set exactly to a window's 80 s mean of the 0.5-2 Hz
        # power, summed oldest first, must not vote NREM (strict >); one ulp
        # lower must. Any other summation order misses one side of the tie.
        rec = short_synth.recording
        y = PreprocessChain(rec.fs).run(rec.samples)
        base = GateConfig().validate()
        h, window_n = base.history_windows, base.window_samples(rec.fs)
        lows = window_powers(y, rec.fs, window_n)[:, 0].tolist()
        voting = [k for k, f in enumerate(gate_flags_batch(y, rec.fs, base))
                  if f.nrem]
        assert len(voting) > 100
        for n, k in enumerate(voting[::len(voting) // 10]):
            history = lows[k - h + 1:k + 1]
            mean = sum(history) / len(history)
            for threshold, expect in ((mean, False),
                                      (float(np.nextafter(mean, 0.0)), True)):
                cfg = GateConfig(nrem_low_threshold_uv2=threshold).validate()
                assert gate_flags_batch(y, rec.fs, cfg)[k].nrem is expect
                if n == 0:
                    gate = StimulationGate(cfg, rec.fs)
                    for v in y[:(k + 1) * window_n].tolist():
                        gate.step(v)
                    assert gate.window_log[k].nrem is expect


def flags_at_sample(window_flags, sample_index, window_n):
    """The flags of the last window completed before the sample."""
    governing = np.array([CLOSED] + window_flags)
    return GateFlags._make(in_window(governing, sample_index, window_n).tolist())


class TestFlagsAtSample:
    def test_causal_window_mapping(self):
        flags = [GateFlags(True, True, False), GateFlags(False, True, False)]
        blank = GateFlags(False, False, False)
        assert flags_at_sample(flags, 0, WINDOW_N) == blank
        assert flags_at_sample(flags, WINDOW_N - 1, WINDOW_N) == blank
        assert flags_at_sample(flags, WINDOW_N, WINDOW_N) == flags[0]
        assert flags_at_sample(flags, 2 * WINDOW_N - 1, WINDOW_N) == flags[0]
        assert flags_at_sample(flags, 2 * WINDOW_N, WINDOW_N) == flags[1]
        # past the log: clamped to the last known window
        assert flags_at_sample(flags, 9 * WINDOW_N, WINDOW_N) == flags[1]


# OPEN, the one flag set the ON-OFF protocol judges, as often as the seven others
flag_lists = st.lists(st.one_of(st.just(OPEN), st.builds(GateFlags, st.booleans(),
                                                         st.booleans(), st.booleans())),
                      max_size=8)


def governing(flags, sample_index, window_n):
    """Per sample, one at a time: the flags of the last window completed
    before it, the last window's past the end, CLOSED before the first."""
    return ([CLOSED] + flags)[min(sample_index // window_n, len(flags))]


class TestSampleMapping:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(flags=flag_lists, fs=st.sampled_from((125.0, 250.0, 500.0)),
           onoff=st.booleans(), data=st.data())
    def test_candidate_codes_equal_the_streaming_verdict(self, flags, fs, onoff, data):
        cfg = GateConfig(onoff_enabled=onoff)
        window_n = cfg.window_samples(fs)
        # anywhere, and within two samples of a window or ON-OFF boundary
        near_boundary = st.builds(lambda step, k, d: max(step * k + d, 0),
                                  st.sampled_from((window_n, round(cfg.onoff_period_s * fs))),
                                  st.integers(0, len(flags) + 3), st.integers(-2, 2))
        idx = data.draw(st.lists(st.one_of(st.integers(0, (len(flags) + 3) * window_n),
                                           near_boundary), max_size=30))
        gate = StimulationGate(cfg, fs)
        expect = []
        for s in idx:
            gate._flags = governing(flags, s, window_n)
            expect.append(gate.decide(s / fs))
        codes = candidate_codes(window_reasons(flags), idx, fs, cfg).tolist()
        assert [(c == DELIVERED, REASONS[c]) for c in codes] == expect

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(flags=flag_lists, window_n=st.integers(1, 7), data=st.data())
    def test_staged_mask_equals_the_flags_per_sample(self, flags, window_n, data):
        # whole windows in the session: below, at and above the flag count
        windows = len(flags) + data.draw(st.integers(-len(flags), 3))
        n = windows * window_n + data.draw(st.integers(0, window_n - 1))
        expect = [f.nrem and f.swa for f in (governing(flags, s, window_n)
                                             for s in range(n))]
        assert staged_mask(window_reasons(flags), window_n, n).tolist() == expect


class TestCalibration:
    def test_thresholds_sit_between_stage_medians(self, short_synth):
        rec = short_synth.recording
        cfg = calibrate_gate(rec)
        cfg.validate()
        # N3 slow-wave power must clear the derived thresholds, wake must not
        assert cfg.nrem_low_threshold_uv2 > 1.0
        assert cfg.swa_threshold_uv2 > cfg.nrem_mid_threshold_uv2
        # a different recording calibrates to the same order of magnitude
        # as the shipped defaults (within a factor of two)
        base = GateConfig()
        for name in ("nrem_low_threshold_uv2", "nrem_mid_threshold_uv2",
                     "nrem_beta_threshold_uv2", "swa_threshold_uv2",
                     "beta_threshold_uv2"):
            ratio = getattr(cfg, name) / getattr(base, name)
            assert 0.5 <= ratio <= 2.0, name

    def test_thresholds_are_midpoints_over_gate_windows(self, short_synth):
        # thresholds are geometric midpoints of the N3 and wake medians of
        # the gate's 4 s windows
        rec = short_synth.recording
        cfg = calibrate_gate(rec)
        y = PreprocessChain(FS).run(rec.samples)
        n = WINDOW_N
        per_epoch = int(20.0 * FS) // n
        n_windows = min(len(y) // n, len(rec.hypnogram) * per_epoch)
        stages = [rec.hypnogram[k // per_epoch] for k in range(n_windows)]
        powers = np.array([band_powers(y[k * n:(k + 1) * n], FS, GATE_BANDS_HZ)
                           for k in range(n_windows)])
        n3 = np.array([s == "N3" for s in stages])
        wake = np.array([s == "W" for s in stages])
        expect = np.sqrt(np.median(powers[n3], axis=0)
                         * np.median(powers[wake], axis=0))
        got = [cfg.nrem_low_threshold_uv2, cfg.nrem_mid_threshold_uv2,
               cfg.nrem_beta_threshold_uv2, cfg.swa_threshold_uv2,
               cfg.beta_threshold_uv2]
        np.testing.assert_allclose(got, expect, rtol=1e-12)

    def test_requires_hypnogram(self, short_synth):
        rec = short_synth.recording
        bare = type(rec)(samples=rec.samples, fs=rec.fs, hypnogram=[])
        with pytest.raises(ConfigurationError):
            calibrate_gate(bare)

    def test_rejects_raw_arrays(self):
        with pytest.raises(ConfigurationError):
            calibrate_gate(np.zeros(1000))
