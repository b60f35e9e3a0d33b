import math

import numpy as np
import pytest

from swphase.errors import ConfigurationError, StreamIntegrityError
from swphase.trackers import (MAX_MAF_SPAN, REFRACTORY_S, AmplitudeThresholdTracker,
                              PllTracker, PvTracker, TrackerConfig, make_tracker,
                              refractory)

from conftest import FS, phase_crossed, sinusoid


def signal_phase_deg(freq_hz, index, fs=FS, phase0=0.0):
    """Ground-truth phase of a sin() test tone at a sample index."""
    return (math.degrees(2 * math.pi * freq_hz * index / fs + phase0)) % 360.0


def run_stepwise(tracker, x):
    events = []
    for v in np.asarray(x, dtype=float).tolist():
        out = tracker.step(v)
        ev = out if not isinstance(out, tuple) else out[-1]
        if ev is not None:
            events.append(ev)
    return events


def iso_state(tracker):
    """A copy of the AT isolation filter's state, one list per section."""
    return [list(z) for _, z in tracker._iso._steps]


class TestCrossing:
    def test_forward_arc_hit(self):
        assert phase_crossed(40.0, 50.0, 45.0)
        assert phase_crossed(40.0, 50.0, 50.0)       # inclusive at the end
        assert not phase_crossed(40.0, 50.0, 40.0)   # exclusive at the start
        assert not phase_crossed(40.0, 50.0, 55.0)

    def test_wraparound_hit(self):
        assert phase_crossed(355.0, 5.0, 0.0)
        assert phase_crossed(355.0, 5.0, 3.0)
        assert not phase_crossed(355.0, 5.0, 10.0)

    def test_large_jump_is_never_a_crossing(self):
        assert not phase_crossed(0.0, 180.0, 90.0)
        assert not phase_crossed(10.0, 350.0, 180.0)

    @pytest.mark.parametrize("hits,last,kept,new_last", [
        ([10, 160], None, [10, 160], 160),   # exactly the spacing after the kept hit
        ([10, 159], None, [10], 10),         # one sample short of it
        ([150], 0, [150], 150),
        ([149], 0, [], 0),
        ([149, 150, 299, 300], 0, [150, 300], 300),
    ])
    def test_refractory_boundary(self, hits, last, kept, new_last):
        # the one spacing rule of step, run and the search, at 150 samples
        args = () if last is None else (last,)
        assert refractory(np.array(hits), 150, *args) == (kept, new_last)


class TestConfig:
    def test_per_algorithm_default_targets(self):
        assert TrackerConfig(algorithm="pv").target_deg() == 45.0
        assert TrackerConfig(algorithm="pll").target_deg() == 195.0
        assert TrackerConfig(algorithm="pll",
                             phi_target_deg=30.0).target_deg() == 30.0

    @pytest.mark.parametrize("bad", [
        dict(algorithm="fir"),
        dict(phi_target_deg=360.0),
        dict(phi_target_deg=-1.0),
        dict(k_pll=0.0),
        dict(k_pv=-1.0),
        dict(maf_span=0),
        dict(at_threshold_uv=0.0),
        dict(sample_rate_hz=0.0),
        dict(sample_rate_hz=-250.0),
        dict(maf_span=MAX_MAF_SPAN + 1),
        # a span that is not a whole number would be echoed into a trigger
        # log that cannot be read back
        dict(maf_span=125.5),
        dict(maf_span=125.0),
        dict(maf_span=True),
    ])
    def test_invalid_config_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            TrackerConfig(**bad).validate()

    def test_maf_span_takes_any_integer_type(self):
        assert TrackerConfig(maf_span=np.int64(125)).maf_span == 125

    def test_make_tracker_dispatch(self):
        assert isinstance(make_tracker(TrackerConfig(algorithm="at")),
                          AmplitudeThresholdTracker)
        assert isinstance(make_tracker(TrackerConfig(algorithm="pll")), PllTracker)
        assert isinstance(make_tracker(TrackerConfig(algorithm="pv")), PvTracker)


class TestStepRunParity:
    @pytest.mark.parametrize("algo", ["at", "pll", "pv"])
    def test_step_equals_run(self, algo):
        rng = np.random.default_rng(5)
        x = 40.0 * rng.standard_normal(4000)
        cfg = TrackerConfig(algorithm=algo)
        a = run_stepwise(make_tracker(cfg), x)
        b = make_tracker(cfg).run(x)
        assert a == b

    @pytest.mark.parametrize("algo", ["at", "pll", "pv"])
    def test_run_chunking_invariance(self, algo):
        rng = np.random.default_rng(6)
        x = 40.0 * rng.standard_normal(3000)
        cfg = TrackerConfig(algorithm=algo)
        whole = make_tracker(cfg).run(x)
        t = make_tracker(cfg)
        parts = t.run(x[:511]) + t.run(x[511:1990]) + t.run(x[1990:])
        assert parts == whole


class TestAmplitudeThreshold:
    def test_one_trigger_per_cycle_on_strong_tone(self):
        x = sinusoid(1.0, 75.0, 60.0)
        events = make_tracker(TrackerConfig(algorithm="at")).run(x)
        # one upward crossing of 30 uV per 1 s cycle once the filter settles
        assert 55 <= len(events) <= 61
        gaps = np.diff([e.sample_index for e in events[2:]]) / FS
        assert np.allclose(gaps, 1.0, atol=0.05)

    def test_no_trigger_below_threshold(self):
        x = sinusoid(1.0, 20.0, 30.0)   # 20 uV peak < 30 uV level
        events = make_tracker(TrackerConfig(algorithm="at")).run(x)
        assert events == []

    def test_phase_field_is_empty(self):
        x = sinusoid(1.0, 75.0, 10.0)
        events = make_tracker(TrackerConfig(algorithm="at")).run(x)
        assert events and all(e.tracker_phase_deg is None for e in events)

    def test_refractory_enforced_on_noise(self):
        rng = np.random.default_rng(7)
        x = 300.0 * rng.standard_normal(10000)
        cfg = TrackerConfig(algorithm="at")
        events = make_tracker(cfg).run(x)
        refr = max(1, math.ceil(REFRACTORY_S * cfg.sample_rate_hz))
        assert events
        assert np.diff([e.sample_index for e in events]).min() >= refr

    def test_band_is_the_step_loops_isolated_signal(self):
        cfg = TrackerConfig(algorithm="at")
        x = sinusoid(1.0, 40.0, 20.0)
        stepped_tracker, band_tracker = make_tracker(cfg), make_tracker(cfg)
        isolated = []
        for v in x.tolist():
            stepped_tracker.step(v)
            isolated.append(stepped_tracker._prev)
        assert band_tracker.band(x).tolist() == isolated
        assert iso_state(band_tracker) == iso_state(stepped_tracker)


class TestPll:
    def test_zero_input_free_runs_at_exactly_1hz(self):
        events = make_tracker(TrackerConfig(algorithm="pll")).run(np.zeros(int(FS * 20)))
        idx = np.array([e.sample_index for e in events])
        assert len(idx) >= 18
        assert np.all(np.diff(idx) == int(FS))   # exactly 250 samples

    def test_locks_anti_phase_on_1hz_tone(self):
        x = sinusoid(1.0, 75.0, 120.0)
        events = make_tracker(TrackerConfig(algorithm="pll")).run(x)
        settled = [e for e in events if e.time_s > 60.0]
        assert len(settled) >= 55
        # half-cycle lock: the tracker hits 195 deg while the tone sits in
        # the early rising phase, not anywhere near 195
        sig = np.array([signal_phase_deg(1.0, e.sample_index) for e in settled])
        resid = (sig - 15.0 + 180.0) % 360.0 - 180.0
        assert abs(np.mean(resid)) < 25.0
        assert np.std(resid) < 10.0

    def test_trigger_jitter_under_10_degrees(self):
        x = sinusoid(1.0, 75.0, 120.0)
        events = make_tracker(TrackerConfig(algorithm="pll")).run(x)
        sig = np.array([signal_phase_deg(1.0, e.sample_index)
                        for e in events if e.time_s > 60.0])
        rad = np.radians(sig)
        r = abs(np.mean(np.exp(1j * rad)))
        circ_sd = math.degrees(math.sqrt(max(0.0, -2.0 * math.log(r))))
        assert circ_sd < 10.0

    def test_gain_amplitude_product_bit_identity(self):
        x = sinusoid(1.0, 75.0, 60.0) + 5.0 * np.random.default_rng(8).standard_normal(int(FS * 60))
        a = make_tracker(TrackerConfig(algorithm="pll", k_pll=4e-4)).run(x)
        b = make_tracker(TrackerConfig(algorithm="pll", k_pll=8e-4)).run(x / 2.0)
        assert [e.sample_index for e in a] == [e.sample_index for e in b]

    def test_nonfinite_input_resets_without_trigger(self):
        # a non-finite sample is refused before the loop sees it; the loop's
        # own input k_pll * x overflows on a huge finite one, and the loop
        # starts over at 0 deg: from 72 deg (300 free-run samples) that jump
        # slips past the 195 deg target
        t = make_tracker(TrackerConfig(algorithm="pll", k_pll=1e300))
        for _ in range(300):
            t.step(0.0)
        est, ev = t.step(1e20)
        assert ev is None
        assert t.slip_count == 1
        assert t.reset_count == 1
        assert est == t.theta == t.phi_p == 0.0

    @pytest.mark.parametrize("bad", [math.inf, -math.inf])
    def test_infinite_input_resets_like_nan(self, bad):
        # k_pll * x overflows to either infinity, theta turns NaN and the
        # reset drops the sign: from 187.2 deg (130 free-run samples) the
        # jump to 0 deg crosses the 195 deg target for both
        t = make_tracker(TrackerConfig(algorithm="pll", k_pll=1e300))
        for _ in range(130):
            t.step(0.0)
        x = math.copysign(1e20, bad)
        assert 1e300 * x * math.cos(t.theta) == -bad
        est, ev = t.step(x)
        assert ev is not None
        assert t.slip_count == 0
        assert t.reset_count == 1
        assert est == t.theta == t.phi_p == 0.0

    def test_relock_after_phase_jump(self):
        # 90 deg step in the tone; the loop must re-converge
        n = int(FS * 240)
        t = np.arange(n) / FS
        phase = 2 * np.pi * 1.0 * t
        phase[n // 2:] += np.pi / 2
        x = 75.0 * np.sin(phase)
        events = make_tracker(TrackerConfig(algorithm="pll")).run(x)
        tail = [e for e in events if e.time_s > 200.0]
        sig = np.array([(math.degrees(phase[e.sample_index])) % 360.0 for e in tail])
        resid = (sig - 15.0 + 180.0) % 360.0 - 180.0
        assert abs(np.mean(resid)) < 20.0


class TestPv:
    def test_zero_input_holds_and_free_runs(self):
        tr = make_tracker(TrackerConfig(algorithm="pv"))
        events = tr.run(np.zeros(int(FS * 10)))
        idx = np.array([e.sample_index for e in events])
        assert np.all(np.diff(idx) == int(FS))
        assert tr.hold_count == int(FS * 10)

    def test_tracked_frequency_stays_clamped(self):
        tr = make_tracker(TrackerConfig(algorithm="pv"))
        x = sinusoid(10.0, 80.0, 30.0)   # far above the band
        freqs = []
        for v in x.tolist():
            _, f, _ = tr.step(v)
            freqs.append(f)
        freqs = np.array(freqs)
        assert freqs.min() >= 0.5 - 1e-12
        assert freqs.max() <= 4.0 + 1e-12

    def test_estimate_matches_signal_phase_on_tone(self):
        x = sinusoid(1.0, 75.0, 90.0)
        events = make_tracker(TrackerConfig(algorithm="pv")).run(x)
        settled = [e for e in events if e.time_s > 30.0]
        sig = np.array([signal_phase_deg(1.0, e.sample_index) for e in settled])
        resid = (sig - 45.0 + 180.0) % 360.0 - 180.0
        assert abs(np.mean(resid)) < 10.0
        assert np.std(resid) < 10.0

    def test_tracks_frequency_inside_band(self):
        tr = make_tracker(TrackerConfig(algorithm="pv"))
        x = sinusoid(2.5, 75.0, 60.0)
        freq = None
        for v in x.tolist():
            _, freq, _ = tr.step(v)
        assert freq == pytest.approx(2.5, abs=0.2)

    def test_determinism(self):
        rng = np.random.default_rng(9)
        x = 40.0 * rng.standard_normal(5000)
        cfg = TrackerConfig(algorithm="pv")
        assert make_tracker(cfg).run(x) == make_tracker(cfg).run(x)

    def test_nonfinite_sample_never_triggers(self):
        # sample 4281 triggers on the clean tone; as NaN it is refused
        cfg = TrackerConfig(algorithm="pv")
        x = sinusoid(1.0, 50.0, 20.0)
        assert 4281 in [e.sample_index for e in make_tracker(cfg).run(x)]
        x[4281] = math.nan
        with pytest.raises(StreamIntegrityError, match="non-finite sample at index 4281"):
            make_tracker(cfg).run(x)
        with pytest.raises(StreamIntegrityError, match="non-finite sample nan"):
            run_stepwise(make_tracker(cfg), x)


class TestMidBandDynamics:
    """Interval behavior on a 1.5 Hz / 25 uV tone: the vocoder follows the
    frequency, the deliberately weak PLL stays near its 1 Hz free-run."""

    def test_pv_follows_to_1p5hz(self):
        x = sinusoid(1.5, 25.0, 120.0)
        events = make_tracker(TrackerConfig(algorithm="pv")).run(x)
        gaps = np.diff([e.time_s for e in events if e.time_s > 30.0])
        assert np.median(gaps) == pytest.approx(1.0 / 1.5, rel=0.10)

    def test_pll_stays_near_free_run(self):
        x = sinusoid(1.5, 25.0, 120.0)
        events = make_tracker(TrackerConfig(algorithm="pll")).run(x)
        gaps = np.diff([e.time_s for e in events if e.time_s > 30.0])
        assert 0.9 <= np.median(gaps) <= 1.1
