"""Circular statistics, target error, stimulation percentages, wave metrics."""
import math
from dataclasses import astuple

import numpy as np
import pytest

from swphase.errors import UndefinedStatisticError
from swphase.metrics import (
    SlowWave,
    circular_distance_deg,
    circular_mean_sd,
    cmae45,
    detect_waves,
    in_up_phase,
    local_minima,
    pas,
    up_phase_pct,
    phase_histogram,
    targeting_capacity,
    trigger_intervals,
)


class TestCircularMean:
    def test_plain_average_on_one_side(self):
        s = circular_mean_sd([30.0, 60.0])
        assert s.mean_deg == pytest.approx(45.0, abs=1e-9)
        assert s.n == 2

    def test_wraps_across_zero(self):
        s = circular_mean_sd([350.0, 10.0])
        assert min(s.mean_deg, 360.0 - s.mean_deg) == pytest.approx(0.0, abs=1e-9)

    def test_antipodal_sample_is_undefined(self):
        with pytest.raises(UndefinedStatisticError):
            circular_mean_sd([0.0, 180.0])

    def test_empty_sample_is_undefined(self):
        with pytest.raises(UndefinedStatisticError):
            circular_mean_sd([])

    def test_single_value(self):
        s = circular_mean_sd([225.0])
        assert s.mean_deg == pytest.approx(225.0)
        assert s.resultant == pytest.approx(1.0)
        assert s.sd_deg == pytest.approx(0.0, abs=1e-6)

    def test_sd_matches_small_angle_spread(self):
        # two points +-5 deg apart: sd ~ the half-spread
        s = circular_mean_sd([40.0, 50.0])
        assert s.sd_deg == pytest.approx(5.0, rel=0.01)

    def test_sd_grows_with_dispersion(self):
        tight = circular_mean_sd([44.0, 46.0]).sd_deg
        loose = circular_mean_sd([0.0, 90.0]).sd_deg
        assert loose > 10.0 * tight


class TestCircularDistance:
    @pytest.mark.parametrize("a,b,expect", [
        (10.0, 350.0, 20.0),
        (45.0, 45.0, 0.0),
        (0.0, 180.0, 180.0),
        (359.0, 1.0, 2.0),
        (720.0 + 50.0, 50.0, 0.0),
    ])
    def test_shortest_arc(self, a, b, expect):
        assert circular_distance_deg(a, b) == pytest.approx(expect, abs=1e-9)
        assert circular_distance_deg(b, a) == pytest.approx(expect, abs=1e-9)


class TestCmae45:
    def test_on_target_is_zero(self):
        norm, deg = cmae45([45.0, 45.0, 45.0])
        assert norm == pytest.approx(0.0, abs=1e-12)
        assert deg == pytest.approx(0.0, abs=1e-9)

    def test_antipode_is_max(self):
        norm, deg = cmae45([225.0])
        assert norm == pytest.approx(1.0)
        assert deg == pytest.approx(180.0)

    def test_mean_not_individual_errors(self):
        # {30, 60} average to the target even though neither is on it
        _, deg = cmae45([30.0, 60.0])
        assert deg == pytest.approx(0.0, abs=1e-9)

    def test_rotation_equivariance(self):
        rng = np.random.default_rng(7)
        phases = rng.uniform(0.0, 360.0, 40)
        base_mean = circular_mean_sd(phases).mean_deg
        for delta in rng.uniform(-720.0, 720.0, 100):
            _, deg = cmae45(np.mod(phases + delta, 360.0))
            expect = circular_distance_deg(base_mean + delta, 45.0)
            assert deg == pytest.approx(expect, abs=1e-9)


class TestUpPhase:
    def test_half_open_interval(self):
        p = np.array([0.0, 1e-9, 45.0, 90.0, 90.0 + 1e-9, 180.0, 359.0])
        np.testing.assert_array_equal(
            in_up_phase(p),
            [False, True, True, True, False, False, False])


class TestPas:
    def test_known_percentage(self):
        # 12 up-phase triggers over 10 windows of budget 8 each -> 15%
        report = pas([45.0] * 12, qualifying_windows=10)
        assert report.pas_in_up == pytest.approx(15.0)
        assert report.pas_all == pytest.approx(15.0)
        assert report.pas_not_up == pytest.approx(0.0)
        assert report.n_in_up == 12

    def test_identity_is_exact_in_floating_point(self):
        rng = np.random.default_rng(123)
        for _ in range(1000):
            windows = int(rng.integers(1, 5000))
            n_all = int(rng.integers(0, 2000))
            phases = rng.uniform(0.0, 360.0, n_all)
            r = pas(phases, qualifying_windows=windows)
            assert r.pas_all == r.pas_in_up + r.pas_not_up
            assert r.pas_all == pytest.approx(100.0 * n_all / (8 * windows), rel=1e-12)

    def test_no_windows_is_undefined(self):
        with pytest.raises(UndefinedStatisticError):
            pas([45.0], qualifying_windows=0)

    def test_scored_count_carried_through(self):
        r = pas([45.0], qualifying_windows=3, scored_nrem_windows=9)
        assert r.qualifying_windows == 3
        assert r.scored_nrem_windows == 9


def reference_local_minima(x, fs):
    """The earlier two-rule version: strict three-point minima plus short
    plateaus found one run at a time, merged."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    if n < 3:
        return np.empty(0, dtype=int)
    strict = np.flatnonzero((x[1:-1] < x[:-2]) & (x[1:-1] < x[2:])) + 1
    max_plateau = max(1, int(round(0.05 * fs)))
    change = np.flatnonzero(np.diff(x) != 0.0)
    starts = np.concatenate([[0], change + 1])
    ends = np.concatenate([change, [n - 1]])
    plateaus = []
    for s, e in zip(starts, ends):
        if e == s or s == 0 or e == n - 1:
            continue
        if (e - s + 1) <= max_plateau and x[s - 1] > x[s] and x[e + 1] > x[s]:
            plateaus.append(s)
    if plateaus:
        return np.unique(np.concatenate([strict, np.asarray(plateaus, dtype=int)]))
    return strict


def reference_amp_class(p2p):
    if p2p < 20.0:
        return "sub20"
    return "low" if p2p <= 60.0 else "high"


def reference_waves(x, fs, mask=None):
    """One wave per adjacent pair of reference minima, judged pair by pair."""
    mins = reference_local_minima(x, fs)
    waves = []
    for a, b in zip(mins[:-1], mins[1:]):
        if mask is not None and not (mask[a] and mask[b]):
            continue
        p2p = float(x[a:b + 1].max() - x[a])
        waves.append(SlowWave(int(a), int(b), fs / (b - a), p2p,
                              reference_amp_class(p2p)))
    return waves


def run_sequences(seed, count=300, max_len=60):
    """Seeded sequences built from runs of 1-14 equal values over a
    four-letter alphabet, so plateaus of every length up to 14 occur, at the
    ends too; about one sample in twenty is NaN."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n_runs = int(rng.integers(0, 12))
        x = np.repeat(rng.integers(0, 4, n_runs).astype(float),
                      rng.integers(1, 15, n_runs))[:int(rng.integers(0, max_len + 1))]
        x[rng.random(len(x)) < 0.05] = np.nan
        yield x


class TestLocalMinima:
    FS = 250.0

    @pytest.mark.parametrize("fs", [100.0, 250.0])
    def test_matches_two_rule_reference(self, fs):
        for x in run_sequences(seed=int(fs)):
            got = local_minima(x, fs)
            np.testing.assert_array_equal(got, reference_local_minima(x, fs))
            assert got.dtype.kind == "i"

    def test_simple_vee(self):
        np.testing.assert_array_equal(
            local_minima(np.array([3.0, 1.0, 2.0]), self.FS), [1])

    def test_sine_minima_spacing_is_one_period(self):
        t = np.arange(int(4 * self.FS)) / self.FS
        x = np.sin(2 * np.pi * 1.0 * t)
        mins = local_minima(x, self.FS)
        gaps = np.diff(mins)
        assert np.all(np.abs(gaps - self.FS) <= 1)

    def test_short_plateau_counts_once_at_first_sample(self):
        x = np.array([5.0, 2.0, 2.0, 2.0, 5.0, 6.0])
        np.testing.assert_array_equal(local_minima(x, self.FS), [1])

    def test_long_plateau_is_ambiguous(self):
        # 50 ms at 250 Hz is 12 samples; 13 equal samples yield nothing
        x = np.concatenate([[5.0], np.full(13, 2.0), [5.0]])
        assert local_minima(x, self.FS).size == 0
        x = np.concatenate([[5.0], np.full(12, 2.0), [5.0]])
        np.testing.assert_array_equal(local_minima(x, self.FS), [1])

    def test_edge_plateau_excluded(self):
        x = np.array([2.0, 2.0, 5.0, 1.0, 4.0])
        np.testing.assert_array_equal(local_minima(x, self.FS), [3])

    def test_too_short_input(self):
        assert local_minima(np.array([1.0, 2.0]), self.FS).size == 0


class TestDetectWaves:
    FS = 250.0

    def two_cycle_sine(self, amp):
        t = np.arange(int(3 * self.FS)) / self.FS
        return amp * np.sin(2 * np.pi * 1.0 * t)

    def test_amplitude_classes(self):
        for amp, cls in [(8.0, "sub20"), (15.0, "low"), (40.0, "high")]:
            waves = detect_waves(self.two_cycle_sine(amp), self.FS)
            assert len(waves) >= 1
            for w in waves:
                assert w.amp_class == cls
                assert w.p2p_uv == pytest.approx(2 * amp, rel=0.01)
                assert w.frequency_hz == pytest.approx(1.0, rel=0.02)

    def test_mask_drops_waves_touching_excluded_samples(self):
        x = self.two_cycle_sine(15.0)
        full = detect_waves(x, self.FS)
        mask = np.ones(len(x), dtype=bool)
        mask[full[0].start] = False
        masked = detect_waves(x, self.FS, mask=mask)
        assert len(masked) == len(full) - 1
        assert masked[0].start == full[1].start

    def test_low_class_bounds_are_inclusive(self):
        x = np.array([70.0, 0.0, 60.0, 0.0, 20.0, 0.0, 19.5, 0.0, 60.5, 0.0, 70.0])
        waves = detect_waves(x, self.FS)
        assert [w.amp_class for w in waves] == ["low", "low", "sub20", "high"]

    @pytest.mark.parametrize("fs", [100.0, 250.0])
    def test_masked_waves_match_pairwise_reference(self, fs):
        rng = np.random.default_rng(5)
        t = np.arange(int(60 * fs)) / fs
        x = (30.0 * np.sin(2 * np.pi * 0.9 * t) + 12.0 * np.sin(2 * np.pi * 2.3 * t)
             + rng.normal(0.0, 2.0, len(t)))
        x = np.round(x)                    # equal neighbors make plateaus
        x[rng.integers(0, len(x), 5)] = np.nan
        mask = np.repeat(rng.random(len(x) // 100 + 1) < 0.7, 100)[:len(x)]
        for m in (None, mask):
            got = detect_waves(x, fs, m)
            assert all(isinstance(w, SlowWave) for w in got)
            np.testing.assert_equal([astuple(w) for w in got],   # NaN p2p equal
                                    [astuple(w) for w in reference_waves(x, fs, m)])
            assert len(got) > 20

    def test_wave_bounds_are_adjacent_minima(self):
        waves = detect_waves(self.two_cycle_sine(15.0), self.FS)
        for a, b in zip(waves[:-1], waves[1:]):
            assert a.end == b.start


class TestTargetingCapacity:
    def waves(self):
        return [
            SlowWave(100, 200, 1.0, 30.0, "low"),
            SlowWave(300, 400, 1.0, 80.0, "high"),
            SlowWave(500, 600, 1.0, 10.0, "sub20"),
        ]

    def test_per_class_hit_rates(self):
        r = targeting_capacity(self.waves(), [150, 550], [45.0, 120.0])
        assert r.low_capacity_pct == pytest.approx(100.0)
        assert r.high_capacity_pct == pytest.approx(0.0)
        assert r.up_phase_pct == pytest.approx(50.0)
        assert (r.n_low, r.n_high, r.n_triggers) == (1, 1, 2)

    def test_interval_is_half_open(self):
        r = targeting_capacity(self.waves(), [200], [45.0])
        assert r.low_capacity_pct == pytest.approx(0.0)    # end is exclusive
        assert r.high_capacity_pct == pytest.approx(0.0)
        r = targeting_capacity(self.waves(), [300], [45.0])
        assert r.high_capacity_pct == pytest.approx(100.0)  # start inclusive

    def test_empty_class_is_nan(self):
        lows = [w for w in self.waves() if w.amp_class == "low"]
        r = targeting_capacity(lows, [150], [45.0])
        assert math.isnan(r.high_capacity_pct)
        assert r.n_high == 0

    def test_no_triggers(self):
        r = targeting_capacity(self.waves(), [], [])
        assert r.low_capacity_pct == pytest.approx(0.0)
        assert math.isnan(r.up_phase_pct)


    def test_hits_match_per_wave_reference(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            starts = np.sort(rng.integers(0, 200, rng.integers(0, 12)))
            waves = [SlowWave(int(a), int(a + d), 1.0, 0.0, c) for a, d, c in
                     zip(starts, rng.integers(1, 30, len(starts)),
                         rng.choice(["sub20", "low", "high"], len(starts)))]
            idx = rng.integers(0, 230, rng.integers(0, 10))
            r = targeting_capacity(waves, idx, np.zeros(len(idx)))
            for cls, pct, n in (("low", r.low_capacity_pct, r.n_low),
                                ("high", r.high_capacity_pct, r.n_high)):
                members = [w for w in waves if w.amp_class == cls]
                hits = sum(any(w.start <= i < w.end for i in idx) for w in members)
                assert n == len(members)
                if members:
                    assert pct == 100.0 * hits / len(members)
                else:
                    assert math.isnan(pct)


class TestUpPhasePct:
    def test_share_in_percent(self):
        assert up_phase_pct([45.0, 90.0, 0.0, 200.0]) == 50.0
        assert math.isnan(up_phase_pct([]))


class TestTriggerIntervals:
    def test_regular_spacing(self):
        r = trigger_intervals([0.0, 1.0, 2.0, 3.0])
        assert r.median_s == pytest.approx(1.0)
        assert r.sd_s == pytest.approx(0.0, abs=1e-12)
        assert r.n_intervals == 3

    def test_too_few_triggers(self):
        assert trigger_intervals([1.0]) is None
        assert trigger_intervals([]) is None

    def test_unsorted_input_is_sorted_first(self):
        r = trigger_intervals([3.0, 0.0, 1.0, 2.0])
        assert r.median_s == pytest.approx(1.0)

    def test_histogram_bins(self):
        r = trigger_intervals([0.0, 0.3, 0.8])   # intervals 0.3 and 0.5
        assert r.hist_edges_s[0] == pytest.approx(0.25)
        assert r.hist_edges_s[-1] == pytest.approx(3.0)
        assert r.hist_counts.sum() == 2
        hit_bins = np.flatnonzero(r.hist_counts)
        np.testing.assert_allclose(r.hist_edges_s[hit_bins], [0.3, 0.5], atol=1e-9)


class TestPhaseHistogram:
    def test_default_bins(self):
        edges, counts = phase_histogram([5.0, 15.0, 355.0])
        assert len(edges) == 37
        assert counts.sum() == 3
        assert counts[0] == 1 and counts[1] == 1 and counts[35] == 1

    def test_negative_phases_wrap(self):
        _, counts = phase_histogram([-5.0])
        assert counts[35] == 1
