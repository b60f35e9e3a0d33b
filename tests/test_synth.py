import hashlib

import numpy as np
import pytest

from swphase.dsp import band_powers
from swphase.errors import ConfigurationError
from swphase.recording import EPOCH_S, MAX_STAGE_EPOCHS, NREM_STAGES, epoch_samples
from swphase.synth import SynthSpec, _stage_gain, default_hypnogram, generate

from conftest import FS


def amplitude_class_split(spec):
    """Expected (low, high) wave fractions under the stationary (uniform)
    amplitude distribution of spec; low is p-p 20-60 uV, high > 60."""
    plo, phi = spec.sw_pp_range_uv
    width = phi - plo
    if width == 0:
        lo = 1.0 if 20.0 <= plo <= 60.0 else 0.0
        return lo, (1.0 if plo > 60.0 else 0.0)
    low = max(0.0, min(phi, 60.0) - max(plo, 20.0)) / width
    high = max(0.0, phi - max(plo, 60.0)) / width
    return low, high


def stage_gain(rec):
    """The slow-wave envelope gate (0..1 per sample) of rec's night, as
    ``generate`` computes it."""
    nrem = np.repeat(np.isin(rec.hypnogram, NREM_STAGES), epoch_samples(rec.fs))
    return _stage_gain(nrem, rec.fs)


def stage_windows(rec, stage, band, window_s=4.0, agg=np.median):
    """Aggregate band power over whole 4 s windows lying inside the stage."""
    mask = rec.stage_mask((stage,))
    n = int(window_s * rec.fs)
    vals = []
    for k in range(len(rec.samples) // n):
        s = slice(k * n, (k + 1) * n)
        if mask[s].all():
            vals.append(float(band_powers(rec.samples[s], rec.fs, [band])[0]))
    return float(agg(vals))


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        hyp = default_hypnogram(1)
        a = generate(SynthSpec(hypnogram=hyp, seed=3))
        b = generate(SynthSpec(hypnogram=hyp, seed=3))
        assert np.array_equal(a.recording.samples, b.recording.samples)
        assert np.array_equal(a.true_phase.phase_deg, b.true_phase.phase_deg)

    def test_different_seeds_differ(self):
        hyp = default_hypnogram(1)
        a = generate(SynthSpec(hypnogram=hyp, seed=3))
        b = generate(SynthSpec(hypnogram=hyp, seed=4))
        assert not np.array_equal(a.recording.samples, b.recording.samples)


# sha256 of the little-endian bytes of each output of the one-cycle default
# spec; a change to generate() that moves any value fails here
PINNED_NIGHTS = {
    0: {
        "samples": "34a160ebb0982fe86caa8016c51111390f24fae53a6a5a3df740d3e1132b1a19",
        "phase_deg": "66f394342fd7062783d022f0e3881278b3b4ade3df4f9ca00d1a42db8bb59225",
        "valid": "4bc9ec226fc20126f944191f92497e09fd345a4bd53d186fee6d6a781ad25e6f",
    },
    7919: {
        "samples": "d8711437a668cc8d4d84d6a1bc870557e11210e7fe7e0491c9bbc486d4eec252",
        "phase_deg": "8589a964f46a2d0268e1922d6cc05dda368e56b0284e1599e8b96a91f3fa0604",
        "valid": "4bc9ec226fc20126f944191f92497e09fd345a4bd53d186fee6d6a781ad25e6f",
    },
}


@pytest.mark.parametrize("seed", sorted(PINNED_NIGHTS))
def test_one_cycle_night_is_pinned(seed):
    out = generate(SynthSpec(hypnogram=default_hypnogram(1), seed=seed))
    arrays = {"samples": out.recording.samples,
              "phase_deg": out.true_phase.phase_deg,
              "valid": out.true_phase.valid}
    digests = {name: hashlib.sha256(np.ascontiguousarray(a, a.dtype.newbyteorder("<"))
                                    .tobytes()).hexdigest()
               for name, a in arrays.items()}
    assert digests == PINNED_NIGHTS[seed]


class TestShape:
    def test_duration_and_hypnogram(self, short_synth):
        rec = short_synth.recording
        hyp = default_hypnogram(1)
        assert rec.hypnogram == hyp
        assert len(rec.samples) == int(len(hyp) * EPOCH_S * rec.fs)
        assert rec.fs == FS

    def test_default_hypnogram_has_enough_nrem(self):
        hyp = default_hypnogram(4)
        nrem_s = sum(20.0 for s in hyp if s in ("N2", "N3"))
        assert nrem_s >= 2 * 3600.0   # two hours of scored NREM

    def test_default_hypnogram_is_bounded_like_a_stage_list(self):
        # 32 cycles fit in 24 h of epochs; the count is refused before any list is built
        assert len(default_hypnogram(32)) <= MAX_STAGE_EPOCHS
        for cycles in (33, 10 ** 12):
            with pytest.raises(ConfigurationError, match="cycles"):
                default_hypnogram(cycles)

    def test_true_phase_valid_only_while_oscillator_active(self, short_synth):
        valid = short_synth.true_phase.valid
        gain = stage_gain(short_synth.recording)
        assert np.array_equal(valid, gain >= 0.999)
        nrem = short_synth.recording.nrem_mask()
        assert not valid[~nrem].any()

    def test_gain_ramps_are_smooth(self, short_synth):
        steps = np.abs(np.diff(stage_gain(short_synth.recording)))
        assert steps.max() < 0.01


class TestOscillator:
    def test_instantaneous_frequency_stays_inside_walk_bounds(self, short_synth):
        ph = short_synth.true_phase.phase_deg
        valid = short_synth.true_phase.valid
        d = (np.diff(ph) + 180.0) % 360.0 - 180.0
        freq = d * FS / 360.0
        ok = valid[1:] & valid[:-1]
        assert freq[ok].min() >= 0.9 - 1e-6
        assert freq[ok].max() <= 1.4 + 1e-6

    def test_slow_wave_band_dominates_nrem(self, short_synth):
        rec = short_synth.recording
        n3 = stage_windows(rec, "N3", (0.5, 4.0))
        wake = stage_windows(rec, "W", (0.5, 4.0))
        assert n3 > 4.0 * wake


class TestStageTextures:
    def test_spindles_only_in_n2(self, short_synth):
        # spindle bursts are sparse and tapered; the mean and the extremes
        # see them, the median does not
        rec = short_synth.recording
        n2_mean = stage_windows(rec, "N2", (11.0, 14.0), agg=np.mean)
        n3_mean = stage_windows(rec, "N3", (11.0, 14.0), agg=np.mean)
        assert n2_mean > 1.2 * n3_mean
        n2_max = stage_windows(rec, "N2", (11.0, 14.0), agg=np.max)
        n3_max = stage_windows(rec, "N3", (11.0, 14.0), agg=np.max)
        assert n2_max > 1.8 * n3_max

    def test_wake_carries_alpha_and_beta(self, short_synth):
        rec = short_synth.recording
        assert stage_windows(rec, "W", (8.0, 12.0)) > \
            2.0 * stage_windows(rec, "N3", (8.0, 12.0))
        assert stage_windows(rec, "W", (17.0, 22.0)) > \
            2.0 * stage_windows(rec, "N3", (17.0, 22.0))

    def test_rem_carries_theta(self, short_synth):
        rec = short_synth.recording
        assert stage_windows(rec, "REM", (4.0, 6.0)) > \
            1.5 * stage_windows(rec, "N1", (4.0, 6.0))


class TestSpecValidation:
    def test_amplitude_class_split_is_uniform_prediction(self):
        spec = SynthSpec()
        low, high = amplitude_class_split(spec)
        assert low == pytest.approx((60.0 - 20.0) / (120.0 - 20.0))
        assert low + high == pytest.approx(1.0)

    def test_too_short_hypnogram_rejected(self):
        with pytest.raises(ConfigurationError):
            SynthSpec(hypnogram=["N3"] * 10).validate()

    def test_unknown_stage_rejected(self):
        with pytest.raises(ConfigurationError):
            SynthSpec(hypnogram=["N3"] * 35 + ["X"]).validate()

    def test_frequency_walk_must_stay_in_band(self):
        with pytest.raises(ConfigurationError):
            SynthSpec(sw_freq_range_hz=(0.2, 1.4)).validate()
        with pytest.raises(ConfigurationError):
            SynthSpec(sw_freq_range_hz=(1.0, 5.0)).validate()

    def test_amplitude_bounds_must_be_ordered(self):
        with pytest.raises(ConfigurationError):
            SynthSpec(sw_pp_range_uv=(120.0, 20.0)).validate()
