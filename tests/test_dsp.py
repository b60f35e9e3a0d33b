import math

import numpy as np
import pytest
from scipy import signal

from swphase.dsp import (IirFilter, PreprocessChain, band_powers,
                         design_highpass, design_lowpass, design_notch,
                         design_sw_isolation, mod360)
from swphase.errors import ConfigurationError, StreamIntegrityError

from conftest import FS, sinusoid


DESIGNS = {"notch": design_notch, "highpass": design_highpass,
           "lowpass": design_lowpass, "isolation": design_sw_isolation}
SPECIAL_VALUES = (0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1.0, -1.0)


def reference_step(b, a):
    """One IIR section's per-sample recurrence in direct form II transposed,
    as a generic loop over its natural-order coefficients (no padding).
    Returns the step function; the state lives in its closure."""
    b = np.atleast_1d(np.asarray(b, dtype=float))
    a = np.atleast_1d(np.asarray(a, dtype=float))
    if a[0] != 1.0:
        b = b / a[0]
        a = a / a[0]
    n = max(len(b), len(a))
    b = b.tolist() + [0.0] * (n - len(b))
    a = a.tolist() + [0.0] * (n - len(a))
    z = [0.0] * (n - 1)

    def step(x):
        y = b[0] * x + z[0]
        for i in range(n - 2):
            z[i] = z[i + 1] + x * b[i + 1] - y * a[i + 1]
        z[n - 2] = x * b[n - 1] - y * a[n - 1]
        return y
    return step


def reference_and_filter(name, fs=FS):
    """(reference step functions in cascade order, IirFilter) for one design
    or, for "chain", the preprocessing chain."""
    if name == "chain":
        designs = (design_notch(fs), design_highpass(fs), design_lowpass(fs))
        return [reference_step(*d) for d in designs], PreprocessChain(fs)
    design = DESIGNS[name](fs)
    return [reference_step(*design)], IirFilter(design)


def stepped(steps, x):
    out = []
    for v in x:
        v = float(v)
        for st in steps:
            v = st(v)
        out.append(v)
    return np.array(out)


def special_sequences(seed, count, n):
    """Seeded sequences of signed zeros, denormals, tiny and unit values."""
    rng = np.random.default_rng(seed)
    return [rng.choice(SPECIAL_VALUES, n) for _ in range(count)]


def decay_sequences():
    """A unit step of either sign, then 1,200 zeros of either sign: the
    filters' states decay through the denormals to zero."""
    return [np.r_[s, np.full(1200, z)] for s in (1.0, -1.0) for z in (0.0, -0.0)]


def frequency_response(chain: PreprocessChain, freqs_hz):
    """Composed analytic response of the chain's sections at the given
    frequencies."""
    w = 2 * np.pi * np.asarray(freqs_hz, dtype=float) / chain.fs
    h = np.ones(len(w), dtype=complex)
    for b, a in chain.sections:
        h = h * signal.freqz(b, a, worN=w)[1]
    return h


def measure_response(chain: PreprocessChain, freq_hz: float, fs: float = FS,
                     settle_s: float = 60.0, measure_s: float = 20.0):
    """Empirical gain and phase shift via quadrature projection.

    Independent of the analytic frequency_response: runs an actual
    sinusoid through the filters and projects the steady-state tail.
    """
    n_settle = int(settle_s * fs)
    n = n_settle + int(measure_s * fs)
    t = np.arange(n) / fs
    x = np.sin(2 * np.pi * freq_hz * t)
    y = chain.run(x)[n_settle:]
    tt = t[n_settle:]
    c = 2 * np.mean(y * np.sin(2 * np.pi * freq_hz * tt))
    s = 2 * np.mean(y * np.cos(2 * np.pi * freq_hz * tt))
    gain = math.hypot(c, s)
    phase_deg = math.degrees(math.atan2(s, c))
    return gain, phase_deg


class TestIirFilter:
    def test_run_matches_scipy_lfilter_bitwise(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(5000)
        b, a = design_lowpass(FS)
        f = IirFilter((b, a))
        want = signal.lfilter(b, a, x)
        got = f.run(x)
        assert np.array_equal(got, want)

    def test_step_matches_run_bitwise(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(512)
        b, a = design_notch(FS)
        want = IirFilter((b, a)).run(x)
        f = IirFilter((b, a))
        got = np.array([f.step(float(v)) for v in x])
        assert np.array_equal(got, want)

    def test_chunked_run_matches_one_shot(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(1000)
        b, a = design_highpass(FS)
        want = IirFilter((b, a)).run(x)
        f = IirFilter((b, a))
        got = np.concatenate([f.run(x[:100]), f.run(x[100:317]), f.run(x[317:])])
        assert np.array_equal(got, want)

    def test_unstable_coefficients_rejected(self):
        # pole at z = 1.5
        with pytest.raises(ConfigurationError):
            IirFilter(([1.0], [1.0, -1.5]))

    @pytest.mark.parametrize("name", [*DESIGNS, "chain"])
    def test_step_equals_reference_recurrence_bitwise(self, name):
        rng = np.random.default_rng(5)
        for x in [40.0 * rng.standard_normal(3000), *special_sequences(6, 300, 100)]:
            refs, f = reference_and_filter(name)
            got = np.array([f.step(float(v)) for v in x])
            assert got.tobytes() == stepped(refs, x).tobytes()

    @pytest.mark.parametrize("fs", [101.0, 173.0, FS, 333.3, 512.0])
    @pytest.mark.parametrize("name", [*DESIGNS, "chain"])
    def test_step_equals_run_bitwise_at_any_rate(self, name, fs):
        # the padded section is the recurrence lfilter runs, signed zeros too
        for x in [*special_sequences(10, 100, 100), *decay_sequences()]:
            _, f = reference_and_filter(name, fs)
            got = np.array([f.step(float(v)) for v in x])
            _, f = reference_and_filter(name, fs)
            chunked = np.concatenate([f.run(x[:37]), f.run(x[37:])])
            assert got.tobytes() == chunked.tobytes()

    @pytest.mark.parametrize("fs", [101.0, 173.0, FS, 333.3, 512.0])
    @pytest.mark.parametrize("name", [*DESIGNS, "chain"])
    def test_padding_changes_at_most_the_sign_of_a_zero(self, name, fs):
        # A padded first-order section adds its second state value, a signed
        # zero, where the unpadded recurrence adds nothing: +0 + -0 is +0.
        # Once the state has decayed to zeros and denormals, the sign of a
        # zero output can therefore differ: the low-pass shows it on the
        # decays at 173 and 250 Hz and on the seeded sequences at 101 Hz.
        # Values never differ.
        for x in [*special_sequences(8, 100, 100), *decay_sequences()]:
            refs, f = reference_and_filter(name, fs)
            got = np.array([f.step(float(v)) for v in x])
            want = stepped(refs, x)
            assert np.array_equal(got, want)
            differ = got.view(np.uint64) != want.view(np.uint64)
            assert np.all(got[differ] == 0.0)

    def test_third_order_section_rejected(self):
        with pytest.raises(ConfigurationError, match="order"):
            IirFilter(signal.butter(3, 0.2))

    def test_unstable_section_in_a_cascade_rejected(self):
        # double pole at z = 1
        with pytest.raises(ConfigurationError, match="unstable"):
            IirFilter(design_notch(FS), ([1.0], [1.0, -2.0, 1.0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_sample_refused_before_it_touches_the_state(self, bad):
        # a bare cascade, not the preprocessing chain
        sections = (design_sw_isolation(FS), design_notch(FS))
        x = sinusoid(1.0, 40.0, 1.0).tolist()
        clean, refusing = IirFilter(*sections), IirFilter(*sections)
        for v in x[:100]:
            clean.step(v)
            refusing.step(v)
        with pytest.raises(StreamIntegrityError, match="non-finite sample"):
            refusing.step(bad)
        with pytest.raises(StreamIntegrityError, match="at index 3"):
            refusing.run(x[100:103] + [bad])
        # the next finite sample sees the state the bad one never reached
        assert refusing.step(x[100]) == clean.step(x[100])
        assert refusing.run(x[101:]).tobytes() == clean.run(x[101:]).tobytes()


class TestPreprocessChain:
    def test_empirical_gain_matches_analytic_response(self):
        chain = PreprocessChain(FS)
        for freq in (0.5, 1.0, 2.0, 4.0, 10.0):
            gain, phase = measure_response(PreprocessChain(FS), freq)
            h = frequency_response(chain, [freq])[0]
            assert gain == pytest.approx(abs(h), rel=1e-3)
            want_phase = math.degrees(math.atan2(h.imag, h.real))
            assert phase == pytest.approx(want_phase, abs=0.05)

    def test_slow_wave_band_passes_nearly_unchanged(self):
        gain, phase = measure_response(PreprocessChain(FS), 1.0)
        assert gain > 0.99          # < 1% attenuation at 1 Hz
        assert 2.0 < phase < 6.0    # small lead from the 0.1 Hz high-pass

    def test_highpass_stage_alone_leads_at_1hz(self):
        b, a = design_highpass(FS)
        _, h = signal.freqz(b, a, worN=[2 * np.pi * 1.0 / FS])
        lead = math.degrees(math.atan2(h[0].imag, h[0].real))
        assert lead == pytest.approx(5.71, abs=0.05)

    def test_mains_frequency_notched_out(self):
        gain, _ = measure_response(PreprocessChain(FS), 50.0)
        assert gain < 1e-3

    def test_lowpass_corner_at_30hz(self):
        gain, _ = measure_response(PreprocessChain(FS), 30.0)
        assert gain == pytest.approx(1 / math.sqrt(2), rel=0.02)

    def test_step_rejects_nonfinite_input(self):
        chain = PreprocessChain(FS)
        chain.step(1.0)
        with pytest.raises(StreamIntegrityError):
            chain.step(float("nan"))

    def test_run_names_first_bad_index(self):
        chain = PreprocessChain(FS)
        x = np.zeros(100)
        x[37] = np.inf
        with pytest.raises(StreamIntegrityError, match="37"):
            chain.run(x)

    def test_fs_below_minimum_rejected(self):
        with pytest.raises(ConfigurationError):
            PreprocessChain(50.0)

    def test_fs_at_twice_the_notch_rejected(self):
        with pytest.raises(ConfigurationError,
                           match="above 100 Hz, twice the 50 Hz notch frequency"):
            PreprocessChain(100.0)
        PreprocessChain(101.0)

    @pytest.mark.parametrize("fs", [100.000000001, 100.0000001])
    def test_fs_whose_notch_rounds_onto_nyquist_rejected(self, fs):
        # the notch's poles round onto the unit circle: refused as a rate,
        # never as an unstable filter
        with pytest.raises(ConfigurationError, match="twice the 50 Hz notch"):
            PreprocessChain(fs)

    def test_chunked_run_equals_one_run_and_step_loop_bitwise(self):
        rng = np.random.default_rng(9)
        x = 40.0 * rng.standard_normal(6000)
        x[2000:2100] = 0.0
        want = PreprocessChain(FS).run(x)
        chain = PreprocessChain(FS)
        bounds = [0, 1, 8, 8, 999, 1000, 2050, 4097, len(x)]   # one chunk empty
        chunked = np.concatenate([chain.run(x[lo:hi]) for lo, hi in zip(bounds, bounds[1:])])
        chain = PreprocessChain(FS)
        looped = np.array([chain.step(float(v)) for v in x])
        assert chunked.tobytes() == want.tobytes()
        assert looped.tobytes() == want.tobytes()


class TestSlowWaveIsolation:
    def test_passband_and_rejection(self):
        b, a = design_sw_isolation(FS)
        w = 2 * np.pi * np.array([1.0, 10.0, 0.05]) / FS
        _, h = signal.freqz(b, a, worN=w)
        assert abs(h[0]) > 0.85     # ~1 Hz passes
        assert abs(h[1]) < 0.3      # 10 Hz attenuated
        assert abs(h[2]) < 0.3      # drift attenuated


class TestBandPower:
    """``band_powers`` over one window and one band."""

    def power(self, x, band):
        return float(band_powers(x, FS, [band])[0])

    def test_sinusoid_power_is_half_amplitude_squared(self):
        # 60 uV peak-to-peak -> amplitude 30 -> 450 uV^2
        x = sinusoid(1.0, 30.0, 4.0)
        assert self.power(x, (0.5, 2.0)) == pytest.approx(450.0, rel=0.01)

    def test_out_of_band_sinusoid_contributes_nothing(self):
        x = sinusoid(20.0, 30.0, 4.0)
        assert self.power(x, (0.5, 4.0)) < 0.5

    def test_white_noise_total_power_is_variance(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(int(FS * 60)) * 10.0
        assert self.power(x, (0.1, FS / 2 - 0.1)) == pytest.approx(100.0, rel=0.05)

    def test_band_additivity(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(int(FS * 30))
        whole = self.power(x, (1.0, 20.0))
        left = self.power(x, (1.0, 9.99))
        right = self.power(x, (10.0, 20.0))
        assert left + right == pytest.approx(whole, rel=1e-9)


class TestMod360:
    """``mod360`` is ``np.mod(v, 360.0)`` bit for bit; -0.0, where the two
    differ in the sign of the zero only, is left out."""

    def test_bits_on_the_fast_range(self):
        rng = np.random.default_rng(5)
        v = np.concatenate([[-360.0, -1e-300, 0.0, 359.99999999999994, -180.0, 5e-324],
                            rng.uniform(-360.0, 360.0, 10000)])
        want = np.mod(v, 360.0)
        assert mod360(v) is v
        assert v.tobytes() == want.tobytes()
        assert v[1] == 360.0      # -1e-300 wraps onto 360, as np.mod puts it

    def test_bits_outside_the_range(self):
        v = np.array([-725.5, -360.5, 10.0, 360.0, 1e300, 719.25])
        want = np.mod(v, 360.0)
        assert mod360(v).tobytes() == want.tobytes()
