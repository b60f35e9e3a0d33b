"""Causal streaming filters and windowed band power.

Every IIR filter is an ``IirFilter``: a cascade of sections of at most
second order, each with its own state, that all run one recurrence. ``step``
runs it for one sample and ``run`` is ``lfilter`` per section with carried
state; the two are bit-identical and refuse non-finite samples, as
``finite_samples`` does for the trackers. ``mod360`` is the one wrap of an
angle array into [0, 360) degrees.
"""
from __future__ import annotations

from math import isfinite

import numpy as np
from scipy import signal

from .errors import ConfigurationError, StreamIntegrityError

NOTCH_HZ = 50.0
NOTCH_Q = 30.0
HIGHPASS_HZ = 0.1
LOWPASS_HZ = 30.0
SW_ISOLATION_BAND = (0.5, 2.0)

MIN_FS = 2 * NOTCH_HZ       # exclusive: here the notch sits at Nyquist
MAX_FS = 20000.0            # above any EEG amplifier; a gate window is 80,000 samples


def _stable(a) -> bool:
    """Every root of the feedback polynomial a lies inside the unit circle."""
    return np.max(np.abs(np.roots(a)), initial=0.0) < 1.0


def check_fs(fs: float):
    """Refuse a sampling rate at which the notch is not below Nyquist, and
    one above MAX_FS, where buffers sized by the rate (the gate window, its
    Hann taper) would outgrow memory whatever the input's length. NaN and
    infinities are refused too. Within about 3e-7 Hz of MIN_FS the notch's
    poles round onto the unit circle, so there it counts as at Nyquist."""
    if not (MIN_FS < fs <= MAX_FS and _stable(design_notch(fs)[1])):
        raise ConfigurationError(f"sampling rate {fs} Hz: fs must be above {MIN_FS:g} Hz, "
                                 f"twice the {NOTCH_HZ:g} Hz notch frequency, "
                                 f"and at most {MAX_FS:g} Hz")


def design_notch(fs: float):
    """Second-order 50 Hz notch (quality factor 30), (b, a) arrays."""
    return signal.iirnotch(NOTCH_HZ, NOTCH_Q, fs=fs)


def design_highpass(fs: float):
    """First-order 0.1 Hz high-pass, bilinear transform."""
    return signal.butter(1, HIGHPASS_HZ, btype="highpass", fs=fs)


def design_lowpass(fs: float):
    """First-order 30 Hz low-pass, bilinear transform."""
    return signal.butter(1, LOWPASS_HZ, btype="lowpass", fs=fs)


def design_sw_isolation(fs: float):
    """First-order 0.5-2 Hz band-pass isolating slow waves ahead of the
    amplitude-threshold detector."""
    return signal.butter(1, SW_ISOLATION_BAND, btype="bandpass", fs=fs)


def finite_samples(x) -> np.ndarray:
    """x as a float array; a non-finite sample raises StreamIntegrityError."""
    x = np.asarray(x, dtype=float)
    finite = np.isfinite(x)
    if not finite.all():
        raise StreamIntegrityError(f"non-finite sample at index {finite.argmin()}")
    return x


def _section(b, a):
    """One (b, a) pair normalized to a[0] == 1 and zero-padded to length 3."""
    b, a = (np.array(v, dtype=float, ndmin=1) for v in (b, a))
    if max(len(b), len(a)) > 3:
        raise ConfigurationError("IIR section of order above 2; split it into sections")
    if not len(a) or a[0] == 0:
        raise ConfigurationError("leading feedback coefficient must be nonzero")
    b, a = b / a[0], a / a[0]
    if not _stable(a):
        raise ConfigurationError("unstable filter: feedback root on or outside the unit circle")
    return np.pad(b, (0, 3 - len(b))), np.pad(a, (0, 3 - len(a)))


class IirFilter:
    """Cascade of IIR sections: ``IirFilter((b1, a1), (b2, a2), ...)``.

    Each (b, a) section, of at most second order, runs in direct form II
    transposed on its own two state values. A first-order section is padded
    with zero b2 and a2, so all sections run the same recurrence, the one
    ``lfilter`` runs: ``step`` and ``run`` agree bit for bit, for any
    chunking. Against an unpadded first-order recurrence the outputs agree
    in value, and in bits except that a zero output can change sign once the
    section's state has decayed to zeros and denormals (+0 + -0 is +0).
    A non-finite sample raises StreamIntegrityError and touches no state.
    """

    def __init__(self, *sections):
        self.sections = [_section(b, a) for b, a in sections]
        # per section: plain-float (b0, b1, b2, a1, a2) for a cheap step(), state [z0, z1]
        self._steps = [((*b.tolist(), *a[1:].tolist()), [0.0, 0.0])
                       for b, a in self.sections]

    def step(self, x: float) -> float:
        if not isfinite(x):
            raise StreamIntegrityError(f"non-finite sample {x!r}")
        for (b0, b1, b2, a1, a2), z in self._steps:
            y = b0 * x + z[0]
            z[0] = z[1] + x * b1 - y * a1
            z[1] = x * b2 - y * a2
            x = y
        return x

    def run(self, x: np.ndarray) -> np.ndarray:
        y = finite_samples(x)
        if not len(y):   # lfilter would return a bogus state for no input
            return y
        for (b, a), (_, z) in zip(self.sections, self._steps):
            y, zf = signal.lfilter(b, a, y, zi=z)
            z[:] = zf.tolist()
        return y


class PreprocessChain(IirFilter):
    """The common front end: notch(50 Hz) -> high-pass(0.1 Hz) -> low-pass(30 Hz).

    Causal, one output sample per input sample. Like any ``IirFilter`` it
    refuses non-finite input rather than poisoning downstream state.
    """

    def __init__(self, fs: float):
        check_fs(fs)
        super().__init__(design_notch(fs), design_highpass(fs), design_lowpass(fs))
        self.fs = fs

    def run(self, x: np.ndarray) -> np.ndarray:
        """The chain's batch entry point: the cascade's ``run``."""
        return IirFilter.run(self, x)


def mod360(v):
    """``np.mod(v, 360.0)`` in place.

    Phase stream differences and the oracle's shifted angles lie in
    [-360, 360), where fmod is the identity, so one conditional add gives
    np.mod's values (up to the sign of a zero, which no comparison sees) at
    a fraction of its cost. Other inputs take np.mod.
    """
    if len(v) and not (v.min() >= -360.0 and v.max() < 360.0):
        return np.mod(v, 360.0, out=v)
    return np.add(v, 360.0, out=v, where=v < 0.0)


def band_powers(windows, fs: float, bands) -> np.ndarray:
    """Power (uV^2) of each window over each band (Hz, edges inclusive),
    shape ``windows.shape[:-1] + (len(bands),)``: a Hann-tapered one-sided
    periodogram, one rfft for all windows, normalized so a steady in-band
    sinusoid of amplitude A sums to about A^2/2. Bands are slices of the
    spectrum, which numpy sums in the same order for one window as for many."""
    x = np.asarray(windows, dtype=float)
    n = x.shape[-1]
    w = np.hanning(n)
    spectrum = np.abs(np.fft.rfft(x * w)) ** 2
    scale = 2.0 / (n * np.sum(w * w))
    return np.stack([spectrum[..., bins].sum(axis=-1) * scale
                     for bins in band_bins(n, fs, bands)], axis=-1)


def band_bins(n: int, fs: float, bands) -> list:
    """Slice of an n-sample window's rfft bins in each band (Hz, edges inclusive)."""
    freqs = np.fft.rfftfreq(n, 1.0 / fs)
    return [slice(freqs.searchsorted(lo), freqs.searchsorted(hi, "right"))
            for lo, hi in bands]
