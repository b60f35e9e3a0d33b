"""Causal streaming filters and windowed band power.

Everything here is sample-by-sample capable: each filter exposes ``step`` for
one sample and ``run`` for a batch, and the two are bit-identical (``run`` is
``scipy.signal.lfilter`` with carried state, ``step`` replays the same
difference equation in the same operation order).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import signal

from .errors import ConfigurationError, StreamIntegrityError

REFERENCE_FS = 250.0
MIN_FS = 100.0

NOTCH_HZ = 50.0
NOTCH_Q = 30.0
HIGHPASS_HZ = 0.1
LOWPASS_HZ = 30.0
SW_ISOLATION_BAND = (0.5, 2.0)


def design_notch(fs: float = REFERENCE_FS):
    """Second-order 50 Hz notch (quality factor 30), (b, a) arrays."""
    return signal.iirnotch(NOTCH_HZ, NOTCH_Q, fs=fs)


def design_highpass(fs: float = REFERENCE_FS):
    """First-order 0.1 Hz high-pass, bilinear transform."""
    return signal.butter(1, HIGHPASS_HZ, btype="highpass", fs=fs)


def design_lowpass(fs: float = REFERENCE_FS):
    """First-order 30 Hz low-pass, bilinear transform."""
    return signal.butter(1, LOWPASS_HZ, btype="lowpass", fs=fs)


def design_sw_isolation(fs: float = REFERENCE_FS):
    """First-order 0.5-2 Hz band-pass isolating slow waves ahead of the
    amplitude-threshold detector."""
    return signal.butter(1, SW_ISOLATION_BAND, btype="bandpass", fs=fs)


class IirFilter:
    """Single IIR section in direct form II transposed.

    Matches ``scipy.signal.lfilter`` output exactly, so streams can be
    processed per sample or in vectorized batches interchangeably.
    """

    def __init__(self, b, a):
        b = np.atleast_1d(np.asarray(b, dtype=float))
        a = np.atleast_1d(np.asarray(a, dtype=float))
        if a[0] == 0:
            raise ConfigurationError("leading feedback coefficient must be nonzero")
        if a[0] != 1.0:
            b = b / a[0]
            a = a / a[0]
        n = max(len(b), len(a))
        self.b = np.zeros(n)
        self.b[: len(b)] = b
        self.a = np.zeros(n)
        self.a[: len(a)] = a
        if n > 1:
            roots = np.roots(self.a)
            if len(roots) and np.max(np.abs(roots)) >= 1.0:
                raise ConfigurationError("unstable filter: feedback root on or outside the unit circle")
        self._z = np.zeros(n - 1)
        # plain-float mirrors of coefficients and state keep step() cheap
        self._bl = self.b.tolist()
        self._al = self.a.tolist()
        self._zl = [0.0] * (n - 1)

    def reset(self):
        self._z[:] = 0.0
        self._zl = [0.0] * len(self._zl)

    def step(self, x: float) -> float:
        b = self._bl
        a = self._al
        z = self._zl
        n = len(z)
        y = b[0] * x + z[0]
        for i in range(n - 1):
            z[i] = z[i + 1] + x * b[i + 1] - y * a[i + 1]
        z[n - 1] = x * b[n] - y * a[n]
        return y

    def run(self, x: np.ndarray) -> np.ndarray:
        z = np.asarray(self._zl, dtype=float)
        y, z = signal.lfilter(self.b, self.a, np.asarray(x, dtype=float), zi=z)
        self._zl = z.tolist()
        return y

    @property
    def state(self):
        return list(self._zl)


class PreprocessChain:
    """The common front end: notch(50 Hz) -> high-pass(0.1 Hz) -> low-pass(30 Hz).

    Causal, one output sample per input sample. Non-finite input raises
    StreamIntegrityError rather than poisoning downstream state.
    """

    def __init__(self, fs: float = REFERENCE_FS):
        if fs < MIN_FS:
            raise ConfigurationError(f"sampling rate {fs} Hz below supported minimum {MIN_FS}")
        self.fs = fs
        self._stages = [
            IirFilter(*design_notch(fs)),
            IirFilter(*design_highpass(fs)),
            IirFilter(*design_lowpass(fs)),
        ]

    def reset(self):
        for st in self._stages:
            st.reset()

    def step(self, x: float) -> float:
        if not math.isfinite(x):
            raise StreamIntegrityError(f"non-finite sample {x!r}")
        s1, s2, s3 = self._stages
        return s3.step(s2.step(s1.step(x)))

    def run(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if not np.all(np.isfinite(x)):
            bad = int(np.flatnonzero(~np.isfinite(x))[0])
            raise StreamIntegrityError(f"non-finite sample at index {bad}")
        y = x
        for st in self._stages:
            y = st.run(y)
        return y

    def frequency_response(self, freqs_hz):
        """Composed analytic response of the chain at the given frequencies."""
        w = 2 * np.pi * np.asarray(freqs_hz, dtype=float) / self.fs
        h = np.ones(len(w), dtype=complex)
        for st in self._stages:
            _, hi = signal.freqz(st.b, st.a, worN=w)
            h = h * hi
        return h


@dataclass(frozen=True)
class BandPower:
    band_hz: tuple
    power_uv2: float
    window_s: float


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
    freqs = np.fft.rfftfreq(n, 1.0 / fs)
    scale = 2.0 / (n * np.sum(w * w))
    return np.stack([spectrum[..., freqs.searchsorted(lo):freqs.searchsorted(hi, "right")]
                     .sum(axis=-1) * scale for lo, hi in bands], axis=-1)


def band_power(window, fs: float, band: tuple) -> BandPower:
    """Power of ``window`` integrated over ``band`` (Hz), in uV^2, from
    ``band_powers``.

    Args:
        window: samples, at least 2 s worth.
        fs: sampling rate in Hz.
        band: (low_hz, high_hz), inside (0, fs/2).
    """
    lo, hi = band
    if not (0 < lo < hi < fs / 2):
        raise ConfigurationError(f"band {band} outside (0, {fs / 2}) Hz")
    x = np.asarray(window, dtype=float)
    if len(x) < 2 * fs:
        raise ConfigurationError(f"band_power window {len(x)} samples, need >= {int(2 * fs)}")
    return BandPower((lo, hi), float(band_powers(x, fs, [band])[0]), len(x) / fs)
