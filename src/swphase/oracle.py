"""Offline ground-truth phase: zero-phase band-pass plus analytic signal.

Strictly non-causal, whole-recording batch processing. The phase convention
throughout the package: 0 deg at the negative-to-positive zero crossing,
90 deg at the positive peak. For x = sin(2*pi*f*t) the track is a clean ramp.
"""
from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter

import numpy as np
from scipy import signal

from .errors import RecordingTooShortError

SW_BAND_HZ = (0.5, 4.0)
FILTER_ORDER = 4          # design order per pass (band-pass doubles it)
STOPBAND_DB = 40.0
CROP_S = 210.0            # invalidated at each end of the track
MIN_VALID_S = 60.0        # refuse recordings without this much left over


@dataclass
class PhaseTrack:
    """Per-sample phase in degrees [0, 360) plus a validity mask."""
    phase_deg: np.ndarray
    valid: np.ndarray
    fs: float

    def __len__(self):
        return len(self.phase_deg)


def design_oracle_bandpass(fs: float, order: int = FILTER_ORDER,
                           stopband_db: float = STOPBAND_DB, band=SW_BAND_HZ):
    return signal.cheby2(order, stopband_db, band, btype="bandpass",
                         fs=fs, output="sos")


def zero_phase_bandpass(x, fs: float, order: int = FILTER_ORDER,
                        stopband_db: float = STOPBAND_DB) -> np.ndarray:
    """Forward-backward 0.5-4 Hz Chebyshev II band-pass; net phase zero.

    Reflection padding absorbs edge transients; the caller is expected to
    crop anyway (see hilbert_phase).
    """
    x = np.asarray(x, dtype=float)
    min_len = int((2 * CROP_S + MIN_VALID_S) * fs)
    if len(x) < min_len:
        raise RecordingTooShortError(
            f"need >= {min_len} samples ({2 * CROP_S + MIN_VALID_S:.0f} s), got {len(x)}")
    sos = design_oracle_bandpass(fs, order, stopband_db)
    return signal.sosfiltfilt(sos, x, padtype="even")


def hilbert_phase(filtered, fs: float) -> PhaseTrack:
    """Instantaneous phase of the filtered signal, cropped at both ends.

    The analytic signal is built over the full recording; angle is shifted
    so the convention holds (a positive peak maps to 90 deg).
    """
    filtered = np.asarray(filtered, dtype=float)
    analytic = signal.hilbert(filtered)
    phase = (np.degrees(np.angle(analytic)) + 90.0) % 360.0
    valid = np.zeros(len(filtered), dtype=bool)
    crop = int(CROP_S * fs)
    if len(filtered) > 2 * crop:
        valid[crop:len(filtered) - crop] = True
    return PhaseTrack(phase, valid, fs)


def compute_phase_track(x, fs: float, order: int = FILTER_ORDER,
                        stopband_db: float = STOPBAND_DB) -> PhaseTrack:
    """zero_phase_bandpass + hilbert_phase in one call."""
    return hilbert_phase(zero_phase_bandpass(x, fs, order, stopband_db), fs)


def trigger_samples(triggers) -> np.ndarray:
    """Sample index of each trigger event, in order."""
    return np.fromiter(map(attrgetter("sample_index"), triggers), dtype=np.intp)


def valid_samples(track: PhaseTrack, sample_index) -> np.ndarray:
    """The sample indices inside the track and its valid mask, in order."""
    i = np.asarray(sample_index, dtype=np.intp)
    i = i[(i >= 0) & (i < len(track))]
    return i[track.valid[i]]


def phase_at_triggers(track: PhaseTrack, triggers):
    """Ground-truth phase for each trigger inside the valid region.

    Returns (phases_deg, dropped_count); triggers outside the mask are
    dropped, not errors.
    """
    idx = trigger_samples(triggers)
    kept = valid_samples(track, idx)
    return track.phase_deg[kept], len(idx) - len(kept)
