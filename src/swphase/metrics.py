"""Evaluation quantities: circular statistics, phase-target error, active
stimulation percentages, slow-wave inventory, targeting capacity, and
trigger-interval statistics.

Phase arguments are degrees; the up-phase class is (0, 90] under the
convention 0 deg = upward zero crossing, 90 deg = positive peak.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import UndefinedStatisticError

TARGET_PHASE_DEG = 45.0
MAX_STIM_PER_WINDOW = 8       # 2 s window at the 4 Hz refractory ceiling
PAS_WINDOW_S = 2.0
UP_PHASE_DEG = (0.0, 90.0)    # half-open: (0, 90]
LOW_AMP_UV = (20.0, 60.0)     # peak-to-peak class bounds
MIN_WAVE_AMP_UV = 20.0        # below this a wave is uncounted ("sub20")

RESULTANT_EPS = 1e-9
PLATEAU_MAX_S = 0.05          # flat-run tolerance in minima detection

INTERVAL_HIST_RANGE_S = (0.25, 3.0)
INTERVAL_HIST_BIN_S = 0.05
PHASE_HIST_BINS = 36          # 10 deg each


@dataclass(frozen=True)
class CircularSummary:
    mean_deg: float
    sd_deg: float
    resultant: float
    n: int


def circular_mean_sd(phases_deg) -> CircularSummary:
    """First trigonometric moment statistics of a phase sample.

    sd is sqrt(-2 ln R) converted to degrees. A resultant below 1e-9
    (antipodal cancellation) leaves the mean undefined and raises.
    """
    p = np.radians(np.asarray(phases_deg, dtype=float))
    if p.size < 1:
        raise UndefinedStatisticError("circular mean of an empty sample")
    vec = np.exp(1j * p).mean()
    r = float(np.abs(vec))
    if r < RESULTANT_EPS:
        raise UndefinedStatisticError(f"resultant {r:.2e} below {RESULTANT_EPS}; mean undefined")
    mean = math.degrees(math.atan2(vec.imag, vec.real)) % 360.0
    sd = math.degrees(math.sqrt(max(0.0, -2.0 * math.log(r))))
    return CircularSummary(mean, sd, r, int(p.size))


def circular_distance_deg(a: float, b: float) -> float:
    """Shortest-arc distance between two angles, in [0, 180]."""
    d = math.fmod(a - b, 360.0)
    if d < -180.0:
        d += 360.0
    elif d > 180.0:
        d -= 360.0
    return abs(d)


def cmae45(phases_deg):
    """Distance of the circular mean from the 45 deg target.

    Returns (normalized in [0,1], degrees in [0,180]). Undefined-mean
    samples propagate the underlying error.
    """
    summary = circular_mean_sd(phases_deg)
    deg = circular_distance_deg(summary.mean_deg, TARGET_PHASE_DEG)
    return deg / 180.0, deg


def in_up_phase(phase_deg) -> np.ndarray:
    p = np.asarray(phase_deg, dtype=float)
    return (p > UP_PHASE_DEG[0]) & (p <= UP_PHASE_DEG[1])


def up_phase_pct(phases_deg) -> float:
    """Share of the phases inside the up-phase class, in percent; NaN for none."""
    p = np.asarray(phases_deg, dtype=float)
    return 100.0 * np.count_nonzero(in_up_phase(p)) / len(p) if len(p) else float("nan")


def pas_window_samples(fs: float) -> int:
    """Samples per PAS window at sampling rate fs."""
    return int(round(PAS_WINDOW_S * fs))


@dataclass(frozen=True)
class PasReport:
    pas_all: float
    pas_in_up: float
    pas_not_up: float
    qualifying_windows: int
    scored_nrem_windows: int
    n_triggers: int
    n_in_up: int


def pas(trigger_phases_deg, qualifying_windows: int,
        scored_nrem_windows: Optional[int] = None) -> PasReport:
    """Active-stimulation percentages against the window budget.

    qualifying_windows counts 2 s windows that are both hypnogram NREM and
    device NREM+SWA; scored_nrem_windows (optional) is the hypnogram-only
    count, carried through for reporting. pas_all is computed as the sum of
    its up and not-up parts, so the identity holds exactly in floating point.
    """
    if qualifying_windows < 1:
        raise UndefinedStatisticError("no qualifying windows; PAS undefined")
    p = np.asarray(trigger_phases_deg, dtype=float)
    n_all = int(p.size)
    n_up = int(np.count_nonzero(in_up_phase(p)))
    budget = qualifying_windows * MAX_STIM_PER_WINDOW
    pas_in = 100.0 * n_up / budget
    pas_not = 100.0 * (n_all - n_up) / budget
    pas_all = pas_in + pas_not
    return PasReport(pas_all, pas_in, pas_not, qualifying_windows,
                     scored_nrem_windows if scored_nrem_windows is not None
                     else qualifying_windows, n_all, n_up)


@dataclass(frozen=True)
class SlowWave:
    start: int           # index of the first minimum
    end: int             # index of the next minimum
    frequency_hz: float  # reciprocal minima spacing
    p2p_uv: float        # first minimum to the maximum between the minima
    amp_class: str       # sub20 | low | high


def local_minima(x: np.ndarray, fs: float) -> np.ndarray:
    """Minima of a signal, each at the first sample of a run of equal values.

    A run no longer than 50 ms, touching neither end of x, with a larger
    neighbor on both sides is one minimum; a strict three-point minimum is a
    run of one. Longer plateaus are ambiguous and yield nothing. NaN equals
    nothing, so it is a run of its own and never a larger neighbor.
    """
    x = np.asarray(x, dtype=float)
    max_run = max(1, int(round(PLATEAU_MAX_S * fs)))
    last = np.flatnonzero(np.diff(x) != 0.0)   # last sample of every run but the final one
    start, end = last[:-1] + 1, last[1:]       # the runs touching neither end
    keep = ((end - start < max_run) & (x[start - 1] > x[start])
            & (x[end + 1] > x[start]))
    return start[keep]


def detect_waves(filtered: np.ndarray, fs: float,
                 mask: Optional[np.ndarray] = None) -> list:
    """Slow-wave inventory of a 0.5-4 Hz filtered signal.

    Each adjacent pair of minima with both ends inside the mask yields one
    wave; p2p is the rise from the first minimum to the highest point before
    the next minimum.
    """
    filtered = np.asarray(filtered, dtype=float)
    mins = local_minima(filtered, fs)
    a, b = mins[:-1], mins[1:]
    peak = np.maximum.reduceat(filtered, mins)[:-1]   # max over [a, b)
    if mask is not None:
        inside = np.asarray(mask, dtype=bool)
        keep = inside[a] & inside[b]
        a, b, peak = a[keep], b[keep], peak[keep]
    p2p = peak - filtered[a]
    amp_class = np.where(p2p < MIN_WAVE_AMP_UV, "sub20",
                         np.where(p2p <= LOW_AMP_UV[1], "low", "high"))
    return list(map(SlowWave, a.tolist(), b.tolist(), (fs / (b - a)).tolist(),
                    p2p.tolist(), amp_class.tolist()))


@dataclass(frozen=True)
class TargetingReport:
    low_capacity_pct: float      # share of low-amplitude waves hit
    high_capacity_pct: float
    up_phase_pct: float          # share of triggers inside (0, 90]
    n_low: int
    n_high: int
    n_triggers: int


def targeting_capacity(waves, trigger_indices, trigger_phases_deg) -> TargetingReport:
    """Wave-hit rates per amplitude class plus the up-phase trigger share.

    A wave is hit iff at least one trigger index falls in [start, end).
    Sub-20 uV waves are excluded from both classes.
    """
    idx = np.sort(np.asarray(trigger_indices, dtype=int))
    bounds = np.array([(w.start, w.end) for w in waves], dtype=int).reshape(-1, 2)
    before_start, before_end = np.searchsorted(idx, bounds.T)
    hit = before_end > before_start
    classes = np.array([w.amp_class for w in waves], dtype=str)

    def capacity(amp_class):
        member = classes == amp_class
        n = int(np.count_nonzero(member))
        hits = int(np.count_nonzero(hit & member))
        return (100.0 * hits / n if n else float("nan")), n

    (low_pct, n_low), (high_pct, n_high) = capacity("low"), capacity("high")
    return TargetingReport(low_pct, high_pct, up_phase_pct(trigger_phases_deg),
                           n_low, n_high, len(idx))


@dataclass(frozen=True)
class IntervalReport:
    median_s: float
    sd_s: float
    n_intervals: int
    hist_edges_s: np.ndarray
    hist_counts: np.ndarray


def trigger_intervals(trigger_times_s) -> Optional[IntervalReport]:
    """Successive-difference statistics; None with fewer than two triggers.

    Histogram: 0.05 s bins over [0.25, 3] s.
    """
    t = np.sort(np.asarray(trigger_times_s, dtype=float))
    if t.size < 2:
        return None
    iv = np.diff(t)
    lo, hi = INTERVAL_HIST_RANGE_S
    edges = np.arange(lo, hi + INTERVAL_HIST_BIN_S / 2, INTERVAL_HIST_BIN_S)
    counts, _ = np.histogram(iv, bins=edges)
    return IntervalReport(float(np.median(iv)), float(np.std(iv)), len(iv),
                          edges, counts)


def phase_histogram(phases_deg, bins: int = PHASE_HIST_BINS):
    """Circular histogram: (edges_deg, counts), default 36 bins of 10 deg."""
    p = np.asarray(phases_deg, dtype=float) % 360.0
    edges = np.linspace(0.0, 360.0, bins + 1)
    counts, _ = np.histogram(p, bins=edges)
    return edges, counts
