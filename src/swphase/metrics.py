"""Evaluation quantities: circular statistics, phase-target error, active
stimulation percentages, slow-wave inventory, targeting capacity, and the
median trigger interval.

Phase arguments are degrees; the up-phase class is (0, 90] under the
convention 0 deg = upward zero crossing, 90 deg = positive peak.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import UndefinedStatisticError
from .trackers import REFRACTORY_S

TARGET_PHASE_DEG = 45.0
PAS_WINDOW_S = 2.0
MAX_STIM_PER_WINDOW = round(PAS_WINDOW_S / REFRACTORY_S)   # 8 at the 4 Hz ceiling
UP_PHASE_DEG = (0.0, 90.0)    # half-open: (0, 90]
LOW_AMP_UV = (20.0, 60.0)     # p2p class bounds: low inside, high above, none below

RESULTANT_EPS = 1e-9
PLATEAU_MAX_S = 0.05          # flat-run tolerance in minima detection


@dataclass(frozen=True)
class CircularSummary:
    mean_deg: float
    sd_deg: float


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
    return CircularSummary(mean, sd)


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


def pas(trigger_phases_deg, qualifying_windows: int) -> PasReport:
    """Active-stimulation percentages against the window budget.

    qualifying_windows counts 2 s windows that are both hypnogram NREM and
    device NREM+SWA. pas_all is computed as the sum of its up and not-up
    parts, so the identity holds exactly in floating point.
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
    return PasReport(pas_all, pas_in, pas_not)


@dataclass
class SlowWaves:
    """Slow-wave inventory, one entry per wave. A wave runs from one minimum
    (start) to the next (end); its frequency is fs / (end - start)."""
    start: np.ndarray    # index of the first minimum
    end: np.ndarray      # index of the next minimum
    p2p_uv: np.ndarray   # first minimum to the maximum between the minima

    def __len__(self):
        return len(self.start)


def local_minima(x: np.ndarray, fs: float) -> np.ndarray:
    """Minima of a signal, each at the first sample of a run of equal values.

    A run no longer than 50 ms, touching neither end of x, with a larger
    neighbor on both sides is one minimum; a strict three-point minimum is a
    run of one. Longer plateaus are ambiguous and yield nothing. NaN equals
    nothing, so it is a run of its own and never a larger neighbor; neither
    is an infinity equal to its like (their difference is NaN).

    Only run starts with a larger left neighbor and a right neighbor not
    below them are candidates, and a plateau is followed for at most
    max_run samples, so the work and memory scale with the candidates.
    """
    x = np.asarray(x, dtype=float)
    max_run = max(1, int(round(PLATEAU_MAX_S * fs)))
    mid = x[1:-1]
    candidate = x[:-2] > mid
    candidate &= x[2:] >= mid
    start = np.flatnonzero(candidate) + 1
    del candidate
    level = x[start]
    # follow each run for at most max_run samples and never onto the last
    # sample of x; a run cut short is followed by its own value and fails
    end = start.copy()
    grow = np.isfinite(level)
    for _ in range(max_run - 1):
        grow &= end < len(x) - 2
        grow[grow] = x[end[grow] + 1] == level[grow]
        end[grow] += 1
    return start[x[end + 1] > level]


def detect_waves(filtered: np.ndarray, fs: float, mask: np.ndarray) -> SlowWaves:
    """Slow-wave inventory of a 0.5-4 Hz filtered signal.

    Each adjacent pair of minima with both ends inside the mask yields one
    wave; p2p is the rise from the first minimum to the highest point before
    the next minimum.
    """
    filtered = np.asarray(filtered, dtype=float)
    mins = local_minima(filtered, fs)
    a, b = mins[:-1], mins[1:]
    peak = np.maximum.reduceat(filtered, mins)[:-1]   # max over [a, b)
    inside = np.asarray(mask, dtype=bool)
    keep = inside[a] & inside[b]
    a, b, peak = a[keep], b[keep], peak[keep]
    return SlowWaves(a, b, peak - filtered[a])


@dataclass(frozen=True)
class TargetingReport:
    low_capacity_pct: Optional[float]   # share of low-amplitude waves hit
    high_capacity_pct: Optional[float]  # None for a class with no waves
    n_low: int
    n_high: int


def targeting_capacity(waves: SlowWaves, trigger_indices) -> TargetingReport:
    """Wave-hit rates per amplitude class.

    A wave is hit iff at least one trigger index falls in [start, end).
    The low class is p2p inside LOW_AMP_UV (bounds included), the high
    class p2p above it; waves below it are in neither. A class with no
    waves has no capacity (None).
    """
    idx = np.sort(np.asarray(trigger_indices, dtype=int))
    hit = np.searchsorted(idx, waves.end) > np.searchsorted(idx, waves.start)
    p2p = waves.p2p_uv

    def capacity(member):
        n = int(np.count_nonzero(member))
        hits = int(np.count_nonzero(hit & member))
        return (100.0 * hits / n if n else None), n

    low_pct, n_low = capacity((p2p >= LOW_AMP_UV[0]) & (p2p <= LOW_AMP_UV[1]))
    high_pct, n_high = capacity(p2p > LOW_AMP_UV[1])
    return TargetingReport(low_pct, high_pct, n_low, n_high)


def trigger_intervals(trigger_times_s) -> Optional[float]:
    """Median successive difference in seconds; None with fewer than two
    triggers."""
    t = np.sort(np.asarray(trigger_times_s, dtype=float))
    if t.size < 2:
        return None
    return float(np.median(np.diff(t)))
