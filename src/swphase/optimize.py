"""Parameter search: k-fold cross-validated grid search with selection by
distance to the utopia point.

Objectives per parameter combo, computed from pooled per-recording tallies:

- cmae_norm: circular distance of the pooled mean trigger phase from the
  45 deg target, normalized by 180;
- pas_not_up_norm: stimulation accuracy outside the rising phase, /100;
- pas_in_up_norm: stimulation accuracy inside the rising phase, /100.

Utopia is (0, 0, 1). A combo that yields zero triggers on a fold side is
assigned cmae_norm=1 and both PAS terms 0, so its distance is sqrt(2).
Selection minimizes ed_error = mean validation distance plus the absolute
gap between mean optimization and mean validation distances; ties fall to
the smaller mean validation distance, then to declaration order.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .dsp import PreprocessChain
from .errors import ConfigurationError
from .gate import (DELIVERED, GateConfig, candidate_reasons, gate_flags_batch,
                   in_window, window_reasons)
from .metrics import (MAX_STIM_PER_WINDOW, TARGET_PHASE_DEG,
                      circular_distance_deg, in_up_phase)
from .oracle import compute_phase_track, valid_samples
from .pipeline import (candidates_from_phase_stream, in_pas_window,
                       qualifying_windows, tracker_phase_stream)
from .recording import EegRecording
from .trackers import (KERNEL_FIELDS, TrackerConfig, forward_arcs, level_hits,
                       make_tracker, refractory)


@dataclass
class ObjectiveTally:
    """Sufficient statistics for the three objectives, summable across
    recordings and folds."""
    vec_real: float = 0.0
    vec_imag: float = 0.0
    n_phased: int = 0        # oracle-valid delivered triggers (mean phase)
    n_in_windows: int = 0    # delivered triggers inside qualifying windows
    n_up: int = 0            # ... of those, inside the rising phase
    windows: int = 0         # qualifying 2 s windows

    def __add__(self, other: "ObjectiveTally") -> "ObjectiveTally":
        return ObjectiveTally(
            self.vec_real + other.vec_real,
            self.vec_imag + other.vec_imag,
            self.n_phased + other.n_phased,
            self.n_in_windows + other.n_in_windows,
            self.n_up + other.n_up,
            self.windows + other.windows,
        )


def tally_from_phases(phases_deg, in_window_flags, windows: int) -> ObjectiveTally:
    """Build a tally from oracle phases of delivered triggers.

    in_window_flags marks, per trigger, whether it fell inside a qualifying
    window (those feed the PAS terms; all feed the mean phase).
    """
    p = np.asarray(phases_deg, dtype=float)
    inw = np.asarray(in_window_flags, dtype=bool)
    if len(p) != len(inw):
        raise ConfigurationError("one in-window flag per trigger phase required")
    rad = np.radians(p)
    up = in_up_phase(p)
    return ObjectiveTally(
        vec_real=float(np.cos(rad).sum()),
        vec_imag=float(np.sin(rad).sum()),
        n_phased=len(p),
        n_in_windows=int(inw.sum()),
        n_up=int((up & inw).sum()),
        windows=int(windows),
    )


def objectives_from_tally(t: ObjectiveTally):
    """(cmae_norm, pas_not_up_norm, pas_in_up_norm) from a pooled tally."""
    if t.n_phased == 0:
        return 1.0, 0.0, 0.0
    mean = math.degrees(math.atan2(t.vec_imag, t.vec_real)) % 360.0
    cmae = circular_distance_deg(mean, TARGET_PHASE_DEG) / 180.0
    cap = t.windows * MAX_STIM_PER_WINDOW
    if cap == 0:
        return cmae, 0.0, 0.0
    pas_all = t.n_in_windows / cap
    pas_up = t.n_up / cap
    return cmae, pas_all - pas_up, pas_up


def euclidean_distance(cmae_norm: float, pas_not_up_norm: float,
                       pas_in_up_norm: float) -> float:
    """Distance to the utopia point (0, 0, 1); inputs must lie in [0, 1]."""
    for name, v in (("cmae_norm", cmae_norm),
                    ("pas_not_up_norm", pas_not_up_norm),
                    ("pas_in_up_norm", pas_in_up_norm)):
        if not (0.0 <= v <= 1.0):
            raise ConfigurationError(f"{name} outside [0, 1]: {v!r}")
    return math.sqrt(cmae_norm ** 2 + pas_not_up_norm ** 2
                     + (1.0 - pas_in_up_norm) ** 2)


def distance_from_tally(t: ObjectiveTally) -> float:
    return euclidean_distance(*objectives_from_tally(t))


def kfold_split(n: int, k: int, seed: int):
    """Deterministic shuffled k-fold partition of range(n).

    Returns a list of (optimization_indices, validation_indices) pairs.
    Refuses fewer recordings than folds, and a negative seed.
    """
    if k < 2:
        raise ConfigurationError("k-fold needs k >= 2")
    if seed < 0:
        raise ConfigurationError(f"seed must be non-negative, got {seed}")
    if n < k:
        raise ConfigurationError(f"cannot split {n} recordings into {k} folds")
    order = np.random.default_rng(seed).permutation(n)
    parts = np.array_split(order, k)
    folds = []
    for i in range(k):
        val = np.sort(parts[i])
        opt = np.sort(np.concatenate([parts[j] for j in range(k) if j != i]))
        folds.append((opt, val))
    return folds


def expand_grid(grid: dict) -> list:
    """Cartesian product of a {param: values} grid, in declaration order."""
    if not grid:
        raise ConfigurationError("empty parameter grid")
    names = list(grid.keys())
    for name in names:
        if len(grid[name]) == 0:
            raise ConfigurationError(f"no values for grid parameter {name!r}")
    return [dict(zip(names, combo))
            for combo in itertools.product(*(grid[n] for n in names))]


@dataclass
class ComboResult:
    combo: dict
    fold_opt_ed: list
    fold_val_ed: list
    mean_opt_ed: float
    mean_val_ed: float
    ed_error: float
    val_objectives: tuple   # (cmae_norm, pas_not_up_norm, pas_in_up_norm), pooled over all folds


@dataclass
class CvOutcome:
    best: ComboResult
    results: list
    k: int
    seed: int
    folds: list


def grid_search_cv(recordings: Sequence[EegRecording], grid: dict,
                   evaluate: Callable[[dict, EegRecording], ObjectiveTally],
                   k: int, seed: int) -> CvOutcome:
    """Evaluate every combo on every recording once, then score per fold.

    evaluate(combo, recording) returns that recording's ObjectiveTally for
    the combo. The search is recording-major, and on each recording the grid
    names in any tracker's ``KERNEL_FIELDS`` vary slowest, in declaration
    order, so an evaluator need hold one recording's intermediates and one
    tracker kernel at a time; results keep declaration order. Fold sides
    pool tallies by summation before scoring, so one long recording cannot
    be outvoted by many short ones trigger-by-trigger.
    """
    combos = expand_grid(grid)
    folds = kfold_split(len(recordings), k, seed)
    tallies = [[None] * len(recordings) for _ in combos]   # [combo][recording]
    slow = [i for i, name in enumerate(grid)
            if any(name in fields for fields in KERNEL_FIELDS.values())]
    positions = list(itertools.product(*(range(len(v)) for v in grid.values())))
    visit = sorted(range(len(combos)), key=lambda c: [positions[c][i] for i in slow])
    for j, recording in enumerate(recordings):
        for c in visit:
            tallies[c][j] = evaluate(combos[c], recording)

    results = []
    for combo, row in zip(combos, tallies):
        opt_eds, val_eds = [], []
        val_pool = ObjectiveTally()
        for opt_idx, val_idx in folds:
            opt_pool = sum((row[i] for i in opt_idx), ObjectiveTally())
            fold_val = sum((row[i] for i in val_idx), ObjectiveTally())
            val_pool = val_pool + fold_val
            opt_eds.append(distance_from_tally(opt_pool))
            val_eds.append(distance_from_tally(fold_val))
        mean_opt = float(np.mean(opt_eds))
        mean_val = float(np.mean(val_eds))
        results.append(ComboResult(
            combo, opt_eds, val_eds, mean_opt, mean_val,
            ed_error=mean_val + abs(mean_opt - mean_val),
            val_objectives=objectives_from_tally(val_pool)))

    best = min(results, key=lambda r: (r.ed_error, r.mean_val_ed))  # first of equals
    return CvOutcome(best, results, k, seed, folds)


PLL_TARGET_GRID_DEG = [float(v) for v in range(0, 360, 15)]
PV_TARGET_GRID_DEG = [float(v) for v in range(0, 360, 15)]


def default_grid(algorithm: str) -> dict:
    """Each tracker's built-in search space. It does not pick the shipped AT
    and PLL defaults: ``demos/optimize_parameters.py`` ranks them in it."""
    if algorithm == "at":
        return {"at_threshold_uv": [20.0, 30.0, 40.0, 50.0, 60.0, 75.0]}
    if algorithm == "pll":
        return {"phi_target_deg": PLL_TARGET_GRID_DEG,
                "k_pll": [1e-5, 1e-4, 4e-4, 1e-3, 1e-2]}
    if algorithm == "pv":
        return {"phi_target_deg": PV_TARGET_GRID_DEG,
                "k_pv": [0.5, 1.0, 2.0, 4.0],
                "maf_span": [25, 50, 125, 250]}
    raise ConfigurationError(f"unknown algorithm {algorithm!r}")


class _RecordingCache:
    """One recording's intermediates, shared by every combo of the grid.

    ``end`` is one past the oracle track's last valid sample. ``tally``
    drops every trigger from there on, and the trackers are causal, so
    kernels and trigger scans stop there.
    """

    def __init__(self, recording: EegRecording, gate_config: GateConfig):
        fs = recording.fs
        self.fs = fs
        self.gate_config = gate_config
        self.y = PreprocessChain(fs).run(recording.samples)
        flags = gate_flags_batch(self.y, fs, gate_config)
        self.reasons = window_reasons(flags)
        self.gate_win = gate_config.window_samples(fs)
        self.track = compute_phase_track(recording.samples, fs)
        self.end = len(self.track) - int(np.argmax(self.track.valid[::-1]))
        self.q_count, _, self.qual = qualifying_windows(
            recording, flags, gate_config, self.track.valid)
        self.kernel = (None, None)  # (kernel field values, band or (stream, arcs))

    def delivered_filter(self, idx: np.ndarray) -> np.ndarray:
        idx = np.asarray(idx, dtype=int)
        reasons = in_window(self.reasons, idx, self.gate_win)
        return idx[candidate_reasons(reasons, idx / self.fs,
                                     self.gate_config) == DELIVERED]

    def tally(self, delivered_idx: np.ndarray) -> ObjectiveTally:
        valid = valid_samples(self.track, delivered_idx)
        return tally_from_phases(self.track.phase_deg[valid],
                                 in_pas_window(self.qual, valid, self.fs),
                                 self.q_count)


def make_pipeline_evaluator(recordings: Sequence[EegRecording],
                            algorithm: str,
                            gate_config: Optional[GateConfig] = None):
    """evaluate(combo, recording) closure for grid_search_cv.

    Preprocessing, gate flags, the oracle track and qualifying-window counts
    are computed once per recording; the tracker's kernel once per setting
    of the fields ``KERNEL_FIELDS`` lists for it, up to the oracle's last
    valid sample. The trigger scan then reuses those for each setting of the
    other fields.

    The closure holds one recording's intermediates and one kernel. A call
    with another recording or kernel setting drops the old one before
    building the next, so memory follows neither the corpus nor the grid.
    ``grid_search_cv`` visits recordings one at a time, and each one's
    combos grouped by kernel setting, so no kernel is built twice.
    ``recordings`` names the corpus; nothing is built from it up front.
    """
    gate_config = gate_config or GateConfig()
    held, cache = None, None    # the recording whose intermediates are held

    def evaluate(combo: dict, recording: EegRecording) -> ObjectiveTally:
        nonlocal held, cache
        if recording is not held:
            held, cache = None, None    # free the old cache before the new one
            cache = _RecordingCache(recording, gate_config)
            held = recording
        cfg = TrackerConfig(**{**combo, "algorithm": algorithm,
                               "sample_rate_hz": cache.fs})
        key = tuple(getattr(cfg, n) for n in KERNEL_FIELDS[algorithm])
        if cache.kernel[0] != key:
            cache.kernel = (None, None)     # free the old kernel before the new one
            y = cache.y[:cache.end]
            if algorithm == "at":
                cache.kernel = (key, make_tracker(cfg).band(y))
            else:
                stream = tracker_phase_stream(y, cfg)
                cache.kernel = (key, (stream, forward_arcs(stream)[0]))
        kernel = cache.kernel[1]
        refr = cfg.refractory_samples()
        if algorithm == "at":
            hits = level_hits(kernel, cfg.at_threshold_uv)
            cand = np.asarray(refractory(hits, refr)[0], dtype=int)
        else:
            stream, arcs = kernel
            cand = candidates_from_phase_stream(stream, cfg.target_deg(), refr,
                                                arcs=arcs)
        return cache.tally(cache.delivered_filter(cand))

    return evaluate
