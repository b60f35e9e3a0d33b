"""The recording-major search scores exactly like a combo-major one.

``grid_search_cv`` visits each recording in turn and evaluates every combo
on it, the grid names that any tracker's kernel reads (``KERNEL_FIELDS``)
varying slowest.
``combo_major_search`` below is the earlier loop order, one combo over
every recording in declaration order, with the same fold scoring; any grid,
corpus size, fold count and seed must give the same results and the same
best combo.
"""
import dataclasses
import itertools
import math

import numpy as np
import pytest

from swphase.metrics import MAX_STIM_PER_WINDOW
from swphase.optimize import (ComboResult, CvOutcome, ObjectiveTally,
                              distance_from_tally, expand_grid, grid_search_cv,
                              kfold_split, objectives_from_tally)
from swphase.trackers import KERNEL_FIELDS, TrackerConfig

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


def combo_major_search(recordings, grid, evaluate, k, seed):
    combos = expand_grid(grid)
    folds = kfold_split(len(recordings), k, seed)
    tallies = [[evaluate(c, r) for r in recordings] for c in combos]
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
    best = min(results, key=lambda r: (r.ed_error, r.mean_val_ed))
    return CvOutcome(best, results)


KERNEL_NAMES = tuple(dict.fromkeys(n for fields in KERNEL_FIELDS.values() for n in fields))
SCAN_NAMES = tuple(f.name for f in dataclasses.fields(TrackerConfig)
                   if f.name not in KERNEL_NAMES + ("algorithm",))


def stub_tally(combo: dict, index: int) -> ObjectiveTally:
    """A valid tally that depends on the combo's values and the recording."""
    h = hash((tuple(combo.values()), index)) % 1_000_003
    windows = h % 6
    n_in = (h // 7) % (windows * MAX_STIM_PER_WINDOW + 1)
    n_up = (h // 11) % (n_in + 1)
    n_phased = n_in + (h // 13) % 4
    angle = math.radians(h % 360)
    return ObjectiveTally(n_phased * math.cos(angle), n_phased * math.sin(angle),
                          n_phased, n_in, n_up, windows)


@st.composite
def searches(draw):
    names = draw(st.lists(st.sampled_from(KERNEL_NAMES + SCAN_NAMES + ("p0", "p1", "p2")),
                          min_size=1, max_size=4, unique=True))
    grid = {name: draw(st.lists(st.integers(0, 5), min_size=1, max_size=4))
            for name in names}
    k = draw(st.integers(2, 4))
    n = draw(st.integers(k, k + 3))
    return grid, n, k, draw(st.integers(0, 2 ** 16))


def stub_evaluator(recordings, visits):
    """evaluate(combo, recording) over stub_tally; logs each visit."""
    def evaluate(combo, recording):
        index = next(i for i, r in enumerate(recordings) if r is recording)
        visits.append((index, tuple(combo.values())))
        return stub_tally(combo, index)
    return evaluate


@settings(derandomize=True, max_examples=60, deadline=None)
@given(searches())
def test_recording_major_equals_combo_major(search):
    grid, n, k, seed = search
    recordings = [object() for _ in range(n)]
    visits = []
    outcome = grid_search_cv(recordings, grid, stub_evaluator(recordings, visits),
                             k=k, seed=seed)
    reference = combo_major_search(recordings, grid, stub_evaluator(recordings, []),
                                   k, seed)
    assert outcome.results == reference.results
    assert outcome.best == reference.best
    # each recording sees every combo before the next: the names in any
    # kernel list vary slowest, the others faster, each group in declaration
    # order
    order = ([name for name in grid if name in KERNEL_NAMES]
             + [name for name in grid if name not in KERNEL_NAMES])
    combos = [tuple(dict(zip(order, values))[name] for name in grid)
              for values in itertools.product(*(grid[name] for name in order))]
    assert visits == [(i, c) for i in range(n) for c in combos]
