"""Grid-search optimizer: tallies, distances, folds, selection, fast path."""
import dataclasses
import math
import weakref

import numpy as np
import pytest

import swphase.optimize as optimize
from swphase import SynthSpec, generate
from swphase.errors import ConfigurationError
from swphase.gate import GateConfig
from swphase.optimize import (
    ComboResult,
    ObjectiveTally,
    default_grid,
    distance_from_tally,
    euclidean_distance,
    expand_grid,
    grid_search_cv,
    kfold_split,
    make_pipeline_evaluator,
    objectives_from_tally,
    tally_from_phases,
)
from swphase.oracle import compute_phase_track
from swphase.pipeline import (qualifying_windows, run_session,
                              tracker_phase_stream)
from swphase.trackers import SCAN_FIELDS, AmplitudeThresholdTracker, TrackerConfig


class TestTally:
    def test_from_phases(self):
        t = tally_from_phases([45.0, 45.0, 225.0], [True, False, True], windows=3)
        assert t.n_phased == 3
        assert t.n_in_windows == 2
        assert t.n_up == 1          # the 225 in-window trigger is not up-phase
        assert t.windows == 3
        assert t.vec_real == pytest.approx(math.cos(math.radians(45.0)))
        assert t.vec_imag == pytest.approx(math.sin(math.radians(45.0)))

    def test_flag_length_mismatch(self):
        with pytest.raises(ConfigurationError):
            tally_from_phases([45.0], [True, False], windows=1)

    def test_addition_is_componentwise(self):
        a = tally_from_phases([45.0], [True], windows=2)
        b = tally_from_phases([90.0, 10.0], [True, False], windows=3)
        c = a + b
        assert c.n_phased == 3
        assert c.n_in_windows == 2
        assert c.windows == 5
        assert c.vec_real == pytest.approx(a.vec_real + b.vec_real)

    def test_identity_element(self):
        t = tally_from_phases([10.0, 80.0], [True, True], windows=4)
        s = ObjectiveTally() + t
        assert s == t


def tally_for(mean_deg, n_up, n_not_up, windows, n_phased=None):
    """Tally whose pooled objectives are exactly controllable."""
    n_in = n_up + n_not_up
    n = n_phased if n_phased is not None else max(n_in, 1)
    rad = math.radians(mean_deg)
    return ObjectiveTally(vec_real=n * math.cos(rad), vec_imag=n * math.sin(rad),
                          n_phased=n, n_in_windows=n_in, n_up=n_up,
                          windows=windows)


class TestObjectives:
    def test_zero_triggers_pins_the_worst_cmae(self):
        assert objectives_from_tally(ObjectiveTally()) == (1.0, 0.0, 0.0)
        assert distance_from_tally(ObjectiveTally()) == pytest.approx(math.sqrt(2.0))

    def test_on_target_tally(self):
        t = tally_for(45.0, n_up=40, n_not_up=0, windows=10)   # cap 80
        c, pnu, piu = objectives_from_tally(t)
        assert c == pytest.approx(0.0, abs=1e-12)
        assert pnu == pytest.approx(0.0)
        assert piu == pytest.approx(0.5)

    def test_antipodal_mean_is_max_cmae(self):
        c, _, _ = objectives_from_tally(tally_for(225.0, 0, 8, windows=1))
        assert c == pytest.approx(1.0)

    def test_no_windows_zeroes_pas_terms(self):
        t = tally_for(45.0, 0, 0, windows=0, n_phased=5)
        assert objectives_from_tally(t) == (pytest.approx(0.0, abs=1e-12), 0.0, 0.0)


class TestEuclideanDistance:
    def test_unit_points(self):
        assert euclidean_distance(0.0, 0.0, 1.0) == 0.0
        assert euclidean_distance(1.0, 1.0, 0.0) == pytest.approx(math.sqrt(3.0))
        assert euclidean_distance(1.0, 0.0, 0.0) == pytest.approx(math.sqrt(2.0))

    @pytest.mark.parametrize("args", [
        (1.2, 0.0, 1.0), (-0.1, 0.0, 1.0), (0.0, 2.0, 1.0), (0.0, 0.0, 1.5),
    ])
    def test_rejects_out_of_range(self, args):
        with pytest.raises(ConfigurationError):
            euclidean_distance(*args)


class TestKfold:
    def test_partition_covers_everything_once(self):
        folds = kfold_split(11, 4, seed=3)
        assert len(folds) == 4
        seen = np.concatenate([val for _, val in folds])
        np.testing.assert_array_equal(np.sort(seen), np.arange(11))
        for opt, val in folds:
            assert np.intersect1d(opt, val).size == 0
            np.testing.assert_array_equal(np.sort(np.concatenate([opt, val])),
                                          np.arange(11))

    def test_deterministic_per_seed(self):
        a = kfold_split(10, 5, seed=42)
        b = kfold_split(10, 5, seed=42)
        for (ao, av), (bo, bv) in zip(a, b):
            np.testing.assert_array_equal(ao, bo)
            np.testing.assert_array_equal(av, bv)
        c = kfold_split(10, 5, seed=43)
        assert any(not np.array_equal(av, cv)
                   for (_, av), (_, cv) in zip(a, c))

    def test_refuses_degenerate_splits(self):
        with pytest.raises(ConfigurationError):
            kfold_split(10, 1, seed=0)
        with pytest.raises(ConfigurationError):
            kfold_split(3, 5, seed=0)


class TestExpandGrid:
    def test_declaration_order(self):
        combos = expand_grid({"a": [1, 2], "b": [3, 4]})
        assert combos == [{"a": 1, "b": 3}, {"a": 1, "b": 4},
                          {"a": 2, "b": 3}, {"a": 2, "b": 4}]

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            expand_grid({})
        with pytest.raises(ConfigurationError):
            expand_grid({"a": []})

    def test_default_grid_sizes(self):
        assert len(expand_grid(default_grid("at"))) == 6
        assert len(expand_grid(default_grid("pll"))) == 120
        assert len(expand_grid(default_grid("pv"))) == 384
        with pytest.raises(ConfigurationError):
            default_grid("fir")


def stub_evaluate(table):
    """evaluate() that looks tallies up by the combo's 'q' parameter."""
    def evaluate(combo, recording):
        return table[combo["q"]]
    return evaluate


class TestSelection:
    def test_planted_dominant_combo_wins_every_time(self):
        # per-recording tallies identical -> pooled objectives equal on both
        # fold sides -> ed_error reduces to the plain utopia distance, and a
        # combo dominating on all three objectives must be selected
        rng = np.random.default_rng(2024)
        for trial in range(20):
            n_combos = int(rng.integers(3, 9))
            windows = 50                       # cap 400
            ups = rng.integers(5, 150, n_combos)
            nots = rng.integers(5, 150, n_combos)
            cmaes = rng.uniform(5.0, 170.0, n_combos)
            j = int(rng.integers(n_combos))
            ups[j] = 300                       # dominates: most up-phase,
            nots[j] = 1                        # least off-phase,
            cmaes[j] = 1.0                     # closest mean to target
            table = {q: tally_for(45.0 + cmaes[q], int(ups[q]), int(nots[q]),
                                  windows) for q in range(n_combos)}
            k = int(rng.integers(2, 5))
            n_rec = int(rng.integers(k, 8))
            outcome = grid_search_cv([object()] * n_rec, {"q": list(range(n_combos))},
                                     stub_evaluate(table), k=k,
                                     seed=int(rng.integers(1 << 16)))
            assert outcome.best.combo == {"q": j}, f"trial {trial}"

    def test_deterministic(self):
        table = {0: tally_for(50.0, 10, 5, 20), 1: tally_for(80.0, 8, 2, 20)}
        runs = [grid_search_cv([object()] * 5, {"q": [0, 1]},
                               stub_evaluate(table), k=5, seed=9)
                for _ in range(2)]
        assert runs[0].best.combo == runs[1].best.combo
        for a, b in zip(runs[0].results, runs[1].results):
            assert a.fold_val_ed == b.fold_val_ed
            assert a.ed_error == b.ed_error

    def test_exact_tie_falls_to_declaration_order(self):
        t = tally_for(60.0, 12, 3, 20)
        table = {0: t, 1: t, 2: t}
        outcome = grid_search_cv([object()] * 4, {"q": [0, 1, 2]},
                                 stub_evaluate(table), k=2, seed=1)
        assert outcome.best.combo == {"q": 0}
        eds = [r.ed_error for r in outcome.results]
        assert eds[0] == eds[1] == eds[2]

    def test_identical_recordings_make_ed_error_the_distance(self):
        t = tally_for(45.0, 100, 0, 50)
        outcome = grid_search_cv([object()] * 6, {"q": [0]},
                                 stub_evaluate({0: t}), k=3, seed=0)
        r = outcome.best
        assert r.mean_opt_ed == pytest.approx(r.mean_val_ed)
        assert r.ed_error == pytest.approx(distance_from_tally(t))

    def test_result_bookkeeping(self):
        table = {0: tally_for(50.0, 10, 5, 20), 1: tally_for(80.0, 8, 2, 20)}
        outcome = grid_search_cv([object()] * 5, {"q": [0, 1]},
                                 stub_evaluate(table), k=5, seed=9)
        assert outcome.k == 5 and outcome.seed == 9
        assert len(outcome.folds) == 5
        assert len(outcome.results) == 2
        for r in outcome.results:
            assert isinstance(r, ComboResult)
            assert len(r.fold_opt_ed) == 5 and len(r.fold_val_ed) == 5
            assert r.ed_error >= r.mean_val_ed


class TestPipelineEvaluator:
    @pytest.mark.parametrize("algorithm,combo", [
        ("pv", {"phi_target_deg": 90.0, "k_pv": 2.0, "maf_span": 50}),
        ("at", {"at_threshold_uv": 40.0}),
        ("pll", {"phi_target_deg": 180.0, "k_pll": 6e-4}),
        # 75.25 samples at 250 Hz: both paths round the spacing up to 76
        ("pll", {"refractory_s": 0.301}),
        ("pv", {"refractory_s": 0.301}),
        ("at", {"refractory_s": 0.301}),
    ])
    def test_fast_path_matches_full_session(self, short_synth, algorithm, combo):
        rec = short_synth.recording
        gate_config = GateConfig().validate()
        evaluate = make_pipeline_evaluator([rec], algorithm, gate_config)
        fast = evaluate(combo, rec)

        cfg = TrackerConfig(**{**TrackerConfig(algorithm=algorithm).__dict__,
                               **combo, "sample_rate_hz": rec.fs})
        session = run_session(rec, cfg, gate_config)
        track = compute_phase_track(rec.samples, rec.fs)
        q_count, _, qual = qualifying_windows(rec, session.window_flags,
                                              gate_config, track.valid)
        idx = np.asarray([e.sample_index for e in session.delivered()], dtype=int)
        valid = idx[track.valid[idx]]
        phases = track.phase_deg[valid]
        win = int(round(2.0 * rec.fs))
        inw = [w < len(qual) and bool(qual[w]) for w in valid // win]
        slow = tally_from_phases(phases, inw, q_count)

        assert fast == slow


@pytest.fixture(scope="module")
def corpus():
    """Three short deep-sleep nights."""
    return [generate(SynthSpec(hypnogram=["N2"] * 12 + ["N3"] * 24,
                               seed=40 + i)).recording for i in range(3)]


class TestRecordingMajorSearch:
    """The evaluator holds one recording's intermediates at a time."""

    GRID = {"phi_target_deg": [15.0, 45.0, 90.0], "k_pv": [1.0, 2.0]}

    def test_at_most_one_cache_is_alive(self, corpus, monkeypatch):
        live = weakref.WeakSet()
        seen = []

        class Counted(optimize._RecordingCache):
            def __init__(self, *args):
                live.add(self)
                seen.append(len(live))    # the caches alive as this one is built
                super().__init__(*args)
        monkeypatch.setattr(optimize, "_RecordingCache", Counted)

        evaluate = make_pipeline_evaluator(corpus, "pv", GateConfig())

        def counting(combo, recording):
            seen.append(len(live))
            return evaluate(combo, recording)
        outcome = grid_search_cv(corpus, self.GRID, counting, k=3, seed=0)
        assert len(outcome.results) == 6
        assert seen and max(seen) == 1
        assert len(live) <= 1    # after the search, the closure holds the last

    GRIDS = {
        "target": (GRID, 2),
        "dynamics": (dict(reversed(GRID.items())), 2),
        "maf_span-and-nco": ({"maf_span": [25, 50], "phi_target_deg": [15.0, 45.0],
                              "pv_trigger_on_nco": [False, True]}, 4),
        "refractory_s": ({"phi_target_deg": [15.0, 45.0],
                          "refractory_s": [0.25, 0.5]}, 1),
    }

    @pytest.mark.parametrize("grid_name", list(GRIDS))
    def test_one_stream_per_recording_and_dynamics_setting(self, corpus,
                                                           monkeypatch, grid_name):
        grid, settings = self.GRIDS[grid_name]
        made = []

        def counted(y, cfg):
            made.append((cfg.k_pv, cfg.maf_span, cfg.pv_trigger_on_nco))
            return tracker_phase_stream(y, cfg)
        monkeypatch.setattr(optimize, "tracker_phase_stream", counted)
        evaluate = make_pipeline_evaluator(corpus, "pv", GateConfig())
        grid_search_cv(corpus, grid, evaluate, k=3, seed=0)
        # recording-major: each recording builds the same settings, once each
        assert len(set(made[:settings])) == settings
        assert made == made[:settings] * len(corpus)

    @pytest.mark.parametrize("algorithm", ["at", "pll", "pv"])
    def test_every_field_outside_the_scan_keys_the_kernel(self, corpus, monkeypatch,
                                                          algorithm):
        # a field left out of the cache key would let two settings share one
        # kernel; algorithm and sample_rate_hz are fixed for a whole search
        other = {"k_pll": 1e-3, "k_pv": 1.0, "maf_span": 50, "pv_trigger_on_nco": True}
        names = [f.name for f in dataclasses.fields(TrackerConfig)
                 if f.name not in SCAN_FIELDS + ("algorithm", "sample_rate_hz")]
        assert sorted(names) == sorted(other)   # a new field needs a value here
        made = []
        band = AmplitudeThresholdTracker.band

        def counted_band(tracker, y):
            made.append(tracker.config)
            return band(tracker, y)

        def counted_stream(y, cfg):
            made.append(cfg)
            return tracker_phase_stream(y, cfg)
        monkeypatch.setattr(AmplitudeThresholdTracker, "band", counted_band)
        monkeypatch.setattr(optimize, "tracker_phase_stream", counted_stream)
        rec = corpus[0]
        evaluate = make_pipeline_evaluator([rec], algorithm, GateConfig())
        evaluate({}, rec)
        for name in names:
            evaluate({name: other[name]}, rec)
            evaluate({}, rec)
        assert made[0] == TrackerConfig(algorithm=algorithm, sample_rate_hz=rec.fs)
        assert len(made) == 1 + len(names)
        for name, cfg in zip(names, made[1:]):
            assert getattr(cfg, name) == other[name]
