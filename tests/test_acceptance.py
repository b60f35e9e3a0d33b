"""Acceptance gate: the nine headline guarantees, one test (and one
pass/fail line in the -v output) per criterion.

Criteria summary:

1. all three trackers put >= 70% of delivered triggers in the rising
   phase on the default synthetic night, and the whole evaluation of the
   ~3 h recording finishes in under five minutes;
2. the phase vocoder hits strictly more low-amplitude waves than the
   amplitude threshold and at least PLL - 2 pp;
3. tracker dynamics on a 1.5 Hz / 25 uV tone: vocoder median trigger
   interval 0.667 s +- 10%, PLL median in [0.9, 1.1] s, and PLL free-runs
   at exactly one-second spacing (+- 1 sample) on zero input;
4. the offline oracle is unbiased: < 15 deg RMS against the generator's
   true phase in scoreable sleep, and zero filter lag;
5. metric identities: PAS decomposition exact in floating point over
   1000 random samples, known circular-error cases, rotation
   equivariance to 1e-9 deg;
6. the optimizer selects a planted dominant combo in 20/20 randomized
   grids, folds are seed-deterministic, and the distance metric maps the
   utopia/anti-utopia corners to 0 and sqrt(3);
7. per-sample cost: real-time consumption ratio < 0.5 for PLL and
   vocoder, vocoder/PLL tracker cost ratio in [1.5, 4.0], vocoder cost
   independent of the sampling rate within 10%;
8. trigger logs are reproducible and causal: truncating the input at 10
   random points always yields an exact prefix of the full log;
9. the ON-OFF protocol delivers only inside ON windows, and the gate
   never delivers during its 80 s cold start.
"""
import math
import time

import numpy as np
import pytest

from swphase.bench import measure_pipeline_cost
from swphase.cli import main
from swphase.gate import GateConfig
from swphase.io import read_recording, read_trigger_log, write_recording
from swphase.metrics import circular_distance_deg, circular_mean_sd, cmae45, pas
from swphase.optimize import (ObjectiveTally, distance_from_tally,
                              euclidean_distance, grid_search_cv, kfold_split)
from swphase.oracle import compute_phase_track, zero_phase_bandpass
from swphase.pipeline import evaluate_session, run_session
from swphase.recording import EegRecording
from swphase.trackers import PllTracker, TrackerConfig, make_tracker

ALGOS = ("at", "pll", "pv")
FS = 250.0


@pytest.fixture(scope="module")
def night_reports(default_synth):
    """All three trackers evaluated on the default synthetic night."""
    rec = default_synth.recording
    t0 = time.perf_counter()
    filtered = zero_phase_bandpass(rec.samples, rec.fs)
    out = {}
    for algo in ALGOS:
        session = run_session(rec, TrackerConfig(algorithm=algo))
        out[algo] = evaluate_session(rec, session, filtered=filtered)
    elapsed = time.perf_counter() - t0
    return out, elapsed


def test_criterion_1_up_phase_on_default_night(night_reports):
    reports, elapsed = night_reports
    shares = {a: r.up_phase_pct for a, r in reports.items()}
    line = " ".join(f"{a}={v:.1f}%" for a, v in shares.items())
    print(f"criterion 1: up-phase {line}, elapsed {elapsed:.0f}s")
    for algo, share in shares.items():
        assert share >= 70.0, f"{algo} up-phase {share:.1f}% < 70%"
        assert reports[algo].n_delivered > 100, f"{algo} barely triggered"
    assert elapsed < 300.0, f"evaluation took {elapsed:.0f}s"


def test_criterion_2_low_amplitude_capacity(night_reports):
    reports, _ = night_reports
    cap = {a: r.low_capacity_pct for a, r in reports.items()}
    print("criterion 2: low-amplitude capacity "
          + " ".join(f"{a}={v:.1f}%" for a, v in cap.items()))
    assert all(reports[a].n_low_waves > 50 for a in ALGOS)
    assert cap["pv"] > cap["at"], "vocoder must beat the amplitude threshold"
    assert cap["pv"] >= cap["pll"] - 2.0, "vocoder must stay within 2 pp of PLL"


def test_criterion_3_tracker_dynamics_on_tone():
    t = np.arange(int(300 * FS)) / FS
    tone = EegRecording(samples=25.0 * np.sin(2 * np.pi * 1.5 * t), fs=FS)
    medians = {}
    for algo in ("pv", "pll"):
        session = run_session(tone, TrackerConfig(algorithm=algo))
        times = np.asarray([e.time_s for e in session.log])
        medians[algo] = float(np.median(np.diff(times)))
    # PLL free-run: zero input, NCO advances at the 1 Hz center frequency
    pll = PllTracker(TrackerConfig(algorithm="pll"))
    events = pll.run(np.zeros(int(60 * FS)))
    gaps = np.diff([e.sample_index for e in events])
    print(f"criterion 3: pv median {medians['pv']:.3f}s, "
          f"pll median {medians['pll']:.3f}s, free-run gaps "
          f"{gaps.min()}..{gaps.max()} samples")
    assert abs(medians["pv"] - 1.0 / 1.5) <= 0.1 / 1.5, \
        f"pv median {medians['pv']:.3f}s not 0.667s +-10%"
    assert 0.9 <= medians["pll"] <= 1.1, \
        f"pll median {medians['pll']:.3f}s outside [0.9, 1.1]s"
    assert len(gaps) >= 50
    assert np.all(np.abs(gaps - FS) <= 1), "free-run spacing not 1.000s +-1 sample"


def test_criterion_4_oracle_accuracy(default_synth):
    rec = default_synth.recording
    track = compute_phase_track(rec.samples, rec.fs)
    sel = track.valid & rec.nrem_mask() & default_synth.true_phase.valid
    err = np.array([circular_distance_deg(a, b) for a, b in zip(
        track.phase_deg[sel][::5], default_synth.true_phase.phase_deg[sel][::5])])
    rms = float(np.sqrt(np.mean(err ** 2)))

    rng = np.random.default_rng(4)
    n = int(600 * FS)
    t = np.arange(n) / FS
    x = 40.0 * np.sin(2 * np.pi * 1.0 * t) + 5.0 * rng.standard_normal(n)
    y = zero_phase_bandpass(x, FS)
    ref = 40.0 * np.sin(2 * np.pi * 1.0 * t)
    lags = range(-200, 201)
    scores = [float(np.dot(np.roll(y, k), ref)) for k in lags]
    best_lag = list(lags)[int(np.argmax(scores))]

    print(f"criterion 4: oracle RMS {rms:.2f} deg over {sel.sum()} samples, "
          f"filter lag {best_lag} samples")
    assert sel.sum() > 100_000
    assert rms < 15.0, f"oracle RMS {rms:.2f} deg >= 15 deg"
    assert best_lag == 0, f"oracle filter lag {best_lag} != 0"


def test_criterion_5_metric_identities():
    rng = np.random.default_rng(99)
    for _ in range(1000):
        windows = int(rng.integers(1, 3000))
        phases = rng.uniform(0.0, 360.0, int(rng.integers(0, 1500)))
        r = pas(phases, qualifying_windows=windows)
        assert r.pas_all == r.pas_in_up + r.pas_not_up, \
            "PAS identity broke in floating point"

    assert cmae45([45.0])[1] == pytest.approx(0.0, abs=1e-9)
    assert cmae45([225.0])[1] == pytest.approx(180.0, abs=1e-9)
    assert cmae45([30.0, 60.0])[1] == pytest.approx(0.0, abs=1e-9)

    phases = rng.uniform(0.0, 360.0, 50)
    base = circular_mean_sd(phases).mean_deg
    worst = 0.0
    for delta in rng.uniform(-720.0, 720.0, 100):
        got = cmae45(np.mod(phases + delta, 360.0))[1]
        want = circular_distance_deg(base + delta, 45.0)
        worst = max(worst, abs(got - want))
    print(f"criterion 5: PAS identity exact x1000, rotation error {worst:.2e} deg")
    assert worst <= 1e-9, f"rotation equivariance off by {worst:.2e} deg"


def _tally(mean_deg, n_up, n_not_up, windows):
    n = max(n_up + n_not_up, 1)
    rad = math.radians(mean_deg)
    return ObjectiveTally(n * math.cos(rad), n * math.sin(rad), n,
                          n_up + n_not_up, n_up, windows)


def test_criterion_6_optimizer_selection():
    assert euclidean_distance(0.0, 0.0, 1.0) == 0.0
    assert euclidean_distance(1.0, 1.0, 0.0) == pytest.approx(math.sqrt(3.0))
    assert distance_from_tally(ObjectiveTally()) == pytest.approx(math.sqrt(2.0))

    a = kfold_split(10, 5, seed=1)
    b = kfold_split(10, 5, seed=1)
    assert all(np.array_equal(x[1], y[1]) for x, y in zip(a, b))

    rng = np.random.default_rng(31)
    wins = 0
    for _ in range(20):
        n_combos = int(rng.integers(3, 9))
        ups = rng.integers(5, 150, n_combos)
        nots = rng.integers(5, 150, n_combos)
        cmaes = rng.uniform(5.0, 170.0, n_combos)
        j = int(rng.integers(n_combos))
        ups[j], nots[j], cmaes[j] = 300, 1, 1.0
        table = {q: _tally(45.0 + cmaes[q], int(ups[q]), int(nots[q]), 50)
                 for q in range(n_combos)}
        k = int(rng.integers(2, 5))
        outcome = grid_search_cv([object()] * int(rng.integers(k, 8)),
                                 {"q": list(range(n_combos))},
                                 lambda combo, rec: table[combo["q"]],
                                 k=k, seed=int(rng.integers(1 << 16)))
        wins += outcome.best.combo == {"q": j}
    print(f"criterion 6: planted dominant combo selected {wins}/20")
    assert wins == 20


def test_criterion_7_per_sample_cost():
    report = measure_pipeline_cost(reps=15)
    rcrs = {algo: report.rcr(algo) for algo in ("pll", "pv")}
    ratio = report.pv_pll_ratio
    sweep = report.pv_ns_vs_fs
    lo, hi = min(sweep.values()), max(sweep.values())
    spread = hi / lo - 1.0
    print(f"criterion 7: rcr pll={rcrs['pll']:.4f} pv={rcrs['pv']:.4f}, "
          f"pv/pll ratio {ratio:.2f}, fs spread {100 * spread:.1f}%")
    for algo, rcr in rcrs.items():
        assert rcr < 0.5, f"{algo} rcr {rcr:.3f} >= 0.5"
    assert 1.5 <= ratio <= 4.0, f"tracker cost ratio {ratio:.2f} outside [1.5, 4]"
    assert spread <= 0.10, f"vocoder cost varies {100 * spread:.1f}% with fs"


@pytest.fixture(scope="module")
def tracked_night(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance")
    rec_path = root / "night.swp"
    trig_path = root / "night.trig.csv"
    assert main(["simulate", "--out", str(rec_path), "--stages", "N3*40",
                 "--seed", "12"]) == 0
    assert main(["track", "--input", str(rec_path), "--out", str(trig_path),
                 "--algorithm", "pv"]) == 0
    return root, rec_path, trig_path


def test_criterion_8_truncation_invariance(tracked_night):
    root, rec_path, trig_path = tracked_night
    _, full_rows = read_trigger_log(trig_path)
    rec = read_recording(rec_path)
    rng = np.random.default_rng(8)
    cuts = sorted(int(c) for c in rng.integers(len(rec.samples) // 8,
                                               len(rec.samples), 10))
    ok = 0
    for cut in cuts:
        head = EegRecording(samples=rec.samples[:cut], fs=rec.fs,
                            label=rec.label, start_time=rec.start_time)
        head_path = root / f"cut{cut}.swp"
        out_path = root / f"cut{cut}.trig.csv"
        write_recording(head_path, head)
        assert main(["track", "--input", str(head_path), "--out",
                     str(out_path), "--algorithm", "pv"]) == 0
        _, rows = read_trigger_log(out_path)
        ok += rows == [e for e in full_rows if e.sample_index < cut]
    print(f"criterion 8: prefix property held at {ok}/10 truncation points")
    assert ok == 10


def test_criterion_9_protocol_and_cold_start(default_synth, tracked_night):
    rec = default_synth.recording
    session = run_session(rec, TrackerConfig(algorithm="pv"),
                          GateConfig(onoff_enabled=True))
    delivered = session.delivered()
    in_on = [e for e in delivered if math.fmod(e.time_s, 12.0) < 6.0]
    offs = session.suppression_counts()["onoff"]

    _, trig_path = tracked_night[1:]
    _, rows = read_trigger_log(trig_path)
    first = min((e.time_s for e in rows if e.delivered), default=math.inf)
    print(f"criterion 9: {len(in_on)}/{len(delivered)} deliveries in ON "
          f"windows ({offs} suppressed), first delivery at {first:.1f}s "
          "on an all-sleep night")
    assert delivered and len(in_on) == len(delivered)
    assert offs > 0, "protocol never suppressed anything"
    assert first >= 80.0, f"delivered at {first:.1f}s inside the cold start"
