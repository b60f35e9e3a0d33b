"""Per-sample compute cost of the streaming pipeline.

Wall-clock timing of the three stages (preprocess, tracker, gate) over a
deterministic synthetic stream, plus static per-sample operation counts
derived from the step arithmetic. The headline figures:

- rcr: real-time consumption ratio, median per-sample cost of all three
  stages divided by the sample period (must stay well under 1);
- efficiency: 100 * (1 - rcr);
- tracker cost ratio: phase vocoder vs PLL, tracker stage alone.

Timing refuses to run on clocks coarser than 1 microsecond.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .dsp import PreprocessChain
from .errors import ConfigurationError, TimerResolutionError
from .gate import GateConfig, StimulationGate
from .trackers import TrackerConfig, make_tracker

MAX_TIMER_RESOLUTION_S = 1e-6
DEFAULT_WARMUP_SAMPLES = 2000
DEFAULT_REPS = 5
DEFAULT_CHUNK_SAMPLES = 4000
SLICE_SAMPLES = 250          # streams take turns at this granularity

# Static per-sample floating-point operation counts of each stage's inner
# step, by kind. They follow from the recurrences and do not depend on the
# sampling rate or, for the vocoder, on the moving-average span (running
# sums make the span free). Preprocess counts nonzero coefficients, not the
# zero padding of first-order sections. PLL and PV: a step outside a hold,
# estimate trigger mode; fmod counts every modulo, `%` included.
OP_COUNTS = {
    "preprocess": {"mul": 11, "add": 8, "trig": 0, "atan2": 0, "fmod": 0, "cmp": 3},
    "at":         {"mul": 5,  "add": 4, "trig": 0, "atan2": 0, "fmod": 0, "cmp": 4},
    "pll":        {"mul": 4,  "add": 4, "trig": 1, "atan2": 0, "fmod": 3, "cmp": 7},
    "pv":         {"mul": 9,  "add": 12, "trig": 2, "atan2": 1, "fmod": 5, "cmp": 10},
}


def check_timer() -> float:
    """Resolution of the benchmark clock in seconds; refuses coarse clocks."""
    res = time.get_clock_info("perf_counter").resolution
    if res >= MAX_TIMER_RESOLUTION_S:
        raise TimerResolutionError(
            f"perf_counter resolution {res:.2e} s is too coarse; "
            f"need better than {MAX_TIMER_RESOLUTION_S:.0e} s")
    return res


@dataclass
class StageCost:
    name: str
    reps_ns: list            # per-sample cost of every repetition
    median_ns: float
    q1_ns: float
    q3_ns: float


@dataclass
class CostReport:
    algorithm: str
    fs: float
    warmup_samples: int
    reps: int
    chunk_samples: int
    timer_resolution_s: float
    stages: dict = field(default_factory=dict)
    total_median_ns: float = 0.0
    sample_period_ns: float = 0.0
    rcr: float = 0.0
    efficiency_pct: float = 0.0
    op_counts: dict = field(default_factory=dict)


def _interleaved_ns(streams: dict, reps: int) -> dict:
    """Time each stream's step function over its chunk, slice by slice.

    streams maps a name to (fn, warm, chunk); all chunks have one length.
    Every fn runs over its warm samples first. Each repetition then cuts
    the chunks into slices of SLICE_SAMPLES and lets the streams take turns
    slice by slice. On a shared host the speed changes within a second, so
    this way a change reaches all streams alike. Each slice's loop
    overhead, its fastest empty pass, is subtracted.

    Returns {name: array (reps, slices)} of ns per slice.
    """
    for fn, warm, _ in streams.values():
        for xi in warm:
            fn(xi)
    n = len(next(iter(streams.values()))[2])
    starts = range(0, n, SLICE_SAMPLES)
    full = {name: np.empty((reps, len(starts))) for name in streams}
    empty = {name: np.empty((reps, len(starts))) for name in streams}
    parts = {name: [chunk[a:a + SLICE_SAMPLES] for a in starts]
             for name, (_, _, chunk) in streams.items()}
    for r in range(reps):
        for j in range(len(starts)):
            for name, (fn, _, _) in streams.items():
                part = parts[name][j]
                t0 = time.perf_counter_ns()
                for xi in part:
                    pass
                t1 = time.perf_counter_ns()
                for xi in part:
                    fn(xi)
                t2 = time.perf_counter_ns()
                empty[name][r, j] = t1 - t0
                full[name][r, j] = t2 - t1
    return {name: np.maximum(full[name] - empty[name].min(axis=0), 0.0)
            for name in streams}


def _fastest_ns(slices_ns, n: int) -> float:
    """ns per sample from each slice's fastest repetition, the robust
    estimate when the host only ever adds delay."""
    return float(slices_ns.min(axis=0).sum()) / n


def _stage_cost(name, slices_ns, n: int) -> StageCost:
    reps_ns = (slices_ns.sum(axis=1) / n).tolist()
    return StageCost(name, reps_ns,
                     float(np.median(reps_ns)),
                     float(np.percentile(reps_ns, 25)),
                     float(np.percentile(reps_ns, 75)))


def _test_signal(fs: float, n: int, seed: int = 7):
    rng = np.random.default_rng(seed)
    t = np.arange(n) / fs
    x = 75.0 * np.sin(2 * math.pi * 1.0 * t) + 10.0 * rng.standard_normal(n)
    return x.tolist()


def _preprocessed(raw, fs: float) -> list:
    return PreprocessChain(fs).run(raw).tolist()


def measure_pipeline_cost(algorithm: str = "pv", fs: float = 250.0,
                          warmup_samples: int = DEFAULT_WARMUP_SAMPLES,
                          reps: int = DEFAULT_REPS,
                          chunk_samples: int = DEFAULT_CHUNK_SAMPLES) -> CostReport:
    """Time preprocess, tracker and gate steps separately on one stream."""
    if reps < 3:
        raise ConfigurationError("need at least 3 repetitions")
    if warmup_samples < 1000:
        raise ConfigurationError("need at least 1000 warmup samples")
    res = check_timer()
    cfg = TrackerConfig(algorithm=algorithm, sample_rate_hz=fs)

    raw = _test_signal(fs, warmup_samples + chunk_samples)
    clean = _preprocessed(raw, fs)
    w = warmup_samples
    costs = _interleaved_ns({
        "preprocess": (PreprocessChain(fs).step, raw[:w], raw[w:]),
        "tracker": (make_tracker(cfg).step, clean[:w], clean[w:]),
        "gate": (StimulationGate(GateConfig(), fs).step, clean[:w], clean[w:]),
    }, reps)
    pre, trk, gat = (_stage_cost(name, ns, chunk_samples)
                     for name, ns in costs.items())

    report = CostReport(algorithm=cfg.algorithm, fs=fs,
                        warmup_samples=warmup_samples, reps=reps,
                        chunk_samples=chunk_samples, timer_resolution_s=res)
    report.stages = {s.name: s for s in (pre, trk, gat)}
    report.total_median_ns = pre.median_ns + trk.median_ns + gat.median_ns
    report.sample_period_ns = 1e9 / fs
    report.rcr = report.total_median_ns / report.sample_period_ns
    report.efficiency_pct = 100.0 * (1.0 - report.rcr)
    report.op_counts = {"preprocess": OP_COUNTS["preprocess"],
                        cfg.algorithm: OP_COUNTS[cfg.algorithm]}
    return report


def _tracker_stream(cfg: TrackerConfig, warmup_samples: int, chunk_samples: int):
    """(step, warm, chunk) of a fresh tracker over the preprocessed test signal."""
    fs = cfg.sample_rate_hz
    clean = _preprocessed(_test_signal(fs, warmup_samples + chunk_samples), fs)
    return (make_tracker(cfg).step, clean[:warmup_samples],
            clean[warmup_samples:])


def tracker_cost_ratio(fs: float = 250.0, reps: int = DEFAULT_REPS,
                       chunk_samples: int = DEFAULT_CHUNK_SAMPLES) -> float:
    """Phase vocoder vs PLL per-sample cost, tracker stage only.

    Both trackers take turns in every repetition; each keeps its fastest
    time per slice.
    """
    check_timer()
    ns = _interleaved_ns({
        algo: _tracker_stream(TrackerConfig(algorithm=algo, sample_rate_hz=fs),
                              DEFAULT_WARMUP_SAMPLES, chunk_samples)
        for algo in ("pv", "pll")}, reps)
    denom = _fastest_ns(ns["pll"], chunk_samples)
    if denom <= 0:
        raise TimerResolutionError("PLL tracker stage timed at zero cost")
    return _fastest_ns(ns["pv"], chunk_samples) / denom


def pv_cost_vs_fs(fs_values=(125.0, 250.0, 500.0), span_s: float = 0.5,
                  reps: int = 9, chunk_samples: int = DEFAULT_CHUNK_SAMPLES) -> dict:
    """Vocoder tracker cost per sample at several rates, span scaled with fs.

    With running-sum moving averages the cost must not grow with fs. The
    rates take turns in every repetition; each keeps its fastest time per
    slice.
    """
    check_timer()
    streams = {}
    for fs in fs_values:
        cfg = TrackerConfig(algorithm="pv", sample_rate_hz=fs,
                            maf_span=max(2, int(round(span_s * fs))))
        streams[fs] = _tracker_stream(cfg, DEFAULT_WARMUP_SAMPLES, chunk_samples)
    return {fs: _fastest_ns(ns, chunk_samples)
            for fs, ns in _interleaved_ns(streams, reps).items()}
