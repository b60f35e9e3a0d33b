"""Per-sample compute cost of the streaming pipeline.

Wall-clock timing of the pipeline's step functions (preprocess, gate and
each of the three trackers) over a deterministic synthetic stream, plus
static per-sample operation counts derived from the step arithmetic. All
five stages take turns in one run, and each keeps one statistic: its
fastest time per slice, in ns per sample. Every headline figure derives
from those five numbers:

- rcr: real-time consumption ratio, per-sample cost of preprocess, one
  tracker and gate divided by the sample period (must stay well under 1);
- efficiency: 100 * (1 - rcr);
- tracker cost ratio: phase vocoder vs PLL, tracker stage alone.

The sampling-rate sweep times other configurations in a run of its own.
Timing refuses to run on clocks coarser than 1 microsecond.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .dsp import PreprocessChain
from .errors import ConfigurationError, TimerResolutionError
from .gate import GateConfig, StimulationGate
from .trackers import ALGORITHMS, TrackerConfig, make_tracker

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


@dataclass(frozen=True)
class CostReport:
    """ns per sample of every stage, all from one interleaved run. Each
    algorithm's pipeline is preprocess, its tracker and the gate; its
    total, rcr and efficiency, and the PV/PLL ratio, derive from these."""
    fs: float
    reps: int
    timer_resolution_s: float
    stage_ns: dict           # preprocess, gate and each tracker

    @property
    def sample_period_ns(self) -> float:
        return 1e9 / self.fs

    def stages(self, algorithm: str) -> dict:
        return {"preprocess": self.stage_ns["preprocess"],
                "tracker": self.stage_ns[algorithm],
                "gate": self.stage_ns["gate"]}

    def total_ns(self, algorithm: str) -> float:
        return sum(self.stages(algorithm).values())

    def rcr(self, algorithm: str) -> float:
        return self.total_ns(algorithm) / self.sample_period_ns

    def efficiency_pct(self, algorithm: str) -> float:
        return 100.0 * (1.0 - self.rcr(algorithm))

    @property
    def pv_pll_ratio(self) -> float:
        return self.stage_ns["pv"] / self.stage_ns["pll"]


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


def _test_signal(fs: float, n: int, seed: int = 7):
    rng = np.random.default_rng(seed)
    t = np.arange(n) / fs
    x = 75.0 * np.sin(2 * math.pi * 1.0 * t) + 10.0 * rng.standard_normal(n)
    return x.tolist()


def measure_pipeline_cost(fs: float = 250.0,
                          warmup_samples: int = DEFAULT_WARMUP_SAMPLES,
                          reps: int = DEFAULT_REPS,
                          chunk_samples: int = DEFAULT_CHUNK_SAMPLES) -> CostReport:
    """Time the preprocess, gate and every tracker step on one stream, all
    in one interleaved run; each stage keeps its fastest slices."""
    if reps < 3:
        raise ConfigurationError("need at least 3 repetitions")
    if warmup_samples < 1000:
        raise ConfigurationError("need at least 1000 warmup samples")
    res = check_timer()
    raw = _test_signal(fs, warmup_samples + chunk_samples)
    clean = PreprocessChain(fs).run(raw).tolist()
    w = warmup_samples
    streams = {
        "preprocess": (PreprocessChain(fs).step, raw[:w], raw[w:]),
        "gate": (StimulationGate(GateConfig(), fs).step, clean[:w], clean[w:]),
    }
    for algo in ALGORITHMS:
        tracker = make_tracker(TrackerConfig(algorithm=algo, sample_rate_hz=fs))
        streams[algo] = (tracker.step, clean[:w], clean[w:])
    stage_ns = {name: _fastest_ns(ns, chunk_samples)
                for name, ns in _interleaved_ns(streams, reps).items()}
    if stage_ns["pll"] <= 0:
        raise TimerResolutionError("PLL tracker stage timed at zero cost")
    return CostReport(fs, reps, res, stage_ns)


def pv_cost_vs_fs(fs_values=(125.0, 250.0, 500.0), span_s: float = 0.5,
                  reps: int = 9, chunk_samples: int = DEFAULT_CHUNK_SAMPLES) -> dict:
    """Vocoder tracker cost per sample at several rates, span scaled with fs.

    With running-sum moving averages the cost must not grow with fs. The
    rates take turns in every repetition; each keeps its fastest time per
    slice.
    """
    check_timer()
    w = DEFAULT_WARMUP_SAMPLES
    streams = {}
    for fs in fs_values:
        cfg = TrackerConfig(algorithm="pv", sample_rate_hz=fs,
                            maf_span=max(2, int(round(span_s * fs))))
        clean = PreprocessChain(fs).run(_test_signal(fs, w + chunk_samples)).tolist()
        streams[fs] = (make_tracker(cfg).step, clean[:w], clean[w:])
    return {fs: _fastest_ns(ns, chunk_samples)
            for fs, ns in _interleaved_ns(streams, reps).items()}
