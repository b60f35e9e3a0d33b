"""Per-sample compute cost of the streaming pipeline.

Wall-clock timing of the pipeline's step functions (preprocess, gate and
each of the three trackers) over a deterministic synthetic stream, plus
static per-sample operation counts derived from the step arithmetic. All
stages take turns in one run, and each keeps one statistic: its fastest
time per slice, in ns per sample. The same run also times the phase
vocoder at the other rates of ``SWEEP_FS``, its moving-average span scaled
to SPAN_S; at ``fs`` the sweep point is the ``pv`` stage itself. Every
headline figure derives from those numbers:

- rcr: real-time consumption ratio, per-sample cost of preprocess, one
  tracker and gate divided by the sample period (must stay well under 1);
- efficiency: 100 * (1 - rcr);
- tracker cost ratio: phase vocoder vs PLL, tracker stage alone;
- vocoder cost vs fs: must not grow with the rate (running sums make the
  span free).

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
from .trackers import TrackerConfig, make_tracker

MAX_TIMER_RESOLUTION_S = 1e-6
WARMUP_SAMPLES = 2000        # untimed lead of every stage
DEFAULT_REPS = 5
MAX_REPS = 1000              # a minute or two of timing
CHUNK_SAMPLES = 4000         # timed samples of every stage, per repetition
SLICE_SAMPLES = 250          # streams take turns at this granularity
PRIME_SAMPLES = 100          # untimed lead of each slice, run by a twin stage
SWEEP_FS = (125.0, 250.0, 500.0)
SPAN_S = 0.5                 # vocoder moving-average span; 125 samples at 250 Hz

# Static per-sample floating-point operation counts of each stage's inner
# step, by kind. They follow from the recurrences and do not depend on the
# sampling rate or, for the vocoder, on the moving-average span (running
# sums make the span free). Preprocess counts nonzero coefficients, not the
# zero padding of first-order sections. PLL and PV: a step outside a hold
# that judges a crossing, refractory compare included; mul and add count
# float arithmetic only (divisions as mul, subtractions as add, hypot as
# neither), cmp every comparison and isfinite test, fmod every modulo, `%`
# included.
OP_COUNTS = {
    "preprocess": {"mul": 11, "add": 8, "trig": 0, "atan2": 0, "fmod": 0, "cmp": 3},
    "at":         {"mul": 5,  "add": 4, "trig": 0, "atan2": 0, "fmod": 0, "cmp": 4},
    "pll":        {"mul": 3,  "add": 5, "trig": 1, "atan2": 0, "fmod": 3, "cmp": 6},
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
    total, rcr and efficiency, the PV/PLL ratio and the vocoder's cost vs
    fs derive from these."""
    fs: float
    stage_ns: dict           # preprocess, gate, each tracker, "pv@<rate>"

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

    @property
    def pv_ns_vs_fs(self) -> dict:
        """Vocoder tracker ns per sample by rate, span scaled; the point at
        fs is the pv stage."""
        return {rate: self.stage_ns[_pv_stage(rate, self.fs)]
                for rate in sorted({self.fs, *SWEEP_FS})}


def _pv_stage(rate: float, fs: float) -> str:
    """Name of the vocoder stage at rate in a run at fs."""
    return "pv" if rate == fs else f"pv@{rate:g}"


def _interleaved_ns(streams: dict, reps: int) -> dict:
    """Time each stream's step function over its chunk, slice by slice.

    streams maps a name to (make, warm, chunk); make() builds a fresh step
    function, and all chunks have one length. The timed function and a
    twin from a second make() each run over the warm samples first. Each
    repetition then cuts the chunks into slices of SLICE_SAMPLES and lets
    the streams take turns slice by slice. On a shared host the speed
    changes within a second, so this way a change reaches all streams
    alike. Each slice's loop overhead, its fastest empty pass, is
    subtracted.

    A stage's time also depends on the stage that ran just before it: its
    code and data are cold in the caches. On a 2-vCPU Xeon container two
    identical vocoder stages differed by about 7% depending on whether the
    PLL or a vocoder went first. So before each timed slice the twin runs the slice's first
    PRIME_SAMPLES untimed, and every stage is timed after its own code. The
    timed function's state and samples stay as they are; trimming the
    timed slice instead would distort the gate, whose window transform
    falls once every thousand samples.

    Returns {name: array (reps, slices)} of ns per slice.
    """
    timed = {}
    for name, (make, warm, _) in streams.items():
        timed[name] = fn, twin = make(), make()
        for xi in warm:
            fn(xi)
            twin(xi)
    n = len(next(iter(streams.values()))[2])
    starts = range(0, n, SLICE_SAMPLES)
    full = {name: np.empty((reps, len(starts))) for name in streams}
    empty = {name: np.empty((reps, len(starts))) for name in streams}
    parts = {name: [chunk[a:a + SLICE_SAMPLES] for a in starts]
             for name, (_, _, chunk) in streams.items()}
    for r in range(reps):
        for j in range(len(starts)):
            for name, (fn, twin) in timed.items():
                part = parts[name][j]
                for xi in part[:PRIME_SAMPLES]:
                    twin(xi)
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


def _test_signal(fs: float, n: int):
    rng = np.random.default_rng(7)
    t = np.arange(n) / fs
    x = 75.0 * np.sin(2 * math.pi * 1.0 * t) + 10.0 * rng.standard_normal(n)
    return x.tolist()


def measure_pipeline_cost(fs: float = 250.0, reps: int = DEFAULT_REPS) -> CostReport:
    """Time the preprocess, gate and every tracker step at fs, and the
    vocoder at the other rates of SWEEP_FS, all in one interleaved run;
    each stage keeps its fastest slices."""
    if not 3 <= reps <= MAX_REPS:
        raise ConfigurationError(f"need 3 to {MAX_REPS} repetitions, got {reps}")
    check_timer()
    w = WARMUP_SAMPLES
    raw = _test_signal(fs, w + CHUNK_SAMPLES)
    clean = PreprocessChain(fs).run(raw).tolist()
    streams = {
        "preprocess": (lambda: PreprocessChain(fs).step, raw[:w], raw[w:]),
        "gate": (lambda: StimulationGate(GateConfig(), fs).step, clean[:w], clean[w:]),
    }

    def tracker(cfg, x):
        return (lambda: make_tracker(cfg).step, x[:w], x[w:])

    for algo in ("at", "pll"):
        streams[algo] = tracker(TrackerConfig(algorithm=algo, sample_rate_hz=fs), clean)
    for rate in [fs] + [r for r in SWEEP_FS if r != fs]:
        x = clean if rate == fs else \
            PreprocessChain(rate).run(_test_signal(rate, w + CHUNK_SAMPLES)).tolist()
        cfg = TrackerConfig(algorithm="pv", sample_rate_hz=rate,
                            maf_span=int(round(SPAN_S * rate)))
        streams[_pv_stage(rate, fs)] = tracker(cfg, x)
    stage_ns = {name: _fastest_ns(ns, CHUNK_SAMPLES)
                for name, ns in _interleaved_ns(streams, reps).items()}
    if stage_ns["pll"] <= 0:
        raise TimerResolutionError("PLL tracker stage timed at zero cost")
    return CostReport(fs, stage_ns)
