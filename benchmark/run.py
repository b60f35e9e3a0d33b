"""End-to-end benchmark of swphase: one workload per run, in one process.

    python3 benchmark/run.py --workload offline_night --seed 0 --seconds 20 --trace 0

Run from the repository root. The package is imported from ``src/`` next
to this directory, with BLAS and OpenMP pinned to one thread. The seed is
the only source of the inputs. Each workload is a closed loop: every call
starts when the previous one returns, and the loop repeats its operations
until ``--seconds`` have passed and each has run at least once.

Every time reported is rescaled to a reference machine speed by the
calibration kernel in ``calib.py``; raw wall times are printed above the
result. ``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs every
operation once untraced and once with spans, and prints the per-layer
metrics; the spans go to ``.bench_out/spans-<workload>-seed<n>.csv``.
The last line of standard output is always the JSON result. Working files
live under ``.bench_out/`` and are removed at the end.
"""
from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:          # before numpy loads its BLAS
    os.environ[_var] = "1"

import argparse
import gc
import json
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPS = 3
ALGOS = ("at", "pll", "pv")

END_TO_END = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}
TIME_UNITS = ("s", "ms", "us", "ns")

# span name -> per-layer metric of its self time
SPAN_METRICS = {
    "io.read_recording": "io.read_recording_s",
    "io.read_hypnogram": "io.read_hypnogram_s",
    "io.hash_file": "io.hash_file_s",
    "io.write_trigger_log": "io.write_trigger_log_s",
    "io.read_trigger_log": "io.read_trigger_log_s",
    "cli.track": "cli.track_self_s",
    "cli.evaluate": "cli.evaluate_self_s",
    "dsp.preprocess_run": "dsp.preprocess_run_s",
    **{f"trackers.run.{a}": f"trackers.run_s.{a}" for a in ALGOS},
    "gate.flags_batch": "gate.flags_batch_s",
    "pipeline.run_session": "pipeline.run_session_self_s",
    "pipeline.evaluate_session": "pipeline.evaluate_session_self_s",
    "pipeline.qualifying_windows": "pipeline.qualifying_windows_s",
    "pipeline.tracker_phase_stream": "pipeline.tracker_phase_stream_s",
    "pipeline.candidates_from_phase_stream": "pipeline.candidates_from_phase_stream_s",
    "oracle.bandpass": "oracle.bandpass_s",
    "oracle.hilbert": "oracle.hilbert_s",
    "oracle.phase_at_triggers": "oracle.phase_at_triggers_s",
    "metrics.detect_waves": "metrics.detect_waves_s",
    "metrics.scoring": "metrics.scoring_s",
    "optimize.evaluator_build": "optimize.evaluator_build_s",
    "optimize.combo": "optimize.combo_self_s",
    "optimize.grid_search_cv": "optimize.fold_scoring_s",
}
# tracer counters reported as they are
COUNT_METRICS = (
    "io.bytes_read", "io.bytes_written", "dsp.preprocess_run_calls",
    *(f"trackers.candidates.{a}" for a in ALGOS),
    "trackers.slips.pll", "trackers.slips.pv", "trackers.holds.pv",
    "trackers.resets.pll", "gate.windows", "pipeline.phase_streams",
    "metrics.waves", "optimize.combo_evals",
)
PER_LAYER = {
    "synth.generate_s": "s",
    **{m: "s" for m in SPAN_METRICS.values()},
    **{m: "B" if m.startswith("io.bytes") else "count" for m in COUNT_METRICS},
    "dsp.preprocess_step_ns": "ns",
    **{f"trackers.step_ns.{a}": "ns" for a in ALGOS},
    "gate.step_ns": "ns",
    **{f"gate.delivered_ratio.{a}": "ratio" for a in ALGOS},
    "pipeline.stream_glue_ns": "ns",
    "optimize.stream_reuse": "ratio",
    "stream.block_ms.p50": "ms",
    "stream.block_ms.p99": "ms",
    "trace.overhead_pct": "%",
    "trace.coverage_pct": "%",
    "e2e.track_s": "s",
    "e2e.evaluate_s": "s",
    "e2e.stream_us_per_sample": "us",
    "e2e.search_s": "s",
}


def machine_record() -> dict:
    import numpy
    import scipy
    import swphase

    def first(path, prefix):
        try:
            with open(path, encoding="utf-8") as f:
                for line in f:
                    if line.startswith(prefix):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return "unknown"

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": first("/proc/cpuinfo", "model name"),
        "mem_total": first("/proc/meminfo", "MemTotal"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "swphase": swphase.__version__,
        "perf_counter_resolution_s": time.get_clock_info("perf_counter").resolution,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "git_commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def closed_loop(ops, seconds, speed, times, records, attempt):
    """Cycle through ops until `seconds` passed and each ran at least once;
    the calibration kernel runs after every call."""
    start = time.perf_counter()
    i = 0
    while i < len(ops) or time.perf_counter() - start < seconds:
        op = ops[i % len(ops)]
        gc.collect()
        dt, record = attempt(op)
        speed.sample()
        times.setdefault(op.label, []).append(dt)
        records.setdefault(op.label, []).append(record)
        i += 1


def layer_metrics(tracer, extras, untraced_s, figures, generate_s, f) -> dict:
    """Per-layer metrics; wall times are multiplied by the speed factor f,
    except in the e2e.* figures, which arrive rescaled."""
    m = dict.fromkeys(PER_LAYER, 0.0)
    self_times = tracer.self_times()
    for span, seconds in self_times.items():
        if span in SPAN_METRICS:
            m[SPAN_METRICS[span]] += seconds
    c = tracer.counts
    for key in COUNT_METRICS:
        m[key] = c[key]
    for a in ALGOS:
        if c[f"gate.candidates.{a}"]:
            m[f"gate.delivered_ratio.{a}"] = c[f"gate.delivered.{a}"] / c[f"gate.candidates.{a}"]
        if c[f"stream.samples.{a}"]:   # optimizer phase streams: the step() loop
            m[f"trackers.step_ns.{a}"] = 1e9 * c[f"stream.seconds.{a}"] / c[f"stream.samples.{a}"]
    if c["pipeline.phase_streams"]:
        m["optimize.stream_reuse"] = c["optimize.stream_combo_evals"] / c["pipeline.phase_streams"]
    m.update(extras)
    traced_s = sum(end - start for name, start, end, _, _ in tracer.spans
                   if name == "bench.op")
    m["trace.overhead_pct"] = 100.0 * (traced_s - untraced_s) / untraced_s
    m["trace.coverage_pct"] = 100.0 * (1.0 - self_times["bench.op"] / traced_s)
    m["synth.generate_s"] = generate_s
    for name, unit in PER_LAYER.items():
        if unit in TIME_UNITS:
            m[name] *= f
    for name, (value, _unit) in figures.items():
        if "e2e." + name in m:
            m["e2e." + name] = value
    return m


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("offline_night", "realtime_stream", "param_search"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny inputs, for the benchmark's own smoke test")
    args = p.parse_args(argv)

    if not (SRC / "swphase" / "__init__.py").is_file():
        print(f"error: no swphase sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import swphase
    import swphase.cli   # noqa: F401  (the installed command's entry module)
    import_s = time.perf_counter() - t0
    if Path(swphase.__file__).resolve().parent != SRC / "swphase":
        print(f"error: swphase imported from {swphase.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    import calib
    import workloads
    from tracer import Tracer

    speed = calib.Speed()
    speed.sample()

    print("machine: " + json.dumps(machine_record(), sort_keys=True))
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=args.workload + "-", dir=OUT))
    try:
        size = workloads.TINY if args.size == "tiny" else workloads.FULL
        wl = workloads.WORKLOADS[args.workload](size, args.seed, workdir)

        setup_reps, generate_reps, digests = [], [], []
        for _ in range(SETUP_REPS):
            gc.collect()
            t0 = time.perf_counter()
            wl.setup()
            setup_reps.append(time.perf_counter() - t0)
            generate_reps.append(wl.generate_s)
            digests.append(wl.inputs_digest())
            speed.sample()

        ops = wl.ops()
        times, records = {}, {}
        tracer = None
        if args.trace:
            closed_loop(ops, 0.0, speed, times, records, workloads.attempt)
            untraced_s = sum(t[0] for t in times.values())
            tracer = Tracer()
            extras = wl.traced_cycle(tracer, records, untraced_s, speed.sample)
        else:
            closed_loop(ops, args.seconds, speed, times, records,
                        workloads.attempt)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        f = speed.factor()
        setup_s = f * (import_s + statistics.median(setup_reps))

        failures, outputs = wl.check(records)
        reasons = [r for rs in failures.values() for r in rs if r]
        attempted = sum(len(rs) for rs in records.values())
        failed = len(reasons)
        if len(set(digests)) != 1:
            reasons.append("set-up repeats made different inputs")
        medians = {label: f * statistics.median(t) for label, t in times.items()}
        figures = wl.figures(medians)

        kernel_s = speed.samples
        print(f"workload {args.workload} seed {args.seed} size {args.size}: "
              f"{attempted} operations; speed factor {f:.4f} from "
              f"{len(kernel_s)} kernel times, median {statistics.median(kernel_s):.5f} s, "
              f"min {min(kernel_s):.5f} s, max {max(kernel_s):.5f} s "
              f"(reference {calib.REFERENCE_S} s)")
        print(f"  raw wall seconds: import {import_s:.4f}, set-up repeats "
              f"{[round(x, 4) for x in setup_reps]}")
        for label, t in times.items():
            print(f"  op {label:<16} n={len(t)} rescaled median={medians[label]:.4f} s "
                  f"raw={[round(x, 4) for x in t]}")
        for r in sorted(set(reasons)):
            print(f"  FAILED: {r}")
        print("outputs: " + json.dumps(outputs, sort_keys=True))

        if tracer is not None:
            metrics = layer_metrics(tracer, extras, untraced_s, figures,
                                    statistics.median(generate_reps), f)
            units = PER_LAYER
            tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.csv")
            shown, shown_units = dict(metrics), dict(units)
        else:
            metrics = {"setup_s": setup_s,
                       "pass_s": sum(medians.values()),
                       "peak_rss_mb": peak_rss_mb}
            units = END_TO_END
            shown = {**metrics, **{k: v for k, (v, _) in figures.items()}}
            shown_units = {**units, **{k: u for k, (_, u) in figures.items()}}
        shown["failed_pct"], shown_units["failed_pct"] = 100.0 * failed / attempted, "%"
        for name, value in shown.items():
            print(f"  {name:<40} {value:.6g} {shown_units[name]}")
        result = {"correct": not reasons,
                  "attempted": attempted, "failed": failed,
                  "metrics": {k: {"value": v, "unit": units[k]}
                              for k, v in metrics.items()}}
        print(json.dumps(result))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
