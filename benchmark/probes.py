"""Where the traced run attaches spans and counters to swphase.

Each public name is wrapped where its caller looks it up: the CLI's own
imports, the pipeline's and optimizer's module globals, the oracle's globals
(``compute_phase_track`` reaches the filter and Hilbert stage through them)
and the class methods the sessions call. ``install`` records every
replacement in the tracer, and ``Tracer.restore`` undoes them all.
"""
from __future__ import annotations

import os

import swphase.cli as cli
import swphase.dsp as dsp
import swphase.gate as gate
import swphase.optimize as optimize
import swphase.oracle as oracle
import swphase.pipeline as pipeline
import swphase.trackers as trackers

from tracer import Tracer

TRACKER_CLASSES = {"at": trackers.AmplitudeThresholdTracker,
                   "pll": trackers.PllTracker, "pv": trackers.PvTracker}


def install(tracer: Tracer) -> None:
    c = tracer.counts

    def file_size(key):
        def after(args, _result, _seconds):
            c[key] += os.path.getsize(args[0])
        return after

    def health(algo, tracker):
        c["trackers.slips." + algo] += tracker.slip_count
        c["trackers.holds." + algo] += getattr(tracker, "hold_count", 0)
        c["trackers.resets." + algo] += getattr(tracker, "reset_count", 0)

    # io, as the CLI calls it
    for attr in ("read_recording", "read_hypnogram", "read_trigger_log",
                 "hash_file"):
        tracer.patch(cli, attr, "io." + attr, file_size("io.bytes_read"))
    tracer.patch(cli, "write_trigger_log", "io.write_trigger_log",
                 file_size("io.bytes_written"))

    # pipeline entry points, as the CLI calls them
    def session_done(_args, session, _seconds):
        algo = session.tracker_config.algorithm
        c["gate.candidates." + algo] += len(session.log)
        c["gate.delivered." + algo] += len(session.delivered())
    tracer.patch(cli, "run_session", "pipeline.run_session", session_done)
    tracer.patch(cli, "evaluate_session", "pipeline.evaluate_session")

    # dsp and the batch trackers
    def preprocessed(_args, _y, _seconds):
        c["dsp.preprocess_run_calls"] += 1
    tracer.patch(dsp.PreprocessChain, "run", "dsp.preprocess_run", preprocessed)
    for algo, cls in TRACKER_CLASSES.items():
        def ran(args, events, _seconds, algo=algo):
            c["trackers.candidates." + algo] += len(events)
            health(algo, args[0])
        tracer.patch(cls, "run", "trackers.run." + algo, ran)

    # gate (the CLI's evaluate imports gate_flags_batch at call time)
    def windows(_args, flags, _seconds):
        c["gate.windows"] += len(flags)
    for module in (gate, pipeline, optimize):
        tracer.patch(module, "gate_flags_batch", "gate.flags_batch", windows)

    # oracle
    for module in (oracle, pipeline):
        tracer.patch(module, "zero_phase_bandpass", "oracle.bandpass")
        tracer.patch(module, "hilbert_phase", "oracle.hilbert")
    tracer.patch(pipeline, "phase_at_triggers", "oracle.phase_at_triggers")

    # metrics and the evaluation-side pipeline helpers
    for module in (pipeline, optimize):
        tracer.patch(module, "qualifying_windows", "pipeline.qualifying_windows")

    def waves(_args, found, _seconds):
        c["metrics.waves"] += len(found)
    tracer.patch(pipeline, "detect_waves", "metrics.detect_waves", waves)
    for attr in ("circular_mean_sd", "cmae45", "pas", "targeting_capacity",
                 "trigger_intervals"):
        tracer.patch(pipeline, attr, "metrics.scoring")

    # optimizer: phase streams (their trackers are made from pipeline
    # globals, so the health counters can be read after each stream)
    made = []
    for algo in ("pll", "pv"):
        cls = TRACKER_CLASSES[algo]

        def make(cfg, cls=cls):
            tracker = cls(cfg)
            made.append(tracker)
            return tracker
        tracer.replace(pipeline, cls.__name__, make)

    def streamed(args, stream, seconds):
        algo = args[1].algorithm
        c["pipeline.phase_streams"] += 1
        c["stream.samples." + algo] += len(stream)
        c["stream.seconds." + algo] += seconds
        for tracker in made:
            health(algo, tracker)
        made.clear()
    tracer.patch(optimize, "tracker_phase_stream",
                 "pipeline.tracker_phase_stream", streamed)
    tracer.patch(optimize, "candidates_from_phase_stream",
                 "pipeline.candidates_from_phase_stream")

    current = {"algo": ""}
    delivered_filter = vars(optimize._RecordingCache)["delivered_filter"]

    def counted_filter(cache, idx):
        kept = delivered_filter(cache, idx)
        algo = current["algo"]
        c["trackers.candidates." + algo] += len(idx)
        c["gate.candidates." + algo] += len(idx)
        c["gate.delivered." + algo] += len(kept)
        return kept
    tracer.replace(optimize._RecordingCache, "delivered_filter", counted_filter)

    build = vars(optimize)["make_pipeline_evaluator"]

    def make_evaluator(recordings, algorithm, *args, **kwargs):
        with tracer.span("optimize.evaluator_build"):
            evaluate = build(recordings, algorithm, *args, **kwargs)
        traced = tracer.wrap("optimize.combo", evaluate)

        def combo(params, recording):
            current["algo"] = algorithm
            c["optimize.combo_evals"] += 1
            if algorithm != "at":
                c["optimize.stream_combo_evals"] += 1
            return traced(params, recording)
        return combo
    tracer.replace(optimize, "make_pipeline_evaluator", make_evaluator)
    tracer.patch(optimize, "grid_search_cv", "optimize.grid_search_cv")
