"""The three workloads: inputs made from a seed, the operations the closed
loop repeats, the checks on their outputs, and the traced cycle.

An operation is one CLI call, one session or one grid search. The loop
times each call alone; everything a check needs is taken after the call
returns, outside the timed region.
"""
from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import time
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

import swphase.cli as cli
import swphase.optimize as optimize
import swphase.pipeline as pipeline
from swphase import (GateConfig, PreprocessChain, StimulationGate, SynthSpec,
                     TrackerConfig, compute_phase_track, default_hypnogram,
                     generate, make_tracker)
from swphase.gate import on_window_at
from swphase.io import (hash_file, read_recording, write_hypnogram,
                        write_recording, write_trigger_log)
from swphase.metrics import PAS_WINDOW_S
from swphase.optimize import PV_TARGET_GRID_DEG, default_grid, tally_from_phases
from swphase.pipeline import LoggedTrigger

import probes
from tracer import Tracer

ALGORITHMS = ("at", "pll", "pv")
# Operations run longest first, so a partial last cycle repeats the
# operations that weigh most in a pass.
OP_ORDER = ("pv", "at", "pll")
ROOT_SPAN = "bench.op"      # one per operation in the traced cycle


@dataclass(frozen=True)
class Size:
    night: tuple            # hypnogram of the offline night
    cycle: tuple            # hypnogram of each streamed or searched night
    pv_targets: tuple
    at_thresholds: tuple


# A third of the default sleep cycle, in the same stage proportions (880 s).
# Streamed and searched nights are this short so that a run holds enough
# repeats of each operation for a steady median on a noisy host.
_THIRD_CYCLE = (("W",) * 3 + ("N1",) + ("N2",) * 10 + ("N3",) * 20
                + ("N2",) * 5 + ("REM",) * 5)
FULL = Size(tuple(default_hypnogram(4)), _THIRD_CYCLE,
            tuple(PV_TARGET_GRID_DEG),
            tuple(default_grid("at")["at_threshold_uv"]))
# 760 s: the generator's 720 s minimum plus a margin; for the smoke test only
_SHORT = ("W",) * 4 + ("N2",) * 10 + ("N3",) * 20 + ("N2",) * 4
TINY = Size(_SHORT, _SHORT, (30.0, 45.0), (30.0, 40.0))


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    record: Callable[[object], object]   # digest of the result, for checks
    span: Optional[str] = None           # traced cycle: span around the call


@dataclass(frozen=True)
class Failed:
    reason: str


def attempt(op: Op, run=None):
    """(seconds, record) of one call; an exception becomes a Failed record."""
    t0 = time.perf_counter()
    try:
        result = (run or op.run)()
    except Exception as exc:   # one failed operation must not end the run
        return time.perf_counter() - t0, Failed(f"{type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - t0
    return seconds, op.record(result)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _log_rows(path) -> list:
    with open(path, encoding="utf-8") as f:
        return [ln for ln in f if not ln.startswith("#")]


def _rows_sha(log, path) -> str:
    """Digest of a session log as the trigger-log writer formats it."""
    write_trigger_log(path, log)
    return _sha("".join(_log_rows(path)))


class Workload:
    name = ""

    def __init__(self, size: Size, seed: int, workdir):
        self.size = size
        self.seed = seed
        self.workdir = workdir

    generate_s = 0.0    # time the last setup spent in synth.generate

    def setup(self) -> None:
        raise NotImplementedError

    def inputs_digest(self) -> str:
        raise NotImplementedError

    def ops(self) -> list:
        raise NotImplementedError

    def check(self, records: dict):
        """({label: [failure reason or "" per record]}, outputs summary)."""
        raise NotImplementedError

    def figures(self, medians: dict) -> dict:
        """Named end-to-end figures, {name: (value, unit)}."""
        raise NotImplementedError

    def traced_cycle(self, tracer: Tracer, records: dict, untraced_s: float,
                     between: Callable[[], None]) -> dict:
        """Every operation once with the probes installed, one tracer run
        each; returns metrics the spans do not give. untraced_s is the
        untraced cycle's time; between() runs after each operation."""
        probes.install(tracer)
        try:
            for op in self.ops():
                tracer.run_id += 1
                run = tracer.wrap(op.span, op.run) if op.span else op.run
                gc.collect()
                with tracer.span(ROOT_SPAN):
                    _, record = attempt(op, run)
                between()
                records.setdefault(op.label, []).append(record)
        finally:
            tracer.restore()
        return {}


def _first_ok(items):
    return next((r for r in items if not isinstance(r, Failed)), None)


def _cli(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"swphase {argv[0]} exited with {code}")
    return code


class OfflineNight(Workload):
    """swphase track then swphase evaluate, per tracker, on one long night."""
    name = "offline_night"

    def __init__(self, size, seed, workdir):
        super().__init__(size, seed, workdir)
        self.swp = str(workdir / "night.swp")
        self.hyp = str(workdir / "night.hyp.csv")

    def setup(self):
        t0 = time.perf_counter()
        out = generate(SynthSpec(hypnogram=list(self.size.night), seed=self.seed))
        self.generate_s = time.perf_counter() - t0
        write_recording(self.swp, out.recording)
        write_hypnogram(self.hyp, out.recording.hypnogram)

    def inputs_digest(self):
        return hash_file(self.swp) + hash_file(self.hyp)

    def _paths(self, algo):
        return str(self.workdir / f"{algo}.csv"), str(self.workdir / f"{algo}.json")

    def ops(self):
        out = []
        for algo in OP_ORDER:
            log, report = self._paths(algo)
            out.append(Op(
                "track." + algo,
                partial(_cli, ["track", "--input", self.swp, "--algorithm", algo,
                               "--out", log]),
                partial(self._record_log, log), span="cli.track"))
            out.append(Op(
                "evaluate." + algo,
                partial(_cli, ["evaluate", "--input", self.swp, "--hypnogram",
                               self.hyp, "--triggers", log, "--json", report]),
                partial(self._record_report, report), span="cli.evaluate"))
        return out

    @staticmethod
    def _record_log(path, _code):
        with open(path, encoding="utf-8") as f:
            text = f.read()
        lines = text.splitlines(keepends=True)
        rows = [ln for ln in lines if not ln.startswith("#")]
        head = dict(ln[1:].strip().partition("=")[::2] for ln in lines
                    if ln.startswith("#"))
        return {"file_sha": _sha(text), "rows_sha": _sha("".join(rows)),
                "input_sha256": head.get("input_sha256"),
                "n_candidates": len(rows) - 1,
                "n_delivered": sum(r.split(",")[5] == "1" for r in rows[1:])}

    @staticmethod
    def _record_report(path, _code):
        with open(path, encoding="utf-8") as f:
            return json.load(f)

    def check(self, records):
        recording = read_recording(self.swp)
        input_sha = hash_file(self.swp)
        failures, outputs = {}, {}
        for algo in ALGORITHMS:
            session = pipeline.run_session(recording, TrackerConfig(algorithm=algo),
                                           GateConfig())
            batch_sha = _rows_sha(session.log, self.workdir / "batch.csv")
            logs = records.get("track." + algo, [])
            reports = records.get("evaluate." + algo, [])
            first_log, first_report = _first_ok(logs), _first_ok(reports)
            failures["track." + algo] = [
                r.reason if isinstance(r, Failed)
                else "log differs from its first repeat" if r["file_sha"] != first_log["file_sha"]
                else "log differs from the run_session batch log" if r["rows_sha"] != batch_sha
                else "provenance input_sha256 is not the input's" if r["input_sha256"] != input_sha
                else "" for r in logs]
            failures["evaluate." + algo] = [
                r.reason if isinstance(r, Failed)
                else "no trigger log to compare with" if first_log is None
                else "report counts differ from the log"
                if (r["n_candidates"], r["n_delivered"]) != (first_log["n_candidates"], first_log["n_delivered"])
                else "report differs from its first repeat" if r != first_report
                else "" for r in reports]
            if first_log and first_report:
                outputs[algo] = {
                    "log_sha256": first_log["file_sha"],
                    "n_candidates": first_report["n_candidates"],
                    "n_delivered": first_report["n_delivered"],
                    "up_phase_pct": first_report.get("up_phase_pct"),
                    "low_capacity_pct": first_report.get("low_capacity_pct")}
        return failures, outputs

    def figures(self, medians):
        return {
            "track_s": (sum(medians["track." + a] for a in ALGORITHMS), "s"),
            "evaluate_s": (sum(medians["evaluate." + a] for a in ALGORITHMS), "s"),
        }


class RealtimeStream(Workload):
    """run_session(streaming=True) per tracker: one sample at a time."""
    name = "realtime_stream"

    def setup(self):
        t0 = time.perf_counter()
        self.recording = generate(SynthSpec(hypnogram=list(self.size.cycle),
                                            seed=self.seed)).recording
        self.generate_s = time.perf_counter() - t0

    def inputs_digest(self):
        return hashlib.sha256(self.recording.samples.tobytes()).hexdigest()

    def ops(self):
        return [Op("stream." + algo,
                   partial(pipeline.run_session, self.recording,
                           TrackerConfig(algorithm=algo), GateConfig(),
                           streaming=True),
                   lambda s: (s.log, s.window_flags))
                for algo in OP_ORDER]

    def check(self, records):
        failures, outputs = {}, {}
        for algo in ALGORITHMS:
            batch = pipeline.run_session(self.recording,
                                         TrackerConfig(algorithm=algo), GateConfig())
            failures["stream." + algo] = [
                r.reason if isinstance(r, Failed)
                else "streaming log differs from the batch log" if r[0] != batch.log
                else "gate windows differ from the batch gate" if r[1] != batch.window_flags
                else "" for r in records.get("stream." + algo, [])]
            outputs[algo] = {
                "log_sha256": _rows_sha(batch.log, self.workdir / "batch.csv"),
                "n_candidates": len(batch.log),
                "n_delivered": len(batch.delivered())}
        return failures, outputs

    def figures(self, medians):
        n = len(self.recording.samples) * len(ALGORITHMS)
        us = 1e6 * sum(medians["stream." + a] for a in ALGORITHMS) / n
        return {"stream_us_per_sample": (us, "us"),
                "rcr": (us * 1e-6 * self.recording.fs, "ratio")}

    def traced_cycle(self, tracer, records, untraced_s, between):
        """The public step API fed stage by stage over gate-aligned blocks.

        Gate flags change only at a window's last sample, after that
        sample's decision, so deciding a block's candidates on the flags at
        the block's start reproduces run_session(streaming=True) exactly;
        the check compares the logs.
        """
        stage = dict.fromkeys(("pre", "gate"), 0.0)
        tracker_s, blocks_ms = {}, []
        windows = 0
        for algo in ALGORITHMS:
            tracer.run_id += 1
            gc.collect()
            with tracer.span(ROOT_SPAN):
                log, flags, tracker, tracker_s[algo] = self._stream_blocks(
                    algo, tracer, stage, blocks_ms)
            between()
            records.setdefault("stream." + algo, []).append((log, flags))
            windows += len(flags)
            c = tracer.counts
            c["trackers.candidates." + algo] += len(log)
            c["trackers.slips." + algo] += tracker.slip_count
            c["trackers.holds." + algo] += getattr(tracker, "hold_count", 0)
            c["trackers.resets." + algo] += getattr(tracker, "reset_count", 0)
            c["gate.candidates." + algo] += len(log)
            c["gate.delivered." + algo] += sum(e.delivered for e in log)
        tracer.counts["gate.windows"] += windows
        n = len(self.recording.samples)
        out = {"dsp.preprocess_step_ns": 1e9 * stage["pre"] / (n * len(ALGORITHMS)),
               "gate.step_ns": 1e9 * stage["gate"] / (n * len(ALGORITHMS)),
               "stream.block_ms.p50": float(np.percentile(blocks_ms, 50)),
               "stream.block_ms.p99": float(np.percentile(blocks_ms, 99)),
               "pipeline.stream_glue_ns": 1e9 * (untraced_s - stage["pre"] - stage["gate"]
                                                 - sum(tracker_s.values()))
               / (n * len(ALGORITHMS))}
        for algo in ALGORITHMS:
            out["trackers.step_ns." + algo] = 1e9 * tracker_s[algo] / n
        return out

    def _stream_blocks(self, algo, tracer, stage, blocks_ms):
        fs = self.recording.fs
        gate_cfg = GateConfig().validate()
        cfg = TrackerConfig(algorithm=algo, sample_rate_hz=fs)
        chain = PreprocessChain(fs)
        tracker = make_tracker(cfg)
        gate = StimulationGate(gate_cfg, fs)
        pre_step, tracker_step, gate_step = chain.step, tracker.step, gate.step
        pick = {"at": lambda r: r, "pll": lambda r: r[1], "pv": lambda r: r[2]}[algo]
        window_n = int(round(gate_cfg.window_step_s * fs))
        xs = np.asarray(self.recording.samples, dtype=float).tolist()
        log = []
        tracker_s = 0.0
        for start in range(0, len(xs), window_n):
            block = xs[start:start + window_n]
            t0 = time.perf_counter()
            ys = [pre_step(x) for x in block]
            t1 = time.perf_counter()
            events = [e for e in map(pick, map(tracker_step, ys)) if e is not None]
            t2 = time.perf_counter()
            for ev in events:
                ok, reason = gate.decide(ev.time_s)
                log.append(LoggedTrigger(ev.sample_index, ev.time_s, ev.algorithm,
                                         ev.tracker_phase_deg, ev.amplitude_uv,
                                         ok, reason, on_window_at(ev.time_s, gate_cfg)))
            t3 = time.perf_counter()
            for y in ys:
                gate_step(y)
            t4 = time.perf_counter()
            stage["pre"] += t1 - t0
            tracker_s += t2 - t1
            stage["gate"] += t4 - t3
            blocks_ms.append(1e3 * (t4 - t0))
            tracer.add("stream.block", t0, t4)
        return log, list(gate.window_log), tracker, tracker_s


class ParamSearch(Workload):
    """make_pipeline_evaluator plus grid_search_cv over three nights."""
    name = "param_search"

    def setup(self):
        t0 = time.perf_counter()
        self.recordings = [
            generate(SynthSpec(hypnogram=list(self.size.cycle),
                               seed=3 * self.seed + i)).recording
            for i in range(3)]
        self.generate_s = time.perf_counter() - t0
        self._evaluators = {}

    def inputs_digest(self):
        h = hashlib.sha256()
        for rec in self.recordings:
            h.update(rec.samples.tobytes())
        return h.hexdigest()

    def grid(self, algo):
        if algo == "pv":
            return {"phi_target_deg": list(self.size.pv_targets),
                    "k_pv": [2.0], "maf_span": [125]}
        return {"at_threshold_uv": list(self.size.at_thresholds)}

    def ops(self):
        return [Op("search." + algo, partial(self._search, algo),
                   partial(self._record_search, algo)) for algo in ("pv", "at")]

    def _search(self, algo):
        evaluate = optimize.make_pipeline_evaluator(self.recordings, algo, GateConfig())
        outcome = optimize.grid_search_cv(self.recordings, self.grid(algo), evaluate,
                                          k=3, seed=0)
        return evaluate, outcome

    def _record_search(self, algo, result):
        evaluate, outcome = result
        # the first search runs untraced; its evaluator serves the parity check
        self._evaluators.setdefault(algo, evaluate)
        best = outcome.best
        return {"best": best.combo, "ed_error": best.ed_error,
                "val_objectives": best.val_objectives,
                "results_sha": _sha(repr([(r.combo, r.ed_error)
                                          for r in outcome.results]))}

    def _full_pipeline_tally(self, recording, track, algo, combo):
        gate_cfg = GateConfig().validate()
        cfg = TrackerConfig(**{**TrackerConfig(algorithm=algo).__dict__, **combo,
                               "sample_rate_hz": recording.fs})
        session = pipeline.run_session(recording, cfg, gate_cfg)
        q_count, _, qual = pipeline.qualifying_windows(
            recording, session.window_flags, gate_cfg, track.valid)
        idx = np.asarray([e.sample_index for e in session.delivered()], dtype=int)
        valid = idx[track.valid[idx]]
        win = int(round(PAS_WINDOW_S * recording.fs))
        inw = [w < len(qual) and bool(qual[w]) for w in valid // win]
        return tally_from_phases(track.phase_deg[valid], inw, q_count)

    def check(self, records):
        tracks = [compute_phase_track(r.samples, r.fs) for r in self.recordings]
        failures, outputs = {}, {}
        for algo in ("pv", "at"):
            items = records.get("search." + algo, [])
            first = _first_ok(items)
            reasons = [r.reason if isinstance(r, Failed)
                       else "best combo differs from the first search" if r != first
                       else "" for r in items]
            if first is not None and algo in self._evaluators:
                evaluate = self._evaluators[algo]
                for rec, track in zip(self.recordings, tracks):
                    fast = evaluate(first["best"], rec)
                    full = self._full_pipeline_tally(rec, track, algo, first["best"])
                    if fast != full and not reasons[0]:
                        reasons[0] = "fast-path tally differs from the full pipeline"
                outputs[algo] = {"best": first["best"], "ed_error": first["ed_error"],
                                 "val_objectives": first["val_objectives"]}
            failures["search." + algo] = reasons
        return failures, outputs

    def figures(self, medians):
        return {"search_s": (sum(medians.values()), "s")}


WORKLOADS = {w.name: w for w in (OfflineNight, RealtimeStream, ParamSearch)}
