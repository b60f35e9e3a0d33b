"""Command line interface.

Subcommands: simulate, track, evaluate, optimize, bench. Configuration
overrides take the same flat key=value form everywhere; --set touches the
tracker, --gate-set the gate, --synth-set the generator.
"""
from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .bench import DEFAULT_REPS, OP_COUNTS, measure_pipeline_cost
from .errors import ConfigurationError, FileFormatError, SwphaseError
from .gate import GateConfig, calibrate_gate
from .io import (apply_config, config_echo, hash_file, parse_config_echo, parse_grid,
                 parse_pairs, parse_stage_runs, read_config, read_hypnogram, read_recording,
                 read_trigger_log, write_hypnogram, write_recording, write_trigger_log)
from .optimize import default_grid, grid_search_cv, make_pipeline_evaluator
from .pipeline import evaluate_session, logged_session, run_session
from .recording import epoch_samples
from .synth import SynthSpec, default_hypnogram, generate
from .trackers import ALGORITHMS, TrackerConfig

# configuration keys that a command's own options or its input set
_TRACKER_FIXED = ("algorithm", "sample_rate_hz")
_SYNTH_FIXED = ("seed", "hypnogram")


def _read_hypnogram_into(recording, path) -> None:
    """Attach the hypnogram in path; refuse one whose last epoch starts at or
    past the recording's end. A shorter one leaves the tail unscored."""
    stages = read_hypnogram(path)
    if (len(stages) - 1) * epoch_samples(recording.fs) >= len(recording.samples):
        raise FileFormatError(f"{path}: {len(stages)} epochs outrun the recording")
    recording.hypnogram = stages


def _write_json(path, payload, sort_keys=True) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps(payload, indent=2, sort_keys=sort_keys) + "\n")


def cmd_simulate(args) -> int:
    hyp = default_hypnogram() if args.stages is None else parse_stage_runs(args.stages)
    spec = SynthSpec(hypnogram=hyp, seed=args.seed)
    spec = apply_config(spec, parse_pairs(args.synth_set), _SYNTH_FIXED)
    out = generate(spec)
    write_recording(args.out, out.recording)
    if args.hypnogram_out:
        write_hypnogram(args.hypnogram_out, hyp)
    dur = out.recording.duration_s
    print(f"wrote {args.out}: {len(out.recording.samples)} samples, "
          f"fs={out.recording.fs:g} Hz, {dur / 3600:.2f} h, "
          f"{len(hyp)} epochs, seed={spec.seed}")
    return 0


def cmd_track(args) -> int:
    recording = read_recording(args.input)
    cfg = apply_config(TrackerConfig(algorithm=args.algorithm), parse_pairs(args.set),
                       _TRACKER_FIXED)
    gate_cfg = apply_config(GateConfig(), parse_pairs(args.gate_set))
    session = run_session(recording, cfg, gate_cfg)
    provenance = {
        "input_sha256": hash_file(args.input),
        "tracker_config": config_echo(session.tracker_config),
        "gate_config": config_echo(gate_cfg),
    }
    write_trigger_log(args.out, session.log, provenance)
    n_del = len(session.delivered())
    print(f"wrote {args.out}: {len(session.log)} candidates, "
          f"{n_del} delivered, suppressed {session.suppression_counts()}")
    return 0


def _logged_configs(path, provenance, log, fs):
    """The tracker and gate configuration a trigger log was made under, read
    back from its provenance; a log without a tracker_config line takes its
    algorithm from its rows."""
    if not log and "tracker_config" not in provenance:
        raise FileFormatError(f"{path}: trigger log is empty and names no algorithm")
    base = TrackerConfig(algorithm=log[0].algorithm if log else "pv", sample_rate_hz=fs)
    try:
        cfg = parse_config_echo(provenance.get("tracker_config"), base)
        gate_cfg = parse_config_echo(provenance.get("gate_config"), GateConfig())
    except ConfigurationError as exc:
        raise FileFormatError(f"{path}: unreadable provenance: {exc}") from None
    if cfg.sample_rate_hz != fs:
        raise FileFormatError(f"{path}: tracker_config sample_rate_hz "
                              f"{cfg.sample_rate_hz:g} is not the recording's {fs:g} Hz")
    others = sorted({e.algorithm for e in log} - {cfg.algorithm})
    if others:
        raise FileFormatError(f"{path}: rows of algorithm {others} disagree with "
                              f"tracker_config algorithm {cfg.algorithm!r}")
    return cfg, gate_cfg


def cmd_evaluate(args) -> int:
    recording = read_recording(args.input)
    _read_hypnogram_into(recording, args.hypnogram)
    provenance, log = read_trigger_log(args.triggers,
                                       n_samples=len(recording.samples))
    logged = provenance.get("input_sha256")
    if logged is not None and logged != hash_file(args.input):
        raise FileFormatError(f"{args.triggers}: input_sha256 differs from {args.input}")
    cfg, gate_cfg = _logged_configs(args.triggers, provenance, log, recording.fs)
    report = evaluate_session(recording, logged_session(recording, log, cfg, gate_cfg))

    lines = [
        f"algorithm            {report.algorithm}",
        f"candidates           {report.n_candidates}",
        f"delivered            {report.n_delivered}",
        f"outside oracle mask  {report.n_oracle_dropped}",
    ]
    if report.circular_mean_deg is not None:
        lines += [
            f"circular mean        {report.circular_mean_deg:.2f} deg",
            f"circular sd          {report.circular_sd_deg:.2f} deg",
            f"cmae45               {report.cmae45_deg:.2f} deg "
            f"(norm {report.cmae45_norm:.4f})",
            f"up-phase fraction    {report.up_phase_pct:.1f} %",
        ]
    else:
        lines.append("circular mean        undefined")
    if report.pas_all is not None:
        lines += [
            f"pas (all)            {report.pas_all:.2f} %",
            f"pas (in up-phase)    {report.pas_in_up:.2f} %",
            f"pas (not up-phase)   {report.pas_not_up:.2f} %",
            f"qualifying windows   {report.qualifying_windows}",
        ]
    if report.n_low_waves is not None:
        low, high = (("undefined" if pct is None else f"{pct:.1f} %")
                     for pct in (report.low_capacity_pct, report.high_capacity_pct))
        lines.append(f"wave capacity        low {low} ({report.n_low_waves} waves), "
                     f"high {high} ({report.n_high_waves} waves)")
    if report.median_interval_s is not None:
        lines.append(f"median interval      {report.median_interval_s:.3f} s")
    lines.append(f"suppressed           {report.suppression_counts}")
    print("\n".join(lines))
    if args.json:
        _write_json(args.json, {k: v for k, v in vars(report).items() if v is not None})
    return 0


def _load_corpus(paths):
    recordings = []
    for path in paths:
        rec = read_recording(path)
        stem = str(path)
        for suffix in (".swp", ".bin", ".csv"):
            if stem.lower().endswith(suffix):
                stem = stem[: -len(suffix)]
                break
        _read_hypnogram_into(rec, stem + ".hyp.csv")
        recordings.append(rec)
    return recordings


def cmd_optimize(args) -> int:
    recordings = _load_corpus(args.inputs)
    if args.grid:
        grid = parse_grid(read_config(args.grid),
                          TrackerConfig(algorithm=args.algorithm), _TRACKER_FIXED)
    else:
        grid = default_grid(args.algorithm)
    gate_cfg = apply_config(GateConfig(), parse_pairs(args.gate_set))
    evaluate = make_pipeline_evaluator(recordings, args.algorithm, gate_cfg)
    outcome = grid_search_cv(recordings, grid, evaluate, k=args.k,
                             seed=args.seed)
    best = outcome.best
    print(f"grid: {len(outcome.results)} combos x {len(recordings)} recordings, "
          f"k={args.k}, seed={args.seed}")
    print(f"best combo: {best.combo}")
    print(f"  ed_error={best.ed_error:.4f} mean_val_ed={best.mean_val_ed:.4f} "
          f"mean_opt_ed={best.mean_opt_ed:.4f}")
    cm, pnu, piu = best.val_objectives
    print(f"  pooled validation: cmae_norm={cm:.4f} "
          f"pas_not_up_norm={pnu:.4f} pas_in_up_norm={piu:.4f}")
    if args.json:
        rows = [{"combo": r.combo, "ed_error": r.ed_error,
                 "mean_val_ed": r.mean_val_ed, "mean_opt_ed": r.mean_opt_ed,
                 "fold_val_ed": r.fold_val_ed, "fold_opt_ed": r.fold_opt_ed}
                for r in outcome.results]
        _write_json(args.json, {"algorithm": args.algorithm, "k": args.k,
                                "seed": args.seed,
                                "best": {"combo": best.combo, "ed_error": best.ed_error},
                                "results": rows}, sort_keys=False)
    return 0


def cmd_bench(args) -> int:
    report = measure_pipeline_cost(fs=args.fs, reps=args.reps)
    for algo in ALGORITHMS:
        stages = " ".join(f"{name}={ns:.0f}ns"
                          for name, ns in report.stages(algo).items())
        print(f"{algo:>4}: {stages} total={report.total_ns(algo):.0f}ns "
              f"rcr={report.rcr(algo):.5f} "
              f"efficiency={report.efficiency_pct(algo):.2f}%")
    print(f"pv/pll tracker cost ratio: {report.pv_pll_ratio:.2f}")
    pretty = ", ".join(f"{fs:g} Hz: {ns:.0f}ns" for fs, ns in report.pv_ns_vs_fs.items())
    print(f"pv tracker cost vs fs (span scaled): {pretty}")
    if args.json:
        payload = {a: {"rcr": report.rcr(a),
                       "efficiency_pct": report.efficiency_pct(a),
                       "stages": report.stages(a),
                       "op_counts": {"preprocess": OP_COUNTS["preprocess"],
                                     a: OP_COUNTS[a]}}
                   for a in ALGORITHMS}
        _write_json(args.json, payload)
    return 0


def cmd_calibrate(args) -> int:
    recording = read_recording(args.input)
    _read_hypnogram_into(recording, args.hypnogram)
    cfg = calibrate_gate(recording)
    for key, val in sorted(cfg.__dict__.items()):
        print(f"{key} = {val}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="swphase",
                                description="slow-wave phase tracking toolkit")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate a synthetic recording")
    sim.add_argument("--out", required=True)
    sim.add_argument("--hypnogram-out")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--stages", help='run-length stages, e.g. "W*10 N2*30" '
                                      "(default: four sleep cycles)")
    sim.add_argument("--synth-set", action="append", metavar="KEY=VALUE")
    sim.set_defaults(func=cmd_simulate)

    trk = sub.add_parser("track", help="run a tracker over a recording")
    trk.add_argument("--input", required=True)
    trk.add_argument("--out", required=True)
    trk.add_argument("--algorithm", choices=ALGORITHMS, default="pv")
    trk.add_argument("--set", action="append", metavar="KEY=VALUE")
    trk.add_argument("--gate-set", action="append", metavar="KEY=VALUE")
    trk.set_defaults(func=cmd_track)

    ev = sub.add_parser("evaluate", help="judge a trigger log against the oracle")
    ev.add_argument("--input", required=True)
    ev.add_argument("--triggers", required=True)
    ev.add_argument("--hypnogram", required=True)
    ev.add_argument("--json", help="write the report as JSON here")
    ev.set_defaults(func=cmd_evaluate)

    opt = sub.add_parser("optimize", help="cross-validated grid search")
    opt.add_argument("inputs", nargs="+",
                     help="recordings; CORPUS.hyp.csv sidecars must exist")
    opt.add_argument("--algorithm", choices=ALGORITHMS, required=True)
    opt.add_argument("-k", type=int, default=5)
    opt.add_argument("--seed", type=int, default=0)
    opt.add_argument("--grid", help="file of key = v1,v2,... lines")
    opt.add_argument("--gate-set", action="append", metavar="KEY=VALUE")
    opt.add_argument("--json")
    opt.set_defaults(func=cmd_optimize)

    ben = sub.add_parser("bench", help="per-sample cost measurement")
    ben.add_argument("--fs", type=float, default=250.0)
    ben.add_argument("--reps", type=int, default=DEFAULT_REPS)
    ben.add_argument("--json")
    ben.set_defaults(func=cmd_bench)

    cal = sub.add_parser("calibrate", help="gate thresholds from a scored recording")
    cal.add_argument("--input", required=True)
    cal.add_argument("--hypnogram", required=True)
    cal.set_defaults(func=cmd_calibrate)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SwphaseError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return (2 if isinstance(exc, ConfigurationError)
                else 3 if isinstance(exc, FileFormatError) else 4)


if __name__ == "__main__":
    sys.exit(main())
