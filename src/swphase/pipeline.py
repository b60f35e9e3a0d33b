"""End-to-end session plumbing: preprocess -> tracker -> gate -> log,
plus offline evaluation of a logged session against the phase oracle.

Two execution paths produce identical results: a per-sample streaming loop
(the reference) and a batch path that vectorizes the filters and window
logic but advances the PLL and PV through the same recurrence code as
``step``. Both are causal; the batch path is just faster.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .dsp import PreprocessChain
from .errors import ConfigurationError, UndefinedStatisticError
from .gate import (DELIVERED, REASONS, SUPPRESSION_ORDER, GateConfig,
                   StimulationGate, candidate_reasons, gate_flags_batch,
                   in_window, on_window_at, staged_nrem, window_reasons)
from .metrics import (PasReport, TargetingReport, circular_mean_sd, cmae45,
                      detect_waves, pas, pas_window_samples,
                      targeting_capacity, trigger_intervals)
from .oracle import (hilbert_phase, phase_at_triggers, trigger_samples,
                     valid_samples, zero_phase_bandpass)
from .recording import EegRecording
from .trackers import (PllTracker, PvTracker, TrackerConfig, forward_arcs,
                       make_tracker, phase_hits, refractory)


@dataclass(frozen=True)
class LoggedTrigger:
    sample_index: int
    time_s: float
    algorithm: str
    tracker_phase_deg: Optional[float]
    amplitude_uv: float
    delivered: bool
    suppression_reason: str   # "" when delivered
    on_window: bool           # protocol phase at the timestamp


@dataclass
class SessionResult:
    log: list
    window_flags: list
    tracker_config: TrackerConfig
    gate_config: GateConfig
    slip_count: int = 0

    def delivered(self):
        return [e for e in self.log if e.delivered]

    def suppression_counts(self) -> dict:
        out = dict.fromkeys(SUPPRESSION_ORDER, 0)
        for e in self.log:
            if not e.delivered:
                out[e.suppression_reason] += 1
        return out


def run_session(recording: EegRecording, tracker_config: TrackerConfig,
                gate_config: Optional[GateConfig] = None,
                streaming: bool = False) -> SessionResult:
    """Process a recording through one tracker and the gate.

    All candidate triggers are logged; the gate only sets delivered /
    suppression fields (trackers never see the gate).
    """
    gate_config = gate_config or GateConfig()
    cfg = replace(tracker_config, sample_rate_hz=recording.fs)
    fs = recording.fs

    if streaming:
        return _run_streaming(recording, cfg, gate_config)

    window_n = gate_config.window_samples(fs)   # refused before any tracker work
    y = PreprocessChain(fs).run(recording.samples)
    tracker = make_tracker(cfg)
    events = tracker.run(y)
    window_flags = gate_flags_batch(y, fs, gate_config)
    times = np.array([ev.time_s for ev in events], dtype=float)
    reasons = in_window(window_reasons(window_flags), trigger_samples(events), window_n)
    codes = candidate_reasons(reasons, times, gate_config).tolist()
    on = on_window_at(times, gate_config).tolist()
    log = [LoggedTrigger(ev.sample_index, ev.time_s, ev.algorithm,
                         ev.tracker_phase_deg, ev.amplitude_uv,
                         code == DELIVERED, REASONS[code], on_window)
           for ev, code, on_window in zip(events, codes, on)]
    return SessionResult(log, window_flags, cfg, gate_config,
                         slip_count=tracker.slip_count)


def logged_session(recording: EegRecording, log: list, tracker_config: TrackerConfig,
                   gate_config: GateConfig) -> SessionResult:
    """The session of a trigger log read back from a file, its window flags
    rebuilt under gate_config. The preprocessed copy is freed on return."""
    fs = recording.fs
    flags = gate_flags_batch(PreprocessChain(fs).run(recording.samples), fs, gate_config)
    return SessionResult(log, flags, tracker_config, gate_config)


def _run_streaming(recording, cfg, gate_config):
    fs = recording.fs
    chain = PreprocessChain(fs)
    tracker = make_tracker(cfg)
    gate = StimulationGate(gate_config, fs)
    preprocess, track, gate_step = chain.step, tracker.step, gate.step
    log = []
    for x in np.asarray(recording.samples, dtype=float).tolist():
        y = preprocess(x)
        ev = track(y)
        if type(ev) is tuple:   # the phase trackers put the event last
            ev = ev[-1]
        if ev is not None:
            ok, reason = gate.decide(ev.time_s)   # completed windows only
            log.append(LoggedTrigger(ev.sample_index, ev.time_s, ev.algorithm,
                                     ev.tracker_phase_deg, ev.amplitude_uv,
                                     ok, reason,
                                     on_window_at(ev.time_s, gate_config)))
        gate_step(y)
    return SessionResult(log, list(gate.window_log), cfg, gate_config,
                         slip_count=tracker.slip_count)


def tracker_phase_stream(preprocessed: np.ndarray, cfg: TrackerConfig) -> np.ndarray:
    """Per-sample phase estimate of the PLL or PV over a preprocessed batch.

    Used by the optimizer to factor the parameter grid: the stream depends
    on the loop dynamics but not on the trigger target, so crossings for
    many targets can be derived from one pass. The tracker's kernel makes
    the stream, refusing a non-finite sample as ``step`` would, and its
    health counters (slip, hold and reset counts) are set as a step() loop
    would leave them.
    """
    if cfg.algorithm not in ("pll", "pv"):
        raise ConfigurationError("phase streams exist for pll and pv only")
    tracker = (PllTracker if cfg.algorithm == "pll" else PvTracker)(cfg)
    stream = tracker.phase_stream(preprocessed)
    _, tracker.slip_count = forward_arcs(stream)
    return stream


def candidates_from_phase_stream(stream_deg: np.ndarray, target_deg: float,
                                 refractory_samples: int,
                                 arcs: np.ndarray) -> np.ndarray:
    """Trigger sample indices from a phase-estimate stream.

    The trackers' own crossing scan: forward arc below 180 deg containing
    the target, then the refractory filter. Sample 0 is judged from 0 deg,
    the trackers' estimate before the first sample. ``arcs`` is
    ``forward_arcs(stream_deg)[0]``, computed once by callers that scan one
    stream for many targets.
    """
    kept, _ = refractory(phase_hits(stream_deg, arcs, target_deg),
                         refractory_samples)
    return np.asarray(kept, dtype=int)


def scored_nrem_window_mask(recording: EegRecording, n_windows: int,
                            fs: float) -> np.ndarray:
    """Per-2 s-window flag: hypnogram stage at the window start is N2/N3."""
    return recording.nrem_mask()[np.arange(n_windows) * pas_window_samples(fs)]


def qualifying_windows(recording: EegRecording, window_flags,
                       gate_config: GateConfig, valid_mask):
    """Count PAS windows: 2 s, hypnogram NREM, device nrem+swa, fully
    inside valid_mask (the oracle-valid samples).

    Returns (qualifying_count, scored_count, per_window_bool).
    """
    fs = recording.fs
    win = pas_window_samples(fs)
    starts = np.arange(len(recording.samples) // win) * win
    scored = scored_nrem_window_mask(recording, len(starts), fs)
    qual = scored & in_window(staged_nrem(window_reasons(window_flags)), starts,
                              gate_config.window_samples(fs))
    qual &= valid_mask[starts] & valid_mask[starts + win - 1]
    return int(qual.sum()), int(scored.sum()), qual


def in_pas_window(qual, sample_index, fs: float) -> np.ndarray:
    """Per sample index: inside a PAS window marked in qual (none past the end)."""
    return in_window(np.append(qual, False), sample_index, pas_window_samples(fs))


@dataclass
class MetricsReport:
    algorithm: str
    n_candidates: int
    n_delivered: int
    n_oracle_dropped: int
    circular_mean_deg: Optional[float]
    circular_sd_deg: Optional[float]
    cmae45_norm: Optional[float]
    cmae45_deg: Optional[float]
    pas_report: Optional[PasReport]
    targeting: Optional[TargetingReport]
    median_interval_s: Optional[float]
    suppression_counts: dict
    trigger_phases_deg: np.ndarray


def evaluate_session(recording: EegRecording, session: SessionResult,
                     filtered: Optional[np.ndarray] = None) -> MetricsReport:
    """Judge a session's delivered triggers against the offline oracle."""
    fs = recording.fs
    if filtered is None:
        filtered = zero_phase_bandpass(recording.samples, fs)
    track = hilbert_phase(filtered, fs)
    delivered = session.delivered()
    phases, dropped = phase_at_triggers(track, delivered)
    valid_idx = valid_samples(track, trigger_samples(delivered))

    cmean = csd = cnorm = cdeg = None
    if len(phases):
        try:
            summary = circular_mean_sd(phases)
            cmean, csd = summary.mean_deg, summary.sd_deg
            cnorm, cdeg = cmae45(phases)
        except UndefinedStatisticError:
            pass   # an undefined mean leaves the four circular fields None

    q_count, _, qual = qualifying_windows(
        recording, session.window_flags, session.gate_config, track.valid)
    pas_report = None
    if q_count >= 1:
        pas_report = pas(phases[in_pas_window(qual, valid_idx, fs)], q_count)

    n = len(recording.samples)
    gate_win = session.gate_config.window_samples(fs)
    staged = in_window(staged_nrem(window_reasons(session.window_flags)),
                       np.arange(0, n, gate_win), gate_win)
    device_mask = np.repeat(staged, gate_win)[:n]
    wave_mask = recording.nrem_mask() & device_mask & track.valid
    waves = detect_waves(filtered, fs, wave_mask)
    targeting = targeting_capacity(waves, valid_idx, phases) if len(waves) else None

    return MetricsReport(
        algorithm=session.tracker_config.algorithm,
        n_candidates=len(session.log),
        n_delivered=len(delivered),
        n_oracle_dropped=dropped,
        circular_mean_deg=cmean, circular_sd_deg=csd,
        cmae45_norm=cnorm, cmae45_deg=cdeg,
        pas_report=pas_report,
        targeting=targeting,
        median_interval_s=trigger_intervals([e.time_s for e in delivered]),
        suppression_counts=session.suppression_counts(),
        trigger_phases_deg=phases,
    )
