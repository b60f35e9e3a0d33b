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

from . import trackers
from .dsp import PreprocessChain
from .errors import ConfigurationError, UndefinedStatisticError
from .gate import (DELIVERED, REASONS, SUPPRESSION_ORDER, GateConfig,
                   StimulationGate, candidate_codes, gate_flags_batch,
                   in_window, on_window_at, staged_mask, window_reasons)
from .io import LoggedTrigger
from .metrics import (circular_mean_sd, cmae45, detect_waves, pas,
                      pas_window_samples, targeting_capacity, trigger_intervals,
                      up_phase_pct)
from .oracle import (hilbert_phase, phase_at_triggers, trigger_samples,
                     zero_phase_bandpass)
from .recording import EegRecording
from .trackers import (PllTracker, PvTracker, TrackerConfig, forward_arcs,
                       make_tracker, phase_hits, refractory)


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

    y = PreprocessChain(fs).run(recording.samples)
    tracker = make_tracker(cfg)
    events = tracker.run(y)
    window_flags = gate_flags_batch(y, fs, gate_config)
    idx = trigger_samples(events)
    codes = candidate_codes(window_reasons(window_flags), idx, fs, gate_config).tolist()
    on = on_window_at(idx / fs, gate_config).tolist()
    log = [LoggedTrigger(**vars(ev), delivered=code == DELIVERED,
                         suppression_reason=REASONS[code], on_window=on_window)
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
    samples = np.asarray(recording.samples, dtype=float)
    block = trackers.BLOCK_SAMPLES   # read here, so that a test can shrink it
    for a in range(0, len(samples), block):   # one block held as Python floats
        for x in samples[a:a + block].tolist():
            y = preprocess(x)
            ev = track(y)
            if type(ev) is tuple:   # the phase trackers put the event last
                ev = ev[-1]
            if ev is not None:
                ok, reason = gate.decide(ev.time_s)   # completed windows only
                log.append(LoggedTrigger(**vars(ev), delivered=ok,
                                         suppression_reason=reason,
                                         on_window=on_window_at(ev.time_s, gate_config)))
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


def qualifying_windows(recording: EegRecording, window_flags,
                       gate_config: GateConfig, valid_mask):
    """PAS windows (2 s) of the evaluation's per-sample mask: hypnogram
    N2/N3, device nrem+swa and valid_mask (the oracle-valid samples). A
    window qualifies when the mask holds at its start and valid_mask at its
    end.

    Returns (qualifying_count, per_sample_mask, per_window_bool).
    """
    fs = recording.fs
    n = len(recording.samples)
    win = pas_window_samples(fs)
    starts = np.arange(n // win) * win
    mask = recording.nrem_mask()
    mask &= staged_mask(window_reasons(window_flags), gate_config.window_samples(fs), n)
    mask &= valid_mask
    qual = mask[starts] & valid_mask[starts + win - 1]
    return int(qual.sum()), mask, qual


def in_pas_window(qual, sample_index, fs: float) -> np.ndarray:
    """Per sample index: inside a PAS window marked in qual (none past the end)."""
    return in_window(np.append(qual, False), sample_index, pas_window_samples(fs))


@dataclass
class MetricsReport:
    """What ``evaluate`` reports, one field per key of its ``--json`` file.
    A field is None where its figure is undefined, and the file leaves it
    out."""
    algorithm: str
    n_candidates: int
    n_delivered: int
    n_oracle_dropped: int
    circular_mean_deg: Optional[float]
    circular_sd_deg: Optional[float]
    cmae45_deg: Optional[float]
    cmae45_norm: Optional[float]
    up_phase_pct: Optional[float]
    pas_all: Optional[float]
    pas_in_up: Optional[float]
    pas_not_up: Optional[float]
    qualifying_windows: Optional[int]
    low_capacity_pct: Optional[float]
    high_capacity_pct: Optional[float]
    n_low_waves: Optional[int]
    n_high_waves: Optional[int]
    median_interval_s: Optional[float]
    suppression_counts: dict


def evaluate_session(recording: EegRecording, session: SessionResult,
                     filtered: Optional[np.ndarray] = None) -> MetricsReport:
    """Judge a session's delivered triggers against the offline oracle."""
    fs = recording.fs
    if filtered is None:
        filtered = zero_phase_bandpass(recording.samples, fs)
    track = hilbert_phase(filtered, fs)
    delivered = session.delivered()
    phases, valid_idx = phase_at_triggers(track, delivered)

    circular = (None,) * 5
    if len(phases):
        try:
            summary = circular_mean_sd(phases)
            cnorm, cdeg = cmae45(phases)
            circular = (summary.mean_deg, summary.sd_deg, cdeg, cnorm, up_phase_pct(phases))
        except UndefinedStatisticError:
            pass   # an undefined mean leaves these five fields None

    q_count, wave_mask, qual = qualifying_windows(
        recording, session.window_flags, session.gate_config, track.valid)
    pas_figures = (None,) * 4
    if q_count >= 1:
        p = pas(phases[in_pas_window(qual, valid_idx, fs)], q_count)
        pas_figures = (p.pas_all, p.pas_in_up, p.pas_not_up, q_count)

    waves = detect_waves(filtered, fs, wave_mask)
    capacity = (None,) * 4
    if len(waves):
        t = targeting_capacity(waves, valid_idx)
        capacity = (t.low_capacity_pct, t.high_capacity_pct, t.n_low, t.n_high)

    return MetricsReport(session.tracker_config.algorithm, len(session.log),
                         len(delivered), len(delivered) - len(valid_idx),
                         *circular, *pas_figures, *capacity,
                         trigger_intervals([e.time_s for e in delivered]),
                         session.suppression_counts())
