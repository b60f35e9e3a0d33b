"""Streaming slow-wave phase tracking, gating, and evaluation."""

__version__ = "0.1.0"

from .dsp import IirFilter, PreprocessChain
from .errors import (ConfigurationError, FileFormatError,
                     RecordingTooShortError, StreamIntegrityError,
                     SwphaseError, TimerResolutionError,
                     UndefinedStatisticError)
from .gate import GateConfig, GateFlags, StimulationGate, calibrate_gate
from .io import LoggedTrigger
from .metrics import (CircularSummary, PasReport, SlowWaves, TargetingReport,
                      circular_mean_sd, cmae45, detect_waves, pas,
                      targeting_capacity, trigger_intervals)
from .oracle import (PhaseTrack, compute_phase_track, hilbert_phase,
                     phase_at_triggers, zero_phase_bandpass)
from .optimize import (CvOutcome, ObjectiveTally, euclidean_distance,
                       grid_search_cv, kfold_split, make_pipeline_evaluator,
                       objectives_from_tally)
from .pipeline import MetricsReport, SessionResult, evaluate_session, run_session
from .recording import EegRecording
from .synth import SynthOutput, SynthSpec, default_hypnogram, generate
from .trackers import (AmplitudeThresholdTracker, PllTracker, PvTracker,
                       TrackerConfig, TriggerEvent, make_tracker)

__all__ = [
    "AmplitudeThresholdTracker", "CircularSummary", "ConfigurationError",
    "CvOutcome", "EegRecording", "FileFormatError", "GateConfig", "GateFlags",
    "IirFilter", "LoggedTrigger", "MetricsReport",
    "ObjectiveTally", "PasReport", "PhaseTrack", "PllTracker",
    "PreprocessChain", "PvTracker", "RecordingTooShortError", "SessionResult",
    "SlowWaves", "StimulationGate", "StreamIntegrityError", "SwphaseError",
    "SynthOutput", "SynthSpec", "TargetingReport", "TimerResolutionError",
    "TrackerConfig", "TriggerEvent", "UndefinedStatisticError",
    "calibrate_gate", "circular_mean_sd", "cmae45", "compute_phase_track",
    "default_hypnogram", "detect_waves", "euclidean_distance",
    "evaluate_session", "generate", "grid_search_cv", "hilbert_phase",
    "kfold_split", "make_pipeline_evaluator", "make_tracker",
    "objectives_from_tally", "pas", "phase_at_triggers", "run_session",
    "targeting_capacity", "trigger_intervals", "zero_phase_bandpass",
]
