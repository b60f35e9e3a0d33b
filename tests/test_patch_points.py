"""The names the benchmark's traced mode patches must stay where it looks.

``benchmark/probes.py`` wraps each name through ``vars(owner)[attr]``: a
method must be defined in its class's own namespace (not inherited), and a
function must be a global of the module that calls it. A name that moves
makes the traced benchmark fail with ``KeyError`` although every other test
passes, so this table mirrors the probes.
"""
import pytest

import swphase.cli as cli
import swphase.dsp as dsp
import swphase.gate as gate
import swphase.optimize as optimize
import swphase.oracle as oracle
import swphase.pipeline as pipeline
from swphase.trackers import AmplitudeThresholdTracker, PllTracker, PvTracker

PATCH_POINTS = [
    (cli, ("read_recording", "read_hypnogram", "read_trigger_log", "hash_file",
           "write_trigger_log", "run_session", "evaluate_session")),
    (dsp.PreprocessChain, ("run",)),
    (AmplitudeThresholdTracker, ("run",)),
    (PllTracker, ("run",)),
    (PvTracker, ("run",)),
    (gate, ("gate_flags_batch",)),
    (oracle, ("zero_phase_bandpass", "hilbert_phase")),
    (pipeline, ("PllTracker", "PvTracker", "phase_at_triggers", "gate_flags_batch",
                "zero_phase_bandpass", "hilbert_phase", "qualifying_windows",
                "detect_waves", "circular_mean_sd", "cmae45", "pas",
                "targeting_capacity", "trigger_intervals")),
    (optimize, ("gate_flags_batch", "qualifying_windows", "tracker_phase_stream",
                "candidates_from_phase_stream", "make_pipeline_evaluator",
                "grid_search_cv")),
    (optimize._RecordingCache, ("delivered_filter",)),
]


@pytest.mark.parametrize("owner,names", PATCH_POINTS,
                         ids=[getattr(o, "__name__", str(o)) for o, _ in PATCH_POINTS])
def test_patched_names_live_in_their_owner(owner, names):
    missing = [name for name in names if name not in vars(owner)]
    assert not missing
