import numpy as np
import pytest

from swphase import SynthSpec, generate
from swphase.oracle import compute_phase_track
from swphase.synth import default_hypnogram

FS = 250.0


@pytest.fixture(scope="session")
def short_synth():
    """One sleep cycle (~44 min), enough NREM for gate and oracle work."""
    return generate(SynthSpec(hypnogram=default_hypnogram(1), seed=11))


@pytest.fixture(scope="session")
def default_synth():
    """The full default recording (4 cycles, ~2.96 h)."""
    return generate(SynthSpec(seed=0))


@pytest.fixture(scope="session")
def short_track(short_synth):
    rec = short_synth.recording
    return compute_phase_track(rec.samples, rec.fs)


def sinusoid(freq_hz: float, amp_uv: float, duration_s: float, fs: float = FS,
             phase0: float = 0.0) -> np.ndarray:
    t = np.arange(int(round(duration_s * fs))) / fs
    return amp_uv * np.sin(2.0 * np.pi * freq_hz * t + phase0)


def phase_crossed(prev_deg: float, cur_deg: float, target_deg: float) -> bool:
    """Reference crossing rule: True iff target lies on the forward arc
    prev -> cur, arc < 180 deg. Arcs of 180 deg or more in one sample are
    slips, never crossings. The phase trackers' ``step`` applies this rule
    inline, and ``forward_arcs`` plus ``phase_hits`` apply it to a stream."""
    arc = (cur_deg - prev_deg) % 360.0
    return arc < 180.0 and 0.0 < (target_deg - prev_deg) % 360.0 <= arc
