"""Autonomous stimulation gating.

Every 4 s window of the preprocessed stream yields five band powers
(``window_powers``), and ``window_rule`` turns them into flags:

- NREM flag: averaged 0.5-2 and 2-4 Hz powers over the last 80 s above their
  thresholds AND averaged 20-30 Hz power below its threshold;
- SWA flag: last window's 0.5-4 Hz power at or above the SWA threshold;
- beta inhibit: last window's 17-22 Hz power at or above the beta threshold.

A candidate trigger is delivered iff nrem and swa hold, beta does not, and
(when the ON-OFF protocol is enabled) the candidate's timestamp falls in an
ON window. Suppression reports the first failing condition in the fixed
order nrem, swa, beta, onoff. The first 80 s never deliver (cold start).
The streaming gate runs these functions as each window completes; batch
callers map a recording's ``window_reasons`` onto samples with
``candidate_codes`` (verdicts) and ``staged_mask`` (the device's staging).
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from itertools import product
from typing import ClassVar, NamedTuple

import numpy as np

from .dsp import PreprocessChain, band_powers, check_fs
from .errors import ConfigurationError, check_finite, check_positive
from .recording import EegRecording

NREM_LOW_BAND_HZ = (0.5, 2.0)
NREM_MID_BAND_HZ = (2.0, 4.0)
NREM_BETA_BAND_HZ = (20.0, 30.0)
SWA_BAND_HZ = (0.5, 4.0)
INHIBIT_BETA_BAND_HZ = (17.0, 22.0)
# columns of a window powers array: low, mid, high_beta, swa, beta
GATE_BANDS_HZ = (NREM_LOW_BAND_HZ, NREM_MID_BAND_HZ, NREM_BETA_BAND_HZ,
                 SWA_BAND_HZ, INHIBIT_BETA_BAND_HZ)

SUPPRESSION_ORDER = ("nrem", "swa", "beta", "onoff")
REASONS = SUPPRESSION_ORDER + ("",)     # indexed by reason code
NREM, SWA, BETA, ONOFF, DELIVERED = range(len(REASONS))

# defaults calibrated against the default synthetic generator spec
# (see calibrate_gate); geometric midpoints of NREM vs wake band statistics
DEFAULT_NREM_LOW_UV2 = 95.0
DEFAULT_NREM_MID_UV2 = 8.0
DEFAULT_NREM_BETA_UV2 = 4.6
DEFAULT_SWA_UV2 = 115.0
DEFAULT_BETA_UV2 = 4.8


@dataclass
class GateConfig:
    """The five thresholds ``calibrate_gate`` sets, and whether the ON-OFF
    protocol runs. The protocol's timings are constants: every window of
    ``window_step_s`` holds a bin of each gate band at any rate
    ``check_fs`` admits."""
    nrem_low_threshold_uv2: float = DEFAULT_NREM_LOW_UV2
    nrem_mid_threshold_uv2: float = DEFAULT_NREM_MID_UV2
    nrem_beta_threshold_uv2: float = DEFAULT_NREM_BETA_UV2
    swa_threshold_uv2: float = DEFAULT_SWA_UV2
    beta_threshold_uv2: float = DEFAULT_BETA_UV2
    onoff_enabled: bool = False

    window_step_s: ClassVar[float] = 4.0
    nrem_history_s: ClassVar[float] = 80.0   # NREM vote over the last 20 windows
    onoff_period_s: ClassVar[float] = 6.0    # each ON and each OFF half
    history_windows: ClassVar[int] = round(nrem_history_s / window_step_s)

    def __post_init__(self):
        self.validate()

    def validate(self):
        check_finite(self)
        check_positive(self, "nrem_low_threshold_uv2", "nrem_mid_threshold_uv2",
                       "nrem_beta_threshold_uv2", "swa_threshold_uv2",
                       "beta_threshold_uv2")
        if not isinstance(self.onoff_enabled, bool):
            raise ConfigurationError(
                f"onoff_enabled must be a bool, got {self.onoff_enabled!r}")
        return self

    @classmethod
    def window_samples(cls, fs: float) -> int:
        """Samples per window at fs."""
        check_fs(fs)
        return int(round(cls.window_step_s * fs))


class GateFlags(NamedTuple):
    """One window's flags, in the suppression order."""
    nrem: bool
    swa: bool
    beta_inhibit: bool


OPEN = GateFlags(True, True, False)     # fails no condition
CLOSED = GateFlags(False, False, False)  # before the first window completes


def window_powers(preprocessed, fs: float, window_n: int) -> np.ndarray:
    """GATE_BANDS_HZ powers of each complete window, shape (n_windows, 5)."""
    x = np.asarray(preprocessed, dtype=float)
    n_windows = len(x) // window_n
    return band_powers(x[:n_windows * window_n].reshape(n_windows, window_n),
                       fs, GATE_BANDS_HZ)


def window_rule(powers, config: GateConfig) -> np.ndarray:
    """Flags (nrem, swa, beta_inhibit) per row of ``window_powers``. nrem
    needs a full history, whose means add oldest first like a running sum."""
    p = np.asarray(powers, dtype=float)
    h = config.history_windows
    n_full = len(p) - h + 1
    flags = np.zeros((len(p), 3), dtype=bool)
    if n_full > 0:
        total = p[:n_full, :3].copy()
        for lag in range(1, h):
            total += p[lag:lag + n_full, :3]
        low, mid, high_beta = (total / h).T
        flags[h - 1:, 0] = ((low > config.nrem_low_threshold_uv2)
                            & (mid > config.nrem_mid_threshold_uv2)
                            & (high_beta < config.nrem_beta_threshold_uv2))
    flags[:, 1] = p[:, 3] >= config.swa_threshold_uv2
    flags[:, 2] = p[:, 4] >= config.beta_threshold_uv2
    return flags


def window_reasons(window_flags) -> np.ndarray:
    """Reason code governing each window's samples: for window j, the first
    of nrem, swa, beta that window j - 1 fails, else ONOFF (judged per
    candidate); NREM for window 0, and one entry for all later samples."""
    flags = np.asarray(window_flags, dtype=bool).reshape(-1, 3)
    failing = np.column_stack((flags != OPEN, np.ones(len(flags), dtype=bool)))
    return np.concatenate(([NREM], failing.argmax(axis=1)))


# the window_reasons code each of the eight flag sets leaves for the samples after it
_FLAG_SETS = list(map(GateFlags._make, product((False, True), repeat=3)))
_REASON_AFTER = dict(zip(_FLAG_SETS, window_reasons(_FLAG_SETS)[1:].tolist()))


def in_window(per_window, sample_index, window_n: int):
    """The per_window entry of each sample's window (the last past the end)."""
    k = np.asarray(sample_index, dtype=np.intp) // window_n
    return np.asarray(per_window)[np.minimum(k, len(per_window) - 1)]


def candidate_reasons(reasons, time_s, config: GateConfig):
    """Code per candidate (an array, or one int) from its governing window's
    reason: an open window delivers unless the protocol is on and time_s is
    in an OFF half. DELIVERED follows ONOFF, so delivering adds one."""
    deliver = reasons == ONOFF
    if config.onoff_enabled:
        deliver = deliver & on_window_at(time_s, config)
    return reasons + deliver


def candidate_codes(reasons, sample_index, fs: float, config: GateConfig) -> np.ndarray:
    """DELIVERED or the first failing condition per candidate sample, under
    ``window_reasons``; the ON-OFF time is sample_index / fs."""
    idx = np.asarray(sample_index, dtype=np.intp)
    return candidate_reasons(in_window(reasons, idx, config.window_samples(fs)),
                             idx / fs, config)


def staged_mask(reasons, window_n: int, n: int) -> np.ndarray:
    """Per sample of n, under the reasons of ``window_reasons``: the device
    staged NREM with slow-wave activity (nrem and swa hold)."""
    staged = in_window(np.asarray(reasons) > SWA, np.arange(0, n, window_n), window_n)
    return np.repeat(staged, window_n)[:n]


def on_window_at(time_s, config: GateConfig):
    """ON-OFF protocol phase at a timestamp (or an array of them). A float
    takes math.fmod, the C fmod that np.fmod applies per element."""
    period = config.onoff_period_s
    if isinstance(time_s, float):
        return math.fmod(time_s, 2.0 * period) < period
    on = np.fmod(time_s, 2.0 * period) < period
    return on if isinstance(on, np.ndarray) else bool(on)


class StimulationGate:
    """Streaming gate: feed every preprocessed sample, ask for decisions.

    Samples gather in a list; each complete 4 s window updates the flags,
    which govern the samples up to the next boundary, so a candidate is
    judged by complete windows only (causal). Until 80 s of history exist
    the nrem flag stays False and everything is suppressed.
    """

    def __init__(self, config: GateConfig, fs: float):
        self.config = config
        self.fs = fs
        self._window_n = config.window_samples(fs)
        self._buf = []
        self._history = deque(maxlen=config.history_windows)
        self._flags = CLOSED
        self.window_log = []   # GateFlags per completed window

    def step(self, x: float) -> GateFlags:
        self._buf.append(x)
        if len(self._buf) == self._window_n:
            self._history.append(band_powers(self._buf, self.fs, GATE_BANDS_HZ))
            flags = window_rule(np.array(self._history), self.config)[-1]
            self._flags = GateFlags._make(flags.tolist())
            self.window_log.append(self._flags)
            self._buf.clear()
        return self._flags

    def decide(self, time_s: float):
        """(delivered, reason) for a candidate at time_s under current flags.

        reason is "" when delivered, otherwise the first failing condition
        in the order nrem, swa, beta, onoff.
        """
        code = candidate_reasons(_REASON_AFTER[self._flags], time_s, self.config)
        return code == DELIVERED, REASONS[code]


def gate_flags_batch(preprocessed: np.ndarray, fs: float, config: GateConfig):
    """Per-window flags for a whole preprocessed recording.

    Returns a list of GateFlags, one per completed 4 s window, identical to
    what the streaming gate would log. Samples in window k are governed by
    the flags of window k-1 (none before the first boundary).
    """
    powers = window_powers(preprocessed, fs, config.window_samples(fs))
    return list(map(GateFlags._make, window_rule(powers, config).tolist()))


def calibrate_gate(recording) -> GateConfig:
    """Derive thresholds from a recording with a hypnogram.

    Band statistics are collected per 4 s gate window separately for N3
    and Wake epochs of the PREPROCESSED signal; each threshold is the geometric
    midpoint of the two medians (NREM bands: N3 above, wake below; beta
    bands the other way around). The SWA threshold comes from the same
    scheme on the 0.5-4 Hz band.
    """
    if not isinstance(recording, EegRecording):
        raise ConfigurationError("calibrate_gate needs an EegRecording with a hypnogram")
    if not recording.hypnogram:
        raise ConfigurationError("recording has no hypnogram to calibrate against")
    fs = recording.fs
    y = PreprocessChain(fs).run(recording.samples)
    window_n = GateConfig.window_samples(fs)
    powers = window_powers(y, fs, window_n)

    def whole_windows(stages):
        mask = recording.stage_mask(stages)[:len(powers) * window_n]
        return mask.reshape(len(powers), window_n).all(axis=1)

    n3 = whole_windows(("N3",))
    wake = whole_windows(("W",)) & ~n3
    if not n3.any() or not wake.any():
        raise ConfigurationError("calibration needs both N3 and W epochs")
    low, mid, high_beta, swa, beta = (
        math.sqrt(a * b) for a, b in zip(np.median(powers[n3], axis=0).tolist(),
                                         np.median(powers[wake], axis=0).tolist()))
    return GateConfig(nrem_low_threshold_uv2=low, nrem_mid_threshold_uv2=mid,
                      nrem_beta_threshold_uv2=high_beta, swa_threshold_uv2=swa,
                      beta_threshold_uv2=beta)
