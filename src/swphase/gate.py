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
Batch callers run these functions on arrays for a whole recording; the
streaming gate runs them as each window completes.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .dsp import PreprocessChain, band_bins, band_powers, check_fs
from .errors import ConfigurationError, check_finite, check_positive
from .recording import EegRecording

GATE_WINDOW_S = 4.0
NREM_HISTORY_S = 80.0
ONOFF_PERIOD_S = 6.0
MAX_HISTORY_S = 24 * 3600.0   # a day: longer than any night

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
    nrem_low_threshold_uv2: float = DEFAULT_NREM_LOW_UV2
    nrem_mid_threshold_uv2: float = DEFAULT_NREM_MID_UV2
    nrem_beta_threshold_uv2: float = DEFAULT_NREM_BETA_UV2
    swa_threshold_uv2: float = DEFAULT_SWA_UV2
    beta_threshold_uv2: float = DEFAULT_BETA_UV2
    window_step_s: float = GATE_WINDOW_S
    nrem_history_s: float = NREM_HISTORY_S
    onoff_period_s: float = ONOFF_PERIOD_S
    onoff_enabled: bool = False

    def __post_init__(self):
        self.validate()

    def validate(self):
        check_finite(self)
        check_positive(self, "nrem_low_threshold_uv2", "nrem_mid_threshold_uv2",
                       "nrem_beta_threshold_uv2", "swa_threshold_uv2",
                       "beta_threshold_uv2", "window_step_s", "onoff_period_s")
        if self.nrem_history_s > MAX_HISTORY_S:
            raise ConfigurationError(f"nrem_history_s must be <= {MAX_HISTORY_S:g} s")
        ratio = self.nrem_history_s / self.window_step_s
        if abs(ratio - round(ratio)) > 1e-9 or ratio < 1:
            raise ConfigurationError("nrem_history_s must be a positive multiple of window_step_s")
        return self

    @property
    def history_windows(self) -> int:
        return int(round(self.nrem_history_s / self.window_step_s))

    def window_samples(self, fs: float) -> int:
        """Samples per window at fs, refused if a gate band gets no frequency bin."""
        check_fs(fs)
        n = int(round(self.window_step_s * fs))
        for (lo, hi), bins in zip(GATE_BANDS_HZ, band_bins(max(n, 1), fs, GATE_BANDS_HZ)):
            if bins.start == bins.stop:   # its power would read 0 in every window
                raise ConfigurationError(f"window_step_s {self.window_step_s!r} at {fs:g} Hz: "
                                         f"no frequency bin in the {lo:g}-{hi:g} Hz band")
        return n


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


def staged_nrem(reasons) -> np.ndarray:
    """Windows staged as NREM with slow-wave activity: nrem and swa hold."""
    return np.asarray(reasons) > SWA


def in_window(per_window, sample_index, window_n: int):
    """The per_window entry of each sample's window (the last past the end)."""
    k = np.asarray(sample_index, dtype=np.intp) // window_n
    return np.asarray(per_window)[np.minimum(k, len(per_window) - 1)]


def candidate_reasons(reasons, time_s, config: GateConfig) -> np.ndarray:
    """Code per candidate from its governing window's reason: an open window
    delivers unless the protocol is on and time_s is in an OFF half."""
    deliver = np.asarray(reasons) == ONOFF
    if config.onoff_enabled:
        deliver &= on_window_at(time_s, config)
    return np.where(deliver, DELIVERED, reasons)


def on_window_at(time_s, config: GateConfig):
    """ON-OFF protocol phase at a timestamp (or an array of them)."""
    period = config.onoff_period_s
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

    @property
    def flags(self) -> GateFlags:
        return self._flags

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
        code = int(candidate_reasons(window_reasons(self._flags)[-1], time_s,
                                     self.config))
        return code == DELIVERED, REASONS[code]


def gate_flags_batch(preprocessed: np.ndarray, fs: float, config: GateConfig):
    """Per-window flags for a whole preprocessed recording.

    Returns a list of GateFlags, one per completed 4 s window, identical to
    what the streaming gate would log. Samples in window k are governed by
    the flags of window k-1 (none before the first boundary).
    """
    powers = window_powers(preprocessed, fs, config.window_samples(fs))
    return list(map(GateFlags._make, window_rule(powers, config).tolist()))


def calibrate_gate(recording, base: GateConfig = None) -> GateConfig:
    """Derive thresholds from a recording with a hypnogram.

    Band statistics are collected per gate window (``base.window_step_s``,
    4 s by default) separately for N3 and Wake
    epochs of the PREPROCESSED signal; each threshold is the geometric
    midpoint of the two medians (NREM bands: N3 above, wake below; beta
    bands the other way around). The SWA threshold comes from the same
    scheme on the 0.5-4 Hz band.
    """
    if not isinstance(recording, EegRecording):
        raise ConfigurationError("calibrate_gate needs an EegRecording with a hypnogram")
    if not recording.hypnogram:
        raise ConfigurationError("recording has no hypnogram to calibrate against")
    fs = recording.fs
    base = base or GateConfig()
    y = PreprocessChain(fs).run(recording.samples)
    window_n = base.window_samples(fs)
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
    return replace(base, nrem_low_threshold_uv2=low, nrem_mid_threshold_uv2=mid,
                   nrem_beta_threshold_uv2=high_beta, swa_threshold_uv2=swa,
                   beta_threshold_uv2=beta)
