"""Synthetic sleep EEG with a known slow-wave phase.

The slow-wave component is a single oscillator whose instantaneous frequency
and peak-to-peak amplitude follow bounded (reflected) random walks, so the
true phase is exact by construction. Stage-dependent activity rides on top:
pink background noise everywhere, a small 1-4 Hz noise floor plus sigma
spindles in NREM, alpha and beta-burst activity in wake, low theta in REM.

Stage transitions gate the slow-wave envelope with short raised-cosine ramps;
the emitted true-phase mask covers only full-amplitude samples, never ramps
or SW-free stages.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import signal

from .dsp import check_fs
from .errors import ConfigurationError, check_finite
from .oracle import CROP_S, PhaseTrack
from .recording import (EPOCH_S, MAX_STAGE_EPOCHS, NREM_STAGES, STAGES,
                        EegRecording, epoch_samples)

ENVELOPE_STEP_HZ = 10.0   # update rate of the frequency and amplitude walks
SW_PP_SIGMA_UV = 2.4      # amplitude-walk step (per 0.1 s)
SW_FREQ_SIGMA_HZ = 0.02   # frequency-walk step (per 0.1 s)
RAMP_S = 2.0              # raised-cosine on/off ramp at stage transitions
PINK_NOISE_RMS_UV = 10.0
NREM_DELTA_NOISE_RMS_UV = 4.0   # 1-4 Hz floor, NREM only
SPINDLE_RATE_PER_MIN = 3.0      # N2 only
SPINDLE_AMP_UV = 8.0
SPINDLE_FREQ_HZ = 12.5
SPINDLE_DURATION_S = 1.0
WAKE_ALPHA_RMS_UV = 8.0
ALPHA_FREQ_HZ = 10.0
WAKE_BETA_RMS_UV = 8.0
BETA_FREQ_HZ = 20.0
REM_THETA_RMS_UV = 4.0
THETA_FREQ_HZ = 5.0
MIN_DURATION_S = 2 * CROP_S + 300.0  # leaves the oracle's valid window non-empty
MAX_SAMPLES = 1 << 25     # about 37 h at 250 Hz; generate holds ~5 copies

SW_FREQ_BOUNDS_HZ = (0.5, 4.0)

# one sleep-cycle-like block of 20 s epochs; the default night repeats it
DEFAULT_STAGE_CYCLE = (
    ["W"] * 10 + ["N1"] * 3 + ["N2"] * 30 + ["N3"] * 60 + ["N2"] * 15 + ["REM"] * 15
)


def default_hypnogram(cycles: int = 4) -> list:
    if cycles * len(DEFAULT_STAGE_CYCLE) > MAX_STAGE_EPOCHS:
        raise ConfigurationError(f"{cycles} cycles exceed {MAX_STAGE_EPOCHS} epochs (24 h)")
    return list(DEFAULT_STAGE_CYCLE) * cycles


@dataclass
class SynthSpec:
    hypnogram: list = field(default_factory=default_hypnogram)
    fs: float = 250.0
    sw_pp_range_uv: tuple = (20.0, 120.0)     # peak-to-peak amplitude bounds
    sw_freq_range_hz: tuple = (0.9, 1.4)      # frequency-walk bounds
    seed: int = 0

    def __post_init__(self):
        self.validate()

    def validate(self):
        check_finite(self)
        for stage in self.hypnogram:
            if stage not in STAGES:
                raise ConfigurationError(f"unknown stage {stage!r}")
        if len(self.hypnogram) * EPOCH_S < MIN_DURATION_S:
            raise ConfigurationError(
                f"hypnogram too short: need >= {MIN_DURATION_S:.0f} s "
                f"({math.ceil(MIN_DURATION_S / EPOCH_S)} epochs)")
        check_fs(self.fs)
        if epoch_samples(self.fs) * len(self.hypnogram) > MAX_SAMPLES:
            raise ConfigurationError(f"night of {len(self.hypnogram)} epochs at "
                                     f"{self.fs:g} Hz exceeds {MAX_SAMPLES} samples")
        for name in ("sw_pp_range_uv", "sw_freq_range_hz"):
            if len(getattr(self, name)) != 2:
                raise ConfigurationError(f"{name} must be two values, low,high")
        plo, phi = self.sw_pp_range_uv
        if not 0 < plo <= phi:
            raise ConfigurationError("sw_pp_range_uv must be positive and ordered")
        flo, fhi = self.sw_freq_range_hz
        if not (SW_FREQ_BOUNDS_HZ[0] <= flo <= fhi <= SW_FREQ_BOUNDS_HZ[1]):
            raise ConfigurationError(
                f"sw_freq_range_hz must lie inside {SW_FREQ_BOUNDS_HZ}")
        if self.seed < 0:
            raise ConfigurationError("seed must be >= 0")
        return self


@dataclass
class SynthOutput:
    recording: EegRecording
    true_phase: PhaseTrack       # valid only where the oscillator runs at
                                 # full amplitude


def _reflected_walk(rng, n_steps, start, lo, hi, sigma):
    """Random walk reflected into [lo, hi]; uniform stationary distribution."""
    if hi == lo:
        return np.full(n_steps, lo)
    steps = rng.normal(0.0, sigma, n_steps)
    raw = start + np.cumsum(steps)
    span = hi - lo
    return np.abs(np.mod(raw - lo, 2.0 * span) - span) + lo


def _per_sample(walk_values, n, samples_per_step):
    return np.repeat(walk_values, samples_per_step)[:n]


def _stage_gain(active_mask: np.ndarray, fs: float) -> np.ndarray:
    """Smooth 0..1 gate: raised-cosine ramps inside each active run."""
    gain = active_mask.astype(float)
    ramp_n = int(RAMP_S * fs)
    up = 0.5 - 0.5 * np.cos(np.linspace(0.0, np.pi, ramp_n))
    edges = np.flatnonzero(np.diff(active_mask.astype(np.int8)))
    n = len(gain)
    for e in edges:
        if active_mask[e + 1]:          # off -> on at e+1
            stop = min(e + 1 + ramp_n, n)
            gain[e + 1:stop] = up[:stop - (e + 1)]
        else:                           # on -> off after e
            start = max(e + 1 - ramp_n, 0)
            gain[start:e + 1] = up[::-1][ramp_n - (e + 1 - start):]
    return gain


def generate(spec: SynthSpec) -> SynthOutput:
    """Deterministic synthesis for a given spec (seed included)."""
    fs = spec.fs
    rng = np.random.default_rng(spec.seed)
    epoch_n = epoch_samples(fs)
    n = epoch_n * len(spec.hypnogram)
    dt = 1.0 / fs
    samples_per_step = int(round(fs / ENVELOPE_STEP_HZ))
    n_steps = -(-n // samples_per_step)

    # slow-wave oscillator: frequency and amplitude walks, exact phase. The
    # per-step increment and half amplitude are taken before repeating.
    flo, fhi = spec.sw_freq_range_hz
    freq_walk = _reflected_walk(rng, n_steps, (flo + fhi) / 2.0, flo, fhi,
                                SW_FREQ_SIGMA_HZ)
    true_phase_rad = _per_sample(2.0 * np.pi * freq_walk * dt, n, samples_per_step)
    np.cumsum(true_phase_rad, out=true_phase_rad)
    true_phase_rad -= true_phase_rad[0]

    plo, phi = spec.sw_pp_range_uv
    pp_walk = _reflected_walk(rng, n_steps, (plo + phi) / 2.0, plo, phi,
                              SW_PP_SIGMA_UV)

    stage_per_epoch = np.asarray(spec.hypnogram)
    gain = _stage_gain(np.repeat(np.isin(stage_per_epoch, NREM_STAGES), epoch_n), fs)

    x = _per_sample(pp_walk / 2.0, n, samples_per_step)   # the envelope
    x *= gain
    x *= np.sin(true_phase_rad)

    # pink background, whole recording
    spectrum = np.fft.rfft(rng.normal(0.0, 1.0, n))
    freqs = np.fft.rfftfreq(n, dt)
    spectrum[1:] /= np.sqrt(freqs[1:])
    spectrum[0] = 0.0
    del freqs
    pink = np.fft.irfft(spectrum, n)
    del spectrum
    pink *= PINK_NOISE_RMS_UV / pink.std()
    x += pink
    del pink

    # NREM 1-4 Hz noise floor (rides the same gate as the oscillator)
    sos = signal.butter(2, (1.0, 4.0), btype="bandpass", fs=fs, output="sos")
    delta = signal.sosfilt(sos, rng.normal(0.0, 1.0, n))
    scale = NREM_DELTA_NOISE_RMS_UV / delta.std()
    delta *= gain
    delta *= scale
    x += delta
    del delta

    # sigma spindles in N2
    spindle_n = int(SPINDLE_DURATION_S * fs)
    burst = np.hanning(spindle_n)
    expected = SPINDLE_RATE_PER_MIN * (EPOCH_S / 60.0)
    for e, st in enumerate(spec.hypnogram):
        if st != "N2":
            continue
        for _ in range(rng.poisson(expected)):
            start = e * epoch_n + rng.integers(0, epoch_n - spindle_n)
            seg = np.arange(start, start + spindle_n) * dt
            x[start:start + spindle_n] += (
                SPINDLE_AMP_UV * burst * np.sin(2 * np.pi * SPINDLE_FREQ_HZ * seg))

    # wake: steady alpha plus beta bursts
    wake = np.repeat(stage_per_epoch == "W", epoch_n)
    if np.any(wake):
        x[wake] += (WAKE_ALPHA_RMS_UV * math.sqrt(2.0)
                    * np.sin(2 * np.pi * ALPHA_FREQ_HZ * (np.flatnonzero(wake) * dt)))
        # bursts of ~2 s with jittered 5 s spacing
        burst_mask = np.zeros(n, dtype=bool)
        pos = 0
        burst_len = int(2.0 * fs)
        while pos < n:
            if wake[pos]:
                burst_mask[pos:pos + burst_len] = True
            pos += int(fs * (5.0 + rng.uniform(-1.0, 1.0)))
        burst_mask &= wake
        x[burst_mask] += (WAKE_BETA_RMS_UV * math.sqrt(2.0)
                          * np.sin(2 * np.pi * BETA_FREQ_HZ
                                   * (np.flatnonzero(burst_mask) * dt)))

    rem = np.repeat(stage_per_epoch == "REM", epoch_n)
    if np.any(rem):
        x[rem] += (REM_THETA_RMS_UV * math.sqrt(2.0)
                   * np.sin(2 * np.pi * THETA_FREQ_HZ * (np.flatnonzero(rem) * dt)))

    phase_deg = np.degrees(true_phase_rad, out=true_phase_rad)
    phase_deg %= 360.0
    valid = gain >= 0.999
    recording = EegRecording(x, fs, label="synthetic", hypnogram=list(spec.hypnogram))
    return SynthOutput(recording, PhaseTrack(phase_deg, valid))
