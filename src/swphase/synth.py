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
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np
from scipy import signal

from .errors import ConfigurationError
from .oracle import PhaseTrack
from .recording import EPOCH_S, NREM_STAGES, STAGES, EegRecording, epoch_samples

ENVELOPE_STEP_HZ = 10.0   # update rate of the frequency and amplitude walks
RAMP_S = 2.0              # raised-cosine on/off ramp at stage transitions
SPINDLE_FREQ_HZ = 12.5
SPINDLE_DURATION_S = 1.0
ALPHA_FREQ_HZ = 10.0
BETA_FREQ_HZ = 20.0
THETA_FREQ_HZ = 5.0
MIN_DURATION_S = 2 * 210.0 + 300.0  # leaves the oracle's valid window non-empty

SW_FREQ_BOUNDS_HZ = (0.5, 4.0)

# one sleep-cycle-like block of 20 s epochs; the default night repeats it
DEFAULT_STAGE_CYCLE = (
    ["W"] * 10 + ["N1"] * 3 + ["N2"] * 30 + ["N3"] * 60 + ["N2"] * 15 + ["REM"] * 15
)


def default_hypnogram(cycles: int = 4) -> list:
    return list(DEFAULT_STAGE_CYCLE) * cycles


@dataclass
class SynthSpec:
    hypnogram: list = field(default_factory=default_hypnogram)
    fs: float = 250.0
    sw_pp_range_uv: tuple = (20.0, 120.0)     # peak-to-peak amplitude bounds
    sw_pp_sigma_uv: float = 2.4               # amplitude-walk step (per 0.1 s)
    sw_freq_range_hz: tuple = (0.9, 1.4)      # frequency-walk bounds
    sw_freq_sigma_hz: float = 0.02            # frequency-walk step (per 0.1 s)
    pink_noise_rms_uv: float = 10.0
    nrem_delta_noise_rms_uv: float = 4.0      # 1-4 Hz floor, NREM only
    spindle_rate_per_min: float = 3.0         # N2 only
    spindle_amp_uv: float = 8.0
    wake_alpha_rms_uv: float = 8.0
    wake_beta_rms_uv: float = 8.0
    rem_theta_rms_uv: float = 4.0
    seed: int = 0

    def validate(self):
        for stage in self.hypnogram:
            if stage not in STAGES:
                raise ConfigurationError(f"unknown stage {stage!r}")
        if len(self.hypnogram) * EPOCH_S < MIN_DURATION_S:
            raise ConfigurationError(
                f"hypnogram too short: need >= {MIN_DURATION_S:.0f} s "
                f"({math.ceil(MIN_DURATION_S / EPOCH_S)} epochs)")
        plo, phi = self.sw_pp_range_uv
        if not 0 < plo <= phi:
            raise ConfigurationError("sw_pp_range_uv must be positive and ordered")
        flo, fhi = self.sw_freq_range_hz
        if not (SW_FREQ_BOUNDS_HZ[0] <= flo <= fhi <= SW_FREQ_BOUNDS_HZ[1]):
            raise ConfigurationError(
                f"sw_freq_range_hz must lie inside {SW_FREQ_BOUNDS_HZ}")
        if self.fs < 100:
            raise ConfigurationError("fs must be >= 100 Hz")
        for name in ("sw_pp_sigma_uv", "sw_freq_sigma_hz", "pink_noise_rms_uv",
                     "nrem_delta_noise_rms_uv", "spindle_rate_per_min",
                     "spindle_amp_uv", "wake_alpha_rms_uv", "wake_beta_rms_uv",
                     "rem_theta_rms_uv"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be >= 0")
        return self

    def amplitude_class_split(self):
        """Expected (low, high) wave fractions under the stationary
        (uniform) amplitude distribution; low is p-p 20-60 uV, high > 60."""
        plo, phi = self.sw_pp_range_uv
        width = phi - plo
        if width == 0:
            lo = 1.0 if 20.0 <= plo <= 60.0 else 0.0
            return lo, (1.0 if plo > 60.0 else 0.0)
        low = max(0.0, min(phi, 60.0) - max(plo, 20.0)) / width
        high = max(0.0, phi - max(plo, 60.0)) / width
        return low, high


@dataclass
class SynthOutput:
    recording: EegRecording
    true_phase: PhaseTrack       # valid only where the oscillator runs at
                                 # full amplitude
    sw_gain: np.ndarray          # envelope gate, 0..1 per sample


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
    if ramp_n < 2:
        return gain
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
    spec.validate()
    fs = spec.fs
    rng = np.random.default_rng(spec.seed)
    epoch_n = epoch_samples(fs)
    n = epoch_n * len(spec.hypnogram)
    dt = 1.0 / fs
    samples_per_step = int(round(fs / ENVELOPE_STEP_HZ))
    n_steps = -(-n // samples_per_step)

    # slow-wave oscillator: frequency and amplitude walks, exact phase
    flo, fhi = spec.sw_freq_range_hz
    freq_walk = _reflected_walk(rng, n_steps, (flo + fhi) / 2.0, flo, fhi,
                                spec.sw_freq_sigma_hz)
    f_inst = _per_sample(freq_walk, n, samples_per_step)
    true_phase_rad = np.cumsum(2.0 * np.pi * f_inst * dt)
    true_phase_rad -= true_phase_rad[0]

    plo, phi = spec.sw_pp_range_uv
    pp_walk = _reflected_walk(rng, n_steps, (plo + phi) / 2.0, plo, phi,
                              spec.sw_pp_sigma_uv)
    envelope = _per_sample(pp_walk, n, samples_per_step) / 2.0

    stage_per_epoch = np.asarray(spec.hypnogram)
    stage = np.repeat(stage_per_epoch, epoch_n)[:n]
    sw_active = np.isin(stage, NREM_STAGES)
    gain = _stage_gain(sw_active, fs)

    x = gain * envelope * np.sin(true_phase_rad)

    # pink background, whole recording
    if spec.pink_noise_rms_uv > 0:
        white = rng.normal(0.0, 1.0, n)
        spectrum = np.fft.rfft(white)
        freqs = np.fft.rfftfreq(n, dt)
        spectrum[1:] /= np.sqrt(freqs[1:])
        spectrum[0] = 0.0
        pink = np.fft.irfft(spectrum, n)
        x += pink * (spec.pink_noise_rms_uv / pink.std())

    # NREM 1-4 Hz noise floor (rides the same gate as the oscillator)
    if spec.nrem_delta_noise_rms_uv > 0:
        sos = signal.butter(2, (1.0, 4.0), btype="bandpass", fs=fs, output="sos")
        delta = signal.sosfilt(sos, rng.normal(0.0, 1.0, n))
        x += gain * delta * (spec.nrem_delta_noise_rms_uv / delta.std())

    t = np.arange(n) * dt

    # sigma spindles in N2
    if spec.spindle_amp_uv > 0 and spec.spindle_rate_per_min > 0:
        spindle_n = int(SPINDLE_DURATION_S * fs)
        burst = np.hanning(spindle_n)
        expected = spec.spindle_rate_per_min * (EPOCH_S / 60.0)
        for e, st in enumerate(spec.hypnogram):
            if st != "N2":
                continue
            for _ in range(rng.poisson(expected)):
                start = e * epoch_n + rng.integers(0, epoch_n - spindle_n)
                seg = t[start:start + spindle_n]
                x[start:start + spindle_n] += (
                    spec.spindle_amp_uv * burst
                    * np.sin(2 * np.pi * SPINDLE_FREQ_HZ * seg))

    # wake: steady alpha plus beta bursts
    wake = stage == "W"
    if np.any(wake):
        if spec.wake_alpha_rms_uv > 0:
            x[wake] += (spec.wake_alpha_rms_uv * math.sqrt(2.0)
                        * np.sin(2 * np.pi * ALPHA_FREQ_HZ * t[wake]))
        if spec.wake_beta_rms_uv > 0:
            # bursts of ~2 s with jittered 5 s spacing
            burst_mask = np.zeros(n, dtype=bool)
            pos = 0
            burst_len = int(2.0 * fs)
            while pos < n:
                if wake[pos]:
                    burst_mask[pos:pos + burst_len] = True
                pos += int(fs * (5.0 + rng.uniform(-1.0, 1.0)))
            burst_mask &= wake
            x[burst_mask] += (spec.wake_beta_rms_uv * math.sqrt(2.0)
                              * np.sin(2 * np.pi * BETA_FREQ_HZ * t[burst_mask]))

    rem = stage == "REM"
    if np.any(rem) and spec.rem_theta_rms_uv > 0:
        x[rem] += (spec.rem_theta_rms_uv * math.sqrt(2.0)
                   * np.sin(2 * np.pi * THETA_FREQ_HZ * t[rem]))

    phase_deg = np.degrees(true_phase_rad) % 360.0
    valid = gain >= 0.999
    recording = EegRecording(x, fs, label="synthetic", hypnogram=list(spec.hypnogram))
    return SynthOutput(recording, PhaseTrack(phase_deg, valid, fs), gain)
