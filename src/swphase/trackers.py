"""Real-time slow-wave phase estimators and trigger emission.

Three algorithms over the common preprocessed stream:

- amplitude threshold (AT): no phase estimate, fires on an upward level
  crossing of a band-isolated copy of the signal;
- phase-locked loop (PLL): first-order loop around a 1 Hz oscillator;
- phase vocoder (PV): quadrature demodulation with moving-average smoothing,
  tracking instantaneous frequency and phase.

All trackers keep triggers at least REFRACTORY_S apart and are
strictly causal: ``step`` consumes one sample and never looks ahead. A
non-finite sample raises StreamIntegrityError and leaves the tracker as it
was: the recurrences define no recovery from one, and every recording
refuses one on construction.

``run`` is the batch path and yields exactly the events of a ``step`` loop.
The PLL and PV write their recurrence once, as a loop over a sequence of
samples whose state lives on the tracker between calls: ``step`` feeds it
one sample and applies the scalar crossing test, ``phase_stream`` feeds it
blocks and returns the estimates with no trigger logic. AT's kernel is its
isolation filter (``step`` per sample, ``band`` per block). ``run`` then
turns each block into triggers with one vectorised scan: ``forward_arcs``
and ``phase_hits`` (or ``level_hits`` for AT), then ``refractory`` over the
hits only. State carries across calls, so any chunking gives the same
events. The scan reads the config fields outside ``KERNEL_FIELDS``, so the
optimizer runs a kernel (``band``, or ``pipeline.tracker_phase_stream``) once
per setting of its tracker's kernel fields and the scan once per combo.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from math import atan2, cos, fmod, hypot, isfinite, pi, sin
from typing import Optional

import numpy as np

from .dsp import IirFilter, design_sw_isolation, finite_samples, mod360
from .errors import ConfigurationError, StreamIntegrityError, check_finite, check_positive

TAU = 2.0 * math.pi
NCO_CENTER_HZ = 1.0          # free-running rate of the PLL oscillator
PV_FREQ_RANGE_HZ = (0.5, 4.0)  # clamp on the vocoder's tracked frequency
PV_EPSILON_UV = 0.1          # below this demodulated magnitude the angle is noise
REFRACTORY_S = 0.25          # minimum trigger spacing: 4 Hz stimulation ceiling
MAX_MAF_SPAN = 1 << 20       # length of each of the vocoder's two ring buffers
BLOCK_SAMPLES = 1 << 16      # samples per kernel block held as Python floats
NEVER = -(1 << 60)           # last-trigger index before the first trigger
NO_ARC = -1.0                # arc of a slip: no target hits it

ALGORITHMS = ("at", "pll", "pv")

# Trigger targets that hit the 45 deg oracle phase, per algorithm. The PLL
# locks half a cycle away from the input, so its target sits across the
# circle from the vocoder's.
DEFAULT_TARGET_DEG = {"at": 45.0, "pll": 195.0, "pv": 45.0}

# the TrackerConfig fields each tracker's kernel reads; the trigger scan reads the rest
KERNEL_FIELDS = {"at": ("sample_rate_hz",), "pll": ("k_pll", "sample_rate_hz"),
                 "pv": ("k_pv", "maf_span", "sample_rate_hz")}


@dataclass
class TrackerConfig:
    """Parameters for any of the three trackers.

    phi_target_deg is the tracker phase at which a trigger is emitted (AT
    ignores it); None picks the per-algorithm default. k_pll and k_pv are
    the loop gains; maf_span is the vocoder's moving-average length in
    samples; at_threshold_uv the AT level. Triggers of every tracker lie
    at least REFRACTORY_S apart.
    """
    algorithm: str = "pv"
    phi_target_deg: Optional[float] = None
    k_pll: float = 4e-4
    k_pv: float = 2.0
    maf_span: int = 125
    at_threshold_uv: float = 30.0
    sample_rate_hz: float = 250.0

    def target_deg(self) -> float:
        if self.phi_target_deg is None:
            return DEFAULT_TARGET_DEG[self.algorithm]
        return self.phi_target_deg

    def refractory_samples(self) -> int:
        """Minimum spacing between triggers, REFRACTORY_S rounded up to
        whole samples, never below one."""
        return max(1, math.ceil(REFRACTORY_S * self.sample_rate_hz))

    def __post_init__(self):
        self.validate()

    def validate(self):
        check_finite(self)
        if self.algorithm not in ALGORITHMS:
            raise ConfigurationError(f"unknown algorithm {self.algorithm!r}")
        if self.phi_target_deg is not None and not 0.0 <= self.phi_target_deg < 360.0:
            raise ConfigurationError("phi_target_deg must be in [0, 360)")
        check_positive(self, "k_pll", "k_pv", "at_threshold_uv", "sample_rate_hz")
        span = self.maf_span
        if isinstance(span, bool) or not isinstance(span, numbers.Integral):
            raise ConfigurationError(f"maf_span must be an integer, got {span!r}")
        if not 1 <= span <= MAX_MAF_SPAN:
            raise ConfigurationError(f"maf_span must be 1 to {MAX_MAF_SPAN} samples")
        return self


@dataclass(frozen=True)
class TriggerEvent:
    sample_index: int
    time_s: float
    algorithm: str
    tracker_phase_deg: Optional[float]
    amplitude_uv: float


def forward_arcs(stream_deg, prev_deg: float = 0.0):
    """Forward arc (deg) into each sample of a phase stream, and the slip count.

    The arc into sample i runs from the previous estimate (``prev_deg`` for
    i = 0) to sample i, modulo 360. An arc of 180 deg or more is a slip, and
    comes back as NO_ARC, which no target can hit.
    """
    p = np.asarray(stream_deg, dtype=float)
    arcs = np.empty_like(p)
    if len(p):
        arcs[0] = p[0] - prev_deg
        np.subtract(p[1:], p[:-1], out=arcs[1:])
        mod360(arcs)
    slip = arcs >= 180.0
    arcs[slip] = NO_ARC
    return arcs, int(np.count_nonzero(slip))


def phase_hits(stream_deg, arcs, target_deg: float, prev_deg: float = 0.0):
    """Indices of the samples whose forward arc contains the target.

    The test is the one ``_PhaseTracker.step`` applies per sample:
    0 < d <= arc, where d is the target's forward distance from the
    previous estimate; slips carry NO_ARC, so an arc of 180 deg or more is
    never a crossing.
    """
    p = np.asarray(stream_deg, dtype=float)
    d = np.empty_like(p)
    if len(p):
        d[0] = target_deg - prev_deg
        np.subtract(target_deg, p[:-1], out=d[1:])
        mod360(d)
    idx = np.flatnonzero(d <= arcs)
    return idx[d[idx] > 0.0]


def level_hits(v, threshold: float, prev: float = 0.0):
    """Indices where v rises through threshold: previous value < threshold <= v."""
    v = np.asarray(v, dtype=float)
    rising = np.empty(len(v), dtype=bool)
    if len(v):
        rising[0] = prev < threshold
        np.less(v[:-1], threshold, out=rising[1:])
    rising &= v >= threshold
    return np.flatnonzero(rising)


def refractory(hits, spacing: int, last: int = NEVER):
    """The hits that lie at least ``spacing`` samples after the last kept one.

    ``last`` is the trigger before the first hit. Returns the kept indices
    as Python ints and the new last trigger.
    """
    kept = []
    for i in np.asarray(hits).tolist():
        if i - last >= spacing:
            kept.append(i)
            last = i
    return kept, last


class _TrackerBase:
    """Shared counter/refractory bookkeeping."""

    def __init__(self, config: TrackerConfig):
        self.config = config
        self._target = config.target_deg()
        self._refr = config.refractory_samples()
        self._n = 0
        self._last_trigger = NEVER
        self.slip_count = 0

    def _emit(self, phase_deg, amplitude) -> Optional[TriggerEvent]:
        n = self._n
        if n - self._last_trigger < self._refr:
            return None
        self._last_trigger = n
        return TriggerEvent(n, n / self.config.sample_rate_hz,
                            self.config.algorithm, phase_deg, amplitude)

    def _events(self, hits, x, phase_deg) -> list:
        """Events for the local hit indices of block x, past the refractory
        filter; advances the sample counter over the block. phase_deg is
        the block's estimate stream, or None."""
        n0 = self._n
        kept, self._last_trigger = refractory(hits + n0, self._refr,
                                              self._last_trigger)
        self._n = n0 + len(x)
        local = np.asarray(kept, dtype=np.intp) - n0
        amps = x[local].tolist()
        phases = [None] * len(kept) if phase_deg is None else phase_deg[local].tolist()
        fs = self.config.sample_rate_hz
        algo = self.config.algorithm
        return [TriggerEvent(n, n / fs, algo, ph, amp)
                for n, ph, amp in zip(kept, phases, amps)]


class AmplitudeThresholdTracker(_TrackerBase):
    """Triggers on the first upward crossing of a fixed level.

    Input is the common preprocessed stream; a first-order 0.5-2 Hz band-pass
    inside the tracker isolates slow waves before thresholding. No phase is
    estimated.
    """

    def __init__(self, config: TrackerConfig):
        super().__init__(config)
        self._iso = IirFilter(design_sw_isolation(config.sample_rate_hz))
        self._prev = 0.0

    def step(self, x: float) -> Optional[TriggerEvent]:
        v = self._iso.step(x)
        event = None
        if self._prev < self.config.at_threshold_uv <= v:
            event = self._emit(None, x)
        self._prev = v
        self._n += 1
        return event

    def band(self, x) -> np.ndarray:
        """The kernel: x through the band-pass, as ``step`` isolates it."""
        x = finite_samples(x)
        v = np.empty(len(x))
        for a in range(0, len(x), BLOCK_SAMPLES):
            v[a:a + BLOCK_SAMPLES] = self._iso.run(x[a:a + BLOCK_SAMPLES])
        return v

    def run(self, x) -> list:
        x = np.asarray(x, dtype=float)
        if not len(x):
            return []
        v = self.band(x)
        hits = level_hits(v, self.config.at_threshold_uv, self._prev)
        self._prev = float(v[-1])
        return self._events(hits, x, None)


class _PhaseTracker(_TrackerBase):
    """The trackers that estimate phase: one recurrence, fed per sample or
    per block.

    A subclass writes its recurrence once, as ``_advance``: it takes a
    sequence of samples, runs the loop with the state held on the tracker
    (read at entry, written back at exit) and returns the estimates in
    radians. ``step`` feeds it one sample and applies the crossing test to
    the result; ``phase_stream`` feeds it blocks of ``BLOCK_SAMPLES``, and
    ``run`` scans each block with ``forward_arcs`` and ``phase_hits`` from
    the estimate before the block. ``step``, ``phase_stream`` and ``run``
    refuse a non-finite sample before the recurrence sees any of the input.
    """

    _reports_freq = False   # step also returns the tracked frequency (PV)

    def __init__(self, config: TrackerConfig):
        super().__init__(config)
        self._prev_est = 0.0   # last estimate (deg) the crossing test saw

    def step(self, x: float):
        """Advance one sample; returns (phase_estimate_deg, event or None),
        and for the vocoder (phase_estimate_deg, freq_hz, event or None)."""
        if not isfinite(x):
            raise StreamIntegrityError(f"non-finite sample {x!r}")
        est = math.degrees(self._advance((x,))[0])
        prev = self._prev_est
        self._prev_est = est
        event = None
        arc = (est - prev) % 360.0
        if arc >= 180.0:
            self.slip_count += 1
        elif 0.0 < (self._target - prev) % 360.0 <= arc:
            event = self._emit(est, x)
        self._n += 1
        if self._reports_freq:
            return est, self.omega / TAU, event
        return est, event

    def phase_stream(self, x):
        """Advance the tracker over x without trigger logic; returns the
        per-sample phase estimate in degrees, as ``step`` reports it."""
        x = finite_samples(x)
        out = np.empty(len(x))
        for a in range(0, len(x), BLOCK_SAMPLES):
            out[a:a + BLOCK_SAMPLES] = self._advance(x[a:a + BLOCK_SAMPLES].tolist())
        np.degrees(out, out=out)
        if len(out):
            self._prev_est = float(out[-1])
        return out

    def _run_blocks(self, x) -> list:
        x = finite_samples(x)
        events = []
        for a in range(0, len(x), BLOCK_SAMPLES):
            xb = x[a:a + BLOCK_SAMPLES]
            prev = self._prev_est
            stream = self.phase_stream(xb)
            arcs, slips = forward_arcs(stream, prev)
            self.slip_count += slips
            hits = phase_hits(stream, arcs, self._target, prev)
            events += self._events(hits, xb, stream)
        return events


class PllTracker(_PhaseTracker):
    """First-order phase-locked loop around a 1 Hz oscillator.

    Per sample: error = x * cos(theta); the accumulated correction moves
    opposite the error, and theta advances by the free-run increment plus the
    same correction. Triggers fire when wrapped theta crosses the target
    phase. The error has no extra low-pass; ripple at twice the input
    frequency is inherent and the loop gain bounds it. A non-finite state,
    which a huge gain times a huge sample can make by overflow, sets theta and
    the correction back to 0; that sample is judged like any other.
    """

    def __init__(self, config: TrackerConfig):
        super().__init__(config)
        self.theta = 0.0   # radians, [0, 2*pi)
        self.phi_p = 0.0   # accumulated correction, radians
        self.reset_count = 0
        self._params = (config.k_pll, TAU * NCO_CENTER_HZ / config.sample_rate_hz)

    def _advance(self, xs):
        k, omega_dt = self._params
        theta = self.theta
        phi_p = self.phi_p
        thetas = []
        for xi in xs:
            e = xi * cos(theta)
            phi_p -= k * e
            theta = (theta + omega_dt - k * e) % TAU
            if not (isfinite(theta) and isfinite(phi_p)):
                theta = phi_p = 0.0
                self.reset_count += 1
            thetas.append(theta)
        self.theta = theta
        self.phi_p = phi_p
        return thetas

    def run(self, x) -> list:
        return self._run_blocks(x)


class PvTracker(_PhaseTracker):
    """Phase vocoder: quadrature demodulation plus moving-average smoothing.

    The sample multiplies the oscillator's sine and cosine; both products run
    through span-length moving averages (ring buffer with running sums, so
    cost is independent of the span). The four-quadrant angle of the averaged
    pair is the phase error; its sample-to-sample change, scaled by the gain,
    steers the tracked frequency, clamped to 0.5-4 Hz. The phase estimate is
    oscillator argument plus phase error, which is also what triggers are
    matched against.

    When the averaged vector is shorter than PV_EPSILON_UV the angle is
    meaningless: the previous phase error is held and the frequency stays
    untouched for that sample.
    """

    _reports_freq = True

    def __init__(self, config: TrackerConfig):
        super().__init__(config)
        span = int(config.maf_span)
        self.omega = TAU * NCO_CENTER_HZ  # rad/s
        self.theta = 0.0                  # oscillator argument, [0, 2*pi)
        self.phi_e = 0.0                  # last defined phase error
        self.hold_count = 0
        self._buf_i = [0.0] * span
        self._buf_q = [0.0] * span
        self._sum_i = 0.0
        self._sum_q = 0.0
        self._idx = 0
        self._params = (config.k_pv, span, 1.0 / config.sample_rate_hz,
                        TAU * PV_FREQ_RANGE_HZ[0], TAU * PV_FREQ_RANGE_HZ[1])

    def _advance(self, xs):
        k, span, dt, omega_lo, omega_hi = self._params
        buf_i = self._buf_i
        buf_q = self._buf_q
        sum_i = self._sum_i
        sum_q = self._sum_q
        idx = self._idx
        omega = self.omega
        theta = self.theta
        phi_e = self.phi_e
        ests = []
        for xi in xs:
            i_new = xi * sin(theta)
            q_new = xi * cos(theta)
            sum_i += i_new - buf_i[idx]
            sum_q += q_new - buf_q[idx]
            buf_i[idx] = i_new
            buf_q[idx] = q_new
            idx = idx + 1 if idx + 1 < span else 0
            mean_i = sum_i / span
            mean_q = sum_q / span
            if hypot(mean_i, mean_q) >= PV_EPSILON_UV:
                err = atan2(mean_q, mean_i)
                delta = fmod(err - phi_e + 3.0 * pi, TAU) - pi
                omega = omega + k * delta
                if omega < omega_lo:
                    omega = omega_lo
                elif omega > omega_hi:
                    omega = omega_hi
                phi_e = err
            else:
                self.hold_count += 1
            theta = (theta + omega * dt) % TAU
            ests.append((theta + phi_e) % TAU)
        self._sum_i = sum_i
        self._sum_q = sum_q
        self._idx = idx
        self.omega = omega
        self.theta = theta
        self.phi_e = phi_e
        return ests

    def run(self, x) -> list:
        return self._run_blocks(x)


def make_tracker(config: TrackerConfig):
    cls = {"at": AmplitudeThresholdTracker, "pll": PllTracker, "pv": PvTracker}
    return cls[config.algorithm](config)
