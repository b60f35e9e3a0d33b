"""Real-time slow-wave phase estimators and trigger emission.

Three algorithms over the common preprocessed stream:

- amplitude threshold (AT): no phase estimate, fires on an upward level
  crossing of a band-isolated copy of the signal;
- phase-locked loop (PLL): first-order loop around a 1 Hz oscillator;
- phase vocoder (PV): quadrature demodulation with moving-average smoothing,
  tracking instantaneous frequency and phase.

All trackers enforce the same refractory spacing between triggers and are
strictly causal: ``step`` consumes one sample and never looks ahead.

``run`` is the batch path and yields exactly the events of a ``step`` loop.
It has two parts. A kernel advances the tracker state over a block of
samples: ``phase_stream`` for the PLL and PV, which is the step recurrence
in the same operation order with no trigger logic, and the isolation
filter's ``lfilter`` for AT. One vectorised scan then turns the block into
triggers: ``forward_arcs`` and ``phase_hits`` (or ``level_hits`` for AT),
then ``refractory`` over the hits only. State carries across calls, so any
chunking gives the same events. The optimizer reuses the same kernels and
scan through ``pipeline.tracker_phase_stream`` and
``pipeline.candidates_from_phase_stream``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .dsp import IirFilter, design_sw_isolation
from .errors import ConfigurationError

TAU = 2.0 * math.pi
NCO_CENTER_HZ = 1.0          # free-running rate of the PLL oscillator
PV_FREQ_RANGE_HZ = (0.5, 4.0)  # clamp on the vocoder's tracked frequency
PV_EPSILON_UV = 0.1          # below this demodulated magnitude the angle is noise
DEFAULT_REFRACTORY_S = 0.25  # 4 Hz stimulation ceiling
BLOCK_SAMPLES = 1 << 16      # samples per kernel block held as Python floats
NEVER = -(1 << 60)           # last-trigger index before the first trigger
NO_ARC = -1.0                # arc of a slip or reset sample: no target hits it

ALGORITHMS = ("at", "pll", "pv")

# Trigger targets that hit the 45 deg oracle phase, per algorithm. The PLL
# locks half a cycle away from the input, so its target sits across the
# circle from the vocoder's.
DEFAULT_TARGET_DEG = {"at": 45.0, "pll": 195.0, "pv": 45.0}


@dataclass
class TrackerConfig:
    """Parameters for any of the three trackers.

    phi_target_deg is the tracker phase at which a trigger is emitted (AT
    ignores it); None picks the per-algorithm default. k_pll and k_pv are
    the loop gains; maf_span is the vocoder's moving-average length in
    samples; at_threshold_uv the AT level.
    """
    algorithm: str = "pv"
    phi_target_deg: Optional[float] = None
    k_pll: float = 4e-4
    k_pv: float = 2.0
    maf_span: int = 125
    at_threshold_uv: float = 30.0
    refractory_s: float = DEFAULT_REFRACTORY_S
    sample_rate_hz: float = 250.0
    pv_trigger_on_nco: bool = False

    def target_deg(self) -> float:
        if self.phi_target_deg is None:
            return DEFAULT_TARGET_DEG[self.algorithm]
        return self.phi_target_deg

    def validate(self):
        if self.algorithm not in ALGORITHMS:
            raise ConfigurationError(f"unknown algorithm {self.algorithm!r}")
        if self.phi_target_deg is not None and not 0.0 <= self.phi_target_deg < 360.0:
            raise ConfigurationError("phi_target_deg must be in [0, 360)")
        if self.k_pll <= 0 or self.k_pv <= 0:
            raise ConfigurationError("loop gains must be positive")
        if int(self.maf_span) < 1:
            raise ConfigurationError("maf_span must be >= 1 sample")
        if self.at_threshold_uv <= 0:
            raise ConfigurationError("at_threshold_uv must be positive")
        if self.refractory_s <= 0:
            raise ConfigurationError("refractory_s must be positive")
        if self.sample_rate_hz <= 0:
            raise ConfigurationError("sample_rate_hz must be positive")
        return self


@dataclass(frozen=True)
class TriggerEvent:
    sample_index: int
    time_s: float
    algorithm: str
    tracker_phase_deg: Optional[float]
    amplitude_uv: float


def wrap_radians(v: float) -> float:
    """fmod(v, 2 pi), plus 2 pi when negative (a zero loses its sign); an
    infinite v gives NaN where math.fmod would raise."""
    return v % TAU


def wrap_degrees(v: float) -> float:
    v = math.fmod(v, 360.0)
    return v + 360.0 if v < 0.0 else v


def phase_crossed(prev_deg: float, cur_deg: float, target_deg: float) -> bool:
    """True iff target lies on the forward arc prev -> cur, arc < 180 deg.

    Arcs of 180 deg or more in one sample are treated as slips, never as
    crossings.
    """
    arc = math.fmod(cur_deg - prev_deg, 360.0)
    if arc < 0.0:
        arc += 360.0
    if arc >= 180.0:
        return False
    d = math.fmod(target_deg - prev_deg, 360.0)
    if d < 0.0:
        d += 360.0
    return 0.0 < d <= arc


def _mod360(v):
    """``np.mod(v, 360.0)`` in place.

    Stream differences lie in [-360, 360), where fmod is the identity, so
    one conditional add gives np.mod's values (up to the sign of a zero,
    which no comparison sees) at a fraction of its cost. Other inputs take
    np.mod.
    """
    if len(v) and not (v.min() >= -360.0 and v.max() < 360.0):
        return np.mod(v, 360.0, out=v)
    return np.add(v, 360.0, out=v, where=v < 0.0)


def forward_arcs(stream_deg, prev_deg: float = 0.0, resets=()):
    """Forward arc (deg) into each sample of a phase stream, and the slip count.

    The arc into sample i runs from the previous estimate (``prev_deg`` for
    i = 0) to sample i, modulo 360. An arc of 180 deg or more is a slip. A
    PLL reset sample is judged from 0 deg to its own 0 deg, so it is never
    a slip. Slips and resets come back as NO_ARC, which no target can hit.
    """
    p = np.asarray(stream_deg, dtype=float)
    arcs = np.empty_like(p)
    if len(p):
        arcs[0] = p[0] - prev_deg
        np.subtract(p[1:], p[:-1], out=arcs[1:])
        _mod360(arcs)
    resets = np.asarray(resets, dtype=np.intp)
    slip = arcs >= 180.0
    slip[resets] = False
    arcs[slip] = NO_ARC
    arcs[resets] = NO_ARC
    return arcs, int(np.count_nonzero(slip))


def phase_hits(stream_deg, arcs, target_deg: float, prev_deg: float = 0.0):
    """Indices of the samples whose forward arc contains the target.

    The test is ``phase_crossed`` per sample: 0 < d <= arc, where d is the
    target's forward distance from the previous estimate.
    """
    p = np.asarray(stream_deg, dtype=float)
    d = np.empty_like(p)
    if len(p):
        d[0] = target_deg - prev_deg
        np.subtract(target_deg, p[:-1], out=d[1:])
        _mod360(d)
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
        config.validate()
        self.config = config
        self._target = config.target_deg()
        self._refr = max(1, math.ceil(config.refractory_s * config.sample_rate_hz))
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
        self._iso = IirFilter(*design_sw_isolation(config.sample_rate_hz))
        self._prev = 0.0

    def step(self, x: float) -> Optional[TriggerEvent]:
        v = self._iso.step(x)
        event = None
        if self._prev < self.config.at_threshold_uv <= v:
            event = self._emit(None, x)
        self._prev = v
        self._n += 1
        return event

    def run(self, x) -> list:
        x = np.asarray(x, dtype=float)
        if not len(x):
            return []
        v = self._iso.run(x)
        hits = level_hits(v, self.config.at_threshold_uv, self._prev)
        self._prev = float(v[-1])
        return self._events(hits, x, None)


class _PhaseTracker(_TrackerBase):
    """Batch path of the trackers that estimate phase: per block, the
    subclass's ``phase_stream`` kernel, then the crossing scan from the
    estimate before the block (``_prev_deg``)."""

    def _run_blocks(self, x) -> list:
        x = np.asarray(x, dtype=float)
        events = []
        for a in range(0, len(x), BLOCK_SAMPLES):
            xb = x[a:a + BLOCK_SAMPLES]
            prev = self._prev_deg()
            stream, resets = self.phase_stream(xb)
            arcs, slips = forward_arcs(stream, prev, resets)
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
    frequency is inherent and the loop gain bounds it.
    """

    def __init__(self, config: TrackerConfig):
        super().__init__(config)
        self.theta = 0.0   # radians, [0, 2*pi)
        self.phi_p = 0.0   # accumulated correction, radians
        self._omega_dt = TAU * NCO_CENTER_HZ / config.sample_rate_hz
        self.reset_count = 0

    def reset(self):
        self.theta = 0.0
        self.phi_p = 0.0

    def _prev_deg(self) -> float:
        return math.degrees(self.theta)

    def step(self, x: float):
        """Advance one sample; returns (phase_estimate_deg, event or None)."""
        k = self.config.k_pll
        prev_theta = self.theta
        e = x * math.cos(prev_theta)
        self.phi_p -= k * e
        theta = wrap_radians(prev_theta + self._omega_dt - k * e)
        if not (math.isfinite(theta) and math.isfinite(self.phi_p)):
            self.reset()
            self.reset_count += 1
            theta = 0.0
            prev_theta = 0.0  # no crossing can fire on a reset sample
        prev_deg = math.degrees(prev_theta)
        cur_deg = math.degrees(theta)
        self.theta = theta
        event = None
        arc = math.fmod(cur_deg - prev_deg, 360.0)
        if arc < 0.0:
            arc += 360.0
        if arc >= 180.0:
            self.slip_count += 1
        elif phase_crossed(prev_deg, cur_deg, self._target):
            event = self._emit(cur_deg, x)
        self._n += 1
        return cur_deg, event

    def phase_stream(self, x):
        """Advance the loop over x without trigger logic.

        Returns the per-sample phase estimate in degrees, as ``step``
        reports it, and the indices of the samples where a non-finite state
        reset the loop.
        """
        x = np.asarray(x, dtype=float)
        k = self.config.k_pll
        omega_dt = self._omega_dt
        cos = math.cos
        isfinite = math.isfinite
        theta = self.theta
        phi_p = self.phi_p
        out = np.empty(len(x))
        resets = []
        for a in range(0, len(x), BLOCK_SAMPLES):
            thetas = []
            append = thetas.append
            for xi in x[a:a + BLOCK_SAMPLES].tolist():
                e = xi * cos(theta)
                phi_p -= k * e
                theta = (theta + omega_dt - k * e) % TAU
                if not (isfinite(theta) and isfinite(phi_p)):
                    theta = 0.0
                    phi_p = 0.0
                    resets.append(a + len(thetas))
                append(theta)
            out[a:a + len(thetas)] = thetas
        self.theta = theta
        self.phi_p = phi_p
        self.reset_count += len(resets)
        return np.degrees(out, out=out), np.asarray(resets, dtype=np.intp)

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
    matched against unless pv_trigger_on_nco asks for the bare oscillator
    argument.

    When the averaged vector is shorter than PV_EPSILON_UV the angle is
    meaningless: the previous phase error is held and the frequency stays
    untouched for that sample.
    """

    def __init__(self, config: TrackerConfig):
        super().__init__(config)
        span = int(config.maf_span)
        self.omega = TAU * NCO_CENTER_HZ  # rad/s
        self.theta = 0.0                  # oscillator argument, [0, 2*pi)
        self.phi_e = 0.0                  # last defined phase error
        self._span = span
        self._buf_i = [0.0] * span
        self._buf_q = [0.0] * span
        self._sum_i = 0.0
        self._sum_q = 0.0
        self._idx = 0
        self._dt = 1.0 / config.sample_rate_hz
        self._omega_lo = TAU * PV_FREQ_RANGE_HZ[0]
        self._omega_hi = TAU * PV_FREQ_RANGE_HZ[1]
        self._prev_est = 0.0
        self.hold_count = 0

    def _prev_deg(self) -> float:
        return self._prev_est

    def step(self, x: float):
        """Advance one sample; returns (phase_estimate_deg, freq_hz, event)."""
        cfg = self.config
        span = self._span
        idx = self._idx
        if math.isfinite(x):
            i_new = x * math.sin(self.theta)
            q_new = x * math.cos(self.theta)
        else:   # the running sums would stay non-finite: start them over
            self._buf_i[:] = self._buf_q[:] = [0.0] * span
            self._sum_i = self._sum_q = i_new = q_new = 0.0
        self._sum_i += i_new - self._buf_i[idx]
        self._sum_q += q_new - self._buf_q[idx]
        self._buf_i[idx] = i_new
        self._buf_q[idx] = q_new
        self._idx = idx + 1 if idx + 1 < span else 0
        mean_i = self._sum_i / span
        mean_q = self._sum_q / span
        if math.hypot(mean_i, mean_q) >= PV_EPSILON_UV:
            err = math.atan2(mean_q, mean_i)
            delta = math.fmod(err - self.phi_e + 3.0 * math.pi, TAU) - math.pi
            omega = self.omega + cfg.k_pv * delta
            if omega < self._omega_lo:
                omega = self._omega_lo
            elif omega > self._omega_hi:
                omega = self._omega_hi
            self.omega = omega
            self.phi_e = err
        else:
            self.hold_count += 1
        self.theta = wrap_radians(self.theta + self.omega * self._dt)
        if cfg.pv_trigger_on_nco:
            est = math.degrees(self.theta)
        else:
            est = math.degrees(wrap_radians(self.theta + self.phi_e))
        prev = self._prev_est
        self._prev_est = est
        event = None
        arc = math.fmod(est - prev, 360.0)
        if arc < 0.0:
            arc += 360.0
        if arc >= 180.0:
            self.slip_count += 1
        elif phase_crossed(prev, est, self._target):
            event = self._emit(est, x)
        self._n += 1
        return est, self.omega / TAU, event

    def phase_stream(self, x):
        """Advance the vocoder over x without trigger logic.

        Returns the per-sample phase estimate in degrees, as ``step``
        reports it, and an empty array of reset indices (the vocoder holds
        instead of resetting).
        """
        x = np.asarray(x, dtype=float)
        cfg = self.config
        k = cfg.k_pv
        span = self._span
        dt = self._dt
        on_nco = cfg.pv_trigger_on_nco
        omega_lo = self._omega_lo
        omega_hi = self._omega_hi
        sin = math.sin
        cos = math.cos
        hypot = math.hypot
        isfinite = math.isfinite
        atan2 = math.atan2
        fmod = math.fmod
        pi = math.pi
        buf_i = self._buf_i
        buf_q = self._buf_q
        sum_i = self._sum_i
        sum_q = self._sum_q
        idx = self._idx
        omega = self.omega
        theta = self.theta
        phi_e = self.phi_e
        holds = 0
        out = np.empty(len(x))
        for a in range(0, len(x), BLOCK_SAMPLES):
            ests = []
            append = ests.append
            for xi in x[a:a + BLOCK_SAMPLES].tolist():
                if isfinite(xi):
                    i_new = xi * sin(theta)
                    q_new = xi * cos(theta)
                else:
                    buf_i[:] = buf_q[:] = [0.0] * span
                    sum_i = sum_q = i_new = q_new = 0.0
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
                    holds += 1
                theta = (theta + omega * dt) % TAU
                append(theta if on_nco else (theta + phi_e) % TAU)
            out[a:a + len(ests)] = ests
        np.degrees(out, out=out)
        self._sum_i = sum_i
        self._sum_q = sum_q
        self._idx = idx
        self.omega = omega
        self.theta = theta
        self.phi_e = phi_e
        if len(out):
            self._prev_est = float(out[-1])
        self.hold_count += holds
        return out, np.empty(0, dtype=np.intp)

    def run(self, x) -> list:
        return self._run_blocks(x)


def make_tracker(config: TrackerConfig):
    cls = {"at": AmplitudeThresholdTracker, "pll": PllTracker, "pv": PvTracker}
    return cls[config.algorithm](config)
