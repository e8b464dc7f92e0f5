"""Stochastic charge-telegraph trajectories and the sensor measurement chain.

A trajectory is a continuous-time Markov chain over the three donor states
(spin-up, spin-down, ionized).  The sensor sees 1 while the donor is ionized
and 0 while it is neutral; that telegraph signal passes through a first-order
low-pass amplifier, is sampled periodically without anti-alias filtering,
and compared against a threshold to produce per-sample blip booleans.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from enum import IntEnum
from typing import Iterator

import numpy as np


class DonorState(IntEnum):
    """Donor charge/spin state; values index the 3-vector basis."""

    UP = 0
    DOWN = 1
    IONIZED = 2


_LEVEL = {DonorState.UP: 0.0, DonorState.DOWN: 0.0, DonorState.IONIZED: 1.0}


@dataclass(frozen=True)
class AmplifierParams:
    """First-order amplifier plus digitizer settings.

    Attributes:
        cutoff: low-pass cutoff frequency f_c in Hz.
        threshold: normalized blip threshold S_th, strictly inside (0, 1).
        sample_period: digitizer sample period T_s in seconds.
    """

    cutoff: float
    threshold: float
    sample_period: float

    def __post_init__(self):
        if not (math.isfinite(self.cutoff) and self.cutoff > 0.0):
            raise ValueError("cutoff must be finite and > 0")
        if not (0.0 < self.threshold < 1.0):
            raise ValueError("threshold must lie strictly inside (0, 1)")
        if not (math.isfinite(self.sample_period) and self.sample_period > 0.0):
            raise ValueError("sample_period must be finite and > 0")

    @property
    def angular_cutoff(self) -> float:
        """2 * pi * f_c, the inverse amplifier time constant in 1/s."""
        return 2.0 * math.pi * self.cutoff


@dataclass
class EventTimeline:
    """Time-ordered state transitions of one trajectory.

    events holds (time, new_state) pairs with strictly increasing times in
    (0, duration]; consecutive states always differ.
    """

    initial_state: DonorState
    events: list[tuple[float, DonorState]]
    duration: float

    def state_at(self, t: float) -> DonorState:
        """State occupied at time t (events are effective at their timestamp)."""
        state = self.initial_state
        for when, new_state in self.events:
            if when > t:
                break
            state = new_state
        return state

    def segments(self) -> Iterator[tuple[float, float, DonorState]]:
        """Yield (start, end, state) covering [0, duration]."""
        start = 0.0
        state = self.initial_state
        for when, new_state in self.events:
            yield start, when, state
            start, state = when, new_state
        yield start, self.duration, state


@dataclass
class SampledTrace:
    """Digitized sensor samples and their threshold comparisons."""

    samples: np.ndarray
    blips: np.ndarray
    sample_period: float


# Outgoing transitions per state: (rate attribute, destination).
_TRANSITIONS = {
    DonorState.UP: (("out_up", DonorState.IONIZED), ("relax", DonorState.DOWN)),
    DonorState.DOWN: (("out_down", DonorState.IONIZED), ("excite", DonorState.UP)),
    DonorState.IONIZED: (("in_up", DonorState.UP), ("in_down", DonorState.DOWN)),
}


def gillespie_step(state: DonorState, rates, rng: np.random.Generator):
    """Draw (holding_time, next_state) for one exact CTMC step.

    Returns (inf, state) when the current state has no exit channel.
    """
    channels = [(getattr(rates, name), dest) for name, dest in _TRANSITIONS[state]]
    total = channels[0][0] + channels[1][0]
    if total <= 0.0:
        return math.inf, state
    dt = rng.exponential(1.0 / total)
    if rng.random() * total < channels[0][0]:
        return dt, channels[0][1]
    return dt, channels[1][1]


def sample_trajectory(
    rates,
    initial: DonorState,
    duration: float,
    seed=None,
    rng: np.random.Generator | None = None,
) -> EventTimeline:
    """Generate one exact-time trajectory of the three-state chain.

    Holding times are exponential with the state's total exit rate and the
    next state is chosen proportionally to the outgoing rates.  The result
    is deterministic given the seed.

    Args:
        rates: RateSet with the tunnel (and optional spin-flip) rates.
        initial: starting state.
        duration: trajectory length in seconds (> 0).
        seed: RNG seed (int or sequence) used when rng is not supplied.
        rng: optional generator to draw from directly.
    """
    if duration <= 0.0:
        raise ValueError("duration must be > 0")
    if rng is None:
        rng = np.random.default_rng(seed)
    events: list[tuple[float, DonorState]] = []
    t = 0.0
    state = initial
    while True:
        dt, new_state = gillespie_step(state, rates, rng)
        t += dt
        if t >= duration:
            break
        events.append((t, new_state))
        state = new_state
    return EventTimeline(initial_state=initial, events=events, duration=duration)


def rise_time(cutoff: float, threshold: float) -> float:
    """Time for the amplifier step response to reach the blip threshold.

    Equals -ln(1 - S_th) / (2 * pi * f_c) for a first-order low pass.
    """
    if not (0.0 < threshold < 1.0):
        raise ValueError("threshold must lie strictly inside (0, 1)")
    if cutoff <= 0.0:
        raise ValueError("cutoff must be > 0")
    return -math.log(1.0 - threshold) / (2.0 * math.pi * cutoff)


def missed_blip_probability(t_rise: float, in_rate_total: float) -> float:
    """Probability a tunneled-out electron reloads before the signal rises.

    Equals 1 - exp(-t_rise * (in_up + in_down)); an ionization shorter than
    the amplifier rise time never crosses the threshold and is undetectable.
    """
    if t_rise < 0.0 or in_rate_total < 0.0:
        raise ValueError("t_rise and in_rate_total must be >= 0")
    return -math.expm1(-t_rise * in_rate_total)


def render_sensor_trace(
    timeline: EventTimeline,
    amp: AmplifierParams,
    substep: float | None = None,
    initial_level: float | None = None,
) -> np.ndarray:
    """Amplifier output on a fixed substep grid.

    The ideal telegraph input (1 ionized, 0 neutral) is piecewise constant,
    so the first-order response is evaluated in closed form per segment;
    values at the grid points are exact for any substep, which only sets the
    reporting resolution.

    Args:
        timeline: trajectory to render.
        amp: amplifier parameters; substep must be <= sample_period / 10.
        substep: grid spacing in seconds (default sample_period / 100).
        initial_level: amplifier output at t = 0; defaults to the telegraph
            level of the initial state (signal assumed settled beforehand).

    Returns:
        Array of output values at t = k * substep, k = 0 .. floor(T/substep).
    """
    if substep is None:
        substep = amp.sample_period / 100.0
    if substep > amp.sample_period / 10.0 + 1e-18:
        raise ValueError("substep too coarse: must be <= sample_period / 10")
    omega = amp.angular_cutoff
    n_points = int(math.floor(timeline.duration / substep + 1e-9)) + 1
    times = np.arange(n_points) * substep
    out = np.empty(n_points)

    level = _LEVEL[timeline.initial_state] if initial_level is None else float(initial_level)
    out[0] = level
    idx = 1
    for start, end, state in timeline.segments():
        x = _LEVEL[state]
        if idx < n_points:
            hi = np.searchsorted(times, end, side="right")
            if hi > idx:
                out[idx:hi] = x + (level - x) * np.exp(-omega * (times[idx:hi] - start))
                idx = hi
        level = x + (level - x) * math.exp(-omega * (end - start))
        if idx >= n_points:
            break
    return out


def digitize(
    raw: np.ndarray,
    amp: AmplifierParams,
    substep: float | None = None,
    noise_std: float = 0.0,
    rng: np.random.Generator | None = None,
) -> SampledTrace:
    """Point-decimate a rendered trace at t = n * sample_period.

    Instantaneous values are picked with no anti-alias filtering, matching a
    plain decimating acquisition.  Samples exactly at the threshold are not
    blips (strict comparison).  Optional additive Gaussian noise is applied
    to the picked samples for robustness studies; it is off by default.
    """
    if substep is None:
        substep = amp.sample_period / 100.0
    stride = amp.sample_period / substep
    stride_int = round(stride)
    if abs(stride - stride_int) > 1e-6 or stride_int < 1:
        raise ValueError("sample_period must be an integer multiple of substep")
    if len(raw) <= stride_int:
        raise ValueError("trace shorter than one sample period")
    samples = np.array(raw[stride_int::stride_int], dtype=float)
    if noise_std > 0.0:
        if rng is None:
            rng = np.random.default_rng()
        samples = samples + rng.normal(0.0, noise_std, size=samples.shape)
    blips = samples > amp.threshold
    return SampledTrace(samples=samples, blips=blips, sample_period=amp.sample_period)


def dump_trace_csv(
    path,
    timeline: EventTimeline,
    amp: AmplifierParams,
    substep: float | None = None,
) -> None:
    """Write (time_s, raw, sampled, blip) rows for one rendered trajectory.

    The sampled and blip columns are filled only on rows that coincide with
    digitizer sample instants; other rows leave them empty.
    """
    if substep is None:
        substep = amp.sample_period / 100.0
    raw = render_sensor_trace(timeline, amp, substep)
    trace = digitize(raw, amp, substep)
    stride = round(amp.sample_period / substep)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time_s", "raw", "sampled", "blip"])
        for k, value in enumerate(raw):
            t = k * substep
            if k > 0 and k % stride == 0 and k // stride <= len(trace.samples):
                n = k // stride - 1
                writer.writerow([repr(t), repr(float(value)),
                                 repr(float(trace.samples[n])), int(trace.blips[n])])
            else:
                writer.writerow([repr(t), repr(float(value)), "", ""])
