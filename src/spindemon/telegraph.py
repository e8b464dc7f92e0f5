"""Donor states, the exact Gillespie step of the three-state chain, and the
amplifier's closed forms.

A trajectory is a continuous-time Markov chain over the three donor states
(spin-up, spin-down, ionized); ``gillespie_step`` turns uniforms into one
exact step of it, for any number of chains at once.  The sensor sees 1
while the donor is ionized and 0 while it is neutral, and a first-order
low-pass amplifier turns that telegraph signal into the output compared
against the blip threshold.  ``rise_time`` and ``missed_blip_probability``
give the amplifier's step response and the detection loss it causes, and
``projection_999`` evaluates them for the hardware paths to a 99.9 %
plateau.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np


class DonorState(IntEnum):
    """Donor charge/spin state; values index the 3-vector basis."""

    UP = 0
    DOWN = 1
    IONIZED = 2


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


# Outgoing channels per state, in DonorState order: (rate attribute,
# destination) of the first channel, then of the second.
_CHANNELS = (
    (("out_up", DonorState.IONIZED), ("relax", DonorState.DOWN)),
    (("out_down", DonorState.IONIZED), ("excite", DonorState.UP)),
    (("in_up", DonorState.UP), ("in_down", DonorState.DOWN)),
)
_DESTINATIONS = np.array([[dest for _, dest in channels] for channels in _CHANNELS])


def gillespie_step(state, rates, u_time, u_choice):
    """One exact CTMC step from each entry of ``state``, by inverse transform.

    ``u_time`` and ``u_choice`` hold one uniform on [0, 1) per entry: the
    holding time is -ln(1 - u_time) / total rate, and the first channel is
    taken when u_choice * total < its rate.  Returns (holding_time,
    next_state) arrays; where a state has no exit channel the holding time
    is inf and the state stays.  The rates and destinations are looked up
    per state and broadcast, so a (3, 1) ``state`` steps each of the three
    states with every uniform; the no-exit selects run only where some
    state lacks an exit.
    """
    state = np.asarray(state)
    first, second = np.array([[getattr(rates, name) for name, _ in ch]
                              for ch in _CHANNELS]).T[:, state]
    total = first + second
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        dt = -np.log1p(-np.asarray(u_time)) / total
    dest = np.where(u_choice * total >= first, _DESTINATIONS[state, 1], _DESTINATIONS[state, 0])
    if not (exits := total > 0.0).all():
        dt, dest = np.where(exits, dt, math.inf), np.where(exits, dest, state)
    return dt, dest


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


@dataclass
class ProjectionScenario:
    """Detection-loss projection for one hardware variant."""

    label: str
    cutoff: float
    in_rate_total: float
    t_rise: float
    p_miss: float
    plateau: float


def projection_999(amp: AmplifierParams, in_rate_total: float) -> list[ProjectionScenario]:
    """Detection-loss plateaus for the two hardware improvement paths.

    Evaluates the rise-time and missed-event formulas for the baseline
    chain (``amp`` and the total loading rate ``in_rate_total``), for a
    faster amplifier with a 300 kHz cutoff, and for loading slowed to
    880 /s; each scenario reports its plateau 1 - P_miss.
    """
    rows = []
    for label, cutoff, in_rate in (
        ("baseline", amp.cutoff, in_rate_total),
        ("faster_amplifier", 300e3, in_rate_total),
        ("slower_loading", amp.cutoff, 880.0),
    ):
        t_r = rise_time(cutoff, amp.threshold)
        p_m = missed_blip_probability(t_r, in_rate)
        rows.append(ProjectionScenario(label, cutoff, in_rate, t_r, p_m, 1.0 - p_m))
    return rows
