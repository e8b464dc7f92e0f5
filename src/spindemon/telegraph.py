"""Donor states, the exact Gillespie step of the three-state chain, and the
amplifier's closed forms.

A trajectory is a continuous-time Markov chain over the three donor states
(spin-up, spin-down, ionized); ``gillespie_step`` draws one exact step of
it.  The sensor sees 1 while the donor is ionized and 0 while it is
neutral, and a first-order low-pass amplifier turns that telegraph signal
into the output compared against the blip threshold.  ``rise_time`` and
``missed_blip_probability`` give the amplifier's step response and the
detection loss it causes.
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
    (name_a, dest_a), (name_b, dest_b) = _TRANSITIONS[state]
    rate_a = getattr(rates, name_a)
    total = rate_a + getattr(rates, name_b)
    if total <= 0.0:
        return math.inf, state
    dt = rng.exponential(1.0 / total)
    return dt, dest_a if rng.random() * total < rate_a else dest_b


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
