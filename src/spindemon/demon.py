"""Real-time negative-result monitor: trigger settings and the posterior.

The monitor gains information from the absence of tunneling: every silent
sample multiplies the spin likelihoods by exp(-T_s * out_rate), sharpening
the spin-down posterior.  The demon is a counter that triggers after a run
of ``required_samples`` silent samples, so the delivered belief is the
closed-form posterior after that many samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .physics import RateSet, _sigmoid
from .telegraph import DonorState


def _logit(p: float) -> float:
    return math.log(p / (1.0 - p))


@dataclass(frozen=True)
class DemonConfig:
    """Trigger settings.

    Attributes:
        required_samples: consecutive silent samples needed to trigger (>= 1).
        latency: hardware delay between the counter completing and the
            trigger edge appearing, added to trigger timestamps.
    """

    required_samples: int
    latency: float = 100e-9

    def __post_init__(self):
        if self.required_samples < 1:
            raise ValueError("required_samples must be >= 1")
        if not 0.0 <= self.latency < math.inf:
            raise ValueError("latency must be finite and >= 0")


def likelihood_no_blip(spin: DonorState, rates: RateSet, sample_period: float) -> float:
    """Probability that the given spin produces no blip in one sample.

    Equals exp(-T_s * out_rate(spin)).
    """
    if spin is DonorState.UP:
        out = rates.out_up
    elif spin is DonorState.DOWN:
        out = rates.out_down
    else:
        raise ValueError("likelihood is defined for loaded spins only")
    return math.exp(-sample_period * out)


def batch_posterior(
    prior: float, n_samples: int, rates: RateSet, sample_period: float
) -> float:
    """Posterior spin-down probability after n consecutive silent samples.

    One-step form of the sequential update:
        (1 + ((1 - p) / p) * exp(-n * T_s * (out_up - out_down)))^-1,
    extended by continuity to 0 and 1 at certain priors.
    """
    if not (0.0 <= prior <= 1.0):
        raise ValueError("prior must be in [0, 1]")
    if n_samples < 0:
        raise ValueError("n_samples must be >= 0")
    if prior in (0.0, 1.0):
        return prior
    gap = rates.out_up - rates.out_down
    return _sigmoid(_logit(prior) + n_samples * sample_period * gap)


def marginal_likelihood(prior: float, t_obs: float, rates: RateSet) -> float:
    """Probability of observing no blip for t_obs, averaged over the prior.

    Equals p * exp(-out_down * t) + (1 - p) * exp(-out_up * t); long silent
    records become increasingly rare.
    """
    if t_obs < 0.0:
        raise ValueError("t_obs must be >= 0")
    return prior * math.exp(-rates.out_down * t_obs) + (1.0 - prior) * math.exp(
        -rates.out_up * t_obs
    )


def optimal_read_time(rates: RateSet) -> tuple[float, float]:
    """Observation time maximizing the spin readout contrast, and its value.

    The contrast exp(-out_down t) - exp(-out_up t) peaks at
    t* = ln(out_up / out_down) / (out_up - out_down).
    """
    if rates.out_up <= rates.out_down:
        raise ValueError("requires out_up > out_down")
    if rates.out_down <= 0.0:
        # Degenerate limit: contrast -> 1 as t -> infinity.
        raise ValueError("requires out_down > 0 for a finite optimum")
    gap = rates.out_up - rates.out_down
    t_star = math.log(rates.out_up / rates.out_down) / gap
    contrast = math.exp(-rates.out_down * t_star) - math.exp(-rates.out_up * t_star)
    return t_star, contrast


def corrected_posterior(
    p_no_miss: float, p_miss: float, z: float = 1.0
) -> tuple[float, float]:
    """Adjust a silent-record posterior for undetectable tunneling events.

    A missed event replaces the electron without resetting the counter, so
    the delivered spin-down probability drops below the ideal posterior.
    Returns the conservative estimate p - P_M (worst case, clamped at 0) and
    the bound p - Z * P_M, where Z in [0, 1] measures how much a miss
    actually costs; the bound is never below the conservative value.
    """
    if not (0.0 <= p_no_miss <= 1.0):
        raise ValueError("p_no_miss must be in [0, 1]")
    if not (0.0 <= p_miss <= 1.0):
        raise ValueError("p_miss must be in [0, 1]")
    if not (0.0 <= z <= 1.0):
        raise ValueError("z must be in [0, 1]")
    conservative = max(p_no_miss - p_miss, 0.0)
    bound = max(p_no_miss - z * p_miss, 0.0)
    return conservative, bound
