"""Reference views of the demon that the tests check the program against.

The package computes the posterior in one closed form
(``spindemon.demon.batch_posterior``) and counts silent samples inline in
the shot engine.  The views here are independent routes to the same
numbers:

- a counter-only trigger, stepped one sample at a time, and a window scan
  that finds the same trigger sample without counting;
- the sequential Bayes update, one silent sample at a time;
- the conditional (no-tunneling) evolution of the occupation vector;
- the three-state master equation, propagated by matrix exponential.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from spindemon.demon import likelihood_no_blip
from spindemon.physics import RateSet, bare_init_fidelity_from_rates
from spindemon.telegraph import DonorState


def trigger_tick(counter: int, blip: bool, n_required: int) -> tuple[int, bool]:
    """One sample through the counter-only demon; return (counter, fired).

    A blip clears the counter and a silent sample increments it.  The demon
    fires on the sample that brings the counter to ``n_required`` and
    re-arms with the counter at zero.
    """
    if blip:
        return 0, False
    counter += 1
    if counter >= n_required:
        return 0, True
    return counter, False


def first_trigger(blips, n_required: int) -> int | None:
    """1-based index of the sample at which the counter-only demon fires."""
    counter = 0
    for n, blip in enumerate(blips, start=1):
        counter, fired = trigger_tick(counter, bool(blip), n_required)
        if fired:
            return n
    return None


def window_scan_trigger(blips, n_required: int) -> int | None:
    """1-based index of the first sample that ends n_required silent samples,
    found by testing every window of that length."""
    for end in range(n_required, len(blips) + 1):
        if not any(blips[end - n_required : end]):
            return end
    return None


@dataclass(frozen=True)
class PosteriorState:
    """Spin-down belief after a number of silent samples.

    Attributes:
        p_down: posterior spin-down probability.
        samples_seen: number of consecutive silent samples incorporated.
        t_obs: observation time samples_seen * T_s in seconds.
    """

    p_down: float
    samples_seen: int = 0
    t_obs: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.p_down <= 1.0):
            raise ValueError(f"p_down must be in [0, 1], got {self.p_down}")
        if self.samples_seen < 0:
            raise ValueError("samples_seen must be >= 0")


def posterior_step(
    prev: PosteriorState,
    blip: bool,
    rates: RateSet,
    sample_period: float,
    reload_prior: float | None = None,
) -> PosteriorState:
    """One Bayes update of the spin-down belief.

    A silent sample reweights the belief by the no-blip likelihoods of each
    spin.  A blip projects the electron out of the donor: the previous
    state is lost, a fresh electron reloads, and the belief resets to the
    reload prior (by default the loading-rate fraction of ``rates``) with
    the sample counter cleared.
    """
    if blip:
        if reload_prior is None:
            reload_prior = bare_init_fidelity_from_rates(rates)
        return PosteriorState(p_down=reload_prior, samples_seen=0, t_obs=0.0)
    p = prev.p_down
    if p in (0.0, 1.0):
        updated = p  # certainty is a fixed point of the update
    else:
        like_down = likelihood_no_blip(DonorState.DOWN, rates, sample_period)
        like_up = likelihood_no_blip(DonorState.UP, rates, sample_period)
        updated = like_down * p / (like_down * p + like_up * (1.0 - p))
    n = prev.samples_seen + 1
    return PosteriorState(p_down=updated, samples_seen=n, t_obs=n * sample_period)


@dataclass(frozen=True)
class ConditionalDensity:
    """Normalized occupation vector (p_up, p_down, p_ionized)."""

    p_up: float
    p_down: float
    p_ionized: float = 0.0

    def __post_init__(self):
        for value in (self.p_up, self.p_down, self.p_ionized):
            if value < -1e-12:
                raise ValueError("occupations must be >= 0")
        total = self.p_up + self.p_down + self.p_ionized
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"occupations must sum to 1, got {total}")


def conditional_evolution(
    rho0: ConditionalDensity, rates: RateSet, t_obs: float
) -> ConditionalDensity:
    """State after observing no tunneling for t_obs, renormalized.

    With no spin flips, the loaded components decay independently and the
    conditional state is proportional to
        ((1 - p) exp(-out_up t), p exp(-out_down t), 0).
    The calculation is shifted by the slower rate so arbitrarily long times
    stay finite.
    """
    if rates.relax != 0.0 or rates.excite != 0.0:
        raise ValueError("conditional evolution requires zero spin-flip rates")
    if abs(rho0.p_ionized) > 1e-12:
        raise ValueError("conditional evolution starts from a loaded state")
    if t_obs < 0.0:
        raise ValueError("t_obs must be >= 0")
    shift = min(rates.out_up, rates.out_down) * t_obs
    a = rho0.p_up * math.exp(-(rates.out_up * t_obs - shift))
    b = rho0.p_down * math.exp(-(rates.out_down * t_obs - shift))
    norm = a + b
    if norm <= 0.0:
        raise ValueError("conditional state vanished; degenerate input")
    return ConditionalDensity(p_up=a / norm, p_down=b / norm, p_ionized=0.0)


def liouvillian(rates: RateSet) -> np.ndarray:
    """Generator matrix of the three-state master equation.

    Basis order (up, down, ionized); columns sum to zero, so probability is
    conserved.
    """
    return np.array(
        [
            [-rates.relax - rates.out_up, rates.excite, rates.in_up],
            [rates.relax, -rates.out_down - rates.excite, rates.in_down],
            [rates.out_up, rates.out_down, -rates.in_up - rates.in_down],
        ]
    )


def unconditioned_evolution(rho0, rates: RateSet, t: float) -> np.ndarray:
    """Propagate an occupation vector for time t under the full generator.

    Uses the matrix exponential of the 3x3 Liouvillian (scaling-and-squaring);
    spin relaxation/excitation rates are honored.
    """
    rho0 = np.asarray(rho0, dtype=float)
    if rho0.shape != (3,):
        raise ValueError("rho0 must be a 3-vector")
    if t < 0.0:
        raise ValueError("t must be >= 0")
    return expm(liouvillian(rates) * t) @ rho0
