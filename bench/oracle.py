"""Closed forms the benchmark checks spindemon's outputs against.

Everything here is derived from the model equations in this file, not
imported from spindemon, so a fault shared by the program and its own
closed forms still shows:

    f(E)        = 1 / (1 + exp(E / (k_B T)))                  Fermi occupation
    E_up/down   = mu_D +/- E_Z / 2,   E_Z = h * gamma * B
    in_up       = chi * G0 * f(E_up)      out_up   = chi * G0 * (1 - f(E_up))
    in_down     =       G0 * f(E_down)    out_down =       G0 * (1 - f(E_down))
    prior       = in_down / (in_up + in_down)                 loading prior
    posterior   = 1 / (1 + ((1 - p) / p) * exp(-t_obs (out_up - out_down)))
    t_rise      = -ln(1 - S_th) / (2 pi f_c)
    P_miss      = 1 - exp(-t_rise * (in_up + in_down))

Statistical checks use exact binomial tails at K_SIGMA standard deviations
(see README.md for how K_SIGMA was set).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# CODATA 2018 exact constants: k_B = 8.617333262e-5 eV/K, h = 4.135667696e-15 eV s.
BOLTZMANN_UEV_PER_K = 8.617333262e-5 * 1e6
PLANCK_UEV_S = 4.135667696e-15 * 1e6

K_SIGMA = 5.0
# One-sided Gaussian tail beyond K_SIGMA; each binomial tail must exceed it.
ALPHA = 0.5 * math.erfc(K_SIGMA / math.sqrt(2.0))


@dataclass(frozen=True)
class Device:
    """Operating-point inputs shared by the generated configs and the checks."""

    temperature_k: float
    asymmetry: float
    b_field_t: float
    gyromagnetic_ghz_per_t: float
    in_total_per_s: float
    cutoff_hz: float
    threshold: float
    sample_period_s: float
    latency_s: float

    @property
    def splitting_uev(self) -> float:
        return PLANCK_UEV_S * self.gyromagnetic_ghz_per_t * 1e9 * self.b_field_t


@dataclass(frozen=True)
class Rates:
    out_up: float
    out_down: float
    in_up: float
    in_down: float

    @property
    def in_total(self) -> float:
        return self.in_up + self.in_down

    @property
    def prior(self) -> float:
        return self.in_down / (self.in_up + self.in_down)


def fermi(energy_uev: float, temperature_k: float) -> float:
    x = energy_uev / (BOLTZMANN_UEV_PER_K * temperature_k)
    if x > 0.0:
        e = math.exp(-x)
        return e / (1.0 + e)
    return 1.0 / (1.0 + math.exp(x))


def _occupations(dev: Device, mu_uev: float) -> tuple[float, float]:
    half = 0.5 * dev.splitting_uev
    return fermi(mu_uev + half, dev.temperature_k), fermi(mu_uev - half, dev.temperature_k)


def potential_for_prior(dev: Device, prior: float) -> float:
    """Donor potential (ueV) whose loading prior equals ``prior``, by bisection.

    The prior rises monotonically from 1 / (1 + chi) deep in the loaded
    regime towards 1 on the empty side, so bisection on a wide bracket
    converges to the unique root.
    """

    def prior_at(mu: float) -> float:
        return rates(dev, mu, 1.0).prior  # independent of the base rate

    lo, hi = -40.0 * dev.splitting_uev, 40.0 * dev.splitting_uev
    if not (prior_at(lo) <= prior <= prior_at(hi)):
        raise ValueError(f"prior {prior} outside the reachable range")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if prior_at(mid) < prior:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def base_rate(dev: Device, mu_uev: float) -> float:
    """Spin-down base rate G0 giving the device's total loading rate at mu."""
    f_up, f_down = _occupations(dev, mu_uev)
    return dev.in_total_per_s / (dev.asymmetry * f_up + f_down)


def rates(dev: Device, mu_uev: float, g0: float) -> Rates:
    f_up, f_down = _occupations(dev, mu_uev)
    chi = dev.asymmetry
    return Rates(
        out_up=chi * g0 * (1.0 - f_up),
        out_down=g0 * (1.0 - f_down),
        in_up=chi * g0 * f_up,
        in_down=g0 * f_down,
    )


def posterior(prior: float, t_obs: float, rate_gap: float) -> float:
    """Spin-down probability after t_obs of silence; rate_gap = out_up - out_down."""
    return 1.0 / (1.0 + (1.0 - prior) / prior * math.exp(-t_obs * rate_gap))


def rise_time(cutoff_hz: float, threshold: float) -> float:
    return -math.log(1.0 - threshold) / (2.0 * math.pi * cutoff_hz)


def p_miss(t_rise: float, in_total: float) -> float:
    return -math.expm1(-t_rise * in_total)


def _phi(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def two_gaussian_overlap(m1: float, s1: float, m2: float, s2: float) -> float:
    """Integral over the real line of min(N(m1, s1), N(m2, s2)).

    The densities cross where their log-ratio, a quadratic in x, is zero;
    between crossings the smaller density is one Gaussian throughout, so
    the integral is a sum of erf differences.
    """
    a = 0.5 / s2**2 - 0.5 / s1**2
    b = m1 / s1**2 - m2 / s2**2
    c = 0.5 * m2**2 / s2**2 - 0.5 * m1**2 / s1**2 + math.log(s2 / s1)
    if abs(a) < 1e-15 * max(1.0 / s1**2, 1.0 / s2**2):
        crossings = [-c / b]
    else:
        root = math.sqrt(b * b - 4.0 * a * c)
        crossings = sorted([(-b - root) / (2.0 * a), (-b + root) / (2.0 * a)])
    bounds = [-math.inf, *crossings, math.inf]
    total = 0.0
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        probe = (lo + hi) / 2.0 if math.isfinite(lo) and math.isfinite(hi) else (
            hi - 1.0 if math.isfinite(hi) else lo + 1.0
        )
        log1 = -0.5 * ((probe - m1) / s1) ** 2 - math.log(s1)
        log2 = -0.5 * ((probe - m2) / s2) ** 2 - math.log(s2)
        m, s = (m1, s1) if log1 < log2 else (m2, s2)
        total += _phi((hi - m) / s) - _phi((lo - m) / s)
    return total


def binomial_consistent(successes: int, trials: int, p_low: float, p_high: float) -> bool:
    """Whether ``successes`` of ``trials`` is compatible with p in [p_low, p_high].

    Exact binomial tails: the count must not lie in the lower tail of
    Binomial(trials, p_low) nor in the upper tail of Binomial(trials,
    p_high) beyond ALPHA.  Exact tails keep the false-alarm rate at ALPHA
    even where p is near 0 or 1 and a Gaussian k-sigma band would not.
    """
    from scipy.special import bdtr, bdtrc

    p_low = min(max(p_low, 0.0), 1.0)
    p_high = min(max(p_high, 0.0), 1.0)
    lower_tail = 1.0 if successes >= trials else float(bdtr(successes, trials, p_low))
    upper_tail = 1.0 if successes <= 0 else float(bdtrc(successes - 1, trials, p_high))
    return lower_tail >= ALPHA and upper_tail >= ALPHA
