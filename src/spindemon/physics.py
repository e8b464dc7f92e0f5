"""Closed-form physics of a donor spin tunnel-coupled to a warm electron
reservoir.

The model has four tunnel rates between the loaded spin states and the
ionized state.  Loading rates follow Fermi's golden rule with the reservoir
occupation f(E) and a phenomenological spin asymmetry chi multiplying the
spin-up channel; unloading rates use the empty-state factor 1 - f(E) with
the same chi and base rate.  The spin levels sit symmetrically about the
donor potential, E_up/down = mu_D +/- E_Z / 2.  Energies are in
micro-electronvolts (ueV), temperatures in kelvin, rates in 1/s, magnetic
fields in tesla and gyromagnetic ratios in GHz/T.  All unit conversions
live here, so the rest of the code never repeats them.

Everything here is a pure function of value inputs and safe to call from
any number of threads or processes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# CODATA exact values, re-expressed:
#   k_B = 1.380649e-23 J/K / 1.602176634e-19 J/eV = 8.617333262e-5 eV/K
#   h   = 6.62607015e-34 J*s / 1.602176634e-19 J/eV = 4.135667696e-15 eV*s
BOLTZMANN_UEV_PER_K = 86.17333262  # k_B in ueV per kelvin
PLANCK_UEV_PER_GHZ = 4.135667696e-9 * 1e9  # h * 1 GHz in ueV

# Guarded bounds so occupations never round to exactly 0 or 1 for finite
# arguments (the rate model divides by both f and 1 - f).
_OCC_FLOOR = math.nextafter(0.0, 1.0)
_OCC_CEIL = math.nextafter(1.0, 0.0)

# Search cap for the effective-temperature inversion; above this the
# occupation ratio is flat to double precision and the inversion saturates.
TEMPERATURE_CAP_K = 1000.0


@dataclass(frozen=True)
class ReservoirParams:
    """Fermi reservoir supplying and absorbing the donor electron.

    Attributes:
        temperature: electron temperature in K, strictly positive.
        fermi_level: Fermi energy in ueV, conventionally 0.
    """

    temperature: float
    fermi_level: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.temperature) and self.temperature > 0.0):
            raise ValueError(f"temperature must be finite and > 0, got {self.temperature}")
        if not math.isfinite(self.fermi_level):
            raise ValueError("fermi_level must be finite")


@dataclass(frozen=True)
class ZeemanParams:
    """Static field and gyromagnetic ratio setting the spin splitting.

    Attributes:
        b_field: magnetic field in tesla (>= 0).
        gyromagnetic_ratio: in GHz/T; 28 is the silicon-electron value.
    """

    b_field: float
    gyromagnetic_ratio: float = 28.0

    def __post_init__(self):
        if not (math.isfinite(self.b_field) and self.b_field >= 0.0):
            raise ValueError(f"b_field must be finite and >= 0, got {self.b_field}")
        if not (math.isfinite(self.gyromagnetic_ratio) and self.gyromagnetic_ratio > 0.0):
            raise ValueError("gyromagnetic_ratio must be finite and > 0")

    @property
    def splitting(self) -> float:
        """Spin energy splitting h * gamma * B in ueV."""
        return PLANCK_UEV_PER_GHZ * self.gyromagnetic_ratio * self.b_field


@dataclass(frozen=True)
class TunnelModelParams:
    """Inputs of the spin-dependent tunnel-rate model.

    The reservoir density of states and tunneling matrix elements are not
    represented individually; their spin ratio is absorbed into the
    dimensionless asymmetry (conventionally written chi) and their overall
    magnitude into base_rate_down.

    Attributes:
        base_rate_down: spin-down base tunnel rate in 1/s (> 0).
        asymmetry: spin-up to spin-down coupling ratio chi (> 0).
        donor_potential: donor electrochemical potential mu_D in ueV,
            relative to the reservoir Fermi level.
        zeeman: field parameters; the splitting must be positive.
        reservoir: reservoir temperature and Fermi level.
    """

    base_rate_down: float
    asymmetry: float
    donor_potential: float
    zeeman: ZeemanParams
    reservoir: ReservoirParams

    def __post_init__(self):
        if not (math.isfinite(self.base_rate_down) and self.base_rate_down > 0.0):
            raise ValueError("base_rate_down must be finite and > 0")
        if not (math.isfinite(self.asymmetry) and self.asymmetry > 0.0):
            raise ValueError("asymmetry must be finite and > 0")
        if not math.isfinite(self.donor_potential):
            raise ValueError("donor_potential must be finite")
        if self.zeeman.splitting <= 0.0:
            raise ValueError("zeeman splitting must be > 0 for the rate model")

    @property
    def level_up(self) -> float:
        """Spin-up level energy mu_D + E_Z / 2 in ueV."""
        return self.donor_potential + 0.5 * self.zeeman.splitting

    @property
    def level_down(self) -> float:
        """Spin-down level energy mu_D - E_Z / 2 in ueV."""
        return self.donor_potential - 0.5 * self.zeeman.splitting


@dataclass(frozen=True)
class RateSet:
    """The four tunnel rates plus optional intra-spin relaxation rates.

    All rates in 1/s.  ``relax`` is the up-to-down rate, ``excite`` the
    down-to-up rate; both default to zero, which is the regime where the
    tunnel rates dominate.
    """

    out_up: float
    out_down: float
    in_up: float
    in_down: float
    relax: float = 0.0
    excite: float = 0.0

    def __post_init__(self):
        for name in ("out_up", "out_down", "in_up", "in_down", "relax", "excite"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be finite and >= 0, got {value}")

    @property
    def in_total(self) -> float:
        """Total loading rate in 1/s; sets the mean ionized dwell time."""
        return self.in_up + self.in_down


def _sigmoid(z: float) -> float:
    """1 / (1 + exp(-z)), in the branch whose exp cannot overflow."""
    if z >= 0.0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def fermi_occupation(energy: float, reservoir: ReservoirParams) -> float:
    """Occupation probability of a reservoir state at the given energy.

    Evaluates 1 / (1 + exp((E - E_F) / (k_B T))) with overflow-safe
    branching, clamped away from exactly 0 and 1 so downstream ratios stay
    finite.

    Args:
        energy: state energy in ueV.
        reservoir: reservoir parameters.

    Returns:
        Occupation in the open interval (0, 1).
    """
    if not math.isfinite(energy):
        raise ValueError(f"energy must be finite, got {energy}")
    x = (energy - reservoir.fermi_level) / (BOLTZMANN_UEV_PER_K * reservoir.temperature)
    return min(max(_sigmoid(-x), _OCC_FLOOR), _OCC_CEIL)


def build_rates(params: TunnelModelParams) -> RateSet:
    """Construct the four tunnel rates from the asymmetry model.

    Loading uses the occupation f at each spin level, unloading the empty
    fraction 1 - f, with the spin-up channel scaled by the asymmetry:

        in_up    = chi * G0 * f(E_up)        out_up   = chi * G0 * (1 - f(E_up))
        in_down  =       G0 * f(E_down)      out_down =       G0 * (1 - f(E_down))
    """
    f_up = fermi_occupation(params.level_up, params.reservoir)
    f_down = fermi_occupation(params.level_down, params.reservoir)
    g0 = params.base_rate_down
    chi = params.asymmetry
    return RateSet(
        out_up=chi * g0 * (1.0 - f_up),
        out_down=g0 * (1.0 - f_down),
        in_up=chi * g0 * f_up,
        in_down=g0 * f_down,
    )


def bare_init_fidelity_from_rates(rates: RateSet) -> float:
    """Probability that a freshly loaded electron is spin-down.

    This is the initialization fidelity with no real-time monitoring,
    in_down / (in_down + in_up).
    """
    total = rates.in_down + rates.in_up
    if total <= 0.0:
        raise ValueError("at least one loading rate must be positive")
    return rates.in_down / total


def bare_init_fidelity_from_chi(
    chi: float,
    splitting: float,
    reservoir: ReservoirParams,
    donor_potential: float = 0.0,
) -> float:
    """No-monitoring initialization fidelity from the asymmetry model.

    Equals 1 / (1 + chi * f(E_up) / f(E_down)) with the spin levels at
    mu_D +/- E_Z / 2.  Algebraically identical to
    ``bare_init_fidelity_from_rates(build_rates(...))``.
    """
    if chi <= 0.0:
        raise ValueError("chi must be > 0")
    f_up = fermi_occupation(donor_potential + 0.5 * splitting, reservoir)
    f_down = fermi_occupation(donor_potential - 0.5 * splitting, reservoir)
    return 1.0 / (1.0 + chi * f_up / f_down)


def effective_temperature(
    fidelity_target: float,
    chi: float,
    splitting: float,
    fermi_level: float = 0.0,
    tolerance_k: float = 1e-4,
) -> float:
    """Reservoir temperature whose Fermi statistics yield a given bare fidelity.

    Inverts ``bare_init_fidelity_from_chi`` at mu_D = 0 by bisection.  The
    fidelity is strictly decreasing in temperature from 1 (T -> 0) to
    1 / (1 + chi) (T -> infinity), so the inverse is unique.  The search is
    capped at ``TEMPERATURE_CAP_K``; targets only reachable beyond the cap
    return the cap (saturation) rather than diverging.

    Args:
        fidelity_target: bare fidelity to invert, strictly inside
            (1 / (1 + chi), 1).
        chi: spin asymmetry (> 0).
        splitting: spin splitting in ueV (> 0).
        fermi_level: reservoir Fermi level in ueV.
        tolerance_k: absolute bisection tolerance in K (default 0.1 mK).

    Returns:
        Temperature in K, capped at ``TEMPERATURE_CAP_K``.

    Raises:
        ValueError: if the target lies outside the attainable range.
    """
    if chi <= 0.0:
        raise ValueError("chi must be > 0")
    if splitting <= 0.0:
        raise ValueError("splitting must be > 0")
    floor = 1.0 / (1.0 + chi)
    if not (floor < fidelity_target < 1.0):
        raise ValueError(
            f"fidelity_target {fidelity_target} outside attainable range "
            f"({floor}, 1) for chi={chi}"
        )

    def fidelity_at(temperature: float) -> float:
        res = ReservoirParams(temperature=temperature, fermi_level=fermi_level)
        return bare_init_fidelity_from_chi(chi, splitting, res, donor_potential=fermi_level)

    t_lo, t_hi = 1e-6, TEMPERATURE_CAP_K
    if fidelity_at(t_hi) >= fidelity_target:
        return TEMPERATURE_CAP_K
    # fidelity_at(t_lo) is 1 to double precision for any realistic splitting,
    # so the root is bracketed: f(t_lo) >= target > f(t_hi).
    while t_hi - t_lo > tolerance_k:
        t_mid = 0.5 * (t_lo + t_hi)
        if fidelity_at(t_mid) >= fidelity_target:
            t_lo = t_mid
        else:
            t_hi = t_mid
    return 0.5 * (t_lo + t_hi)


def extract_chi(bare_deep_plunge_fidelity: float) -> float:
    """Spin asymmetry implied by the deep-plunge no-monitoring fidelity.

    Deep in the loaded regime both spin occupations saturate, so the bare
    fidelity reduces to 1 / (1 + chi) and chi = (1 - F) / F.
    """
    if not (0.0 < bare_deep_plunge_fidelity < 1.0):
        raise ValueError("fidelity must lie strictly inside (0, 1)")
    return (1.0 - bare_deep_plunge_fidelity) / bare_deep_plunge_fidelity


def donor_potential_for_prior(params: TunnelModelParams, prior_target: float) -> float:
    """Donor potential at which the loading prior equals the target.

    The loading prior rises monotonically with decreasing potential between
    1 / (1 + chi) (deep plunge) and its empty-side limit, so a bisection of
    the closed form is exact.  Used to place a measured prior inside the
    rate model.
    """
    splitting = params.zeeman.splitting
    span = 40.0 * splitting
    lo, hi = -span, span

    def prior_at(mu: float) -> float:
        return bare_init_fidelity_from_chi(
            params.asymmetry, splitting, params.reservoir, donor_potential=mu
        )

    p_lo, p_hi = prior_at(lo), prior_at(hi)
    if not (min(p_lo, p_hi) <= prior_target <= max(p_lo, p_hi)):
        raise ValueError(
            f"prior {prior_target} unreachable: range [{min(p_lo, p_hi)}, {max(p_lo, p_hi)}]"
        )
    increasing = p_hi > p_lo
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if (prior_at(mid) < prior_target) == increasing:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
