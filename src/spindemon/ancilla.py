"""Fidelity budget of the ancilla-based verification chain.

The prepared electron state is mapped onto a nuclear ancilla by a resonant
pi-pulse and read back repetitively in quantum nondemolition mode.  This
module provides the closed-form control and readout fidelities, a binomial
simulator for the repetitive-readout histograms, and the Gaussian-overlap
visibility extracted from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ControlParams:
    """Resonant-drive pulse parameters.

    Exactly one of pulse_duration or rotation_error must be given: either
    the pulse length in seconds, or the rotation-angle error sigma (rad)
    relative to a perfect pi rotation.

    Attributes:
        drive_strength: drive amplitude in Hz (> 0).
        detuning: drive-resonance mismatch in Hz.
        pulse_duration: pulse length in seconds, or None.
        rotation_error: angle error sigma in radians, or None.
    """

    drive_strength: float
    detuning: float = 0.0
    pulse_duration: float | None = None
    rotation_error: float | None = None

    def __post_init__(self):
        if self.drive_strength <= 0.0:
            raise ValueError("drive_strength must be > 0")
        if (self.pulse_duration is None) == (self.rotation_error is None):
            raise ValueError("give exactly one of pulse_duration or rotation_error")

    @property
    def rabi_frequency(self) -> float:
        """Generalized Rabi frequency sqrt(drive^2 + detuning^2) in Hz."""
        return math.hypot(self.drive_strength, self.detuning)


@dataclass(frozen=True)
class QndParams:
    """Repetitive-readout disturbance model.

    Attributes:
        flip_probability: chance a single electron tunneling event flips the
            ancilla (per event).
        shots_per_read: electron readouts averaged per ancilla read (>= 1).
    """

    flip_probability: float
    shots_per_read: int

    def __post_init__(self):
        if not (0.0 <= self.flip_probability <= 1.0):
            raise ValueError("flip_probability must be in [0, 1]")
        if self.shots_per_read < 1:
            raise ValueError("shots_per_read must be >= 1")


@dataclass(frozen=True)
class FidelityBudget:
    """Stage fidelities and their product for the full verification chain."""

    f_init: float
    f_control: float
    f_readout: float
    f_total: float

    def __post_init__(self):
        for value in (self.f_init, self.f_control, self.f_readout, self.f_total):
            if not (0.0 <= value <= 1.0):
                raise ValueError("fidelities must be in [0, 1]")
        if abs(self.f_total - self.f_init * self.f_control * self.f_readout) > 1e-12:
            raise ValueError("f_total must equal the product of the stages")


def control_fidelity(params: ControlParams) -> float:
    """Probability the mapping pulse performs the intended flip.

    Rabi formula: (drive^2 / (drive^2 + detuning^2)) * sin^2(theta / 2),
    where theta is the rotation angle.  With a pulse duration the angle is
    2 * pi * rabi_frequency * t; with a rotation error it is pi + sigma,
    symmetric in the sign of sigma.
    """
    amp = params.drive_strength**2 / (params.drive_strength**2 + params.detuning**2)
    if params.rotation_error is not None:
        theta = math.pi + params.rotation_error
    else:
        theta = 2.0 * math.pi * params.rabi_frequency * params.pulse_duration
    return amp * math.sin(0.5 * theta) ** 2


def qnd_fidelity(params: QndParams) -> float:
    """Probability the ancilla survives one full read undisturbed: (1-p)^n."""
    return (1.0 - params.flip_probability) ** params.shots_per_read


def total_fidelity(f_init: float, f_control: float, f_readout: float) -> FidelityBudget:
    """Combine the three stage fidelities into the experiment total."""
    return FidelityBudget(
        f_init=f_init,
        f_control=f_control,
        f_readout=f_readout,
        f_total=f_init * f_control * f_readout,
    )


@dataclass
class NuclearHistogram:
    """Simulated repetitive-readout record.

    up_fractions holds the electron-up fraction of each ancilla read;
    nuclear_up the true ancilla state behind each read.
    """

    up_fractions: np.ndarray
    nuclear_up: np.ndarray
    shots_per_read: int

    def histogram(self) -> tuple[np.ndarray, np.ndarray]:
        """Counts of each possible fraction k / shots_per_read, with those
        fractions as bin centres."""
        n = self.shots_per_read
        counts = np.bincount(np.rint(self.up_fractions * n).astype(np.int64), minlength=n + 1)
        return np.arange(n + 1) / n, counts


def simulate_nuclear_histogram(
    p_up_given_nuclear_up: float,
    p_up_given_nuclear_down: float,
    shots_per_read: int,
    reads: int,
    seed=None,
) -> NuclearHistogram:
    """Draw repetitive-readout up-fractions for a mixed ancilla ensemble.

    Each read picks an ancilla state (50/50), then draws a binomial
    electron-up count with the matching conditional probability.  The mode
    positions are illustrative defaults; the device values behind the real
    distributions are not published.
    """
    for p in (p_up_given_nuclear_up, p_up_given_nuclear_down):
        if not (0.0 <= p <= 1.0):
            raise ValueError("conditional probabilities must be in [0, 1]")
    if not (1 <= shots_per_read < 2**63 and 1 <= reads < 2**63):  # numpy's int64 counts
        raise ValueError("shots_per_read and reads must be >= 1 and < 2**63")
    rng = np.random.default_rng(seed)
    nuclear_up = rng.random(reads) < 0.5
    p_per_read = np.where(nuclear_up, p_up_given_nuclear_up, p_up_given_nuclear_down)
    counts = rng.binomial(shots_per_read, p_per_read)
    return NuclearHistogram(
        up_fractions=counts / shots_per_read,
        nuclear_up=nuclear_up,
        shots_per_read=shots_per_read,
    )


@dataclass(frozen=True)
class VisibilityResult:
    """Two-mode separation figures extracted from an up-fraction record."""

    visibility: float
    overlap: float
    f_low: float
    f_high: float
    mean_low: float
    mean_high: float
    std_low: float
    std_high: float


def _gauss_mass(lo: float, hi: float, mean: float, std: float) -> float:
    """Probability of N(mean, std) on [lo, hi]; erfc keeps the tails exact."""
    a, b = ((x - mean) / (std * math.sqrt(2.0)) for x in (lo, hi))
    if a > 0.0:
        return 0.5 * (math.erfc(a) - math.erfc(b))
    if b < 0.0:
        return 0.5 * (math.erfc(-b) - math.erfc(-a))
    return 0.5 * (math.erf(b) - math.erf(a))


def _gauss_overlap(m1: float, s1: float, m2: float, s2: float) -> float:
    """Integral over [0, 1] of the smaller of the densities N(m1, s1), N(m2, s2).

    The log-ratio of the densities is a quadratic a x^2 + b x + c; its roots
    are where they cross.  Between crossings one density is the smaller
    throughout, so the integral is a sum of CDF differences.
    """
    a = 0.5 / s2**2 - 0.5 / s1**2
    b = m1 / s1**2 - m2 / s2**2
    c = 0.5 * m2**2 / s2**2 - 0.5 * m1**2 / s1**2 + math.log(s2 / s1)
    crossings = []
    disc = b * b - 4.0 * a * c
    if disc >= 0.0 and (a or b):
        q = -0.5 * (b + math.copysign(math.sqrt(disc), b))  # no cancellation
        crossings = [c / q] + ([q / a] if a else [])
    edges = [0.0, *sorted(x for x in crossings if 0.0 < x < 1.0), 1.0]
    total = 0.0
    for lo, hi in zip(edges, edges[1:]):
        mid = 0.5 * (lo + hi)
        log1 = -0.5 * ((mid - m1) / s1) ** 2 - math.log(s1)
        log2 = -0.5 * ((mid - m2) / s2) ** 2 - math.log(s2)
        m, s = (m1, s1) if log1 < log2 else (m2, s2)
        total += _gauss_mass(lo, hi, m, s)
    return min(max(total, 0.0), 1.0)


def visibility(data, threshold: float) -> VisibilityResult:
    """Fit one Gaussian per side of the threshold and measure their overlap.

    The two profiles are fit by sample moments, the overlap is the integral
    of min(g_low, g_high) over the fraction axis [0, 1], in closed form, and
    the visibility is 1 minus that overlap.  f_low / f_high are the
    threshold-classification fidelities of each side's own fitted mode,
    exactly 1 for a degenerate side; a degenerate side overlaps nothing.

    Args:
        data: NuclearHistogram or array of up-fractions.
        threshold: classification boundary on the fraction axis.

    Raises:
        ValueError: if either side of the threshold is empty (not bimodal).
    """
    fractions = data.up_fractions if isinstance(data, NuclearHistogram) else np.asarray(data)
    low = fractions[fractions <= threshold]
    high = fractions[fractions > threshold]
    if len(low) == 0 or len(high) == 0:
        raise ValueError("data is not bimodal about the threshold; fit failed")
    mean_low, std_low = float(np.mean(low)), float(np.std(low))
    mean_high, std_high = float(np.mean(high)), float(np.std(high))

    def fidelity(mean: float, std: float, side: float) -> float:
        """Share of a fitted mode on its own side of the threshold: all of a
        degenerate (delta-like) one."""
        if std < 1e-12:
            return 1.0
        return 0.5 * (1.0 + side * math.erf((threshold - mean) / (std * math.sqrt(2.0))))

    # A degenerate mode overlaps nothing: min(delta, g) integrates to 0.
    overlap = (0.0 if min(std_low, std_high) < 1e-12
               else _gauss_overlap(mean_low, std_low, mean_high, std_high))
    f_low, f_high = fidelity(mean_low, std_low, 1.0), fidelity(mean_high, std_high, -1.0)
    return VisibilityResult(
        visibility=1.0 - overlap,
        overlap=overlap,
        f_low=f_low,
        f_high=f_high,
        mean_low=mean_low,
        mean_high=mean_high,
        std_low=std_low,
        std_high=std_high,
    )
