"""Simulator and estimation toolkit for spin-qubit initialization monitored
in real time through spin-dependent tunneling.

The package models the full chain: stochastic donor charge trajectories, the
amplifier/digitizer front end, the silent-sample trigger logic, the Bayesian
posterior it realizes, and the fidelity analysis built on top (sweeps, curve
fits, effective temperature, ancilla verification budget).
"""

__version__ = "0.1.0"

from .ancilla import (
    ControlParams,
    FidelityBudget,
    NuclearHistogram,
    QndParams,
    VisibilityResult,
    control_fidelity,
    qnd_fidelity,
    simulate_nuclear_histogram,
    total_fidelity,
    visibility,
)
from .demon import (
    DemonConfig,
    batch_posterior,
    corrected_posterior,
    likelihood_no_blip,
    marginal_likelihood,
    optimal_read_time,
)
from .fitting import FitConvergenceError, FitResult, fidelity_model, fit_fidelity_curve
from .harness import (
    ExperimentConfig,
    ShotRecord,
    SweepResult,
    SweepSpec,
    run_initialization_shot,
    sweep_bias,
    sweep_tobs,
)
from .physics import (
    RateSet,
    TunnelModelParams,
    bare_init_fidelity_from_chi,
    bare_init_fidelity_from_rates,
    build_rates,
    donor_potential_for_prior,
    effective_temperature,
    extract_chi,
    fermi_occupation,
)
from .telegraph import (
    AmplifierParams,
    DonorState,
    ProjectionScenario,
    missed_blip_probability,
    projection_999,
    rise_time,
)
