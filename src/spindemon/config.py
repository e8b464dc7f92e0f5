"""Flat key = value configuration files for the command-line harness.

Lines hold one ``key = value`` pair each; ``#`` starts a comment and blank
lines are ignored.  Unknown keys are errors.  All keys, their units, and
their defaults:

    physics.temperature_k          reservoir electron temperature, K (0.26)
    physics.b_field_t              magnetic field, T (1.423)
    physics.gyromagnetic_ghz_per_t gyromagnetic ratio, GHz/T (28); only
                                   its product with the field, the spin
                                   splitting h * gamma * B, enters
    physics.asymmetry              spin-up/down coupling ratio chi (0.388)
    physics.donor_potential_uev    donor potential mu_D from the Fermi level, ueV (0)
    rates.in_total_per_s           total loading rate the base rate is
                                   calibrated to at the configured donor
                                   potential, 1/s (2700)
    amplifier.cutoff_hz            low-pass cutoff f_c, Hz (50e3)
    amplifier.threshold            blip threshold S_th in (0, 1) (0.3)
    amplifier.sample_period_s      digitizer period T_s, s (1e-5)
    demon.required_samples         silent samples needed to trigger (1000)
    demon.latency_s                trigger assertion latency, s (1e-7)
    run.shots                      shots per point (10000)
    run.master_seed                master RNG seed (1)
    run.workers                    most worker processes (1); runs too
                                   small to gain from a pool stay in
                                   one process
    run.abandon_factor             abandon after this multiple of t_obs (1000)
    run.noise_std                  additive sensor noise std (0 = off)
    run.detector                   'amplifier' or 'ideal' (amplifier)
    sweep.variable                 't_obs' or 'mu_d' (t_obs)
    sweep.grid                     comma-separated grid values; seconds for
                                   t_obs, ueV for mu_d
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import replace
from pathlib import Path

from .demon import DemonConfig
from .harness import ExperimentConfig, SweepSpec
from .physics import PLANCK_UEV_PER_GHZ, TunnelModelParams, build_rates
from .telegraph import AmplifierParams


class ConfigError(ValueError):
    """Malformed configuration file or option set (CLI exit code 2)."""


_DEFAULTS: dict[str, str] = {
    "physics.temperature_k": "0.26",
    "physics.b_field_t": "1.423",
    "physics.gyromagnetic_ghz_per_t": "28.0",
    "physics.asymmetry": "0.388",
    "physics.donor_potential_uev": "0.0",
    "rates.in_total_per_s": "2700.0",
    "amplifier.cutoff_hz": "50e3",
    "amplifier.threshold": "0.3",
    "amplifier.sample_period_s": "1e-5",
    "demon.required_samples": "1000",
    "demon.latency_s": "1e-7",
    "run.shots": "10000",
    "run.master_seed": "1",
    "run.workers": "1",
    "run.abandon_factor": "1000",
    "run.noise_std": "0.0",
    "run.detector": "amplifier",
    "sweep.variable": "t_obs",
    "sweep.grid": "1e-3,2e-3,3e-3,5e-3,7e-3,10e-3,15e-3,20e-3",
}


def parse_config_text(text: str) -> dict[str, str]:
    """Parse key = value lines into a raw string mapping."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in _DEFAULTS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = value
    return raw


def _as_float(values: dict[str, str], key: str) -> float:
    try:
        return float(values[key])
    except ValueError as exc:
        raise ConfigError(f"{key}: not a number: {values[key]!r}") from exc


def _as_int(values: dict[str, str], key: str) -> int:
    try:
        return int(values[key])
    except ValueError as exc:
        raise ConfigError(f"{key}: not an integer: {values[key]!r}") from exc


def build_experiment_config(raw: dict[str, str]) -> ExperimentConfig:
    """Resolve raw strings (plus defaults) into a validated ExperimentConfig."""
    values = dict(_DEFAULTS)
    values.update(raw)
    try:
        b_field = _as_float(values, "physics.b_field_t")
        gyromagnetic = _as_float(values, "physics.gyromagnetic_ghz_per_t")
        # Checked apart, since two negative values give a positive splitting.
        if not (b_field > 0.0 and gyromagnetic > 0.0):
            raise ConfigError("physics.b_field_t and physics.gyromagnetic_ghz_per_t must be > 0")
        physics = TunnelModelParams(
            base_rate_down=1.0,
            asymmetry=_as_float(values, "physics.asymmetry"),
            donor_potential=_as_float(values, "physics.donor_potential_uev"),
            splitting=PLANCK_UEV_PER_GHZ * gyromagnetic * b_field,
            temperature=_as_float(values, "physics.temperature_k"),
        )
        # Calibrate the unit base rate so the loading rate at the configured
        # potential matches the measured total; the potential can then be
        # swept with the base rate held fixed.
        target = _as_float(values, "rates.in_total_per_s")
        if not (math.isfinite(target) and target > 0.0):
            raise ConfigError("rates.in_total_per_s must be finite and > 0")
        physics = replace(physics, base_rate_down=target / build_rates(physics).in_total)
        amplifier = AmplifierParams(
            cutoff=_as_float(values, "amplifier.cutoff_hz"),
            threshold=_as_float(values, "amplifier.threshold"),
            sample_period=_as_float(values, "amplifier.sample_period_s"),
        )
        demon = DemonConfig(
            required_samples=_as_int(values, "demon.required_samples"),
            latency=_as_float(values, "demon.latency_s"),
        )
        grid = tuple(_as_float({"sweep.grid": part}, "sweep.grid")
                     for part in values["sweep.grid"].split(",") if part.strip())
        sweep = SweepSpec(variable=values["sweep.variable"].strip(), grid=grid)
        return ExperimentConfig(
            physics=physics,
            amplifier=amplifier,
            demon=demon,
            shots=_as_int(values, "run.shots"),
            master_seed=_as_int(values, "run.master_seed"),
            noise_std=_as_float(values, "run.noise_std"),
            sweep=sweep,
            workers=_as_int(values, "run.workers"),
            abandon_factor=_as_float(values, "run.abandon_factor"),
            detector=values["run.detector"].strip(),
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def config_hash(raw: dict[str, str]) -> str:
    """Stable digest of the effective configuration (defaults included)."""
    values = dict(_DEFAULTS)
    values.update(raw)
    canonical = "\n".join(f"{key}={values[key]}" for key in sorted(values))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def load_config(path: str | Path | None) -> tuple[ExperimentConfig, str]:
    """Read a config file (or use pure defaults) and return (config, hash)."""
    if path is None:
        raw: dict[str, str] = {}
    else:
        try:
            text = Path(path).read_text(encoding="utf-8-sig")  # a byte-order mark is no key
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        raw = parse_config_text(text)
    return build_experiment_config(raw), config_hash(raw)
