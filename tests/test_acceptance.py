"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured numbers (run with ``pytest tests/test_acceptance.py -v -s``).

All tolerances are fixed here, not tuned: closed-form values are checked to
1e-12 relative, quoted experimental values to their published rounding or
uncertainty, and Monte Carlo values to 3 sigma at the stated sample sizes.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from oracles import (
    ConditionalDensity,
    PosteriorState,
    conditional_evolution,
    first_trigger,
    liouvillian,
    posterior_step,
    window_scan_trigger,
)
from spindemon.ancilla import (
    ControlParams,
    QndParams,
    control_fidelity,
    qnd_fidelity,
    simulate_nuclear_histogram,
    total_fidelity,
    visibility,
)
from spindemon.demon import DemonConfig, batch_posterior, optimal_read_time
from spindemon.fitting import fidelity_model, fit_fidelity_curve
from spindemon.harness import (
    ExperimentConfig,
    SweepSpec,
    sweep_tobs,
)
from spindemon.output import build_metadata, write_sweep
from spindemon.physics import (
    RateSet,
    ReservoirParams,
    TunnelModelParams,
    ZeemanParams,
    bare_init_fidelity_from_rates,
    build_rates,
    donor_potential_for_prior,
    effective_temperature,
    extract_chi,
)
from spindemon.telegraph import (
    AmplifierParams,
    missed_blip_probability,
    projection_999,
    rise_time,
)

ZEEMAN = ZeemanParams(b_field=1.423)
AMP = AmplifierParams(cutoff=50e3, threshold=0.3, sample_period=1e-5)


def report(number: int, message: str) -> None:
    print(f"ACCEPTANCE {number}: PASS - {message}")


def random_rates(rng) -> RateSet:
    return RateSet(
        out_up=10 ** rng.uniform(0, 5),
        out_down=10 ** rng.uniform(0, 5),
        in_up=10 ** rng.uniform(0, 5),
        in_down=10 ** rng.uniform(0, 5),
    )


def operating_point() -> ExperimentConfig:
    """Measured operating point realized inside the rate model: electron
    temperature 260 mK, asymmetry 0.388, loading prior 0.78 (which pins the
    donor potential), loading total 2700/s, standard amplifier chain."""
    seed_params = TunnelModelParams(
        base_rate_down=1.0,
        asymmetry=0.388,
        donor_potential=0.0,
        zeeman=ZEEMAN,
        reservoir=ReservoirParams(temperature=0.26),
    )
    mu = donor_potential_for_prior(seed_params, 0.78)
    params = replace(seed_params, donor_potential=mu)
    params = replace(params, base_rate_down=2700.0 / build_rates(params).in_total)
    return ExperimentConfig(
        physics=params,
        amplifier=AMP,
        demon=DemonConfig(required_samples=2000),
        shots=100000,
        master_seed=2024,
        sweep=SweepSpec(variable="t_obs", grid=(20e-3,)),
    )


def test_criterion_1_batch_equals_conditional_evolution():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        rates = random_rates(rng)
        prior = rng.uniform(0.0, 1.0)
        n = int(rng.integers(0, 10001))
        ts = 10 ** rng.uniform(-6, -4)
        batch = batch_posterior(prior, n, rates, ts)
        cond = conditional_evolution(
            ConditionalDensity(p_up=1.0 - prior, p_down=prior), rates, n * ts
        )
        worst = max(worst, abs(batch - cond.p_down))
    elapsed = time.perf_counter() - start
    assert worst < 1e-10
    assert elapsed < 1.0
    report(1, f"max |batch - conditional| = {worst:.2e} over 1000 draws in {elapsed:.2f}s")


def test_criterion_2_rise_time_and_missed_blips():
    t_rise = rise_time(50e3, 0.3)
    exact = -math.log(1.0 - 0.3) / (2.0 * math.pi * 50e3)
    assert t_rise == pytest.approx(exact, rel=1e-12)
    assert t_rise == pytest.approx(1.135e-6, abs=5e-10)   # quoted ~1.1 us
    p_miss = missed_blip_probability(t_rise, 2700.0)
    assert p_miss == pytest.approx(-math.expm1(-exact * 2700.0), rel=1e-12)
    assert p_miss == pytest.approx(0.00306, abs=5e-6)     # quoted ~0.3%
    report(2, f"t_rise = {t_rise * 1e6:.4f} us, P_miss(2700/s) = {p_miss:.5f}")


def test_criterion_3_monte_carlo_plateau():
    cfg = operating_point()
    rates = cfg.rates
    assert cfg.load_prior == pytest.approx(0.78, abs=1e-9)
    assert rates.in_total == pytest.approx(2700.0, rel=1e-9)

    (row,) = sweep_tobs(cfg)
    assert row.n_abandoned == 0
    plateau = row.successes / row.n_triggered
    p_miss_sim = row.n_missed_subrise / row.n_ionizations
    p_miss_formula = missed_blip_probability(rise_time(50e3, 0.3), rates.in_total)

    # Simulated sub-rise-time miss fraction consistent with the closed form.
    sigma_miss = math.sqrt(p_miss_formula * (1.0 - p_miss_formula) / row.n_ionizations)
    assert abs(p_miss_sim - p_miss_formula) < 3.0 * sigma_miss

    # Plateau equals the detection-loss-corrected level; the equality
    # tolerance is the published 0.4% uncertainty on the initialization
    # fidelity, and the bracket is the published range.
    assert abs(plateau - (1.0 - p_miss_sim)) < 4e-3
    assert 0.985 <= plateau <= 0.999
    report(
        3,
        f"plateau F(20 ms) = {plateau:.5f} over {row.n_triggered} shots, "
        f"P_miss_sim = {p_miss_sim:.5f} vs formula {p_miss_formula:.5f} "
        f"({row.n_ionizations} tunneling events)",
    )


def test_criterion_4_fit_recovery():
    truth = (0.78, 970.0, 0.003)
    t_grid = np.geomspace(3e-4, 2.5e-2, 12)
    probs = fidelity_model(t_grid, *truth)
    shots = 10000
    successes = 0
    for seed in range(20):
        rng = np.random.default_rng([777, seed])
        rows = [(t, int(rng.binomial(shots, p)), shots) for t, p in zip(t_grid, probs)]
        fit = fit_fidelity_curve(rows)
        ok = (
            abs(fit.prior - truth[0]) <= 2.0 * fit.std_errors["prior"]
            and abs(fit.rate_gap - truth[1]) <= 2.0 * fit.std_errors["rate_gap"]
            and abs(fit.missed_probability - truth[2])
            <= 2.0 * fit.std_errors["missed_probability"]
        )
        successes += ok
    assert successes >= 18
    report(4, f"{successes}/20 seeds recovered all three parameters within 2 SE")


def test_criterion_5_fidelity_budget():
    budget = total_fidelity(0.989, 0.995, 0.9999)
    assert budget.f_total == pytest.approx(0.9840, abs=1e-3)
    report(5, f"0.989 * 0.995 * 0.9999 = {budget.f_total:.5f} (published 0.9839(8))")


def test_criterion_6_effective_temperature():
    ez = ZEEMAN.splitting
    cold = effective_temperature(0.989, 0.388, ez)
    warm = effective_temperature(0.78, 0.388, ez)
    assert cold == pytest.approx(0.270, abs=0.010)
    assert warm == pytest.approx(2.95, abs=0.05)
    report(6, f"T_eff(0.989) = {cold * 1e3:.1f} mK, T_eff(0.78) = {warm:.3f} K")


def test_criterion_7_chi_extraction():
    chi = extract_chi(0.72)
    assert 0.385 <= chi <= 0.392
    report(7, f"chi(0.72) = {chi:.4f} (published 0.388)")


def test_criterion_8_readout_contrast():
    rates = RateSet(out_up=100.0, out_down=1.0, in_up=1.0, in_down=1.0)
    t_star, contrast = optimal_read_time(rates)
    assert contrast == pytest.approx(0.945, abs=1e-3)
    grid = np.linspace(0.0, 0.2, 100000)
    scan = np.exp(-grid) - np.exp(-100.0 * grid)
    best = int(np.argmax(scan))
    assert contrast >= scan[best] - 1e-12
    assert contrast == pytest.approx(scan[best], abs=1e-8)
    assert abs(t_star - grid[best]) <= grid[1] - grid[0]
    report(8, f"contrast = {contrast:.6f} at t* = {t_star:.6f}/rate (scan agrees)")


def test_criterion_9_ancilla_budget():
    f_c = control_fidelity(
        ControlParams(drive_strength=7.6e3, detuning=100.0, rotation_error=0.143)
    )
    assert f_c == pytest.approx(0.995, abs=3e-3)
    f_qnd = qnd_fidelity(QndParams(1.4e-6, 65))
    assert f_qnd == pytest.approx(0.99991, abs=1e-5)
    hist = simulate_nuclear_histogram(0.85, 0.04, 65, 100000, seed=933)
    vis = visibility(hist, threshold=0.45)
    assert vis.overlap < 5e-6
    assert vis.visibility >= 0.999995
    report(
        9,
        f"F_control = {f_c:.4f}, F_qnd = {f_qnd:.5f}, "
        f"visibility = {vis.visibility:.7f} (overlap {vis.overlap:.1e})",
    )


def test_criterion_10_projected_999_plateaus():
    cfg = operating_point()
    rows = {row.label: row for row in projection_999(cfg.amplifier, cfg.rates.in_total)}
    fast = rows["faster_amplifier"]
    slow = rows["slower_loading"]
    # Exact reproduction of the closed forms.
    for row in (fast, slow):
        t_exact = -math.log(0.7) / (2.0 * math.pi * row.cutoff)
        assert row.t_rise == pytest.approx(t_exact, rel=1e-12)
        assert row.p_miss == pytest.approx(
            -math.expm1(-t_exact * row.in_rate_total), rel=1e-12
        )
    assert fast.plateau >= 0.999
    assert slow.plateau >= 0.999
    report(
        10,
        f"plateau(300 kHz) = {fast.plateau:.5f}, plateau(880/s) = {slow.plateau:.5f}",
    )


def test_criterion_11_property_suites():
    rng = np.random.default_rng(111)

    # Posterior monotonicity in the sample count (strict until the value
    # saturates to 0 or 1 in double precision).
    for _ in range(200):
        rates = random_rates(rng)
        prior = rng.uniform(0.01, 0.99)
        ts = 10 ** rng.uniform(-6, -4)
        values = [batch_posterior(prior, n, rates, ts) for n in range(0, 60, 3)]
        pairs = list(zip(values, values[1:]))
        if rates.out_up > rates.out_down:
            assert all(b >= a for a, b in pairs)
            assert all(b > a for a, b in pairs if b < 1.0)
        elif rates.out_up < rates.out_down:
            assert all(b <= a for a, b in pairs)
            assert all(b < a for a, b in pairs if b > 0.0)

    # Sequential updates equal the one-step posterior.
    worst = 0.0
    for _ in range(1000):
        rates = random_rates(rng)
        prior = rng.uniform(0.0, 1.0)
        n = int(10 ** rng.uniform(0, 4))
        ts = 10 ** rng.uniform(-6, -4)
        state = PosteriorState(p_down=prior)
        for _ in range(n):
            state = posterior_step(state, False, rates, ts)
        worst = max(worst, abs(state.p_down - batch_posterior(prior, n, rates, ts)))
    assert worst < 1e-10

    # Probability conservation structure of the generator.
    for _ in range(1000):
        rates = RateSet(
            out_up=10 ** rng.uniform(0, 5),
            out_down=10 ** rng.uniform(0, 5),
            in_up=10 ** rng.uniform(0, 5),
            in_down=10 ** rng.uniform(0, 5),
            relax=10 ** rng.uniform(-2, 2),
            excite=10 ** rng.uniform(-2, 2),
        )
        gen = liouvillian(rates)
        scale = np.max(np.abs(gen))
        assert np.max(np.abs(gen.sum(axis=0))) <= 1e-12 * scale

    # Counter-only trigger against a linear scan over sample windows.
    for _ in range(10000):
        n_req = int(rng.integers(1, 15))
        blips = list(rng.random(int(rng.integers(1, 100))) < rng.uniform(0.05, 0.9))
        assert first_trigger(blips, n_req) == window_scan_trigger(blips, n_req)

    # Parallel sweeps are byte-identical to serial ones.
    cfg = replace(
        operating_point(),
        shots=400,
        demon=DemonConfig(required_samples=100),
        sweep=SweepSpec(variable="t_obs", grid=(5e-4, 1e-3)),
    )
    import io

    serial, parallel = io.StringIO(), io.StringIO()
    meta = build_metadata("cfg", cfg.master_seed)
    write_sweep(serial, sweep_tobs(cfg), "csv", meta)
    write_sweep(parallel, sweep_tobs(replace(cfg, workers=2)), "csv", meta)
    assert serial.getvalue() == parallel.getvalue()

    report(
        11,
        f"monotonicity, sequential=batch (max dev {worst:.1e}), generator "
        "column sums, 10000 trigger fuzz cases, parallel determinism: all hold",
    )
