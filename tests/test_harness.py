import io
import math
from dataclasses import replace

import numpy as np
import pytest

from oracles import (
    digitize,
    first_trigger,
    ideal_blips,
    render_sensor_trace,
    sample_trajectory,
)
from spindemon.demon import DemonConfig, batch_posterior
from spindemon.harness import (
    ExperimentConfig,
    SweepSpec,
    projection_999,
    run_detection,
    run_initialization_shot,
    sweep_bias,
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
    extract_chi,
)
from spindemon.telegraph import AmplifierParams, DonorState, rise_time

AMP = AmplifierParams(cutoff=50e3, threshold=0.3, sample_period=1e-5)


def paper_point_physics(prior=0.78, t_e=0.26, in_total=2700.0):
    """Rate-model realization of the measured operating point: the donor
    potential is solved so the loading prior matches, then the base rate is
    calibrated to the measured loading total."""
    seed_params = TunnelModelParams(
        base_rate_down=1.0,
        asymmetry=0.388,
        donor_potential=0.0,
        zeeman=ZeemanParams(b_field=1.423),
        reservoir=ReservoirParams(temperature=t_e),
    )
    mu = donor_potential_for_prior(seed_params, prior)
    params = replace(seed_params, donor_potential=mu)
    scale = in_total / build_rates(params).in_total
    return replace(params, base_rate_down=scale)


def make_config(n_required=500, shots=2000, seed=11, detector="amplifier", **kwargs):
    return ExperimentConfig(
        physics=paper_point_physics(),
        amplifier=AMP,
        demon=DemonConfig(required_samples=n_required),
        shots=shots,
        master_seed=seed,
        detector=detector,
        **kwargs,
    )


class TestEngineMatchesReferenceChain:
    def test_blips_and_trigger_identical(self):
        # The event-driven detector must reproduce the rendered chain
        # (render -> decimate -> threshold -> silent-sample counter) exactly.
        rng = np.random.default_rng(42)
        for _ in range(120):
            rates = RateSet(
                out_up=10 ** rng.uniform(1, 4.5),
                out_down=10 ** rng.uniform(-1, 3.5),
                in_up=10 ** rng.uniform(2, 4.5),
                in_down=10 ** rng.uniform(2, 4.5),
            )
            amp = AmplifierParams(
                cutoff=10 ** rng.uniform(4, 5.5),
                threshold=rng.uniform(0.1, 0.9),
                sample_period=1e-5,
            )
            n_req = int(rng.integers(3, 40))
            duration = 60 * amp.sample_period
            tl = sample_trajectory(
                rates, DonorState.IONIZED, duration, seed=int(rng.integers(2**31))
            )

            substep = amp.sample_period / 100
            trace = digitize(render_sensor_trace(tl, amp, substep), amp, substep)
            trig_ref = first_trigger(trace.blips, n_req)

            det = run_detection(
                tl.events,
                amp=amp,
                n_required=n_req,
                horizon=len(trace.blips) * amp.sample_period,
                record_runs=True,
            )
            assert det.trigger_sample == trig_ref
            expanded = {}
            for start, length, value in det.runs:
                for k in range(start, start + length):
                    expanded[k] = value
            limit = det.trigger_sample or len(trace.blips)
            for n in range(1, limit + 1):
                assert expanded[n] == bool(trace.blips[n - 1]), f"sample {n}"

    def test_noisy_detector_blips_and_trigger_identical(self):
        # The engine draws one noise value per sample, for samples 1, 2, ...
        # in order, which is the order digitize adds noise to the rendered
        # trace; with generators of the same seed both chains must see the
        # same noisy samples, however the engine splits its draws.
        rng = np.random.default_rng(44)
        n_triggered = 0
        for case in range(600):
            rates = RateSet(
                out_up=10 ** rng.uniform(1, 4.5),
                out_down=10 ** rng.uniform(-1, 3.5),
                in_up=10 ** rng.uniform(2, 4.5),
                in_down=10 ** rng.uniform(2, 4.5),
            )
            amp = AmplifierParams(
                cutoff=10 ** rng.uniform(4, 5.5),
                threshold=rng.uniform(0.1, 0.9),
                sample_period=1e-5,
            )
            n_req = int(rng.integers(3, 40))
            noise_std = rng.uniform(0.01, 0.3)
            duration = 60 * amp.sample_period
            tl = sample_trajectory(
                rates, DonorState.IONIZED, duration, seed=int(rng.integers(2**31))
            )

            substep = amp.sample_period / 100
            trace = digitize(
                render_sensor_trace(tl, amp, substep), amp, substep,
                noise_std=noise_std, rng=np.random.default_rng(case),
            )
            trig_ref = first_trigger(trace.blips, n_req)

            det = run_detection(
                tl.events,
                amp=amp,
                n_required=n_req,
                horizon=len(trace.blips) * amp.sample_period,
                noise_std=noise_std,
                rng=np.random.default_rng(case),
                record_runs=True,
            )
            assert det.trigger_sample == trig_ref
            n_triggered += trig_ref is not None
            expanded = {}
            for start, length, value in det.runs:
                for k in range(start, start + length):
                    expanded[k] = value
            limit = det.trigger_sample or len(trace.blips)
            for n in range(1, limit + 1):
                assert expanded[n] == bool(trace.blips[n - 1]), f"sample {n}"
        # Both outcomes must be exercised for the comparison to mean much.
        assert 100 < n_triggered < 500

    def test_ideal_detector_blips_and_trigger_identical(self):
        # The ideal detector latches any ionization inside a sample period
        # into that sample's blip; the engine must agree with that rule read
        # straight off the trajectory, sample by sample, up to the trigger.
        rng = np.random.default_rng(43)
        for _ in range(2000):
            rates = RateSet(
                out_up=10 ** rng.uniform(1, 4.5),
                out_down=10 ** rng.uniform(-1, 3.5),
                in_up=10 ** rng.uniform(2, 5.5),
                in_down=10 ** rng.uniform(2, 5.5),
            )
            amp = AmplifierParams(cutoff=50e3, threshold=0.3, sample_period=1e-5)
            n_req = int(rng.integers(3, 40))
            n_samples = 60
            tl = sample_trajectory(
                rates, DonorState.IONIZED, n_samples * amp.sample_period,
                seed=int(rng.integers(2**31)),
            )
            blips = ideal_blips(tl, amp.sample_period, n_samples)
            trig_ref = first_trigger(blips, n_req)

            det = run_detection(
                tl.events,
                amp=amp,
                n_required=n_req,
                horizon=n_samples * amp.sample_period,
                detector="ideal",
                record_runs=True,
            )
            assert det.trigger_sample == trig_ref
            expanded = {}
            for start, length, value in det.runs:
                for k in range(start, start + length):
                    expanded[k] = value
            limit = det.trigger_sample or n_samples
            for n in range(1, limit + 1):
                assert expanded[n] == bool(blips[n - 1]), f"sample {n}"


class _CountingRng:
    """Generator stand-in that records the size of every normal draw."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.sizes = []

    def normal(self, loc, scale, size):
        self.sizes.append(size)
        return self.rng.normal(loc, scale, size=size)


class TestNoiseDraws:
    def test_draws_stop_at_trigger_whatever_the_horizon(self):
        # One spin-down load and no further event: the last segment runs to
        # the horizon, a thousand trigger lengths away, yet only the samples
        # up to the trigger are drawn, and no single draw is longer than
        # the required run.
        n_req = 200
        for seed in range(5):
            rng = _CountingRng(seed)
            det = run_detection(
                [(3.5e-5, DonorState.DOWN)],
                amp=AMP,
                n_required=n_req,
                horizon=1000 * n_req * AMP.sample_period,
                noise_std=0.05,
                rng=rng,
            )
            assert det.trigger_sample is not None
            assert max(rng.sizes) <= n_req
            assert sum(rng.sizes) == det.trigger_sample

    def test_event_in_latency_window_sees_whole_segment_drawn(self):
        # When the events come from the noise generator, an event read after
        # a mid-segment trigger must find the generator as if every sample
        # of the trigger segment had been drawn.
        ts = AMP.sample_period
        n_req = 50
        latency = 20 * ts
        t_load = 3.5e-5
        for seed in range(5):
            probe = run_detection(
                [(t_load, DonorState.DOWN), (1.0, DonorState.IONIZED)],
                amp=AMP, n_required=n_req, horizon=2.0, latency=latency,
                noise_std=0.05, rng=np.random.default_rng(seed),
            )
            trigger = probe.trigger_sample
            t_next = (trigger + 10.5) * ts  # inside the latency window
            rng = np.random.default_rng(seed)
            seen = []

            def events():
                yield t_load, DonorState.DOWN
                yield t_next, DonorState.IONIZED
                seen.append(rng.bit_generator.state)
                yield t_next + 1e-3, DonorState.DOWN

            det = run_detection(
                events(), amp=AMP, n_required=n_req, horizon=2.0, latency=latency,
                noise_std=0.05, rng=rng,
            )
            assert det.trigger_sample == trigger
            assert det.state_at_trigger is DonorState.IONIZED
            whole = np.random.default_rng(seed)
            whole.normal(0.0, 0.05, size=trigger + 10)  # samples 1 .. trigger + 10
            assert seen == [whole.bit_generator.state]

    def test_n_required_below_one_is_rejected(self):
        with pytest.raises(ValueError, match="n_required"):
            run_detection([], amp=AMP, n_required=0, horizon=1e-3)


class TestRunInitializationShot:
    def test_record_fields_and_latency(self):
        cfg = make_config(n_required=200, shots=1)
        record = run_initialization_shot(cfg, 0)
        assert record.triggered
        assert record.spin_at_trigger in (DonorState.UP, DonorState.DOWN)
        n_trigger = round((record.trigger_time - cfg.demon.latency) / AMP.sample_period)
        assert n_trigger >= 200
        assert record.trigger_time == pytest.approx(
            n_trigger * AMP.sample_period + cfg.demon.latency, rel=1e-12
        )

    def test_noisy_trigger_times_are_builtin_floats(self):
        # Run bounds found by numpy must not leak numpy scalars into the
        # record, where the writers would print them as "np.float64(...)".
        cfg = make_config(n_required=50, shots=40, seed=7, noise_std=0.05)
        for i in range(cfg.shots):
            record = run_initialization_shot(cfg, i)
            assert record.triggered
            assert type(record.trigger_time) is float

    def test_frozen_rates_after_trigger_at_exact_count(self):
        # With tunneling-out switched off the electron stays put, so the
        # trigger lands exactly n_required samples after the load transient
        # clears, and the spin distribution is the loading prior.
        rates = RateSet(out_up=0.0, out_down=0.0, in_up=594.0, in_down=2106.0)
        n_req = 50
        cfg = make_config(n_required=n_req, shots=400, seed=12)
        t_fall = math.log(1.0 / AMP.threshold) / AMP.angular_cutoff
        down = 0
        for i in range(cfg.shots):
            record = run_initialization_shot(cfg, i, rates=rates)
            assert record.triggered
            rng = np.random.default_rng([cfg.master_seed, i])
            t_load = rng.exponential(1.0 / 2700.0)
            first_silent = math.floor((t_load + t_fall) / AMP.sample_period) + 1
            n_trigger = round(
                (record.trigger_time - cfg.demon.latency) / AMP.sample_period
            )
            assert n_trigger == first_silent + n_req - 1
            down += record.spin_at_trigger is DonorState.DOWN
        prior = 2106.0 / 2700.0
        sigma = math.sqrt(prior * (1 - prior) / cfg.shots)
        assert abs(down / cfg.shots - prior) < 3 * sigma

    def test_ideal_detector_calibration(self):
        # With no detection losses the spin-down fraction at trigger equals
        # the silent-record posterior.
        n_req = 500
        cfg = make_config(n_required=n_req, shots=20000, seed=13, detector="ideal")
        rates = cfg.rates
        records = [run_initialization_shot(cfg, i) for i in range(cfg.shots)]
        assert all(r.triggered for r in records)
        assert sum(r.n_missed_sampled for r in records) == 0
        down = sum(r.spin_at_trigger is DonorState.DOWN for r in records)
        expected = batch_posterior(
            bare_init_fidelity_from_rates(rates), n_req, rates, AMP.sample_period
        )
        sigma = math.sqrt(expected * (1 - expected) / cfg.shots)
        assert abs(down / cfg.shots - expected) < 3 * sigma

    def test_realistic_chain_miss_accounting_identity(self):
        # Law-of-total-probability decomposition of the trigger fidelity into
        # clean and missed-event records, with the loss weight measured from
        # the simulation itself.
        n_req = 500
        cfg = make_config(n_required=n_req, shots=30000, seed=14)
        rates = cfg.rates
        records = [run_initialization_shot(cfg, i) for i in range(cfg.shots)]
        down_flags = np.array([r.spin_at_trigger is DonorState.DOWN for r in records])
        missed_flags = np.array([r.n_missed_sampled > 0 for r in records])
        p_miss_given_trigger = missed_flags.mean()
        p_down = down_flags.mean()
        decomposed = (
            down_flags[~missed_flags].mean() * (1 - p_miss_given_trigger)
            + (down_flags[missed_flags].mean() if missed_flags.any() else 0.0)
            * p_miss_given_trigger
        )
        assert p_down == pytest.approx(decomposed, abs=1e-12)
        # Clean records follow the ideal posterior.
        expected = batch_posterior(
            bare_init_fidelity_from_rates(rates), n_req, rates, AMP.sample_period
        )
        clean = down_flags[~missed_flags]
        sigma = math.sqrt(expected * (1 - expected) / len(clean))
        assert abs(clean.mean() - expected) < 3 * sigma + 2e-3

    def test_abandoned_shots_reported(self):
        # Permanent blipping: the counter never accumulates, the shot ends at
        # the abandon horizon and says so.
        rates = RateSet(out_up=5e4, out_down=5e4, in_up=5e4, in_down=5e4)
        cfg = make_config(n_required=100, shots=3, seed=15, abandon_factor=5.0)
        for i in range(cfg.shots):
            record = run_initialization_shot(cfg, i, rates=rates)
            assert not record.triggered
            assert record.trigger_time is None
            assert record.spin_at_trigger is None
            assert record.observed_duration == pytest.approx(
                5.0 * 100 * AMP.sample_period
            )

    def test_noise_path_runs_and_differs(self):
        cfg_quiet = make_config(n_required=50, shots=60, seed=16)
        cfg_noisy = replace(cfg_quiet, noise_std=0.2)
        quiet = [run_initialization_shot(cfg_quiet, i) for i in range(60)]
        noisy = [run_initialization_shot(cfg_noisy, i) for i in range(60)]
        assert all(r.triggered for r in quiet)
        # Strong noise causes spurious blips, delaying some triggers.
        assert sum(r.n_resets for r in noisy) > sum(r.n_resets for r in quiet)


class TestSweepTobs:
    def grid_config(self, grid, shots=1500, seed=17, detector="amplifier"):
        return replace(
            make_config(shots=shots, seed=seed, detector=detector),
            sweep=SweepSpec(variable="t_obs", grid=tuple(grid)),
        )

    def test_zero_time_point_equals_prior(self):
        cfg = self.grid_config([0.0], shots=4000)
        (result,) = sweep_tobs(cfg)
        prior = cfg.load_prior
        assert prior == pytest.approx(0.78, abs=1e-9)
        sigma = math.sqrt(prior * (1 - prior) / cfg.shots)
        assert abs(result.successes / cfg.shots - prior) < 3 * sigma
        assert result.analytic == pytest.approx(prior)

    def test_row_invariants_and_rise(self):
        cfg = self.grid_config([0.0, 1e-3, 3e-3, 8e-3, 15e-3])
        results = sweep_tobs(cfg)
        for row in results:
            assert row.p25 <= row.median <= row.p75
            assert 0.0 <= row.p25 and row.p75 <= 1.0
            assert row.successes <= row.n_triggered <= row.shots
        analytic = [row.analytic for row in results]
        assert analytic == sorted(analytic)
        assert results[-1].median > results[0].median

    def test_chi_square_consistency_ideal_detector(self):
        cfg = self.grid_config([1e-3, 2e-3, 4e-3, 8e-3], shots=3000, detector="ideal")
        results = sweep_tobs(cfg)
        chi2 = 0.0
        for row in results:
            p = row.analytic
            z = (row.successes - row.shots * p) / math.sqrt(row.shots * p * (1 - p))
            chi2 += z * z
        # chi-square with 4 dof, central 99.8% interval
        assert 0.09 < chi2 < 18.5

    def test_deterministic_and_worker_independent(self):
        cfg1 = self.grid_config([1e-3, 4e-3], shots=300, seed=18)
        cfg2 = replace(cfg1, workers=2)
        out1, out2 = io.StringIO(), io.StringIO()
        meta = build_metadata("hash", 18)
        write_sweep(out1, sweep_tobs(cfg1), "csv", meta)
        write_sweep(out2, sweep_tobs(cfg2), "csv", meta)
        assert out1.getvalue() == out2.getvalue()

    def test_percentile_width_shrinks_with_shots(self):
        narrow = sweep_tobs(self.grid_config([2e-3], shots=800, seed=19))[0]
        wide = sweep_tobs(self.grid_config([2e-3], shots=6400, seed=19))[0]
        assert (wide.p75 - wide.p25) < (narrow.p75 - narrow.p25)

    def test_requires_matching_sweep(self):
        cfg = make_config()
        with pytest.raises(ValueError):
            sweep_tobs(cfg)


class TestSweepBias:
    def bias_config(self, grid, t_e, shots=1200, seed=20, n_required=300):
        physics = TunnelModelParams(
            base_rate_down=1.0,
            asymmetry=0.388,
            donor_potential=0.0,
            zeeman=ZeemanParams(b_field=1.423),
            reservoir=ReservoirParams(temperature=t_e),
        )
        scale = 2700.0 / build_rates(physics).in_total
        physics = replace(physics, base_rate_down=scale)
        return ExperimentConfig(
            physics=physics,
            amplifier=AMP,
            demon=DemonConfig(required_samples=n_required),
            shots=shots,
            master_seed=seed,
            sweep=SweepSpec(variable="mu_d", grid=tuple(grid)),
        )

    def test_bare_curve_plunge_and_read_points(self):
        # The no-monitoring curve at the warm effective temperature: about
        # 0.72 at deep plunge (the asymmetry limit) and 0.81 at the readout
        # point.
        ez = ZeemanParams(b_field=1.423).splitting
        cfg = self.bias_config([-20 * ez, 0.0], t_e=2.0, shots=20000)
        results = sweep_bias(cfg, demon_on=False)
        plunge, read = results
        assert plunge.analytic == pytest.approx(1.0 / 1.388, abs=1e-4)
        assert read.analytic == pytest.approx(0.806, abs=1e-3)
        for row, expected in ((plunge, 1.0 / 1.388), (read, 0.806)):
            sigma = math.sqrt(expected * (1 - expected) / row.shots)
            assert abs(row.successes / row.shots - expected) < 3 * sigma

    def test_monitored_plateau_width(self):
        # Real-time monitoring flattens the tuning dependence: the fidelity
        # stays within 1% of its maximum over a span of at least 0.4 E_Z.
        ez = ZeemanParams(b_field=1.423).splitting
        grid = [-140.0, -120.0, -100.0, -80.0, -60.0, -40.0, -20.0, 0.0, 20.0, 40.0, 60.0]
        cfg = self.bias_config(grid, t_e=0.26, shots=600, seed=21)
        results = sweep_bias(cfg, demon_on=True)
        fidelities = np.array([
            row.successes / row.n_triggered for row in results
        ])
        best = fidelities.max()
        within = [row.grid_value for row, f in zip(results, fidelities) if f >= best - 0.01]
        assert max(within) - min(within) >= 0.4 * ez
        # The monitored curve beats the bare curve everywhere on the grid.
        bare = sweep_bias(cfg, demon_on=False)
        for mon, off in zip(results, bare):
            assert mon.successes / mon.n_triggered >= off.successes / off.shots - 0.05

    def test_demon_off_matches_bare_analytic_shape(self):
        grid = [-200.0, -100.0, 0.0, 60.0]
        cfg = self.bias_config(grid, t_e=0.26, shots=4000, seed=22)
        results = sweep_bias(cfg, demon_on=False)
        for row in results:
            sigma = math.sqrt(max(row.analytic * (1 - row.analytic), 1e-9) / row.shots)
            assert abs(row.successes / row.shots - row.analytic) < 4 * sigma + 1e-3


class TestDonorPotentialSolver:
    def test_round_trip(self):
        params = TunnelModelParams(
            base_rate_down=1.0,
            asymmetry=0.388,
            donor_potential=0.0,
            zeeman=ZeemanParams(b_field=1.423),
            reservoir=ReservoirParams(temperature=0.26),
        )
        for target in (0.75, 0.78, 0.9, 0.99):
            mu = donor_potential_for_prior(params, target)
            achieved = bare_init_fidelity_from_rates(
                build_rates(replace(params, donor_potential=mu))
            )
            assert achieved == pytest.approx(target, abs=1e-9)

    def test_unreachable_prior(self):
        params = TunnelModelParams(
            base_rate_down=1.0,
            asymmetry=0.388,
            donor_potential=0.0,
            zeeman=ZeemanParams(b_field=1.423),
            reservoir=ReservoirParams(temperature=0.26),
        )
        with pytest.raises(ValueError):
            donor_potential_for_prior(params, 0.5)


class TestChiExtraction:
    def test_reported_value(self):
        assert extract_chi(0.72) == pytest.approx(0.3889, abs=1e-4)
        assert 0.385 <= extract_chi(0.72) <= 0.392

    def test_symmetric_point(self):
        assert extract_chi(0.5) == 1.0

    def test_round_trip_with_bare_fidelity(self):
        for chi in (0.2, 0.388, 1.0, 2.5):
            assert extract_chi(1.0 / (1.0 + chi)) == pytest.approx(chi, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            extract_chi(0.0)


class TestProjections:
    def test_scenarios(self):
        cfg = make_config()
        rows = projection_999(cfg)
        by_label = {row.label: row for row in rows}
        base = by_label["baseline"]
        assert base.in_rate_total == pytest.approx(2700.0, rel=1e-9)
        assert base.plateau == pytest.approx(1.0 - 0.0030607018146259217, rel=1e-10)
        fast = by_label["faster_amplifier"]
        assert fast.cutoff == 300e3
        assert fast.plateau >= 0.999
        slow = by_label["slower_loading"]
        assert slow.in_rate_total == 880.0
        assert slow.plateau >= 0.999
        for row in rows:
            assert row.p_miss == pytest.approx(
                -math.expm1(-row.t_rise * row.in_rate_total), rel=1e-12
            )
            assert row.t_rise == pytest.approx(rise_time(row.cutoff, 0.3), rel=1e-12)
