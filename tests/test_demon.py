import math

import numpy as np
import pytest

from oracles import (
    ConditionalDensity,
    PosteriorState,
    conditional_evolution,
    first_trigger,
    liouvillian,
    posterior_step,
    sample_trajectory,
    trigger_tick,
    unconditioned_evolution,
    window_scan_trigger,
)
from spindemon.demon import (
    DemonConfig,
    batch_posterior,
    corrected_posterior,
    likelihood_no_blip,
    marginal_likelihood,
    optimal_read_time,
)
from spindemon.physics import RateSet
from spindemon.telegraph import DonorState

TS = 1e-5
FIG2_RATES = RateSet(out_up=100.0, out_down=1.0, in_up=500.0, in_down=1500.0)
READ_RATES = RateSet(
    out_up=1037.4691350721764,
    out_down=67.29504283015913,
    in_up=26.110476618101746,
    in_down=2673.889523381898,
)


def random_rates(rng, allow_flips=False):
    kwargs = dict(
        out_up=10 ** rng.uniform(0, 5),
        out_down=10 ** rng.uniform(0, 5),
        in_up=10 ** rng.uniform(0, 5),
        in_down=10 ** rng.uniform(0, 5),
    )
    if allow_flips:
        kwargs["relax"] = 10 ** rng.uniform(-2, 2)
        kwargs["excite"] = 10 ** rng.uniform(-2, 2)
    return RateSet(**kwargs)


class TestLikelihood:
    def test_zero_rate(self):
        r = RateSet(out_up=0.0, out_down=0.0, in_up=1.0, in_down=1.0)
        assert likelihood_no_blip(DonorState.UP, r, TS) == 1.0

    def test_frozen_value(self):
        r = RateSet(out_up=1e4, out_down=0.0, in_up=0.0, in_down=0.0)
        assert likelihood_no_blip(DonorState.UP, r, TS) == pytest.approx(
            0.9048374180359595, rel=1e-14
        )

    def test_ratio_identity(self):
        n = 37
        up = likelihood_no_blip(DonorState.UP, FIG2_RATES, TS)
        down = likelihood_no_blip(DonorState.DOWN, FIG2_RATES, TS)
        ratio = (up / down) ** n
        expected = math.exp(-n * TS * (FIG2_RATES.out_up - FIG2_RATES.out_down))
        assert ratio == pytest.approx(expected, rel=1e-12)

    def test_rejects_ionized(self):
        with pytest.raises(ValueError):
            likelihood_no_blip(DonorState.IONIZED, FIG2_RATES, TS)


class TestPosteriorStep:
    def test_certain_priors_are_fixed_points(self):
        for prior in (0.0, 1.0):
            state = PosteriorState(p_down=prior)
            for _ in range(50):
                state = posterior_step(state, False, FIG2_RATES, TS)
            assert state.p_down == prior
            assert state.samples_seen == 50

    def test_matches_batch_every_step(self):
        state = PosteriorState(p_down=0.75)
        for n in range(1, 200):
            state = posterior_step(state, False, FIG2_RATES, TS)
            batch = batch_posterior(0.75, n, FIG2_RATES, TS)
            assert state.p_down == pytest.approx(batch, abs=1e-12)
            assert state.samples_seen == n
            assert state.t_obs == pytest.approx(n * TS)
        assert state.p_down > 0.75  # monotone rise toward certainty

    def test_blip_resets_to_reload_prior(self):
        state = PosteriorState(p_down=0.999, samples_seen=400, t_obs=400 * TS)
        reset = posterior_step(state, True, FIG2_RATES, TS)
        assert reset.samples_seen == 0
        assert reset.p_down == pytest.approx(1500.0 / 2000.0)
        explicit = posterior_step(state, True, FIG2_RATES, TS, reload_prior=0.6)
        assert explicit.p_down == 0.6


class TestBatchPosterior:
    def test_no_evidence(self):
        assert batch_posterior(0.33, 0, FIG2_RATES, TS) == 0.33

    def test_operating_point_plateau(self):
        # Ten milliseconds of silence at the readout-point rates drives the
        # posterior beyond 0.999 before any detection-loss correction.
        n = round(10e-3 / TS)
        assert batch_posterior(0.78, n, READ_RATES, TS) > 0.999

    def test_sequential_equals_batch_random(self):
        rng = np.random.default_rng(31)
        worst = 0.0
        for _ in range(60):
            rates = random_rates(rng)
            prior = rng.uniform(0.01, 0.99)
            n = int(10 ** rng.uniform(0, 2.3))
            ts = 10 ** rng.uniform(-6, -4)
            state = PosteriorState(p_down=prior)
            for _ in range(n):
                state = posterior_step(state, False, rates, ts)
            worst = max(worst, abs(state.p_down - batch_posterior(prior, n, rates, ts)))
        assert worst < 1e-10

    def test_monotone_iff_up_faster(self):
        values = [batch_posterior(0.4, n, FIG2_RATES, TS) for n in range(0, 200, 10)]
        assert all(a < b for a, b in zip(values, values[1:]))
        swapped = RateSet(out_up=1.0, out_down=100.0, in_up=1.0, in_down=1.0)
        values = [batch_posterior(0.4, n, swapped, TS) for n in range(0, 200, 10)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            batch_posterior(1.5, 1, FIG2_RATES, TS)
        with pytest.raises(ValueError):
            batch_posterior(0.5, -1, FIG2_RATES, TS)


class TestMarginalLikelihood:
    def test_zero_time(self):
        assert marginal_likelihood(0.4, 0.0, FIG2_RATES) == 1.0

    def test_long_time_vanishes(self):
        assert marginal_likelihood(0.4, 100.0, FIG2_RATES) < 1e-40

    def test_equals_stepwise_product(self):
        prior, n = 0.62, 77
        up = likelihood_no_blip(DonorState.UP, FIG2_RATES, TS) ** n
        down = likelihood_no_blip(DonorState.DOWN, FIG2_RATES, TS) ** n
        product_form = prior * down + (1.0 - prior) * up
        assert marginal_likelihood(prior, n * TS, FIG2_RATES) == pytest.approx(
            product_form, abs=1e-12
        )

    def test_contrast_peak_location_and_value(self):
        # The spin-resolved likelihood gap peaks near 4.65 tunnel-out times
        # with contrast about 0.945 at a 100x rate ratio.
        grid = np.linspace(0.0, 0.2, 100000)
        gap = np.exp(-FIG2_RATES.out_down * grid) - np.exp(-FIG2_RATES.out_up * grid)
        best = np.argmax(gap)
        assert gap[best] == pytest.approx(0.945, abs=1e-3)
        assert grid[best] * FIG2_RATES.out_up == pytest.approx(4.65, abs=0.01)


class TestOptimalReadTime:
    def test_ratio_100_contrast(self):
        t_star, contrast = optimal_read_time(FIG2_RATES)
        assert contrast == pytest.approx(0.9450029720952158, rel=1e-12)
        assert t_star == pytest.approx(math.log(100.0) / 99.0, rel=1e-12)

    def test_golden_section_oracle(self):
        rng = np.random.default_rng(32)
        phi = (math.sqrt(5.0) - 1.0) / 2.0
        for _ in range(20):
            down = 10 ** rng.uniform(0, 3)
            up = down * 10 ** rng.uniform(0.3, 3)
            rates = RateSet(out_up=up, out_down=down, in_up=1.0, in_down=1.0)

            def contrast(t):
                return math.exp(-down * t) - math.exp(-up * t)

            lo, hi = 0.0, 20.0 / up
            a = hi - phi * (hi - lo)
            b = lo + phi * (hi - lo)
            while hi - lo > 1e-15 / up + 1e-18:
                if contrast(a) < contrast(b):
                    lo = a
                    a, b = b, lo + phi * (hi - lo)
                else:
                    hi = b
                    b, a = a, hi - phi * (hi - lo)
            t_scan = 0.5 * (lo + hi)
            t_star, c_star = optimal_read_time(rates)
            # Function-comparison search resolves the argmax of a flat
            # quadratic top only to ~sqrt(eps) relative; the peak value is
            # far tighter.
            assert t_star == pytest.approx(t_scan, rel=1e-6)
            assert c_star == pytest.approx(contrast(t_scan), rel=1e-12)
            assert c_star >= contrast(t_scan) - 1e-15

    def test_near_degenerate_contrast_vanishes(self):
        rates = RateSet(out_up=100.0001, out_down=100.0, in_up=1.0, in_down=1.0)
        _, contrast = optimal_read_time(rates)
        assert contrast < 1e-6

    def test_rejects_inverted_rates(self):
        with pytest.raises(ValueError):
            optimal_read_time(RateSet(out_up=1.0, out_down=2.0, in_up=0.0, in_down=0.0))


class TestDemonConfig:
    @pytest.mark.parametrize("latency", [math.inf, math.nan, -1e-7])
    def test_latency_must_be_finite_and_nonnegative(self, latency):
        # An infinite latency window would drain the unbounded event stream.
        with pytest.raises(ValueError, match="latency"):
            DemonConfig(required_samples=10, latency=latency)


class TestDemonMachine:
    def test_trigger_at_exact_count(self):
        assert first_trigger([False] * 5, 5) == 5

    def test_blip_resets_counter(self):
        blips = [False, False, True] + [False] * 5
        assert first_trigger(blips, 5) == 3 + 5

    def test_no_trigger_without_run(self):
        blips = [False, False, False, False, True] * 10
        assert first_trigger(blips, 5) is None

    def test_fuzz_against_linear_scan(self):
        rng = np.random.default_rng(33)
        for _ in range(2000):
            n_req = int(rng.integers(1, 12))
            blips = list(rng.random(int(rng.integers(1, 120))) < rng.uniform(0.05, 0.9))
            assert first_trigger(blips, n_req) == window_scan_trigger(blips, n_req)

    def test_counter_invariants(self):
        # The counter equals the current silent run length, re-armed at
        # zero by each trigger, and never reaches n_required.
        rng = np.random.default_rng(34)
        n_req = 7
        counter = run = 0
        for _ in range(500):
            blip = bool(rng.random() < 0.3)
            run = 0 if blip else run + 1
            counter, fired = trigger_tick(counter, blip, n_req)
            assert 0 <= counter < n_req
            assert fired == (run == n_req)
            if fired:
                run = 0
            assert counter == run


class TestConditionalEvolution:
    def test_identity_at_zero_time(self):
        rho = ConditionalDensity(p_up=0.25, p_down=0.75)
        out = conditional_evolution(rho, FIG2_RATES, 0.0)
        assert out.p_up == pytest.approx(0.25, abs=1e-15)
        assert out.p_down == pytest.approx(0.75, abs=1e-15)

    def test_matches_batch_on_sample_grid(self):
        rho = ConditionalDensity(p_up=0.25, p_down=0.75)
        for n in (1, 10, 100, 1000, 10000):
            cond = conditional_evolution(rho, FIG2_RATES, n * TS)
            batch = batch_posterior(0.75, n, FIG2_RATES, TS)
            assert cond.p_down == pytest.approx(batch, abs=1e-12)

    def test_long_time_limit(self):
        rho = ConditionalDensity(p_up=0.9, p_down=0.1)
        out = conditional_evolution(rho, FIG2_RATES, 1e6)
        assert out.p_down == 1.0
        assert out.p_up == 0.0

    def test_closed_form_measurement_strength(self):
        # Independent two-exponential expression over a time grid.
        prior = 0.75
        rho = ConditionalDensity(p_up=1.0 - prior, p_down=prior)
        for t in np.geomspace(1e-5, 0.2, 30):
            a = prior * math.exp(-FIG2_RATES.out_down * t)
            b = (1.0 - prior) * math.exp(-FIG2_RATES.out_up * t)
            expected = a / (a + b)
            out = conditional_evolution(rho, FIG2_RATES, t)
            assert out.p_down == pytest.approx(expected, abs=1e-13)

    def test_no_information_at_certainty(self):
        for prior in (0.0, 1.0):
            rho = ConditionalDensity(p_up=1.0 - prior, p_down=prior)
            values = [
                conditional_evolution(rho, FIG2_RATES, t).p_down
                for t in (0.0, 0.01, 0.1, 1.0)
            ]
            assert all(v == prior for v in values)

    def test_rejects_flip_rates_and_ionized_start(self):
        rho = ConditionalDensity(p_up=0.5, p_down=0.5)
        flips = RateSet(out_up=10.0, out_down=1.0, in_up=0.0, in_down=0.0, relax=1.0)
        with pytest.raises(ValueError):
            conditional_evolution(rho, flips, 1.0)
        loaded = ConditionalDensity(p_up=0.25, p_down=0.25, p_ionized=0.5)
        with pytest.raises(ValueError):
            conditional_evolution(loaded, FIG2_RATES, 1.0)


class TestUnconditionedEvolution:
    def test_column_sums_vanish(self):
        rng = np.random.default_rng(35)
        for _ in range(100):
            gen = liouvillian(random_rates(rng, allow_flips=True))
            assert np.max(np.abs(gen.sum(axis=0))) < 1e-9

    def test_probability_conserved(self):
        rng = np.random.default_rng(36)
        for _ in range(20):
            rates = random_rates(rng, allow_flips=True)
            rho0 = rng.dirichlet([1.0, 1.0, 1.0])
            rho = unconditioned_evolution(rho0, rates, 10 ** rng.uniform(-5, 0))
            assert rho.sum() == pytest.approx(1.0, abs=1e-10)
            assert np.all(rho > -1e-12)

    def test_loading_settles_to_rate_fractions(self):
        rates = RateSet(out_up=0.0, out_down=0.0, in_up=300.0, in_down=900.0)
        rho = unconditioned_evolution(np.array([0.0, 0.0, 1.0]), rates, 50.0 / 1200.0)
        assert rho[0] == pytest.approx(0.25, abs=1e-9)
        assert rho[1] == pytest.approx(0.75, abs=1e-9)
        assert rho[2] == pytest.approx(0.0, abs=1e-9)

    def test_monte_carlo_conditioning_oracle(self):
        # Zeroing the ionized flux and renormalizing reproduces the
        # conditional evolution; cross-checked with trajectory sampling.
        prior = 0.75
        t_obs = 0.02
        rho = conditional_evolution(
            ConditionalDensity(p_up=1.0 - prior, p_down=prior), FIG2_RATES, t_obs
        )
        rng = np.random.default_rng(37)
        survived_down = 0
        survived = 0
        n = 20000
        for _ in range(n):
            start = DonorState.DOWN if rng.random() < prior else DonorState.UP
            tl = sample_trajectory(FIG2_RATES, start, t_obs, rng=rng)
            if not any(s is DonorState.IONIZED for _, s in tl.events):
                survived += 1
                if tl.state_at(t_obs) is DonorState.DOWN:
                    survived_down += 1
        fraction = survived_down / survived
        sigma = math.sqrt(rho.p_down * (1.0 - rho.p_down) / survived)
        assert abs(fraction - rho.p_down) < 3.0 * sigma

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            unconditioned_evolution(np.array([1.0, 0.0]), FIG2_RATES, 1.0)
        with pytest.raises(ValueError):
            unconditioned_evolution(np.array([1.0, 0.0, 0.0]), FIG2_RATES, -1.0)


class TestCorrectedPosterior:
    def test_no_loss(self):
        assert corrected_posterior(0.97, 0.0, 1.0) == (0.97, 0.97)

    def test_asymptotic_conservative_value(self):
        conservative, bound = corrected_posterior(1.0, 0.003, 1.0)
        assert conservative == pytest.approx(0.997, abs=1e-12)
        assert bound == conservative

    def test_bound_above_conservative(self):
        rng = np.random.default_rng(38)
        for _ in range(200):
            p = rng.uniform(0, 1)
            miss = rng.uniform(0, 0.2)
            z = rng.uniform(0, 1)
            conservative, bound = corrected_posterior(p, miss, z)
            assert bound >= conservative
            assert 0.0 <= conservative <= 1.0

    def test_clamps_at_zero(self):
        conservative, bound = corrected_posterior(0.001, 0.01, 1.0)
        assert conservative == 0.0
        assert bound == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            corrected_posterior(0.5, 0.1, 1.5)
