import math

import numpy as np
import pytest

from oracles import (
    EventTimeline,
    digitize,
    reference_gillespie_step,
    render_sensor_trace,
    sample_trajectory,
)
from spindemon.physics import RateSet
from spindemon.telegraph import (
    AmplifierParams,
    DonorState,
    gillespie_step,
    missed_blip_probability,
    rise_time,
)

AMP = AmplifierParams(cutoff=50e3, threshold=0.3, sample_period=1e-5)
OMEGA = 2.0 * math.pi * 50e3
T_RISE = rise_time(50e3, 0.3)


class TestSampleTrajectory:
    def test_no_rates_no_events(self):
        r = RateSet(out_up=0.0, out_down=0.0, in_up=0.0, in_down=0.0)
        tl = sample_trajectory(r, DonorState.DOWN, 1.0, seed=0)
        assert tl.events == []
        assert tl.state_at(0.5) is DonorState.DOWN

    def test_deterministic_given_seed(self):
        r = RateSet(out_up=300.0, out_down=20.0, in_up=800.0, in_down=1900.0)
        a = sample_trajectory(r, DonorState.IONIZED, 0.1, seed=123)
        b = sample_trajectory(r, DonorState.IONIZED, 0.1, seed=123)
        assert a.events == b.events

    def test_single_exit_exponential_mean(self):
        # One escape channel: the event time is exponential with rate out_up.
        rate = 1e4
        r = RateSet(out_up=rate, out_down=0.0, in_up=0.0, in_down=0.0)
        rng = np.random.default_rng(7)
        times = []
        for _ in range(20000):
            tl = sample_trajectory(r, DonorState.UP, 10.0 / rate, rng=rng)
            assert len(tl.events) <= 1
            if tl.events:
                times.append(tl.events[0][0])
        mean = np.mean(times)
        sigma = (1.0 / rate) / math.sqrt(len(times))
        assert abs(mean - 1.0 / rate) < 3.0 * sigma

    def test_survival_law_spin_down(self):
        # With the illustration rates (out_up = 100 out_down) a spin-down
        # electron survives un-ionized as exp(-out_down * t).
        r = RateSet(out_up=100.0, out_down=1.0, in_up=5000.0, in_down=5000.0)
        rng = np.random.default_rng(8)
        horizon = 2.0
        n = 10000
        survived = 0
        for _ in range(n):
            tl = sample_trajectory(r, DonorState.DOWN, horizon, rng=rng)
            ionized = [t for t, s in tl.events if s is DonorState.IONIZED]
            if not ionized:
                survived += 1
        expected = math.exp(-1.0 * horizon)
        sigma = math.sqrt(expected * (1.0 - expected) / n)
        assert abs(survived / n - expected) < 3.0 * sigma

    def test_legal_transitions_only(self):
        r = RateSet(
            out_up=200.0, out_down=30.0, in_up=900.0, in_down=2100.0,
            relax=50.0, excite=10.0,
        )
        tl = sample_trajectory(r, DonorState.IONIZED, 0.5, seed=5)
        allowed = {
            DonorState.UP: {DonorState.IONIZED, DonorState.DOWN},
            DonorState.DOWN: {DonorState.IONIZED, DonorState.UP},
            DonorState.IONIZED: {DonorState.UP, DonorState.DOWN},
        }
        state = tl.initial_state
        last_t = 0.0
        for t, new_state in tl.events:
            assert t > last_t
            assert t <= tl.duration
            assert new_state in allowed[state]
            assert new_state is not state
            state, last_t = new_state, t

    def test_mean_reload_time_matches_total(self):
        # Cross-check of the frozen operating-point rates: the ionized dwell
        # time averages 1 / 2700 s.
        r = RateSet(
            out_up=1037.4691350721764,
            out_down=67.29504283015913,
            in_up=26.110476618101746,
            in_down=2673.889523381898,
        )
        rng = np.random.default_rng(9)
        waits = []
        for _ in range(3000):
            tl = sample_trajectory(r, DonorState.IONIZED, 0.05, rng=rng)
            if tl.events:
                waits.append(tl.events[0][0])
        mean = np.mean(waits)
        sigma = (1.0 / 2700.0) / math.sqrt(len(waits))
        assert abs(mean - 1.0 / 2700.0) < 3.0 * sigma


def assert_same_step(state, rates, u_time, u_choice):
    """gillespie_step equals the reference step bit for bit."""
    (dt, to), (ref_dt, ref_to) = (step(state, rates, u_time, u_choice)
                                  for step in (gillespie_step, reference_gillespie_step))
    assert dt.shape == ref_dt.shape and to.shape == ref_to.shape
    assert np.array_equal(dt.view(np.uint64), ref_dt.view(np.uint64))
    assert np.array_equal(to, ref_to)
    return dt, to


class TestGillespieStep:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_the_reference_step(self, seed):
        rng = np.random.default_rng([seed, 0x57E9])
        rates = RateSet(*rng.uniform(1.0, 5e3, 4), relax=rng.uniform(1.0, 100.0),
                        excite=rng.uniform(1.0, 100.0))
        u_time, u_choice = rng.random((2, 4096))
        # One state per entry, and each of the three states with every entry.
        assert_same_step(rng.integers(0, 3, 4096), rates, u_time, u_choice)
        assert_same_step(np.arange(3)[:, None], rates, u_time, u_choice)
        for state in DonorState:
            assert_same_step(int(state), rates, u_time[0], u_choice[0])

    def test_a_state_without_exit_stays_forever(self):
        rates = RateSet(out_up=3e3, out_down=800.0, in_up=0.0, in_down=0.0,
                        relax=50.0, excite=20.0)
        u_time, u_choice = np.random.default_rng(3).random((2, 1000))
        dt, to = assert_same_step(np.arange(3)[:, None], rates, u_time, u_choice)
        assert np.all(dt[DonorState.IONIZED] == math.inf)
        assert np.all(to[DonorState.IONIZED] == DonorState.IONIZED)
        assert np.all(np.isfinite(dt[:DonorState.IONIZED]))

    def test_zero_uniform(self):
        # -log1p(-0) / 0 is nan: a state without exit must still read inf
        # and stay, and a state with exits leaves at once.
        rates = RateSet(out_up=3e3, out_down=800.0, in_up=0.0, in_down=0.0)
        u = np.array([0.0, 0.5, 0.0])
        dt, to = assert_same_step(np.arange(3)[:, None], rates, u, u)
        assert dt[DonorState.IONIZED].tolist() == [math.inf] * 3
        assert to[DonorState.IONIZED].tolist() == [DonorState.IONIZED] * 3
        assert dt[DonorState.UP, 0] == 0.0 and to[DonorState.UP, 0] == DonorState.IONIZED


class TestRiseTimeAndMisses:
    def test_rise_time_value(self):
        assert T_RISE == pytest.approx(-math.log(0.7) / (2.0 * math.pi * 50e3), rel=1e-12)
        assert T_RISE == pytest.approx(1.135e-6, abs=1e-9)

    def test_rise_time_limits(self):
        assert rise_time(50e3, 1e-12) == pytest.approx(0.0, abs=1e-15)
        assert rise_time(300e3, 0.3) == pytest.approx(T_RISE / 6.0, rel=1e-12)

    def test_missed_blip_values(self):
        assert missed_blip_probability(T_RISE, 2700.0) == pytest.approx(
            0.0030607018146259217, rel=1e-12
        )
        assert missed_blip_probability(T_RISE, 0.0) == 0.0
        assert missed_blip_probability(T_RISE, 880.0) == pytest.approx(0.000998, abs=1e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            rise_time(50e3, 1.0)
        with pytest.raises(ValueError):
            missed_blip_probability(-1.0, 100.0)


class TestRenderSensorTrace:
    def test_permanently_neutral(self):
        tl = EventTimeline(DonorState.DOWN, [], 5e-4)
        raw = render_sensor_trace(tl, AMP)
        assert np.all(raw == 0.0)

    def test_step_crosses_threshold_at_rise_time(self):
        t0 = 3.7e-5
        tl = EventTimeline(DonorState.DOWN, [(t0, DonorState.IONIZED)], 3e-4)
        substep = AMP.sample_period / 1000.0
        raw = render_sensor_trace(tl, AMP, substep=substep)
        crossing = np.argmax(raw > AMP.threshold) * substep
        assert abs(crossing - (t0 + T_RISE)) <= substep

    def test_short_ionization_peak_below_threshold(self):
        dt = 0.5 * T_RISE
        t0 = 5e-5
        tl = EventTimeline(
            DonorState.DOWN,
            [(t0, DonorState.IONIZED), (t0 + dt, DonorState.DOWN)],
            4e-4,
        )
        substep = AMP.sample_period / 100.0
        raw = render_sensor_trace(tl, AMP, substep=substep)
        peak = -math.expm1(-OMEGA * dt)
        assert peak < AMP.threshold
        assert np.max(raw) <= peak + 1e-12
        assert np.max(raw) >= peak * math.exp(-OMEGA * substep) - 1e-12
        trace = digitize(raw, AMP, substep=substep)
        assert not trace.blips.any()

    def test_substep_validation(self):
        tl = EventTimeline(DonorState.DOWN, [], 1e-3)
        with pytest.raises(ValueError):
            render_sensor_trace(tl, AMP, substep=AMP.sample_period / 2)

    def test_halving_substep_leaves_samples_unchanged(self):
        r = RateSet(out_up=1037.5, out_down=67.3, in_up=26.1, in_down=2673.9)
        tl = sample_trajectory(r, DonorState.IONIZED, 5e-3, seed=21)
        coarse = digitize(render_sensor_trace(tl, AMP, substep=1e-7), AMP, substep=1e-7)
        fine = digitize(render_sensor_trace(tl, AMP, substep=5e-8), AMP, substep=5e-8)
        assert np.max(np.abs(coarse.samples - fine.samples)) < 1e-3

    def test_deterministic(self):
        r = RateSet(out_up=1037.5, out_down=67.3, in_up=26.1, in_down=2673.9)
        tl = sample_trajectory(r, DonorState.IONIZED, 2e-3, seed=3)
        a = digitize(render_sensor_trace(tl, AMP), AMP)
        b = digitize(render_sensor_trace(tl, AMP), AMP)
        assert np.array_equal(a.samples, b.samples)
        assert np.array_equal(a.blips, b.blips)


class TestDigitize:
    def test_constant_below_threshold(self):
        raw = np.full(501, 0.29)
        trace = digitize(raw, AMP)
        assert not trace.blips.any()

    def test_constant_above_threshold(self):
        raw = np.full(501, 0.31)
        trace = digitize(raw, AMP)
        assert trace.blips.all()

    def test_exactly_at_threshold_is_not_blip(self):
        raw = np.full(501, 0.3)
        trace = digitize(raw, AMP)
        assert not trace.blips.any()

    def test_ramp_crossing_between_samples(self):
        # Crosses the threshold between samples 2 and 3: blip first true at 3.
        substep = AMP.sample_period / 100.0
        n = 501
        times = np.arange(n) * substep
        raw = 0.3 + (times - 2.5e-5) * 4000.0
        trace = digitize(raw, AMP, substep=substep)
        assert list(trace.blips[:4]) == [False, False, True, True]

    def test_noise_is_reproducible(self):
        raw = np.full(501, 0.25)
        a = digitize(raw, AMP, noise_std=0.05, rng=np.random.default_rng(4))
        b = digitize(raw, AMP, noise_std=0.05, rng=np.random.default_rng(4))
        assert np.array_equal(a.samples, b.samples)
        assert a.blips.any()  # noise kicks some samples over threshold

    def test_blips_consistent_with_samples(self):
        rng = np.random.default_rng(6)
        raw = rng.uniform(0, 1, 1001)
        trace = digitize(raw, AMP)
        assert np.array_equal(trace.blips, trace.samples > AMP.threshold)


class TestSilentLikelihoodConsistency:
    def test_no_blip_prefix_probability(self):
        # Empirical probability of a fully silent N-sample record from a
        # loaded spin matches exp(-N T_s out_rate).
        out = 1000.0
        r = RateSet(out_up=out, out_down=out, in_up=0.0, in_down=0.0)
        n_samples = 40
        duration = n_samples * AMP.sample_period
        rng = np.random.default_rng(12)
        silent = 0
        n = 4000
        for _ in range(n):
            tl = sample_trajectory(r, DonorState.DOWN, duration + 5e-5, rng=rng)
            raw = render_sensor_trace(tl, AMP, substep=1e-6)
            trace = digitize(raw, AMP, substep=1e-6)
            if not trace.blips[:n_samples].any():
                silent += 1
        expected = math.exp(-n_samples * AMP.sample_period * out)
        sigma = math.sqrt(expected * (1.0 - expected) / n)
        assert abs(silent / n - expected) < 3.0 * sigma


class TestEndToEndMissRate:
    def test_isolated_cycle_miss_fraction(self):
        # 1e5 ionize-and-reload cycles with exponential reload times: the
        # fraction whose amplifier response never reaches the threshold
        # matches the closed form within 3 sigma.  With the signal settled
        # low, the peak is 1 - exp(-omega dt), which crosses S_th exactly
        # when dt exceeds the rise time.
        in_rate = 2700.0
        rng = np.random.default_rng(13)
        dts = rng.exponential(1.0 / in_rate, size=100000)
        peaks = -np.expm1(-OMEGA * dts)
        missed = np.count_nonzero(peaks <= AMP.threshold)
        expected = missed_blip_probability(T_RISE, in_rate)
        sigma = math.sqrt(expected * (1.0 - expected) / len(dts))
        assert abs(missed / len(dts) - expected) < 3.0 * sigma

    def test_peak_classification_matches_rendered_chain(self):
        # The closed-form peak classifier used above agrees with the actual
        # rendered trace, away from the substep-resolution boundary.
        rng = np.random.default_rng(14)
        substep = 1e-7
        checked = 0
        for _ in range(300):
            dt = rng.exponential(1.0 / 2700.0)
            if abs(dt - T_RISE) < 3.0 * substep:
                continue  # crossing shorter than the rendering grid
            t0 = 5e-5
            tl = EventTimeline(
                DonorState.DOWN,
                [(t0, DonorState.IONIZED), (t0 + dt, DonorState.DOWN)],
                2e-4 + dt,
            )
            raw = render_sensor_trace(tl, AMP, substep=substep)
            crossed = bool(np.max(raw) > AMP.threshold)
            assert crossed == (dt > T_RISE)
            checked += 1
        assert checked > 250
