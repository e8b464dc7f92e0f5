import functools
import io
import math
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import binom, chi2_contingency, kstest, norm

import spindemon.harness as harness
from oracles import (
    EventTimeline,
    digitize,
    first_trigger,
    ideal_blips,
    lane_detection,
    lane_uniforms,
    list_events,
    per_point_sweep,
    per_shot_transitions,
    render_sensor_trace,
    run_recorded,
    sample_trajectory,
    scalar_detection,
    transitions,
    trigger_tick,
)
from spindemon.cli import main
from spindemon.config import load_config
from spindemon.demon import DemonConfig, batch_posterior
from spindemon.harness import (
    ExperimentConfig,
    SweepSpec,
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
from spindemon.telegraph import (
    AmplifierParams,
    DonorState,
    gillespie_step,
    missed_blip_probability,
    projection_999,
    rise_time,
)

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


def _random_rates(rng, in_exponent=4.5):
    return RateSet(
        out_up=10 ** rng.uniform(1, 4.5),
        out_down=10 ** rng.uniform(-1, 3.5),
        in_up=10 ** rng.uniform(2, in_exponent),
        in_down=10 ** rng.uniform(2, in_exponent),
    )


def _random_amp(rng):
    return AmplifierParams(
        cutoff=10 ** rng.uniform(4, 5.5),
        threshold=rng.uniform(0.1, 0.9),
        sample_period=1e-5,
    )


def amplifier_cases():
    """(trajectory, amp, n_required) of the amplifier reference cases."""
    rng = np.random.default_rng(42)
    for _ in range(120):
        rates = _random_rates(rng)
        amp = _random_amp(rng)
        n_req = int(rng.integers(3, 40))
        tl = sample_trajectory(
            rates, DonorState.IONIZED, 60 * amp.sample_period, seed=int(rng.integers(2**31))
        )
        yield tl, amp, n_req


def noisy_cases():
    """(trajectory, amp, n_required, noise_std, noise seed) of the noisy cases."""
    rng = np.random.default_rng(44)
    for case in range(600):
        rates = _random_rates(rng)
        amp = _random_amp(rng)
        n_req = int(rng.integers(3, 40))
        noise_std = rng.uniform(0.01, 0.3)
        tl = sample_trajectory(
            rates, DonorState.IONIZED, 60 * amp.sample_period, seed=int(rng.integers(2**31))
        )
        yield tl, amp, n_req, noise_std, case


def ideal_cases():
    """(trajectory, n_required) of the ideal-detector cases, sampled by AMP."""
    rng = np.random.default_rng(43)
    for _ in range(2000):
        rates = _random_rates(rng, in_exponent=5.5)
        n_req = int(rng.integers(3, 40))
        tl = sample_trajectory(
            rates, DonorState.IONIZED, 60 * AMP.sample_period, seed=int(rng.integers(2**31))
        )
        yield tl, n_req


def blinking(n_blips):
    """A trajectory over 60 samples of AMP that loads at 25 us, then is
    ionized for 30 us and loaded for 30 us ``n_blips`` times, and stays
    loaded from then on."""
    ts = AMP.sample_period
    states = [DonorState.DOWN, DonorState.IONIZED] * n_blips + [DonorState.DOWN]
    events = [((2.5 + 3 * j) * ts, state) for j, state in enumerate(states)]
    return EventTimeline(DonorState.IONIZED, events, 60 * ts)


def rendered_blips(tl, amp, noise_std=0.0, noise_seed=None):
    substep = amp.sample_period / 100
    return digitize(
        render_sensor_trace(tl, amp, substep), amp, substep,
        noise_std=noise_std, rng=np.random.default_rng(noise_seed) if noise_std else None,
    ).blips


def assert_runs_match(det, blips):
    """The lane's runs, sample by sample, are the oracle's blips up to the trigger."""
    expanded = {}
    for start, length, value in det.runs:
        for k in range(start, start + length):
            expanded[k] = value
    limit = det.trigger_sample or len(blips)
    for n in range(1, limit + 1):
        assert expanded[n] == bool(blips[n - 1]), f"sample {n}"


def noisy_trigger_cases():
    """(trajectory, noise_std, n_required) of the distributional noise tests,
    all sampled by AMP: each trajectory ends loaded."""
    cases = [(blinking(1), 0.15, 10), (blinking(2), 0.12, 12), (blinking(3), 0.18, 8),
             (blinking(4), 0.15, 6)]
    loaded = [tl for tl, _, _ in amplifier_cases()
              if len(tl.events) >= 2 and tl.events[-1][1] is not DonorState.IONIZED]
    return cases + list(zip(loaded, (0.1, 0.14, 0.17, 0.2), (14, 9, 7, 5)))


@functools.cache
def noisy_chain_draws(lanes=10_000):
    """(engine run, rendered blips, n_required) of each noisy_trigger_cases
    trajectory: ``lanes`` lanes of one engine call, one noise generator
    each, and as many rows of the rendered trace's 60 samples with noise
    added, compared with the threshold."""
    draws = []
    for case, (tl, noise_std, n_req) in enumerate(noisy_trigger_cases()):
        det = run_detection(
            list_events([tl.events] * lanes), lanes, amp=AMP, n_required=[n_req],
            horizon=[60 * AMP.sample_period], noise_std=noise_std,
            noise=lane_uniforms([np.random.default_rng([case, k]) for k in range(lanes)]),
        )
        samples = noiseless_samples(tl)
        noisy = samples + np.random.default_rng(case).normal(0.0, noise_std, (lanes, len(samples)))
        draws.append((det, noisy > AMP.threshold, n_req))
    return draws


def noiseless_samples(tl):
    """The rendered noiseless samples 1 .. 60 of a trajectory through AMP."""
    substep = AMP.sample_period / 100
    return digitize(render_sensor_trace(tl, AMP, substep), AMP, substep).samples


def tiled_blips(det, n_samples):
    """A lane's blips, sample by sample up to its trigger (n_samples if it
    did not trigger), read off its runs, which must tile the samples from 1
    on, the last run holding that sample."""
    blips = []
    for start, length, value in det.runs:
        assert start == len(blips) + 1 and length > 0
        blips += [value] * length
    end = det.trigger_sample or n_samples
    assert len(blips) - det.runs[-1][1] < end <= len(blips)
    return blips[:end]


class TestEngineMatchesReferenceChain:
    def test_blips_and_trigger_identical(self):
        # The event-driven detector must reproduce the rendered chain
        # (render -> decimate -> threshold -> silent-sample counter) exactly.
        for tl, amp, n_req in amplifier_cases():
            blips = rendered_blips(tl, amp)
            trig_ref = first_trigger(blips, n_req)

            det = lane_detection(run_recorded(
                list_events([tl.events]), 1,
                amp=amp,
                n_required=n_req,
                horizon=len(blips) * amp.sample_period,
            ), 0)
            assert det.trigger_sample == trig_ref
            assert_runs_match(det, blips)

    def test_noisy_runs_tile_the_samples_up_to_the_trigger(self):
        # Noise flips single samples of the noiseless split, so a noisy
        # lane's runs must still cover samples 1, 2, ... once each, and the
        # counter stepped one sample at a time over them must fire where the
        # engine did.
        n_triggered = 0
        for tl, amp, n_req, noise_std, case in noisy_cases():
            det = lane_detection(run_recorded(
                list_events([tl.events]), 1,
                amp=amp,
                n_required=n_req,
                horizon=60 * amp.sample_period,
                noise_std=noise_std,
                noise=lane_uniforms([np.random.default_rng(case)]),
            ), 0)
            assert det.trigger_sample == first_trigger(tiled_blips(det, 60), n_req), case
            n_triggered += det.trigger_sample is not None
        # Both outcomes must be exercised for the comparison to mean much.
        assert 100 < n_triggered < 500

    def test_noisy_blip_frequencies_follow_the_noise(self):
        # Each trajectory runs as 2 000 lanes, one noise generator each, with
        # a threshold no lane reaches, so every lane classifies all 60
        # samples.  Sample n must be a blip in a binomial share of the lanes
        # with mean Q((S_th - m_n) / sigma), m_n the rendered noiseless
        # sample.
        lanes, uncertain = 2000, []
        for case, (tl, noise_std, _) in enumerate(noisy_trigger_cases()):
            det = run_recorded(
                list_events([tl.events] * lanes), lanes, amp=AMP, n_required=61,
                horizon=60 * AMP.sample_period, noise_std=noise_std,
                noise=lane_uniforms([np.random.default_rng([case, k]) for k in range(lanes)]),
            )
            blips = np.array([tiled_blips(lane_detection(det, k), 60) for k in range(lanes)])
            p = norm.sf((AMP.threshold - noiseless_samples(tl)) / noise_std)
            count = blips.sum(axis=0)
            pvalue = 2 * np.minimum(binom.cdf(count, lanes, p), binom.sf(count - 1, lanes, p))
            assert pvalue.min() > 1e-5, (case, pvalue.argmin() + 1)
            uncertain += p[(p > 0.01) & (p < 0.99)].tolist()
        # Many samples sit where a flip is neither certain nor negligible.
        assert len(uncertain) > 100

    def test_noisy_trigger_samples_match_the_rendered_chain(self):
        # 10 000 noise draws of each trajectory: the engine's trigger samples
        # against those of the rendered trace with noise added to its
        # samples, a window scan finding the trigger (0 for none).  The two
        # histograms must pass a chi-square test.
        for case, (det, blips, n_req) in enumerate(noisy_chain_draws()):
            first = [first_trigger(row, n_req) or 0 for row in blips[:50]]
            blips = np.cumsum(blips, axis=1)
            silent = blips[:, n_req - 1:] == np.pad(blips, ((0, 0), (1, 0)))[:, :-n_req]
            rendered = np.where(silent.any(axis=1), silent.argmax(axis=1) + n_req, 0)
            assert first == rendered[:50].tolist()
            engine = np.maximum(det.trigger_sample[0], 0)
            assert len(np.unique(engine)) > 5, case
            assert two_sample_pvalue(engine, rendered) > 1e-3, case

    def test_noisy_blip_counts_match_the_rendered_chain(self):
        # The same draws: each lane's n_resets, the blips that cleared a
        # running counter up to the trigger or the 60th sample, against the
        # rendered chain's, its counter stepped over the samples together.
        for case, (det, blips, n_req) in enumerate(noisy_chain_draws()):
            counter, resets = np.zeros((2, len(blips)), np.int64)
            for blip in blips.T:
                resets += blip & (counter > 0) & (counter < n_req)
                counter = np.where(counter >= n_req, n_req, np.where(blip, 0, counter + 1))
            for row, expected in zip(blips[:50], resets[:50].tolist()):
                counter = n_resets = 0
                for blip in row.tolist():
                    n_resets += blip and counter > 0
                    counter, fired = trigger_tick(counter, blip, n_req)
                    if fired:
                        break
                assert n_resets == expected, case
            assert len(np.unique(det.n_resets[0])) > 2, case
            assert two_sample_pvalue(det.n_resets[0], resets) > 1e-3, case

    def test_vanishing_noise_equals_the_noiseless_run(self):
        # At sigma = 1e-9 no sample sits close enough to the threshold to
        # flip: 30 calls of 100 random lanes, as in the scalar-loop test,
        # must equal the noiseless run in every field.
        rng = np.random.default_rng(8)
        for group in range(30):
            amp = _random_amp(rng)
            kwargs = dict(amp=amp, n_required=[int(rng.integers(1, 60))],
                          latency=rng.uniform(0.0, 1e-3),
                          horizon=[rng.uniform(20, 400) * amp.sample_period])
            lanes = [(_random_rates(rng), int(rng.integers(2**31))) for _ in range(100)]

            def run(noise_std):
                return run_detection(
                    list_events([transitions(np.random.default_rng(seed), rates,
                                             DonorState.IONIZED) for rates, seed in lanes]),
                    len(lanes), noise_std=noise_std,
                    noise=lane_uniforms([np.random.default_rng([seed, 1]) for _, seed in lanes]),
                    **kwargs)

            noisy, quiet = run(1e-9), run(0.0)
            for name in vars(quiet):
                assert np.array_equal(getattr(noisy, name), getattr(quiet, name)), (group, name)

    def test_ideal_detector_blips_and_trigger_identical(self):
        # The ideal detector latches any ionization inside a sample period
        # into that sample's blip; the engine must agree with that rule read
        # straight off the trajectory, sample by sample, up to the trigger.
        n_samples = 60
        for tl, n_req in ideal_cases():
            blips = ideal_blips(tl, AMP.sample_period, n_samples)
            trig_ref = first_trigger(blips, n_req)

            det = lane_detection(run_recorded(
                list_events([tl.events]), 1,
                amp=AMP,
                n_required=n_req,
                horizon=n_samples * AMP.sample_period,
                detector="ideal",
            ), 0)
            assert det.trigger_sample == trig_ref
            assert_runs_match(det, blips)

    @pytest.mark.parametrize("path", ["amplifier", "ideal", "noisy"])
    def test_every_case_as_lanes_of_one_call(self, path):
        # Every trajectory of this path's reference test runs as one lane of
        # a single call.  The amplifier, n_required and noise level are
        # shared by the lanes of a call, so they are fixed here, and each
        # lane's oracle is recomputed with them.  The lanes must still match
        # their oracles one by one, and the scalar loop field by field and,
        # with noise, in the generator state left behind.  A noisy lane's
        # oracle is its own runs: they must tile samples 1 .. trigger.
        n_req, noise_std, horizon = 15, 0.1, 60 * AMP.sample_period
        if path == "amplifier":
            # About half of all draws of the 120 random trajectories trigger
            # in only three rounds; the blinking lanes trigger in rounds 6, 8
            # and 10 whatever the draw.
            lanes = [(tl, None) for tl, _, _ in amplifier_cases()]
            lanes += [(blinking(n), None) for n in (2, 3, 4)]
        elif path == "noisy":
            lanes = [(tl, seed) for tl, _, _, _, seed in noisy_cases()]
        else:
            lanes = [(tl, None) for tl, _ in ideal_cases()]
        detector = "ideal" if path == "ideal" else "amplifier"
        sigma = noise_std if path == "noisy" else 0.0
        gens = [np.random.default_rng(seed) for _, seed in lanes] if sigma else None
        det = run_recorded(
            list_events([tl.events for tl, _ in lanes]), len(lanes),
            amp=AMP,
            n_required=n_req,
            horizon=horizon,
            detector=detector,
            noise_std=sigma,
            noise=lane_uniforms(gens) if sigma else None,
        )
        rounds = set()
        for k, (tl, seed) in enumerate(lanes):
            lane = lane_detection(det, k)
            if path == "ideal":
                blips = ideal_blips(tl, AMP.sample_period, 60)
            elif path == "amplifier":
                blips = rendered_blips(tl, AMP)
            else:
                blips = tiled_blips(lane, 60)
            assert lane.trigger_sample == first_trigger(blips, n_req), k
            assert_runs_match(lane, blips)
            ref_gen = np.random.default_rng(seed) if sigma else None
            assert lane == scalar_detection(
                tl.events, amp=AMP, n_required=n_req, horizon=horizon, detector=detector,
                noise_std=sigma, rng=ref_gen, record_runs=True,
            ), k
            if sigma:
                assert gens[k].bit_generator.state == ref_gen.bit_generator.state, k
            if lane.trigger_sample is not None:
                trigger_time = lane.trigger_sample * AMP.sample_period
                rounds.add(sum(t <= trigger_time for t, _ in tl.events) + 1)
        # Mixed lane lengths, triggers in several rounds, and abandoned lanes.
        assert len({len(tl.events) for tl, _ in lanes}) > 5
        assert len(rounds) > 3
        assert 0 < np.count_nonzero(det.trigger_sample[0] < 0) < len(lanes) / 2

    def test_lanes_match_the_scalar_loop(self):
        # 12 000 random lanes in 120 calls, 40 per detector path: each call
        # draws its own amplifier, n_required (1-59), latency (up to 1 ms) and
        # horizon (20-400 samples), and each lane its own rates.  A lane's
        # events and its noise come from two generators, as in a shot.
        # Every field of every lane, and the noise generator left behind,
        # must equal the scalar loop's.
        rng = np.random.default_rng(8)
        paths = ("amplifier", "ideal", "noisy")
        outcomes = {path: set() for path in paths}
        for group in range(120):
            path = paths[group % 3]
            amp = _random_amp(rng)
            n_req = int(rng.integers(1, 60))
            latency = rng.uniform(0.0, 1e-3)
            horizon = rng.uniform(20, 400) * amp.sample_period
            noise_std = rng.uniform(0.01, 0.3) if path == "noisy" else 0.0
            detector = "ideal" if path == "ideal" else "amplifier"
            lanes = [(_random_rates(rng), int(rng.integers(2**31))) for _ in range(100)]
            gens = [np.random.default_rng([seed, 1]) for _, seed in lanes]
            kwargs = dict(amp=amp, n_required=n_req, horizon=horizon, latency=latency,
                          detector=detector, noise_std=noise_std, record_runs=True)
            det = run_recorded(
                list_events([transitions(np.random.default_rng(seed), rates, DonorState.IONIZED)
                             for rates, seed in lanes]),
                len(lanes), noise=lane_uniforms(gens), **kwargs,
            )
            for k, (rates, seed) in enumerate(lanes):
                ref_gen = np.random.default_rng([seed, 1])
                ref = scalar_detection(
                    transitions(np.random.default_rng(seed), rates, DonorState.IONIZED),
                    rng=ref_gen, **kwargs
                )
                assert lane_detection(det, k) == ref, (group, k)
                assert gens[k].bit_generator.state == ref_gen.bit_generator.state, (group, k)
                outcomes[path].add(ref.trigger_sample is not None)
        assert all(seen == {True, False} for seen in outcomes.values())


    def test_samples_on_boundaries_match_the_scalar_loop(self):
        # Cases random draws almost never hit: events exactly at sample
        # instants, and threshold crossings that fall on a sample instant,
        # where the closed-form crossing is right only to within a sample.
        ts = AMP.sample_period
        calls = []
        for threshold in np.linspace(0.05, 0.95, 19):
            for gap in range(1, 12):
                # The output falls from 1 at the load, at sample m, and
                # crosses the threshold gap samples later.
                omega = math.log(1.0 / threshold) / (gap * ts)
                amp = AmplifierParams(omega / (2 * math.pi), threshold, ts)
                lanes = [[(m * ts, DonorState.DOWN), ((m + gap + 3) * ts, DonorState.IONIZED),
                          ((m + gap + 9) * ts, DonorState.UP)] for m in range(1, 8)]
                calls.append((amp, "amplifier", lanes))
        rng = np.random.default_rng(9)
        ideal_lanes = [
            list(zip(np.cumsum(rng.integers(1, 6, size=8)) * ts,
                     [DonorState.DOWN, DonorState.IONIZED] * 4))
            for _ in range(300)
        ]
        calls.append((AMP, "ideal", ideal_lanes))
        for amp, detector, lanes in calls:
            kwargs = dict(amp=amp, n_required=4, horizon=40 * ts, detector=detector,
                          record_runs=True)
            det = run_recorded(list_events(lanes), len(lanes), **kwargs)
            for k, events in enumerate(lanes):
                assert lane_detection(det, k) == scalar_detection(events, **kwargs), k


class TestSharedThresholds:
    @pytest.mark.parametrize("path", ["amplifier", "ideal", "noisy"])
    def test_each_threshold_equals_a_run_at_it_alone(self, path):
        # 20 calls of 100 random lanes, each call watching for 2-5 ascending
        # thresholds (1-59 samples) with horizons of 1.5-4 times each, and a
        # latency of up to 1 ms.  Every field of each threshold's row must
        # equal a run at that threshold alone, the noise included.  Lanes
        # must both fire a threshold and then be abandoned at a larger one,
        # and be abandoned at a threshold and then fire a larger one.
        rng = np.random.default_rng(10)
        fired_then_abandoned = abandoned_then_fired = 0
        for group in range(20):
            amp = _random_amp(rng)
            size = int(rng.integers(2, 6))
            thresholds = sorted(rng.choice(np.arange(1, 60), size, replace=False).tolist())
            horizons = [rng.uniform(1.5, 4.0) * n * amp.sample_period for n in thresholds]
            horizons = np.maximum.accumulate(horizons).tolist()
            latency = rng.uniform(0.0, 1e-3)
            noise_std = rng.uniform(0.01, 0.3) if path == "noisy" else 0.0
            detector = "ideal" if path == "ideal" else "amplifier"
            lanes = [(_random_rates(rng), int(rng.integers(2**31))) for _ in range(100)]

            def run(n_required, horizon):
                events = [transitions(np.random.default_rng(seed), rates, DonorState.IONIZED)
                          for rates, seed in lanes]
                return run_detection(
                    list_events(events), len(lanes), amp=amp, n_required=n_required,
                    horizon=horizon, latency=latency, detector=detector, noise_std=noise_std,
                    noise=lane_uniforms([np.random.default_rng([seed, 1]) for _, seed in lanes]),
                )

            shared = run(thresholds, horizons)
            for k, (n_required, horizon) in enumerate(zip(thresholds, horizons)):
                alone = run([n_required], [horizon])
                for name in vars(alone):
                    assert np.array_equal(getattr(shared, name)[k], getattr(alone, name)[0]), (
                        group, n_required, name)
            fired = shared.trigger_sample >= 0
            fired_then_abandoned += np.count_nonzero(fired[:-1] & ~fired[1:])
            abandoned_then_fired += np.count_nonzero(~fired[:-1] & fired[1:])
        assert fired_then_abandoned > 10 and abandoned_then_fired > 10

    def test_thresholds_must_ascend(self):
        for n_required, horizon in (([], []), ([5, 5], [1e-3, 1e-3]), ([6, 5], [1e-3, 1e-3]),
                                    ([5, 6], [2e-3, 1e-3]), ([0, 5], [1e-3, 1e-3])):
            with pytest.raises(ValueError, match="n_required"):
                run_detection(list_events([[]]), 1, amp=AMP, n_required=n_required,
                              horizon=horizon)


class _CountingRng:
    """Generator stand-in that counts its draws, one (u_gap, u_accept) pair
    per call under lane_uniforms."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.calls = 0

    def random(self, size=None):
        self.calls += 1
        return self.rng.random(size)


class TestNoiseDraws:
    def test_draws_stop_at_trigger_whatever_the_horizon(self):
        # One spin-down load and no further event: the last segment runs to
        # the horizon.  The lane draws a few pairs to find the flips of its
        # 200-sample silent run and none past the trigger, so a horizon of a
        # thousand trigger lengths draws no more than one of two.
        n_req = 200
        for seed in range(5):
            counts = []
            for factor in (2, 1000):
                rng = _CountingRng(seed)
                det = lane_detection(run_detection(
                    list_events([[(3.5e-5, DonorState.DOWN)]]), 1,
                    amp=AMP,
                    n_required=[n_req],
                    horizon=[factor * n_req * AMP.sample_period],
                    noise_std=0.05,
                    noise=lane_uniforms([rng]),
                ), 0)
                assert det.trigger_sample is not None
                counts.append(rng.calls)
            assert 0 < counts[0] == counts[1] < 10, seed

    def test_event_in_latency_window_draws_no_noise_past_trigger(self):
        # Events inside the latency window after a mid-segment trigger move
        # the state at trigger, one event per round, and draw no noise: the
        # noise generator is left as by a lane that ends at the first of
        # those events.
        ts = AMP.sample_period
        n_req = 50
        latency = 20 * ts
        t_load = 3.5e-5
        for seed in range(5):
            probe = lane_detection(run_detection(
                list_events([[(t_load, DonorState.DOWN), (1.0, DonorState.IONIZED)]]), 1,
                amp=AMP, n_required=[n_req], horizon=[2.0], latency=latency,
                noise_std=0.05, noise=lane_uniforms([np.random.default_rng(seed)]),
            ), 0)
            trigger = probe.trigger_sample
            t_next = (trigger + 10.5) * ts  # inside the latency window
            rng = np.random.default_rng(seed)
            det = lane_detection(run_detection(
                list_events([[(t_load, DonorState.DOWN), (t_next, DonorState.IONIZED),
                              (t_next + 2 * ts, DonorState.UP), (t_next + 1e-3, DonorState.DOWN)]]),
                1, amp=AMP, n_required=[n_req], horizon=[2.0], latency=latency,
                noise_std=0.05, noise=lane_uniforms([rng]),
            ), 0)
            assert det.trigger_sample == trigger
            assert det.state_at_trigger is DonorState.UP
            assert det.n_ionizations == probe.n_ionizations
            drawn = np.random.default_rng(seed)
            run_detection(list_events([[(t_load, DonorState.DOWN), (t_next, DonorState.IONIZED)]]),
                          1, amp=AMP, n_required=[n_req], horizon=[2.0], noise_std=0.05,
                          noise=lane_uniforms([drawn]))
            assert rng.bit_generator.state == drawn.bit_generator.state

    def test_n_required_below_one_is_rejected(self):
        with pytest.raises(ValueError, match="n_required"):
            run_detection(list_events([[]]), 1, amp=AMP, n_required=[0], horizon=[1e-3])

    def test_horizons_of_another_length_are_rejected(self):
        for horizon in ([1e-3], [1e-3, 2e-3, 3e-3]):
            with pytest.raises(ValueError, match="a horizon each"):
                run_detection(list_events([[]]), 1, amp=AMP, n_required=[5, 6],
                              horizon=horizon)


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
        # Shot i loads at the first event of column i of its block's round 0.
        u = np.random.default_rng([cfg.master_seed, harness._EVENT_STREAM, 0]).random((2, 1024))
        load_times, _ = gillespie_step(np.full(1024, DonorState.IONIZED), rates, *u)
        down = 0
        for i in range(cfg.shots):
            record = run_initialization_shot(cfg, i, rates=rates)
            assert record.triggered
            t_load = load_times[i]
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
        records = harness._run_shots(cfg, [(rates, [n_req])])[0].records()
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
        records = harness._run_shots(cfg, [(rates, [n_req])])[0].records()
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


class TestShotStreams:
    """Round r of 1024-shot block b reads its noise from
    default_rng([master_seed, _NOISE_STREAM, b, r]); its j-th (2, 1024)
    draw is row j, and shot i reads column i % 1024."""

    SEEDS = (0, 2**32 - 1, 2**32, 2**100 + 3, np.uint64(2**40 + 7))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_shot_rng_is_default_rng_of_its_index(self, seed, monkeypatch):
        # shot_rng(seed, b, r), the generator of a (block, round) index, is
        # default_rng([seed, _NOISE_STREAM, b, r]), and row j of the round is
        # its j-th (2, 1024) draw.  Lanes straddle the blocks at shot 1024
        # and at shot 2**32, and read rows out of order in rounds 0 and 3.
        # Each generator is built once, when its block first asks in that
        # round.
        built, shot_rng = [], harness.shot_rng
        monkeypatch.setattr(harness, "shot_rng", lambda *key: built.append(key) or shot_rng(*key))
        for indices in (range(1020, 1030), range(2**32 - 3, 2**32 + 2)):
            uniforms = harness._block_noise(seed, indices)
            lane = np.arange(len(indices))
            built.clear()
            for rnd in (0, 3):
                for row in (np.zeros_like(lane), lane % 3, lane[::-1] % 4, lane % 2):
                    u_gap, u_accept = uniforms(lane, rnd, row)
                    for k, i in enumerate(indices):
                        gen = np.random.default_rng([seed, harness._NOISE_STREAM, i // 1024, rnd])
                        drawn = gen.random((row[k] + 1, 2, 1024))[row[k], :, i % 1024]
                        assert [u_gap[k], u_accept[k]] == drawn.tolist(), (rnd, i)
            blocks = sorted({i // 1024 for i in indices})
            assert built == [(seed, b, rnd) for rnd in (0, 3) for b in blocks]

    def test_first_pairs_are_independent_uniforms(self):
        # Shots 0-4999 span five blocks; each shot's first pair in round 0
        # must look like two independent U(0, 1) values, within and across
        # blocks, and independent of its first pair in round 1.
        lane = np.arange(5000)
        uniforms = harness._block_noise(7, range(5000))
        first = [*uniforms(lane, 0, np.zeros_like(lane)), uniforms(lane, 1, np.zeros_like(lane))[0]]
        bound = 4 / math.sqrt(len(lane))
        for u in first:
            assert kstest(u, "uniform").pvalue > 1e-3
            assert abs(np.corrcoef(u[:-1], u[1:])[0, 1]) < bound
        assert abs(np.corrcoef(first[0], first[1])[0, 1]) < bound
        assert abs(np.corrcoef(first[0], first[2])[0, 1]) < bound

    def test_noiseless_runs_build_no_noise_generator(self, tmp_path, monkeypatch):
        # Without noise neither detector may reach shot_rng: not in a sweep,
        # not in simulate-shot.
        def refuse(*key):
            raise AssertionError(f"noise generator {key} built without noise")

        monkeypatch.setattr(harness, "shot_rng", refuse)
        for detector in ("amplifier", "ideal"):
            cfg = make_config(n_required=20, shots=300, seed=5, detector=detector,
                              sweep=SweepSpec("t_obs", (0.0, 1e-4, 5e-4)))
            assert len(sweep_tobs(cfg)) == 3
            path = tmp_path / f"{detector}.cfg"
            path.write_text("demon.required_samples = 20\nrun.shots = 300\n"
                            f"run.detector = {detector}\n")
            out = tmp_path / f"{detector}.csv"
            assert main(["simulate-shot", "--config", str(path), "--out", str(out)]) == 0

    def test_block_and_worker_boundaries(self, tmp_path, monkeypatch):
        # 2100 shots cross the event blocks at 1024 and 2048; a pool of three
        # workers runs one block each, the last one 52 shots long.  Only the
        # noisy run draws from shot_rng, and the rebuilt run draws from
        # generators made here.
        for noise in ("0", "0.05"):
            outputs = {}
            for label, workers in (("serial", 1), ("pool", 3), ("rebuilt", 1)):
                with monkeypatch.context() as patch:
                    if label == "rebuilt":
                        patch.setattr(harness, "shot_rng", lambda seed, b, r: (
                            np.random.default_rng([seed, harness._NOISE_STREAM, b, r])))
                    cfg = tmp_path / f"{label}.cfg"
                    cfg.write_text(
                        "physics.temperature_k = 0.26\nrates.in_total_per_s = 2700\n"
                        f"demon.required_samples = 20\nrun.shots = 2100\n"
                        f"run.workers = {workers}\nrun.noise_std = {noise}\n"
                    )
                    out = tmp_path / f"{label}.csv"
                    assert main(["simulate-shot", "--config", str(cfg), "--out", str(out)]) == 0
                    outputs[label] = out.read_bytes()
            assert outputs["serial"] == outputs["pool"], noise
            assert outputs["serial"] == outputs["rebuilt"], noise


class SerialPool:
    """Stand-in for multiprocessing.Pool that maps in this process."""

    def __init__(self, processes):
        self.processes = processes

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, args, chunksize=None):
        return map(fn, args)


class TestShotBlocks:
    @pytest.mark.parametrize("noise_std", [0.0, 0.1])
    def test_grouping_into_lanes_does_not_change_a_shot(self, noise_std):
        # 2100 shots as one call, as 2100 one-lane calls, and in 175-shot
        # calls that do not line up with the 1024-shot seed blocks.  A short
        # horizon leaves some shots abandoned.
        cfg = make_config(n_required=20, shots=2100, seed=23, noise_std=noise_std,
                          abandon_factor=3.0)
        rates = cfg.rates

        def run(size):
            return [
                record
                for k in range(0, cfg.shots, size)
                for record in harness._shot_block(
                    (cfg, rates, [20], range(k, min(k + size, cfg.shots)))
                ).records(k)
            ]

        whole = run(cfg.shots)
        assert 0 < sum(not r.triggered for r in whole) < cfg.shots / 2
        assert run(1) == whole
        assert run(175) == whole
        assert harness._run_shots(cfg, [(rates, [20])])[0].records() == whole

    @pytest.mark.parametrize("noise_std, detector",
                             [(0.0, "amplifier"), (0.1, "amplifier"), (0.0, "ideal")])
    def test_wide_lanes_match_any_grouping(self, monkeypatch, noise_std, detector):
        # 2100 shots run serially as one call at the default lane cap, which
        # they fit whatever the workers, and as three calls at a cap of one
        # block.  At a cap of two blocks they do not fit one call: a pool of
        # two workers gets runs of up to two blocks, one of three workers
        # runs of one block.  A short horizon leaves some shots abandoned.
        cfg = make_config(n_required=20, shots=2100, seed=23, noise_std=noise_std,
                          detector=detector, abandon_factor=3.0)
        rates = cfg.rates
        whole = harness._shot_block((cfg, rates, [20], range(cfg.shots))).records()
        assert 0 < sum(not r.triggered for r in whole) < cfg.shots / 2
        shot_block = harness._shot_block

        def calls(cfg):
            # A serial stand-in for the pool, and a _shot_block that records
            # the shots of each call.
            ranges = []
            with monkeypatch.context() as patch:
                patch.setattr(harness, "Pool", SerialPool)
                patch.setattr(harness, "_shot_block", lambda args: ranges.append(args[3]) or (
                    shot_block(args)))
                assert harness._run_shots(cfg, [(rates, [20])])[0].records() == whole
            return [(r.start, r.stop) for r in ranges]

        assert calls(cfg) == calls(replace(cfg, workers=2)) == [(0, 2100)]
        monkeypatch.setattr(harness, "_LANE_BLOCKS", 2)
        assert calls(replace(cfg, workers=2)) == [(0, 2048), (2048, 2100)]
        assert calls(replace(cfg, workers=3)) == [(0, 1024), (1024, 2048), (2048, 2100)]
        for workers in (2, 3):
            (pooled,) = harness._run_shots(replace(cfg, workers=workers), [(rates, [20])])
            assert pooled.records() == whole, workers
        monkeypatch.setattr(harness, "_LANE_BLOCKS", 1)
        assert calls(cfg) == [(0, 1024), (1024, 2048), (2048, 2100)]


def column_replay(master_seed, rates, shot_index):
    """Shot ``shot_index``'s transitions replayed one scalar Gillespie step
    at a time from its column of its block generator's rounds."""
    gen = np.random.default_rng([master_seed, harness._EVENT_STREAM, shot_index // 1024])
    state, t = DonorState.IONIZED, 0.0
    while True:
        u_time, u_choice = gen.random((2, 1024))[:, shot_index % 1024]
        dt, new_state = gillespie_step(state, rates, u_time, u_choice)
        t += float(dt)
        state = DonorState(int(new_state))
        yield t, state


def per_shot_detection(cfg, rates, n_required):
    """Every shot of cfg through the lane engine, with the events drawn as the
    per-shot engine drew them: shot i from its own ``default_rng([seed, i])``."""
    parts = []
    for block in harness._blocks(cfg.shots, 1024):
        streams = [per_shot_transitions(np.random.default_rng([cfg.master_seed, i]), rates)
                   for i in block]
        parts.append(run_detection(
            list_events(streams), len(block), amp=cfg.amplifier, n_required=[n_required],
            horizon=[cfg.abandon_factor * n_required * cfg.amplifier.sample_period],
            latency=cfg.demon.latency, detector=cfg.detector,
        ))
    return harness._Detection.concatenate(parts)


def two_sample_pvalue(a, b):
    """chi-square p-value that two samples of categories (non-negative
    integers) share one distribution; the top categories are merged until
    the pooled sample holds at least 20 in each."""
    pooled = np.concatenate([a, b])
    top = int(pooled.max())
    while np.count_nonzero(pooled >= top) < 20:
        top -= 1
    table = np.array([np.bincount(np.minimum(x, top), minlength=top + 1) for x in (a, b)])
    return chi2_contingency(table[:, table.sum(axis=0) > 0])[1]


def fidelity(det):
    return np.count_nonzero(det.state_at_trigger == DonorState.DOWN), np.count_nonzero(
        det.trigger_sample >= 0
    )


class TestBlockDraws:
    def test_lane_replays_its_column_of_the_block_rounds(self):
        # Shots 1000-1099 straddle blocks 0 and 1.  Event r of every lane
        # must be the scalar Gillespie step of its column of round r, and a
        # run over the block source must equal one over the replayed streams,
        # events inside a 0.3 ms latency window included.
        rates = RateSet(out_up=3e3, out_down=800.0, in_up=2e3, in_down=6e3,
                        relax=50.0, excite=20.0)
        indices = range(1000, 1100)
        events = harness._block_events(31, rates, indices)
        lane = np.arange(len(indices))
        replays = [column_replay(31, rates, i) for i in indices]
        state, t = np.full(len(lane), int(DonorState.IONIZED)), np.zeros(len(lane))
        for _ in range(40):
            t, state = (a[0] for a in events(lane, state, t, 1))
            assert [next(replay) for replay in replays] == list(
                zip(t.tolist(), map(DonorState, state.tolist()))
            )

        cfg = make_config(n_required=20, shots=1, seed=31, abandon_factor=5.0)
        cfg = replace(cfg, demon=DemonConfig(required_samples=20, latency=3e-4))
        block = harness._shot_block((cfg, rates, [20], indices))
        replayed = run_detection(
            list_events([column_replay(31, rates, i) for i in indices]), len(indices),
            amp=AMP, n_required=[20], horizon=[5.0 * 20 * AMP.sample_period], latency=3e-4,
        )
        for k in range(len(indices)):
            assert lane_detection(block, k) == lane_detection(replayed, k), k
        # Some lanes end abandoned, and some take events inside the window.
        fired = block.trigger_sample[0] >= 0
        assert 0 < np.count_nonzero(~fired) < len(indices) / 2
        in_window = 0
        for i, trigger in zip(indices, block.trigger_sample[0].tolist()):
            t_fire = trigger * AMP.sample_period
            times = (t for t, _ in column_replay(31, rates, i))
            in_window += trigger >= 0 and t_fire < next(t for t in times if t > t_fire) <= (
                t_fire + 3e-4
            )
        assert in_window > 5
        # Without monitoring a shot keeps the spin its first event loads.
        spins = harness._draw_load_spin(cfg, rates, indices)
        assert spins.tolist() == [next(column_replay(31, rates, i))[1] for i in indices]

    def test_ended_blocks_leave_the_other_streams(self, monkeypatch):
        # Shots 1000-2099 span blocks 0-2.  Once block 1's lanes leave after
        # round 0, rounds 1-3 of blocks 0 and 2 must still read their own
        # generators' rounds 1-3.
        drawn = []

        def recording_step(state, rates, u_time, u_choice):
            drawn.append((u_time, u_choice))
            return gillespie_step(state, rates, u_time, u_choice)

        monkeypatch.setattr(harness, "gillespie_step", recording_step)
        rates = make_config().rates
        shots = np.arange(1000, 2100)
        events = harness._block_events(31, rates, range(1000, 2100))
        lane = np.arange(len(shots))
        t, state = (a[0] for a in events(lane, np.full(len(lane), int(DonorState.IONIZED)),
                                         np.zeros(len(lane)), 1))
        kept = shots // 1024 != 1
        lane, state, t = lane[kept], state[kept], t[kept]
        for _ in range(3):
            t, state = (a[0] for a in events(lane, state, t, 1))
        replay = {}
        for b in (0, 2):
            gen = np.random.default_rng([31, harness._EVENT_STREAM, b])
            replay[b] = [gen.random((2, 1024)) for _ in range(4)]
        for r in (1, 2, 3):
            expected = np.array([replay[i // 1024][r][:, i % 1024] for i in shots[kept]]).T
            assert np.array_equal(np.array(drawn[r]), expected), r

    @pytest.mark.parametrize("point", ["tobs-physics", "mu-d-zero"])
    def test_block_draws_match_per_shot_draws(self, point):
        # 200 000 shots of the block-keyed engine against 200 000 of the
        # per-shot engine it replaced: fidelity, ionizations, resets and
        # trigger samples must agree, and the sub-rise misses must follow
        # the closed form.
        if point == "tobs-physics":
            cfg, _ = load_config(Path(__file__).resolve().parent / "golden" / "tobs.cfg")
            cfg = replace(cfg, shots=200_000, sweep=None)
        else:
            physics = replace(paper_point_physics(), donor_potential=0.0)
            cfg = replace(make_config(n_required=2000, shots=200_000, seed=5), physics=physics)
        rates, n_req = cfg.rates, cfg.demon.required_samples
        (new,) = harness._run_shots(cfg, [(rates, [n_req])])
        old = per_shot_detection(cfg, rates, n_req)

        (down_new, n_new), (down_old, n_old) = fidelity(new), fidelity(old)
        f_new, f_old = down_new / n_new, down_old / n_old
        pooled = (down_new + down_old) / (n_new + n_old)
        sigma = math.sqrt(pooled * (1 - pooled) * (1 / n_new + 1 / n_old))
        assert abs(f_new - f_old) < 3 * sigma

        for name in ("n_ionizations", "n_resets"):
            assert two_sample_pvalue(getattr(new, name)[0], getattr(old, name)[0]) > 1e-3, name
        edges = np.quantile(np.concatenate([new.trigger_sample[0], old.trigger_sample[0]]),
                            np.linspace(0.05, 0.95, 19))
        assert two_sample_pvalue(np.searchsorted(edges, new.trigger_sample[0], "right"),
                                 np.searchsorted(edges, old.trigger_sample[0], "right")) > 1e-3

        p_miss = missed_blip_probability(rise_time(AMP.cutoff, AMP.threshold), rates.in_total)
        ionizations, missed = int(new.n_ionizations.sum()), int(new.n_missed_subrise.sum())
        assert abs(missed - ionizations * p_miss) < 3 * math.sqrt(
            ionizations * p_miss * (1 - p_miss)
        )


def counted_events(monkeypatch):
    """Route harness._block_events through a wrapper that counts the calls
    of the event sources it makes; return the running count."""
    calls, block_events = [0], harness._block_events

    def counting(*args):
        events = block_events(*args)

        def count(*call):
            calls[0] += 1
            return events(*call)

        return count

    monkeypatch.setattr(harness, "_block_events", counting)
    return calls


class TestPasses:
    """A pass steps each live lane through k events, k chosen from the live
    lanes and the events taken so far (_PASS_EVENTS)."""

    @staticmethod
    def long_tail():
        """100 shots across the block boundary at 1024 at mu_D = +50 ueV,
        where both spins tunnel out: a short horizon leaves some abandoned,
        after hundreds of events."""
        cfg = make_config(n_required=1000, shots=100, seed=43, abandon_factor=30.0)
        rates = build_rates(replace(cfg.physics, donor_potential=50.0))
        return cfg, rates, [1000], range(1000, 1100)

    @pytest.mark.parametrize("case", ["amplifier", "ideal", "noisy", "thresholds", "abandoned"])
    def test_pass_length_never_changes_a_shot(self, case, monkeypatch):
        # Every field of every lane of a _shot_block call must be the same
        # whether each pass takes one event (_PASS_EVENTS = 1), the default
        # number, or as many as the events taken so far (2**20).  The calls
        # cross the block boundaries at 1024 and 2048; a short horizon
        # leaves some shots abandoned, and a t_obs sweep's call watches for
        # several thresholds.
        if case == "abandoned":
            args = self.long_tail()
        else:
            cfg = make_config(n_required=20, shots=1, seed=41, abandon_factor=3.0,
                              detector="ideal" if case == "ideal" else "amplifier",
                              noise_std=0.1 if case == "noisy" else 0.0)
            n_required = [8, 20, 45] if case == "thresholds" else [20]
            args = (cfg, cfg.rates, n_required, range(900, 2200))
        default = harness._shot_block(args)
        assert 0 < np.count_nonzero(default.trigger_sample < 0) < default.trigger_sample.size / 2
        for width in (1, 2**20):
            monkeypatch.setattr(harness, "_PASS_EVENTS", width)
            other = harness._shot_block(args)
            for f in fields(default):
                assert np.array_equal(getattr(other, f.name), getattr(default, f.name)), (
                    width, f.name)

    def test_cost_follows_passes(self, monkeypatch):
        # The long-tail call takes its rounds, one event each, when every
        # pass is one event; at the default pass length it must make at
        # most one call of its event source per eight of those rounds.
        calls = counted_events(monkeypatch)
        args = self.long_tail()
        monkeypatch.setattr(harness, "_PASS_EVENTS", 1)
        harness._shot_block(args)
        rounds, calls[0] = calls[0], 0
        monkeypatch.undo()
        calls = counted_events(monkeypatch)
        harness._shot_block(args)
        assert rounds > 200 and calls[0] <= rounds / 8, (rounds, calls[0])


class TestArrayHelpers:
    """_scan and _reduce against the numpy calls they stand for, at row
    counts around the powers of two that _scan's shifted steps double
    through."""

    ROWS = [*range(1, 10), 16, 17, 255, 256]

    @pytest.mark.parametrize("ufunc", [np.add, np.maximum])
    def test_scan_is_accumulate_in_place(self, ufunc):
        rng = np.random.default_rng(7)
        for rows in self.ROWS:
            for width in (1, 3):
                x = rng.integers(-10**6, 10**6, (rows, width))
                if ufunc is np.maximum:
                    x = x / 7.0
                expected = ufunc.accumulate(x, axis=0)
                assert harness._scan(ufunc, x) is x
                assert np.array_equal(x, expected), (rows, width)

    @pytest.mark.parametrize("ufunc", [np.add, np.logical_or])
    def test_reduce_is_reduce(self, ufunc):
        rng = np.random.default_rng(8)
        for rows in self.ROWS:
            for width in (1, 3):
                a = rng.integers(0, 2 if ufunc is np.logical_or else 10**6, (rows, width))
                if ufunc is np.logical_or:
                    a = a.astype(bool)
                reduced = harness._reduce(ufunc, a)
                assert reduced.shape == (width,)
                assert np.array_equal(reduced, ufunc.reduce(a, axis=0)), (rows, width)


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

    def test_one_pool_per_sweep(self, monkeypatch):
        # A sweep of two or more calls starts one pool and makes one map for
        # all its points; a sweep of one call, or of none, starts no pool.
        # A t_obs sweep maps one call per block range, each watching for
        # every threshold, not one per range and point; a mu_d sweep maps one
        # call per range and point.  _sweep_point still builds each point.
        starts, maps, points = [], [], []
        pool = harness.Pool

        class CountingPool:
            def __init__(self, **kwargs):
                starts.append(kwargs)
                self.pool = pool(**kwargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return self.pool.__exit__(*exc)

            def map(self, fn, calls, chunksize=None):
                maps.append([(call[2], call[3]) for call in calls])
                return self.pool.map(fn, calls, chunksize)

        monkeypatch.setattr(harness, "Pool", CountingPool)
        sweep_point = harness._sweep_point
        monkeypatch.setattr(harness, "_sweep_point",
                            lambda *args: points.append(args[2]) or sweep_point(*args))
        grid = [k * 1e-3 for k in range(8)]
        thresholds = list(range(100, 800, 100))
        ranges = [range(0, 2048), range(2048, 2100)]
        # 2100 shots at one threshold per point fit one call: no pool.
        results = sweep_tobs(replace(self.grid_config(grid, shots=2100), workers=2))
        assert len(results) == 8 and starts == [] and maps == []
        assert points == grid

        bias = replace(self.grid_config(grid, shots=2100), workers=2,
                       sweep=SweepSpec(variable="mu_d", grid=(-100.0, 0.0, 20.0)))
        assert len(sweep_bias(bias, demon_on=True)) == 3 and len(starts) == 1
        assert maps == [[([500], r) for _ in range(3) for r in ranges]]
        assert points == grid + [-100.0, 0.0, 20.0]

        # At a cap of two blocks the t_obs sweep is two calls: one pool.
        with monkeypatch.context() as patch:
            patch.setattr(harness, "_LANE_BLOCKS", 2)
            assert sweep_tobs(replace(self.grid_config(grid, shots=2100), workers=2)) == results
        assert len(starts) == 2 and maps[1] == [(thresholds, r) for r in ranges]

        sweep_tobs(replace(self.grid_config([0.0], shots=200), workers=2))
        assert len(starts) == 2 and len(maps) == 2

        # Each call is one run_detection call.
        detections = []
        run = harness.run_detection
        monkeypatch.setattr(harness, "Pool", SerialPool)
        monkeypatch.setattr(harness, "run_detection", lambda *args, **kwargs: detections.append(
            (kwargs["n_required"], args[1])) or run(*args, **kwargs))
        assert sweep_tobs(replace(self.grid_config(grid, shots=2100), workers=2)) == results
        assert detections == [(thresholds, 2100)]

    def test_pool_starts_no_idle_worker(self, monkeypatch):
        # A pool asks for no more processes than it has calls: 64 workers on
        # two mu_d points of 1500 shots make four one-block calls.  The
        # stand-in pool records the count and maps in this process, so no
        # process starts.
        asked = []

        class RecordingPool(SerialPool):
            def __init__(self, processes):
                asked.append(processes)
                super().__init__(processes)

        monkeypatch.setattr(harness, "Pool", RecordingPool)
        cfg = replace(self.grid_config([1e-3]), sweep=SweepSpec("mu_d", (0.0, 20.0)))
        assert sweep_bias(replace(cfg, workers=64), True) == sweep_bias(cfg, True)
        assert asked == [4]

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("detector, noise_std",
                             [("amplifier", 0.0), ("ideal", 0.0), ("amplifier", 0.1)],
                             ids=["amplifier", "ideal", "noisy"])
    def test_one_trajectory_matches_a_run_per_point(self, detector, noise_std, workers):
        # Every field of every point equals a sweep that runs each point
        # alone.  2100 shots cross the 1024-shot blocks; the grid holds the
        # prior point and two times that round to the same 100 samples, each
        # with its own bootstrap stream; a horizon of twice each observation
        # time leaves shots abandoned at the small thresholds.
        grid = (0.0, 2e-4, 5e-4, 1e-3, 1.004e-3, 3e-3)
        cfg = replace(self.grid_config(grid, shots=2100, seed=29, detector=detector),
                      noise_std=noise_std, abandon_factor=2.0)
        reference = per_point_sweep(cfg)
        assert sweep_tobs(replace(cfg, workers=workers)) == reference
        assert reference[1].n_abandoned > 0 and reference[2].n_abandoned > 0
        assert reference[3].successes == reference[4].successes
        assert 0 < reference[5].n_abandoned < reference[1].n_abandoned

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

    def test_demon_off_starts_no_pool(self, monkeypatch):
        starts = []
        pool = harness.Pool
        monkeypatch.setattr(harness, "Pool", lambda **kwargs: starts.append(1) or pool(**kwargs))
        cfg = replace(self.bias_config([-100.0, 0.0, 60.0], t_e=0.26, shots=200), workers=2)
        sweep_bias(cfg, demon_on=False)
        assert starts == []
        sweep_bias(cfg, demon_on=True)
        assert len(starts) == 1

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
        rows = projection_999(cfg.amplifier, cfg.rates.in_total)
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
