"""Reference views of the demon that the tests check the program against.

The package computes the posterior in one closed form
(``spindemon.demon.batch_posterior``) and resolves each shot's samples in
closed form between tunneling events (``spindemon.harness.run_detection``).
The views here are independent routes to the same numbers:

- the rendered sensor chain: a trajectory, its amplifier output on a
  substep grid, point decimation and threshold comparison;
- the ideal detector's samples, read off the trajectory directly;
- the scalar detection loop: one shot's transition stream walked event by
  event in Python numbers, a one-lane reference for the lane engine;
- explicit per-lane transition streams as an event source of the lane
  engine, and the per-shot streams the engine drew before its events were
  keyed by block;
- one noise generator per lane as a noise source of the lane engine, the
  stream the scalar loop draws its flips from;
- the runs of samples the lane engine feeds each counter, recorded by
  wrapping its feed;
- a t_obs sweep run one grid point at a time, as the program ran it before
  the points shared each shot's trajectory;
- a counter-only trigger, stepped one sample at a time, and a window scan
  that finds the same trigger sample without counting;
- the sequential Bayes update, one silent sample at a time;
- the conditional (no-tunneling) evolution of the occupation vector;
- the three-state master equation, propagated by matrix exponential.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import takewhile
from types import SimpleNamespace
from typing import Iterator

import numpy as np
from scipy.linalg import expm

import spindemon.harness as harness
from spindemon.demon import likelihood_no_blip
from spindemon.physics import RateSet, bare_init_fidelity_from_rates
from spindemon.telegraph import AmplifierParams, DonorState, gillespie_step, rise_time

_LEVEL = {DonorState.UP: 0.0, DonorState.DOWN: 0.0, DonorState.IONIZED: 1.0}


@dataclass
class EventTimeline:
    """Time-ordered state transitions of one trajectory.

    events holds (time, new_state) pairs with strictly increasing times in
    (0, duration]; consecutive states always differ.
    """

    initial_state: DonorState
    events: list[tuple[float, DonorState]]
    duration: float

    def state_at(self, t: float) -> DonorState:
        """State occupied at time t (events are effective at their timestamp)."""
        state = self.initial_state
        for when, new_state in self.events:
            if when > t:
                break
            state = new_state
        return state

    def segments(self) -> Iterator[tuple[float, float, DonorState]]:
        """Yield (start, end, state) covering [0, duration]."""
        start = 0.0
        state = self.initial_state
        for when, new_state in self.events:
            yield start, when, state
            start, state = when, new_state
        yield start, self.duration, state


@dataclass
class SampledTrace:
    """Digitized sensor samples and their threshold comparisons."""

    samples: np.ndarray
    blips: np.ndarray
    sample_period: float


def transitions(
    rng: np.random.Generator, rates, initial: DonorState
) -> Iterator[tuple[float, DonorState]]:
    """Unbounded stream of (time, new_state) transitions of one chain: each
    step feeds two uniforms of ``rng`` to ``gillespie_step``."""
    state = initial
    t = 0.0
    while True:
        u_time, u_choice = rng.random(2)
        dt, new_state = gillespie_step(state, rates, u_time, u_choice)
        if not math.isfinite(dt):
            return
        t += float(dt)
        state = DonorState(int(new_state))
        yield t, state


def sample_trajectory(
    rates,
    initial: DonorState,
    duration: float,
    seed=None,
    rng: np.random.Generator | None = None,
) -> EventTimeline:
    """One chain's transition stream, cut at ``duration``.

    The events are the prefix of ``transitions`` below ``duration``: the
    Gillespie step the shot engine takes, fed by one generator.  The result
    is deterministic given the seed.

    Args:
        rates: RateSet with the tunnel (and optional spin-flip) rates.
        initial: starting state.
        duration: trajectory length in seconds (> 0).
        seed: RNG seed (int or sequence) used when rng is not supplied.
        rng: optional generator to draw from directly.
    """
    if duration <= 0.0:
        raise ValueError("duration must be > 0")
    if rng is None:
        rng = np.random.default_rng(seed)
    stream = transitions(rng, rates, initial)
    events = list(takewhile(lambda event: event[0] < duration, stream))
    return EventTimeline(initial_state=initial, events=events, duration=duration)


def _exp(value: float) -> float:
    """exp through numpy's array loop, as the engine's amplifier output takes
    it; math.exp can differ in the last bit, which moves a sample that sits
    at the threshold."""
    return float(np.exp(np.array([value]))[0])


def render_sensor_trace(
    timeline: EventTimeline,
    amp: AmplifierParams,
    substep: float | None = None,
) -> np.ndarray:
    """Amplifier output on a fixed substep grid.

    The ideal telegraph input (1 ionized, 0 neutral) is piecewise constant,
    so the first-order response is evaluated in closed form per segment;
    values at the grid points are exact for any substep, which only sets the
    reporting resolution.  The output at t = 0 is settled at the initial
    state's telegraph level.

    Args:
        timeline: trajectory to render.
        amp: amplifier parameters; substep must be <= sample_period / 10.
        substep: grid spacing in seconds (default sample_period / 100).

    Returns:
        Array of output values at t = k * substep, k = 0 .. floor(T/substep).
    """
    if substep is None:
        substep = amp.sample_period / 100.0
    if substep > amp.sample_period / 10.0 + 1e-18:
        raise ValueError("substep too coarse: must be <= sample_period / 10")
    omega = amp.angular_cutoff
    n_points = int(math.floor(timeline.duration / substep + 1e-9)) + 1
    times = np.arange(n_points) * substep
    out = np.empty(n_points)

    level = _LEVEL[timeline.initial_state]
    out[0] = level
    idx = 1
    for start, end, state in timeline.segments():
        x = _LEVEL[state]
        if idx < n_points:
            hi = np.searchsorted(times, end, side="right")
            if hi > idx:
                out[idx:hi] = x + (level - x) * np.exp(-omega * (times[idx:hi] - start))
                idx = hi
        level = x + (level - x) * _exp(-omega * (end - start))
        if idx >= n_points:
            break
    return out


def digitize(
    raw: np.ndarray,
    amp: AmplifierParams,
    substep: float | None = None,
    noise_std: float = 0.0,
    rng: np.random.Generator | None = None,
) -> SampledTrace:
    """Point-decimate a rendered trace at t = n * sample_period.

    Instantaneous values are picked with no anti-alias filtering, matching a
    plain decimating acquisition.  Samples exactly at the threshold are not
    blips (strict comparison).  Optional additive Gaussian noise is applied
    to the picked samples for robustness studies; it is off by default.
    """
    if substep is None:
        substep = amp.sample_period / 100.0
    stride = amp.sample_period / substep
    stride_int = round(stride)
    if abs(stride - stride_int) > 1e-6 or stride_int < 1:
        raise ValueError("sample_period must be an integer multiple of substep")
    if len(raw) <= stride_int:
        raise ValueError("trace shorter than one sample period")
    samples = np.array(raw[stride_int::stride_int], dtype=float)
    if noise_std > 0.0:
        if rng is None:
            rng = np.random.default_rng()
        samples = samples + rng.normal(0.0, noise_std, size=samples.shape)
    blips = samples > amp.threshold
    return SampledTrace(samples=samples, blips=blips, sample_period=amp.sample_period)


def ideal_blips(timeline: EventTimeline, sample_period: float, n_samples: int) -> np.ndarray:
    """Blips of the ideal detector, read off the trajectory.

    Sample n (1-based) is a blip exactly when the donor is ionized at some
    instant in ((n - 1) T_s, n T_s].  Entry n - 1 of the result holds
    sample n.
    """
    blips = np.zeros(n_samples, dtype=bool)
    for start, end, state in timeline.segments():
        if state is not DonorState.IONIZED:
            continue
        for n in range(1, n_samples + 1):
            if start <= n * sample_period and end > (n - 1) * sample_period:
                blips[n - 1] = True
    return blips


def list_events(streams):
    """Event source for ``spindemon.harness.run_detection`` over explicit
    per-lane transition streams (lists or iterators of (time, new_state)).

    A call for k events takes the next k items of each live lane's stream,
    as (k, lanes) arrays; a stream that has ended reads (inf, -1), which
    ends its lane.
    """
    iters = [iter(stream) for stream in streams]

    def events(lane, state, t, k):
        items = [next(iters[j], (math.inf, -1)) for j in lane.tolist() for _ in range(k)]
        t_event, new_state = np.array(items, float).reshape(len(lane), k, 2).transpose(2, 1, 0)
        return t_event, new_state.astype(np.int64)

    return events


# The per-shot Gillespie step the engine took before its events were keyed
# by block: channels per state as (rate attribute, destination) pairs.
_PER_SHOT_CHANNELS = {
    DonorState.UP: (("out_up", DonorState.IONIZED), ("relax", DonorState.DOWN)),
    DonorState.DOWN: (("out_down", DonorState.IONIZED), ("excite", DonorState.UP)),
    DonorState.IONIZED: (("in_up", DonorState.UP), ("in_down", DonorState.DOWN)),
}


def per_shot_transitions(rng: np.random.Generator, rates) -> Iterator[tuple[float, DonorState]]:
    """A shot's transitions as the per-shot engine drew them from the shot's
    own generator: an exponential holding time, then a uniform that picks
    the channel."""
    state = DonorState.IONIZED
    t = 0.0
    while True:
        (name_a, dest_a), (name_b, dest_b) = _PER_SHOT_CHANNELS[state]
        rate_a = getattr(rates, name_a)
        total = rate_a + getattr(rates, name_b)
        if total <= 0.0:
            return
        t += rng.exponential(1.0 / total)
        state = dest_a if rng.random() * total < rate_a else dest_b
        yield t, state


@dataclass
class ShotDetection:
    """One lane's outcome of run_detection, in Python numbers."""

    trigger_sample: int | None
    state_at_trigger: DonorState | None
    n_resets: int
    n_ionizations: int
    n_missed_subrise: int
    n_missed_sampled: int
    end_time: float
    runs: list[tuple[int, int, bool]] | None


def run_recorded(events, lanes, record_runs=True, *, n_required, horizon, **kwargs):
    """``spindemon.harness.run_detection`` at the one threshold
    ``n_required`` and its ``horizon``, with ``runs``: each lane's
    (start_sample, length, is_blip) tuples as its counter was fed them, one
    per nonempty run, up to and including the one that fires its last
    threshold.  They are read off the run matrices of the engine's
    ``_feed``, which it is wrapped to record.  ``record_runs`` is ignored,
    so that the keyword arguments of a ``scalar_detection`` call can be
    passed as they are.
    """
    runs = [[] for _ in range(lanes)]
    feed = harness._feed

    def recording_feed(live, det, matrix, *args):
        counting = live.need.nonzero()[0]
        feed(live, det, matrix, *args)
        n, split, first_blip, silent, blips = matrix
        for j in counting.tolist():
            lane = int(live.lane[j])
            # The last threshold's trigger if it fired in these runs, else -1.
            last = int(det.trigger_sample[-1, lane]) if not live.need[j] else -1
            for row in range(len(n)):
                first = int(split[row, j] - n[row, j])
                pair = ((int(n[row, j]), first, bool(first_blip[row, j])),
                        (int(split[row, j]), int(silent[row, j] + blips[row, j]) - first,
                         not first_blip[row, j]))
                for start, length, is_blip in pair:
                    if length > 0:
                        runs[lane].append((start, length, is_blip))
                        if start <= last < start + length:
                            break
                else:
                    continue
                break

    harness._feed = recording_feed
    try:
        detection = harness.run_detection(events, lanes, n_required=[n_required],
                                          horizon=[horizon], **kwargs)
    finally:
        harness._feed = feed
    return SimpleNamespace(**vars(detection), runs=runs)


def per_point_sweep(cfg) -> list:
    """``spindemon.harness.sweep_tobs`` with every shot run again at each
    grid point, one threshold per run."""
    rates, ts = cfg.rates, cfg.amplifier.sample_period
    results = []
    for k, t_obs in enumerate(cfg.sweep.grid):
        n_required = round(t_obs / ts)
        tallies = None
        if n_required:
            (calls,) = harness._run_shots(cfg, [(rates, [n_required])], tally=True)
            tallies = [(spins[0], totals[0]) for spins, totals in calls]
        results.append(harness._sweep_point(cfg, k, t_obs, rates, n_required, tallies))
    return results


def lane_detection(detection, lane: int) -> ShotDetection:
    """Lane ``lane`` of a ``spindemon.harness.run_detection`` result, at its
    first threshold."""
    trigger = int(detection.trigger_sample[0, lane])
    return ShotDetection(
        trigger_sample=trigger if trigger >= 0 else None,
        state_at_trigger=DonorState(detection.state_at_trigger[0, lane]) if trigger >= 0 else None,
        n_resets=int(detection.n_resets[0, lane]),
        n_ionizations=int(detection.n_ionizations[0, lane]),
        n_missed_subrise=int(detection.n_missed_subrise[0, lane]),
        n_missed_sampled=int(detection.n_missed_sampled[0, lane]),
        end_time=float(detection.end_time[0, lane]),
        runs=detection.runs[lane] if hasattr(detection, "runs") else None,
    )


def _last_sample(t: float, ts: float) -> int:
    n = int(t / ts)
    while (n + 1) * ts <= t:
        n += 1
    while n > 0 and n * ts > t:
        n -= 1
    return n


def _output(x: float, level: float, omega: float, dt: float) -> float:
    return x + (level - x) * _exp(-omega * dt)


def _noiseless_runs(amp, detector, x, level, seg_start, latched_until, n_first, n_last):
    if detector == "ideal":
        covered = n_last if x == 1.0 else min(latched_until, n_last)
        start = max(n_first, covered + 1)
        return [(n_first, covered - n_first + 1, True), (start, n_last - start + 1, False)]
    ts, s_th, omega = amp.sample_period, amp.threshold, amp.angular_cutoff
    rising = x == 1.0
    if (level > s_th) == rising:
        n_cross = n_first
    else:
        t_c = seg_start + math.log((x - level) / (x - s_th)) / omega
        n_cross = max(n_first, min(int(t_c / ts) + 1, n_last + 1))
        while n_cross <= n_last and (
            _output(x, level, omega, n_cross * ts - seg_start) > s_th
        ) != rising:
            n_cross += 1
        while n_cross > n_first and (
            _output(x, level, omega, (n_cross - 1) * ts - seg_start) > s_th
        ) == rising:
            n_cross -= 1
    return [(n_first, n_cross - n_first, not rising), (n_cross, n_last - n_cross + 1, rising)]


def _log1p(value: float) -> float:
    """log1p through numpy's array loop, as the engine takes it (see _exp)."""
    return float(np.log1p(np.array([value]))[0])


def _flip_probability(amp, noise_std, x, level, seg_start, n):
    """Probability that noise flips sample n away from its noiseless outcome,
    and whether the noiseless output is past the threshold toward x."""
    m = _output(x, level, amp.angular_cutoff, n * amp.sample_period - seg_start)
    p = 0.5 * math.erfc(abs(m - amp.threshold) / (noise_std * math.sqrt(2.0)))
    return p, (m > amp.threshold) == (x == 1.0)


def next_flip(rng, amp, noise_std, x, level, seg_start, n, n_last):
    """First sample from n to n_last that noise flips, or n_last + 1: a
    Bernoulli process at a bound r on the flip probability, thinned by
    p / r, with r re-bounded after each candidate and kept at least
    ``harness._MIN_BOUND``.  Each candidate draws one (u_gap, u_accept)
    pair, as each step of the engine's search does."""
    while n <= n_last:
        p, past = _flip_probability(amp, noise_std, x, level, seg_start, n)
        bound = max(p, harness._MIN_BOUND) if past else 0.5
        u_gap, u_accept = rng.random(2).tolist()
        gap = _log1p(-u_gap) / _log1p(-bound)
        if gap >= n_last - n + 1:
            return n_last + 1
        n += int(gap)
        if u_accept * bound < _flip_probability(amp, noise_std, x, level, seg_start, n)[0]:
            return n
        n += 1
    return n_last + 1


def lane_uniforms(gens):
    """Noise source for ``spindemon.harness.run_detection`` in which lane k
    reads each (u_gap, u_accept) pair as the next two draws of its own
    generator ``gens[k]``, whatever round and row it asks for: the stream
    that ``scalar_detection`` draws from one generator."""

    def uniforms(lane, rnd, row):
        pairs = np.array([gens[k].random(2) for k in lane.tolist()]).reshape(-1, 2)
        return pairs[:, 0], pairs[:, 1]

    return uniforms


def scalar_detection(events, *, amp, n_required, horizon, latency=0.0, detector="amplifier",
                     noise_std=0.0, rng=None, record_runs=False) -> ShotDetection:
    """One shot through the trigger logic, event by event in Python numbers.

    The same rules as ``spindemon.harness.run_detection`` for a single
    lane: each segment between events is split in closed form into
    (start_sample, length, is_blip) runs, and the runs drive the
    silent-sample counter one at a time.  With noise, ``rng`` finds the
    segment's first flipped sample (``next_flip``); the runs stop before
    it, the flipped sample is a run of its own, and the search restarts
    after it, until the trigger.
    """
    ts = amp.sample_period
    omega = amp.angular_cutoff
    t_rise_det = 0.0 if detector == "ideal" else rise_time(amp.cutoff, amp.threshold)
    noisy = noise_std > 0.0 and detector == "amplifier"
    state = DonorState.IONIZED
    level = 1.0
    seg_start = 0.0
    n = 1
    counter = 0
    trigger_sample = None
    n_resets = n_ionizations = n_missed_subrise = n_missed_sampled = 0
    latched_until = 0
    episode_start = None
    episode_reloaded = False
    episode_blips = 0
    runs = [] if record_runs else None

    events = iter(events)
    while True:
        item = next(events, None)
        n_last = _last_sample(horizon if item is None else min(item[0], horizon), ts)
        x = 1.0 if state is DonorState.IONIZED else 0.0
        flip = n_last + 1
        if noisy:
            flip = next_flip(rng, amp, noise_std, x, level, seg_start, n, n_last)
        while n <= n_last and trigger_sample is None:
            stop = min(n_last, flip - 1)
            chunk = _noiseless_runs(amp, detector, x, level, seg_start, latched_until, n, stop)
            if stop < n_last:  # the flipped sample, as a run of its own
                chunk += [(start, length, not is_blip) for start, length, is_blip in
                          _noiseless_runs(amp, detector, x, level, seg_start, latched_until,
                                          flip, flip)]
            for start, length, is_blip in chunk:
                if length <= 0:
                    continue
                if runs is not None:
                    runs.append((start, length, is_blip))
                if is_blip:
                    if counter > 0:
                        n_resets += 1
                    counter = 0
                    episode_blips += length
                elif counter + length >= n_required:
                    trigger_sample = start + n_required - counter - 1
                    break
                else:
                    counter += length
            n = stop + 1
            if stop < n_last and trigger_sample is None:
                n = flip + 1
                flip = next_flip(rng, amp, noise_std, x, level, seg_start, n, n_last)
        if trigger_sample is not None or item is None or item[0] >= horizon:
            break
        event_time, new_state = item
        if detector == "ideal" and state is DonorState.IONIZED:
            latched_until = max(latched_until, int(math.ceil(event_time / ts - 1e-12)))
        else:
            level = _output(x, level, omega, event_time - seg_start)
        if state is DonorState.IONIZED and new_state is not DonorState.IONIZED:
            if episode_start is not None:
                episode_reloaded = True
                if event_time - episode_start < t_rise_det:
                    n_missed_subrise += 1
        elif state is not DonorState.IONIZED and new_state is DonorState.IONIZED:
            if episode_reloaded and episode_blips == 0:
                n_missed_sampled += 1
            episode_start, episode_reloaded, episode_blips = event_time, False, 0
            n_ionizations += 1
        seg_start = event_time
        state = new_state

    if episode_reloaded and episode_blips == 0:
        n_missed_sampled += 1
    end_time = horizon
    state_at_trigger = None
    if trigger_sample is not None:
        end_time = trigger_sample * ts + latency
        while item is not None and item[0] <= end_time:
            state = item[1]
            item = next(events, None)
        state_at_trigger = state

    return ShotDetection(trigger_sample, state_at_trigger, n_resets, n_ionizations,
                         n_missed_subrise, n_missed_sampled, end_time, runs)


def trigger_tick(counter: int, blip: bool, n_required: int) -> tuple[int, bool]:
    """One sample through the counter-only demon; return (counter, fired).

    A blip clears the counter and a silent sample increments it.  The demon
    fires on the sample that brings the counter to ``n_required`` and
    re-arms with the counter at zero.
    """
    if blip:
        return 0, False
    counter += 1
    if counter >= n_required:
        return 0, True
    return counter, False


def first_trigger(blips, n_required: int) -> int | None:
    """1-based index of the sample at which the counter-only demon fires."""
    counter = 0
    for n, blip in enumerate(blips, start=1):
        counter, fired = trigger_tick(counter, bool(blip), n_required)
        if fired:
            return n
    return None


def window_scan_trigger(blips, n_required: int) -> int | None:
    """1-based index of the first sample that ends n_required silent samples,
    found by testing every window of that length."""
    for end in range(n_required, len(blips) + 1):
        if not any(blips[end - n_required : end]):
            return end
    return None


@dataclass(frozen=True)
class PosteriorState:
    """Spin-down belief after a number of silent samples.

    Attributes:
        p_down: posterior spin-down probability.
        samples_seen: number of consecutive silent samples incorporated.
        t_obs: observation time samples_seen * T_s in seconds.
    """

    p_down: float
    samples_seen: int = 0
    t_obs: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.p_down <= 1.0):
            raise ValueError(f"p_down must be in [0, 1], got {self.p_down}")
        if self.samples_seen < 0:
            raise ValueError("samples_seen must be >= 0")


def posterior_step(
    prev: PosteriorState,
    blip: bool,
    rates: RateSet,
    sample_period: float,
    reload_prior: float | None = None,
) -> PosteriorState:
    """One Bayes update of the spin-down belief.

    A silent sample reweights the belief by the no-blip likelihoods of each
    spin.  A blip projects the electron out of the donor: the previous
    state is lost, a fresh electron reloads, and the belief resets to the
    reload prior (by default the loading-rate fraction of ``rates``) with
    the sample counter cleared.
    """
    if blip:
        if reload_prior is None:
            reload_prior = bare_init_fidelity_from_rates(rates)
        return PosteriorState(p_down=reload_prior, samples_seen=0, t_obs=0.0)
    p = prev.p_down
    if p in (0.0, 1.0):
        updated = p  # certainty is a fixed point of the update
    else:
        like_down = likelihood_no_blip(DonorState.DOWN, rates, sample_period)
        like_up = likelihood_no_blip(DonorState.UP, rates, sample_period)
        updated = like_down * p / (like_down * p + like_up * (1.0 - p))
    n = prev.samples_seen + 1
    return PosteriorState(p_down=updated, samples_seen=n, t_obs=n * sample_period)


@dataclass(frozen=True)
class ConditionalDensity:
    """Normalized occupation vector (p_up, p_down, p_ionized)."""

    p_up: float
    p_down: float
    p_ionized: float = 0.0

    def __post_init__(self):
        for value in (self.p_up, self.p_down, self.p_ionized):
            if value < -1e-12:
                raise ValueError("occupations must be >= 0")
        total = self.p_up + self.p_down + self.p_ionized
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"occupations must sum to 1, got {total}")


def conditional_evolution(
    rho0: ConditionalDensity, rates: RateSet, t_obs: float
) -> ConditionalDensity:
    """State after observing no tunneling for t_obs, renormalized.

    With no spin flips, the loaded components decay independently and the
    conditional state is proportional to
        ((1 - p) exp(-out_up t), p exp(-out_down t), 0).
    The calculation is shifted by the slower rate so arbitrarily long times
    stay finite.
    """
    if rates.relax != 0.0 or rates.excite != 0.0:
        raise ValueError("conditional evolution requires zero spin-flip rates")
    if abs(rho0.p_ionized) > 1e-12:
        raise ValueError("conditional evolution starts from a loaded state")
    if t_obs < 0.0:
        raise ValueError("t_obs must be >= 0")
    shift = min(rates.out_up, rates.out_down) * t_obs
    a = rho0.p_up * math.exp(-(rates.out_up * t_obs - shift))
    b = rho0.p_down * math.exp(-(rates.out_down * t_obs - shift))
    norm = a + b
    if norm <= 0.0:
        raise ValueError("conditional state vanished; degenerate input")
    return ConditionalDensity(p_up=a / norm, p_down=b / norm, p_ionized=0.0)


def liouvillian(rates: RateSet) -> np.ndarray:
    """Generator matrix of the three-state master equation.

    Basis order (up, down, ionized); columns sum to zero, so probability is
    conserved.
    """
    return np.array(
        [
            [-rates.relax - rates.out_up, rates.excite, rates.in_up],
            [rates.relax, -rates.out_down - rates.excite, rates.in_down],
            [rates.out_up, rates.out_down, -rates.in_up - rates.in_down],
        ]
    )


def unconditioned_evolution(rho0, rates: RateSet, t: float) -> np.ndarray:
    """Propagate an occupation vector for time t under the full generator.

    Uses the matrix exponential of the 3x3 Liouvillian (scaling-and-squaring);
    spin relaxation/excitation rates are honored.
    """
    rho0 = np.asarray(rho0, dtype=float)
    if rho0.shape != (3,):
        raise ValueError("rho0 must be a 3-vector")
    if t < 0.0:
        raise ValueError("t must be >= 0")
    return expm(liouvillian(rates) * t) @ rho0
