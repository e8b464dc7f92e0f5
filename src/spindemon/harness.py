"""Experiment orchestration: full initialization-cycle Monte Carlo, sweeps,
projections, and derived-quantity helpers.

One shot follows the hardware cycle: the donor starts ionized (empty pulse),
an electron loads from the reservoir, and a counter watches the digitized
sensor until it sees the required run of silent samples.  The shot engine
is event driven: between tunneling events the amplifier output is a single
exponential, so the blip/no-blip status of every sample in the gap is
resolved analytically instead of sample by sample.  Its output is identical
to rendering the trace on a substep grid, decimating, and counting silent
samples one at a time (``tests/oracles.py`` holds that reference chain and
the tests cross-check the two), but runs in time proportional to the number
of tunneling events.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from multiprocessing import Pool
from typing import Iterable, Iterator

import numpy as np

from .demon import DemonConfig, batch_posterior
from .physics import (
    RateSet,
    TunnelModelParams,
    bare_init_fidelity_from_chi,
    bare_init_fidelity_from_rates,
    build_rates,
)
from .telegraph import (
    AmplifierParams,
    DonorState,
    gillespie_step,
    missed_blip_probability,
    rise_time,
)

_BOOTSTRAP_STREAM = 0x0B007
_LOAD_DRAW_STREAM = 0x10AD

BOOTSTRAP_RESAMPLES = 200
BOOTSTRAP_BATCH_DIVISOR = 20


@dataclass(frozen=True)
class SweepSpec:
    """What to sweep: observation time or donor potential over a grid."""

    variable: str
    grid: tuple[float, ...]

    def __post_init__(self):
        if self.variable not in ("t_obs", "mu_d"):
            raise ValueError("sweep variable must be 't_obs' or 'mu_d'")
        if len(self.grid) == 0:
            raise ValueError("sweep grid must be nonempty")
        if list(self.grid) != sorted(self.grid):
            raise ValueError("sweep grid must be sorted ascending")


@dataclass(frozen=True)
class ExperimentConfig:
    """Immutable inputs of one Monte Carlo experiment.

    detector selects the measurement chain: "amplifier" is the full
    low-pass/threshold/decimation model; "ideal" latches any ionization in a
    sample period into that sample's blip (no missed events), which isolates
    estimator behavior from detection loss.  Sensor noise acts on the
    amplifier output, so noise_std > 0 requires the amplifier detector.  The
    noise is drawn from the shot's generator only up to the trigger sample,
    in chunks no longer than the required run, so a triggered shot's cost
    does not grow with abandon_factor (see run_detection).
    """

    physics: TunnelModelParams
    amplifier: AmplifierParams
    demon: DemonConfig
    shots: int
    master_seed: int
    noise_std: float = 0.0
    sweep: SweepSpec | None = None
    workers: int = 1
    abandon_factor: float = 1000.0
    detector: str = "amplifier"

    def __post_init__(self):
        if self.shots < 1:
            raise ValueError("shots must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.master_seed < 0:
            raise ValueError("master_seed must be >= 0")
        if self.abandon_factor <= 0.0:
            raise ValueError("abandon_factor must be > 0")
        if self.detector not in ("amplifier", "ideal"):
            raise ValueError("detector must be 'amplifier' or 'ideal'")
        if self.noise_std < 0.0:
            raise ValueError("noise_std must be >= 0")
        if self.noise_std > 0.0 and self.detector == "ideal":
            raise ValueError("noise_std > 0 requires detector 'amplifier'")

    @property
    def rates(self) -> RateSet:
        return build_rates(self.physics)

    @property
    def load_prior(self) -> float:
        """Spin-down probability of a freshly loaded electron."""
        return bare_init_fidelity_from_rates(self.rates)


@dataclass
class ShotRecord:
    """Outcome of one initialization shot."""

    shot_index: int
    triggered: bool
    trigger_time: float | None
    n_resets: int
    spin_at_trigger: DonorState | None
    n_ionizations: int
    n_missed_subrise: int
    n_missed_sampled: int
    observed_duration: float

    @property
    def succeeded(self) -> bool:
        return self.triggered and self.spin_at_trigger is DonorState.DOWN


@dataclass
class SweepResult:
    """One grid point of a sweep: Monte Carlo outcome plus the analytic curve.

    analytic is a lower bound on the monitored fidelity, not a prediction:
    the posterior less the sub-rise-time miss probability.  Events missed
    between samples are not in that probability, so the Monte Carlo sits
    above it: 0.99699 against 0.99368 at the 20 ms operating point with
    100 000 shots.
    """

    grid_value: float
    shots: int
    successes: int
    median: float
    p25: float
    p75: float
    analytic: float
    n_triggered: int = 0
    n_abandoned: int = 0
    n_ionizations: int = 0
    n_missed_subrise: int = 0
    n_missed_sampled: int = 0


@dataclass
class ProjectionScenario:
    """Detection-loss projection for one hardware variant."""

    label: str
    cutoff: float
    in_rate_total: float
    t_rise: float
    p_miss: float
    plateau: float


@dataclass
class _Detection:
    trigger_sample: int | None
    state_at_trigger: DonorState | None
    n_resets: int
    n_ionizations: int
    n_missed_subrise: int
    n_missed_sampled: int
    end_time: float
    runs: list[tuple[int, int, bool]] | None


def _live_events(
    rng: np.random.Generator, rates: RateSet, initial: DonorState
) -> Iterator[tuple[float, DonorState]]:
    """Unbounded stream of (time, new_state) transitions from the chain."""
    state = initial
    t = 0.0
    while True:
        dt, new_state = gillespie_step(state, rates, rng)
        if not math.isfinite(dt):
            return
        t += dt
        state = new_state
        yield t, state


def run_detection(
    events: Iterable[tuple[float, DonorState]],
    *,
    amp: AmplifierParams,
    n_required: int,
    horizon: float,
    latency: float = 0.0,
    detector: str = "amplifier",
    noise_std: float = 0.0,
    rng: np.random.Generator | None = None,
    record_runs: bool = False,
) -> _Detection:
    """Consume a transition stream and run the trigger logic over its samples.

    The donor starts ionized with the amplifier output settled at 1.  Samples
    sit at t = n * T_s, n = 1, 2, ...  The trigger fires at the sample
    completing ``n_required`` consecutive silent samples; the loaded state is
    then evaluated ``latency`` seconds after that sample instant.  Processing
    stops at the trigger or at ``horizon``, whichever is first.

    With noise, ``rng`` draws one value per sample in sample order, walking
    each inter-event segment in chunks of at most ``n_required - counter``
    samples, so no draw reaches past the trigger and none is longer than
    ``n_required``.  If an event falls inside the latency window, the rest of
    the trigger segment is drawn and discarded before that event is read,
    so a transition stream drawing from the same generator continues as if
    the whole segment had been drawn.
    """
    ts = amp.sample_period
    s_th = amp.threshold
    omega = amp.angular_cutoff
    t_rise_det = 0.0 if detector == "ideal" else rise_time(amp.cutoff, s_th)
    noisy = noise_std > 0.0 and detector == "amplifier"
    if noisy and rng is None:
        raise ValueError("noise_std > 0 requires an rng")
    if n_required < 1:
        raise ValueError("n_required must be >= 1")

    state = DonorState.IONIZED
    level = 1.0
    seg_start = 0.0

    counter = 0
    next_sample = 1
    trigger_sample: int | None = None
    n_resets = 0
    n_ionizations = 0
    n_missed_subrise = 0
    n_missed_sampled = 0
    latched_until = 0  # ideal detector: last sample index covered by an ionization
    undrawn = 0  # noisy detector: samples of the segment left undrawn at the trigger

    episode_active = False
    episode_out_time = 0.0
    episode_reloaded = False
    episode_trues = 0

    runs: list[tuple[int, int, bool]] | None = [] if record_runs else None

    def emit_run(start_n: int, length: int, is_blip: bool) -> None:
        nonlocal counter, trigger_sample, n_resets, episode_trues
        if length <= 0 or trigger_sample is not None:
            return
        if runs is not None:
            runs.append((start_n, length, is_blip))
        if is_blip:
            if counter > 0:
                n_resets += 1
            counter = 0
            if episode_active:
                episode_trues += length
        else:
            if counter + length >= n_required:
                trigger_sample = start_n + (n_required - counter) - 1
            else:
                counter += length

    def last_sample_at_or_before(t: float) -> int:
        n = int(t / ts)
        while (n + 1) * ts <= t:
            n += 1
        while n > 0 and n * ts > t:
            n -= 1
        return n

    def process_segment(t_end: float) -> None:
        """Classify and feed every sample in (seg_start, t_end]."""
        nonlocal next_sample, undrawn
        n_first = next_sample
        n_last = last_sample_at_or_before(t_end)
        if n_last < n_first:
            return
        x = 1.0 if state is DonorState.IONIZED else 0.0

        if detector == "ideal":
            if x == 1.0:
                emit_run(n_first, n_last - n_first + 1, True)
            else:
                covered = min(latched_until, n_last)
                emit_run(n_first, covered - n_first + 1, True)
                start = max(n_first, covered + 1)
                emit_run(start, n_last - start + 1, False)
            next_sample = n_last + 1
            return

        def value_at(n: int) -> float:
            return x + (level - x) * math.exp(-omega * (n * ts - seg_start))

        if noisy:
            # A chunk of n_required - counter samples either holds a blip,
            # which resets the counter, or fires the trigger on its last
            # sample, so no sample past the trigger is drawn.
            n = n_first
            while n <= n_last and trigger_sample is None:
                size = min(n_last - n + 1, n_required - counter)
                times = np.arange(n, n + size) * ts
                values = x + (level - x) * np.exp(-omega * (times - seg_start))
                values = values + rng.normal(0.0, noise_std, size=size)
                blips = values > s_th
                edges = np.flatnonzero(blips[1:] != blips[:-1]) + 1
                start = 0
                for edge in list(edges) + [size]:
                    emit_run(n + start, edge - start, bool(blips[start]))
                    if trigger_sample is not None:
                        break
                    start = edge
                n += size
            undrawn = n_last - n + 1
            next_sample = n_last + 1
            return

        # The output moves monotonically from level toward x, so the samples
        # split at one crossing: silent then blips while rising, blips then
        # silent while falling.
        rising = x == 1.0
        if (level > s_th) == rising:
            n_cross = n_first  # the threshold is already behind
        else:
            t_c = seg_start + math.log((x - level) / (x - s_th)) / omega
            n_cross = max(n_first, min(int(t_c / ts) + 1, n_last + 1))
            while n_cross <= n_last and (value_at(n_cross) > s_th) != rising:
                n_cross += 1
            while n_cross > n_first and (value_at(n_cross - 1) > s_th) == rising:
                n_cross -= 1
        emit_run(n_first, n_cross - n_first, not rising)
        emit_run(n_cross, n_last - n_cross + 1, rising)
        next_sample = n_last + 1

    def finalize_episode() -> None:
        nonlocal n_missed_sampled, episode_active
        if episode_active and episode_reloaded and episode_trues == 0:
            n_missed_sampled += 1
        episode_active = False

    event_iter = iter(events)
    end_time = horizon
    while trigger_sample is None:
        item = next(event_iter, None)
        event_time = horizon if item is None else min(item[0], horizon)
        process_segment(event_time)
        if trigger_sample is not None or item is None or item[0] >= horizon:
            break
        event_time, new_state = item
        if detector == "ideal" and state is DonorState.IONIZED:
            latched_until = max(latched_until, int(math.ceil(event_time / ts - 1e-12)))
        else:
            x = 1.0 if state is DonorState.IONIZED else 0.0
            level = x + (level - x) * math.exp(-omega * (event_time - seg_start))
        if state is DonorState.IONIZED and new_state is not DonorState.IONIZED:
            if episode_active:
                episode_reloaded = True
                if (event_time - episode_out_time) < t_rise_det:
                    n_missed_subrise += 1
        elif state is not DonorState.IONIZED and new_state is DonorState.IONIZED:
            finalize_episode()
            episode_active = True
            episode_out_time = event_time
            episode_reloaded = False
            episode_trues = 0
            n_ionizations += 1
        seg_start = event_time
        state = new_state

    state_at_trigger: DonorState | None = None
    if trigger_sample is not None:
        end_time = trigger_sample * ts + latency
        # Advance through any transitions inside the latency window.
        pending = item
        if pending is not None and pending[0] <= end_time and undrawn:
            # The events may come from the noise generator: draw the rest of
            # the trigger segment so the next event sees the generator as it
            # would be had the whole segment been drawn.
            rng.normal(0.0, noise_std, size=undrawn)
        while pending is not None and pending[0] <= end_time:
            state = pending[1]
            pending = next(event_iter, None)
        state_at_trigger = state
        finalize_episode()
    else:
        finalize_episode()

    return _Detection(
        trigger_sample=trigger_sample,
        state_at_trigger=state_at_trigger,
        n_resets=n_resets,
        n_ionizations=n_ionizations,
        n_missed_subrise=n_missed_subrise,
        n_missed_sampled=n_missed_sampled,
        end_time=end_time,
        runs=runs,
    )


def shot_rng(master_seed: int, shot_index: int) -> np.random.Generator:
    """Counter-based per-shot generator: reproducible and order independent."""
    return np.random.default_rng([master_seed, shot_index])


def run_initialization_shot(
    cfg: ExperimentConfig,
    shot_index: int,
    rates: RateSet | None = None,
    n_required: int | None = None,
) -> ShotRecord:
    """Simulate one empty-load-observe-trigger cycle.

    The donor starts ionized with the sensor level settled high; the loaded
    spin is drawn by the loading rates themselves.  A shot that fails to
    trigger within abandon_factor * t_obs is reported as abandoned rather
    than dropped.
    """
    rng = shot_rng(cfg.master_seed, shot_index)
    if rates is None:
        rates = cfg.rates
    if n_required is None:
        n_required = cfg.demon.required_samples
    horizon = cfg.abandon_factor * n_required * cfg.amplifier.sample_period
    result = run_detection(
        _live_events(rng, rates, DonorState.IONIZED),
        amp=cfg.amplifier,
        n_required=n_required,
        horizon=horizon,
        latency=cfg.demon.latency,
        detector=cfg.detector,
        noise_std=cfg.noise_std,
        rng=rng,
    )
    triggered = result.trigger_sample is not None
    return ShotRecord(
        shot_index=shot_index,
        triggered=triggered,
        trigger_time=result.end_time if triggered else None,
        n_resets=result.n_resets,
        spin_at_trigger=result.state_at_trigger,
        n_ionizations=result.n_ionizations,
        n_missed_subrise=result.n_missed_subrise,
        n_missed_sampled=result.n_missed_sampled,
        observed_duration=result.end_time,
    )


def _shot_batch(args) -> list[ShotRecord]:
    cfg, rates, n_required, indices = args
    return [run_initialization_shot(cfg, i, rates, n_required) for i in indices]


def _run_shots(
    cfg: ExperimentConfig, rates: RateSet, n_required: int
) -> list[ShotRecord]:
    indices = range(cfg.shots)
    if cfg.workers == 1:
        return [run_initialization_shot(cfg, i, rates, n_required) for i in indices]
    chunk = max(1, math.ceil(cfg.shots / (cfg.workers * 4)))
    batches = [
        (cfg, rates, n_required, list(indices[k : k + chunk]))
        for k in range(0, cfg.shots, chunk)
    ]
    with Pool(processes=cfg.workers) as pool:
        parts = pool.map(_shot_batch, batches)
    # Reduction in shot-index order keeps the result independent of the pool.
    return [record for part in parts for record in part]


def _bootstrap_quartiles(
    successes: np.ndarray, master_seed: int, point_index: int
) -> tuple[float, float, float]:
    """Median and quartiles of batch-resampled success fractions."""
    rng = np.random.default_rng([master_seed, _BOOTSTRAP_STREAM, point_index])
    if len(successes) == 0:
        return math.nan, math.nan, math.nan
    batch = max(1, len(successes) // BOOTSTRAP_BATCH_DIVISOR)
    draws = rng.integers(0, len(successes), size=(BOOTSTRAP_RESAMPLES, batch))
    means = successes[draws].mean(axis=1)
    p25, median, p75 = np.percentile(means, [25.0, 50.0, 75.0])
    return float(median), float(p25), float(p75)


def _draw_load_spin(cfg: ExperimentConfig, rates: RateSet, shot_index: int) -> DonorState:
    """Spin of the first electron loaded from the ionized donor."""
    rng = np.random.default_rng([cfg.master_seed, _LOAD_DRAW_STREAM, shot_index])
    _, state = gillespie_step(DonorState.IONIZED, rates, rng)
    return state


def _analytic_fidelity(
    cfg: ExperimentConfig, rates: RateSet, n_required: int, demon_on: bool
) -> float:
    """Lower bound on one sweep point's fidelity: posterior less P_miss.

    P_miss counts only ionizations shorter than the rise time; see
    SweepResult.analytic.
    """
    prior = bare_init_fidelity_from_rates(rates)
    if not demon_on or n_required == 0:
        return prior
    posterior = batch_posterior(prior, n_required, rates, cfg.amplifier.sample_period)
    if cfg.detector == "ideal":
        p_miss = 0.0
    else:
        p_miss = missed_blip_probability(
            rise_time(cfg.amplifier.cutoff, cfg.amplifier.threshold), rates.in_total
        )
    return min(max(posterior - p_miss, 0.0), 1.0)


def _sweep_point(
    cfg: ExperimentConfig,
    point_index: int,
    grid_value: float,
    rates: RateSet,
    n_required: int,
    demon_on: bool,
) -> SweepResult:
    analytic = _analytic_fidelity(cfg, rates, n_required, demon_on)
    if not demon_on or n_required == 0:
        spins = [_draw_load_spin(cfg, rates, i) for i in range(cfg.shots)]
        flags = np.array([s is DonorState.DOWN for s in spins], dtype=float)
        median, p25, p75 = _bootstrap_quartiles(flags, cfg.master_seed, point_index)
        return SweepResult(
            grid_value=grid_value,
            shots=cfg.shots,
            successes=int(flags.sum()),
            median=median,
            p25=p25,
            p75=p75,
            analytic=analytic,
            n_triggered=cfg.shots,
        )
    records = _run_shots(cfg, rates, n_required)
    triggered = [r for r in records if r.triggered]
    flags = np.array([r.succeeded for r in triggered], dtype=float)
    median, p25, p75 = _bootstrap_quartiles(flags, cfg.master_seed, point_index)
    return SweepResult(
        grid_value=grid_value,
        shots=cfg.shots,
        successes=int(flags.sum()),
        median=median,
        p25=p25,
        p75=p75,
        analytic=analytic,
        n_triggered=len(triggered),
        n_abandoned=cfg.shots - len(triggered),
        n_ionizations=sum(r.n_ionizations for r in records),
        n_missed_subrise=sum(r.n_missed_subrise for r in records),
        n_missed_sampled=sum(r.n_missed_sampled for r in records),
    )


def sweep_tobs(cfg: ExperimentConfig) -> list[SweepResult]:
    """Monitored fidelity versus observation time.

    Each grid value is an observation time in seconds, converted to the
    nearest whole number of sample periods; zero means "trigger immediately
    at load", whose fidelity is the loading prior itself.
    """
    if cfg.sweep is None or cfg.sweep.variable != "t_obs":
        raise ValueError("config must carry a t_obs sweep")
    rates = cfg.rates
    ts = cfg.amplifier.sample_period
    results = []
    for point_index, t_obs in enumerate(cfg.sweep.grid):
        if t_obs < 0.0:
            raise ValueError("t_obs grid values must be >= 0")
        n_required = round(t_obs / ts)
        results.append(
            _sweep_point(cfg, point_index, t_obs, rates, n_required, demon_on=True)
        )
    return results


def sweep_bias(cfg: ExperimentConfig, demon_on: bool) -> list[SweepResult]:
    """Fidelity versus donor potential, with or without real-time monitoring.

    The base tunnel rate is held fixed while the potential moves, so the
    rates change only through the reservoir occupations.  Without monitoring
    the fidelity is the loading fraction itself (the tuning-dependent bare
    curve); with monitoring the silent-sample counter runs at the configured
    observation length.
    """
    if cfg.sweep is None or cfg.sweep.variable != "mu_d":
        raise ValueError("config must carry a mu_d sweep")
    n_required = cfg.demon.required_samples
    results = []
    for point_index, mu_d in enumerate(cfg.sweep.grid):
        rates = build_rates(replace(cfg.physics, donor_potential=mu_d))
        results.append(
            _sweep_point(cfg, point_index, mu_d, rates, n_required, demon_on)
        )
    return results


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


def projection_999(
    cfg: ExperimentConfig,
    fast_cutoff: float = 300e3,
    slow_in_rate: float = 880.0,
) -> list[ProjectionScenario]:
    """Detection-loss plateaus for the two hardware improvement paths.

    Evaluates the rise-time and missed-event formulas for the baseline
    chain, for a faster amplifier at ``fast_cutoff``, and for loading slowed
    to ``slow_in_rate``; each scenario reports its plateau 1 - P_miss.
    """
    amp = cfg.amplifier
    base_in = cfg.rates.in_total

    def scenario(label: str, cutoff: float, in_rate: float) -> ProjectionScenario:
        t_r = rise_time(cutoff, amp.threshold)
        p_m = missed_blip_probability(t_r, in_rate)
        return ProjectionScenario(
            label=label,
            cutoff=cutoff,
            in_rate_total=in_rate,
            t_rise=t_r,
            p_miss=p_m,
            plateau=1.0 - p_m,
        )

    return [
        scenario("baseline", amp.cutoff, base_in),
        scenario("faster_amplifier", fast_cutoff, base_in),
        scenario("slower_loading", amp.cutoff, slow_in_rate),
    ]
