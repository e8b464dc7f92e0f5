"""Experiment orchestration: the initialization-cycle shot engine, the
sweeps built on it, and the detection-loss projections.

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
        if not all(math.isfinite(value) for value in self.grid):
            raise ValueError("sweep grid values must be finite")
        if list(self.grid) != sorted(self.grid):
            raise ValueError("sweep grid must be sorted ascending")


@dataclass(frozen=True)
class ExperimentConfig:
    """Immutable inputs of one Monte Carlo experiment.

    detector selects the measurement chain: "amplifier" is the full
    low-pass/threshold/decimation model; "ideal" latches any ionization in a
    sample period into that sample's blip (no missed events), which isolates
    estimator behavior from detection loss.  Sensor noise acts on the
    amplifier output, so noise_std > 0 requires the amplifier detector.  It is
    drawn only up to the trigger (see run_detection), so a triggered shot's
    cost does not grow with abandon_factor.
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
        if not 0.0 < self.abandon_factor < math.inf:
            raise ValueError("abandon_factor must be finite and > 0")
        if self.detector not in ("amplifier", "ideal"):
            raise ValueError("detector must be 'amplifier' or 'ideal'")
        if not 0.0 <= self.noise_std < math.inf:
            raise ValueError("noise_std must be finite and >= 0")
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


def _last_sample(t: float, ts: float) -> int:
    """Index of the last sample instant n * ts at or before t."""
    n = int(t / ts)
    while (n + 1) * ts <= t:
        n += 1
    while n > 0 and n * ts > t:
        n -= 1
    return n


def _output(x: float, level: float, omega: float, dt: float) -> float:
    """Noiseless amplifier output dt after it was at level, settling toward x."""
    return x + (level - x) * math.exp(-omega * dt)


def _noiseless_runs(
    amp: AmplifierParams, detector: str, x: float, level: float, seg_start: float,
    latched_until: int, n_first: int, n_last: int,
) -> list[tuple[int, int, bool]]:
    """(start, length, is_blip) runs, possibly empty, of samples n_first..n_last.

    x is 1 while the donor is ionized and 0 while it is loaded.  The ideal
    detector's blips last while the donor is ionized and then up to the
    latched sample.  The amplifier output moves monotonically from level
    toward x, so its samples split at one crossing: silent then blips while
    rising, blips then silent while falling.
    """
    if detector == "ideal":
        covered = n_last if x == 1.0 else min(latched_until, n_last)
        start = max(n_first, covered + 1)
        return [(n_first, covered - n_first + 1, True), (start, n_last - start + 1, False)]
    ts, s_th, omega = amp.sample_period, amp.threshold, amp.angular_cutoff
    rising = x == 1.0
    if (level > s_th) == rising:
        n_cross = n_first  # the threshold is already behind
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

    Each segment between events is walked in chunks, and each chunk becomes
    a few (start_sample, length, is_blip) runs for the silent-sample counter:
    a blip run resets it, a silent run adds to it or fires the trigger.
    Without noise a chunk is the whole segment, split in closed form.  The
    ideal detector latches: a sample is a blip when the donor is ionized at
    any instant of ((n - 1) T_s, n T_s], so it misses no ionization.

    With noise, ``rng`` draws one value per sample in sample order, in chunks
    of ``n_required - counter`` samples.  Such a chunk either holds a blip or
    fires the trigger on its last sample, so no draw reaches past the
    trigger.  If an event falls inside the latency window, the rest of the
    trigger segment is drawn and discarded before that event is read, so a
    transition stream drawing from the same generator continues as if the
    whole segment had been drawn.  With ``record_runs``, ``runs`` holds one
    (start_sample, length, is_blip) tuple per nonempty run, up to and
    including the one that fires the trigger.
    """
    ts = amp.sample_period
    omega = amp.angular_cutoff
    t_rise_det = 0.0 if detector == "ideal" else rise_time(amp.cutoff, amp.threshold)
    noisy = noise_std > 0.0 and detector == "amplifier"
    if noisy and rng is None:
        raise ValueError("noise_std > 0 requires an rng")
    if n_required < 1:
        raise ValueError("n_required must be >= 1")

    state = DonorState.IONIZED
    level = 1.0  # amplifier output at seg_start
    seg_start = 0.0
    n = 1  # next sample to classify
    counter = 0
    trigger_sample: int | None = None
    n_resets = n_ionizations = n_missed_subrise = n_missed_sampled = 0
    latched_until = 0  # ideal detector: last sample index covered by an ionization
    # The ionization episode in progress: when it began, whether the donor
    # has reloaded since, and how many blips it has shown.
    episode_start: float | None = None
    episode_reloaded = False
    episode_blips = 0
    runs: list[tuple[int, int, bool]] | None = [] if record_runs else None

    events = iter(events)
    while True:
        item = next(events, None)
        n_last = _last_sample(horizon if item is None else min(item[0], horizon), ts)
        x = 1.0 if state is DonorState.IONIZED else 0.0
        while n <= n_last and trigger_sample is None:
            if noisy:
                size = min(n_last - n + 1, n_required - counter)
                times = np.arange(n, n + size) * ts
                values = x + (level - x) * np.exp(-omega * (times - seg_start))
                blips = values + rng.normal(0.0, noise_std, size=size) > amp.threshold
                edges = [0, *(np.flatnonzero(blips[1:] != blips[:-1]) + 1).tolist(), size]
                chunk = [(n + a, b - a, bool(blips[a])) for a, b in zip(edges, edges[1:])]
            else:
                size = n_last - n + 1
                chunk = _noiseless_runs(
                    amp, detector, x, level, seg_start, latched_until, n, n_last
                )
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
            n += size
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
    state_at_trigger: DonorState | None = None
    if trigger_sample is not None:
        end_time = trigger_sample * ts + latency
        if item is not None and item[0] <= end_time and n <= n_last:
            # The events may come from the noise generator: draw the rest of
            # the trigger segment so the next event sees the generator as it
            # would be had the whole segment been drawn.
            rng.normal(0.0, noise_std, size=n_last - n + 1)
        # Advance through any transitions inside the latency window.
        while item is not None and item[0] <= end_time:
            state = item[1]
            item = next(events, None)
        state_at_trigger = state

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


def _run_shots(cfg: ExperimentConfig, rates: RateSet, n_required: int) -> list[ShotRecord]:
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
    cfg: ExperimentConfig, rates: RateSet, n_required: int, monitored: bool
) -> float:
    """Lower bound on one sweep point's fidelity: posterior less P_miss.

    P_miss counts only ionizations shorter than the rise time; see
    SweepResult.analytic.
    """
    prior = bare_init_fidelity_from_rates(rates)
    if not monitored:
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
    """Without monitoring every shot keeps its loaded spin and no shot is run."""
    monitored = demon_on and n_required > 0
    if monitored:
        records = _run_shots(cfg, rates, n_required)
        spins = [r.spin_at_trigger for r in records if r.triggered]
    else:
        records = []
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
        analytic=_analytic_fidelity(cfg, rates, n_required, monitored),
        n_triggered=len(spins),
        n_abandoned=cfg.shots - len(spins),
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
    rows = []
    for label, cutoff, in_rate in (
        ("baseline", amp.cutoff, base_in),
        ("faster_amplifier", fast_cutoff, base_in),
        ("slower_loading", amp.cutoff, slow_in_rate),
    ):
        t_r = rise_time(cutoff, amp.threshold)
        p_m = missed_blip_probability(t_r, in_rate)
        rows.append(ProjectionScenario(label, cutoff, in_rate, t_r, p_m, 1.0 - p_m))
    return rows
