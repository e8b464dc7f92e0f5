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

The engine runs a group of shots as lanes: each shot's counter and the rest
of its detection state are entries of numpy arrays, and each round advances
every shot still running by one tunneling event.  A call's lanes are up to
_LANE_BLOCKS aligned blocks of 1024 shots.  Block b owns the generator
``default_rng([master_seed, _EVENT_STREAM, b])``; each round in which it has
a live lane draws a (2, 1024) array of uniforms from it, and one array
Gillespie step turns column i % 1024 of round r into the r-th event of shot
i.  A shot's events therefore depend on nothing but the master seed and its
index: not on how shots are grouped into calls, on the worker or on the
order.  Sensor noise only flips samples away from their noiseless outcome,
each independently; shot i finds its flips by thinning (Lewis & Shedler
1979) with its own generator, ``default_rng([master_seed, _NOISE_STREAM, i])``.
A t_obs sweep follows each shot once, all its thresholds sharing a counter.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, fields, replace
from multiprocessing import Pool
from typing import Callable, Sequence

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
_EVENT_STREAM = 0xE7E47
_NOISE_STREAM = 0x4015E

_SEED_BLOCK = 1024  # shots per event generator
# Blocks per run_detection call.  On op-point (2 vCPU) wall time stops falling
# at 16 blocks (0.11 s; 0.36 s at 1), and peak RSS grows with the lanes: 83.9
# MiB at 1 block, 87.0 at 16, 98.9 at 128.
_LANE_BLOCKS = 16

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
    amplifier output, so noise_std > 0 requires the amplifier detector.  It
    enters as the samples it flips, found with a few draws per segment and
    per flip up to the trigger of the largest threshold a run watches for
    (see run_detection): a shot costs per event and flip, not per sample.

    master_seed fixes every draw: shot i's r-th tunneling event comes from
    column i % 1024 of the r-th round of uniforms of its 1024-shot block,
    and its noise flips from its own generator (see the module docstring).
    Without monitoring, shot i keeps the spin its first event loads, which
    is the first spin its monitored run loads.
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
    above it: 0.99690 against 0.99368 in one run of 100 000 shots at the
    20 ms operating point.
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
    """Outcome of one run_detection call: an entry per lane, or per threshold and lane.

    trigger_sample and state_at_trigger hold -1 for a lane that did not
    trigger; state_at_trigger otherwise holds a DonorState value.
    """

    trigger_sample: np.ndarray
    state_at_trigger: np.ndarray
    n_resets: np.ndarray
    n_ionizations: np.ndarray
    n_missed_subrise: np.ndarray
    n_missed_sampled: np.ndarray
    end_time: np.ndarray

    @classmethod
    def concatenate(cls, parts: list[_Detection]) -> _Detection:
        """The lanes of ``parts`` in order."""
        return cls(*(np.concatenate([getattr(p, f.name) for p in parts], axis=-1)
                     for f in fields(cls)))

    def records(self, first_index: int = 0) -> list[ShotRecord]:
        """One ShotRecord per lane, lane k being shot ``first_index + k``."""
        columns = (getattr(self, f.name).tolist() for f in fields(self))
        return [ShotRecord(first_index + k, trigger >= 0, end if trigger >= 0 else None, resets,
                           DonorState(state) if trigger >= 0 else None, *counts, end)
                for k, (trigger, state, resets, *counts, end) in enumerate(zip(*columns))]


_IONIZED = int(DonorState.IONIZED)  # array comparisons skip the enum lookup
_COUNTS = ("n_resets", "n_ionizations", "n_missed_subrise", "n_missed_sampled")
_TALLIED = _COUNTS[1:]  # the counts a SweepResult sums


class _Lanes:
    """Detection state of the live lanes, one array entry per lane."""

    def __init__(self, count: int, required: np.ndarray, horizon: np.ndarray):
        self.lane = np.arange(count)  # position of the lane in the call
        self.state = np.full(count, _IONIZED)
        self.level = np.ones(count)  # amplifier output at seg_start
        self.seg_start = np.zeros(count)
        self.n = np.ones(count, np.int64)  # next sample to classify
        self.flip = np.zeros(count, np.int64)  # next sample noise flips (run_detection)
        self.counter = np.zeros(count, np.int64)
        # Next threshold to fire or abandon, its need (0 past the last) and horizon.
        self.fire_k = np.zeros(count, np.int64)
        self.end_k = np.zeros(count, np.int64)  # first threshold not yet ended
        self.need = np.full(count, required[0])
        self.horizon = np.full(count, horizon[0])
        self.latched_until = np.zeros(count, np.int64)  # ideal detector: last
        # sample index covered by an ionization.  The ionization episode in
        # progress, once n_ionizations > 0: when it began, whether the donor has
        # reloaded since, and how many blips it has shown.
        self.episode_start = np.zeros(count)
        self.episode_reloaded = np.zeros(count, bool)
        self.episode_blips = np.zeros(count, np.int64)
        self.n_resets = np.zeros(count, np.int64)
        self.n_ionizations = np.zeros(count, np.int64)
        self.n_missed_subrise = np.zeros(count, np.int64)
        self.n_missed_sampled = np.zeros(count, np.int64)

    def keep(self, lanes: np.ndarray) -> None:
        """Keep only the lanes at positions ``lanes`` of the arrays."""
        for name, value in vars(self).items():
            setattr(self, name, value[lanes])


def _last_sample(t: np.ndarray, ts: float) -> np.ndarray:
    """Index of the last sample instant n * ts at or before each t."""
    n = (t / ts).astype(np.int64)
    while np.count_nonzero(up := (n + 1) * ts <= t):
        n += up
    while np.count_nonzero(down := (n * ts > t) & (n > 0)):
        n -= down
    return n


def _output(x, level, omega: float, dt):
    """Noiseless amplifier output dt after it was at level, settling toward x."""
    return x + (level - x) * np.exp(-omega * dt)


def _noiseless_runs(amp: AmplifierParams, detector: str, live: _Lanes,
                    ionized: np.ndarray, n_last: np.ndarray):
    """Two (start, length, is_blip) runs per lane, either possibly empty, that
    together cover samples live.n .. n_last.

    The ideal detector's blips last while the donor is ionized and then up
    to the latched sample.  The amplifier output moves monotonically from
    the lane's level toward 1 while the donor is ionized and toward 0 while
    it is loaded, so its samples split at one crossing: silent then blips
    while rising, blips then silent while falling.
    """
    n = live.n
    if detector == "ideal":
        covered = np.where(ionized, n_last, np.minimum(live.latched_until, n_last))
        start = np.maximum(n, covered + 1)
        blips = np.ones(len(n), bool)
        return (n, covered - n + 1, blips), (start, n_last - start + 1, ~blips)
    ts, s_th, omega = amp.sample_period, amp.threshold, amp.angular_cutoff
    n_cross = n.copy()  # where the threshold is already behind or no sample is left
    ahead = (((live.level > s_th) != ionized) & (n <= n_last)).nonzero()[0]
    if len(ahead):
        rising, first, last = ionized[ahead], n[ahead], n_last[ahead]
        x, level, seg_start = rising * 1.0, live.level[ahead], live.seg_start[ahead]
        t_c = seg_start + np.log((x - level) / (x - s_th)) / omega
        cross = np.maximum(first, np.minimum((t_c / ts).astype(np.int64) + 1, last + 1))
        # The closed form can be a sample off either way: step to the exact crossing.
        while np.count_nonzero(fwd := (cross <= last) & (
            (_output(x, level, omega, cross * ts - seg_start) > s_th) != rising
        )):
            cross += fwd
        while np.count_nonzero(back := (cross > first) & (
            (_output(x, level, omega, (cross - 1) * ts - seg_start) > s_th) == rising
        )):
            cross -= back
        n_cross[ahead] = cross
    return (n, n_cross - n, ~ionized), (n_cross, n_last - n_cross + 1, ionized)


def _next_flip(amp: AmplifierParams, noise_std: float, rngs, live: _Lanes, ionized: np.ndarray,
               at: np.ndarray, n_end: np.ndarray) -> None:
    """Set live.flip of each lane at ``at`` to its first sample from live.n to
    n_end that noise flips away from the noiseless outcome, n_end + 1 if none.

    Sample k flips with p_k = Q(|m_k - S_th| / noise_std), m_k its noiseless
    output.  Candidates lie a geometric gap apart at a bound r on p: p at
    the gap's start once m is past the threshold toward where it settles (p
    only falls from there), 1/2 before.  A candidate is kept with
    probability p / r.  Each lane draws from its own generator.
    """
    ts, s_th, omega = amp.sample_period, amp.threshold, amp.angular_cutoff
    scale = noise_std * math.sqrt(2.0)
    for j, lane, rising, level, seg_start, n, end in zip(
            at.tolist(), live.lane[at].tolist(), ionized[at].tolist(), live.level[at].tolist(),
            live.seg_start[at].tolist(), live.n[at].tolist(), n_end[at].tolist()):
        x, rng, live.flip[j] = float(rising), rngs[lane], end + 1
        while n <= end:
            m = x + (level - x) * math.exp(-omega * (n * ts - seg_start))
            r = 0.5 * math.erfc(abs(m - s_th) / scale) if (m > s_th) == rising else 0.5
            if r == 0.0 or (gap := math.log1p(-rng.random()) / math.log1p(-r)) >= end - n + 1:
                break
            n += int(gap)
            m = x + (level - x) * math.exp(-omega * (n * ts - seg_start))
            if rng.random() * r < 0.5 * math.erfc(abs(m - s_th) / scale):
                live.flip[j] = n
                break
            n += 1


def _close(live: _Lanes, flat: _Detection, j: np.ndarray, required, horizon) -> np.ndarray:
    """Record at [lane * K + fire_k] of ``flat`` the counts of the lanes at
    ``j``, whose threshold fire_k has just fired or been abandoned; return
    where, and move the lanes on to their next threshold."""
    k = live.fire_k[j]
    at = live.lane[j] * (len(required) - 1) + k
    for name in _COUNTS[:3]:
        getattr(flat, name)[at] = getattr(live, name)[j]
    unseen = live.episode_reloaded[j] & (live.episode_blips[j] == 0)  # as a lane ends
    flat.n_missed_sampled[at] = live.n_missed_sampled[j] + unseen
    live.fire_k[j] = k + 1
    live.need[j], live.horizon[j] = required[k + 1], horizon[k + 1]
    return at


def _feed(live: _Lanes, flat: _Detection, required, horizon, start, length, is_blip) -> None:
    """Feed each lane one (start, length, is_blip) run of samples.

    A blip run resets the silent-sample counter; a silent run adds to it and
    fires every threshold it reaches.  An empty run, or a lane past its last
    threshold, is skipped.
    """
    go = (length > 0) & (live.need > 0)
    blip = go & is_blip
    silent = go ^ blip
    live.n_resets += blip & (live.counter > 0)
    live.episode_blips += blip * length
    total = live.counter + length
    fire = (silent & (total >= live.need)).nonzero()[0]
    while len(fire):
        trigger = start[fire] + (live.need[fire] - 1) - live.counter[fire]
        flat.trigger_sample[_close(live, flat, fire, required, horizon)] = trigger
        fire = fire[(total[fire] >= live.need[fire]) & (live.need[fire] > 0)]
    live.counter = np.where(silent, total, live.counter)
    live.counter[blip] = 0


def run_detection(
    events: Callable[[np.ndarray, np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]],
    lanes: int,
    *,
    amp: AmplifierParams,
    n_required: int | Sequence[int],
    horizon: float | Sequence[float],
    latency: float = 0.0,
    detector: str = "amplifier",
    noise_std: float = 0.0,
    rngs: Sequence[np.random.Generator] | None = None,
) -> _Detection:
    """Run the trigger logic over the samples of ``lanes`` transition streams.

    The lanes share every argument but their events and noise.  The donor
    starts ionized with the amplifier output settled at 1.  Samples sit at
    t = n * T_s, n = 1, 2, ...  The trigger fires at the sample completing
    ``n_required`` consecutive silent samples; the loaded state is then
    evaluated ``latency`` seconds after that sample instant.  A lane stops
    at its trigger or at ``horizon``, whichever is first.

    ``n_required`` may be ascending thresholds with a ``horizon`` each; the
    fields then hold one row per threshold, equal to a run at it alone.  The
    thresholds share one silent-sample counter: each fires where the run
    first reaches it, or is abandoned at the first event at or after its
    horizon, and its counts are taken there.  They fire and end in order,
    and a lane stays live until its last has ended.

    The lanes advance in rounds, and round r reads event r of every live
    lane: ``events(lane, state, t)`` returns the (t_event, new_state)
    arrays of the lanes at positions ``lane``, which are in ``state`` since
    time ``t``.  The segment before the event becomes (start_sample,
    length, is_blip) runs for the silent-sample counters, with array
    arithmetic over the lanes: a blip run resets a counter, a silent run
    adds to it or fires the trigger.  Without noise a segment is split in
    closed form.  The ideal detector latches: a sample is a blip when the
    donor is ionized at any instant of ((n - 1) T_s, n T_s], so it misses no
    ionization.  A lane that has fired stays live, taking the state of each
    event inside the latency window, until an event falls after it; lanes
    that end leave the arrays, so a round costs in proportion to the lanes
    still live.

    With noise, the generator ``rngs[k]`` of lane k finds the samples that
    noise flips (``_next_flip``), searching each segment up to its event or
    the last threshold's horizon.  The closed-form runs are cut at each flip
    and the flipped sample is fed on its own.  A lane searches only until
    its last threshold fires or is abandoned, so its draws depend neither on
    the other lanes nor on the thresholds below its last.
    """
    ts = amp.sample_period
    omega = amp.angular_cutoff
    t_rise_det = 0.0 if detector == "ideal" else rise_time(amp.cutoff, amp.threshold)
    noisy = noise_std > 0.0 and detector == "amplifier"
    if noisy and rngs is None:
        raise ValueError("noise_std > 0 requires an rng per lane")
    thresholds = np.atleast_1d(np.asarray(n_required, np.int64))
    horizons = np.broadcast_to(np.asarray(horizon, float), thresholds.shape)
    if not len(thresholds) or min(np.diff(thresholds, prepend=0)) < 1 or min(
            np.diff(horizons), default=0) < 0:
        raise ValueError("n_required must be ascending thresholds >= 1, horizons not falling")
    K = len(thresholds)
    required, horizons = np.append(thresholds, 0), np.append(horizons, horizons[-1])

    live = _Lanes(lanes, required, horizons)
    flat = _Detection(np.full(lanes * K, -1), np.full(lanes * K, -1, np.int8),
                      *(np.zeros(lanes * K, np.int64) for _ in _COUNTS), None)
    while len(live.lane):
        t_event, new_state = events(live.lane, live.state, live.seg_start)
        ionized = live.state == _IONIZED
        if noisy:  # search each counting lane's segment up to the last horizon
            n_end = _last_sample(np.minimum(t_event, horizons[K - 1]), ts)
            live.flip = n_end + 1
            _next_flip(amp, noise_std, rngs, live, ionized, (live.need > 0).nonzero()[0], n_end)
        # A lane is fed up to its threshold's horizon; one that reaches it
        # unfired abandons the threshold, and is fed on for the next.
        while True:
            capped = ((t_event >= live.horizon) & (live.need > 0)).nonzero()[0]
            was = live.fire_k[capped]
            n_last = _last_sample(np.minimum(t_event, live.horizon), ts)
            # Feed the noiseless runs up to each lane's next flip, then the
            # flipped sample on its own, and search on from there.
            while True:
                cut = np.minimum(n_last, live.flip - 1) if noisy else n_last
                for run in _noiseless_runs(amp, detector, live, ionized, cut):
                    _feed(live, flat, required, horizons, *run)
                live.n = np.maximum(live.n, cut + 1)
                if not noisy or not len(flipped := ((live.flip == live.n) & (live.n <= n_last) & (
                        live.need > 0)).nonzero()[0]):
                    break
                last = live.n - 1
                last[flipped] += 1
                for start, length, is_blip in _noiseless_runs(amp, detector, live, ionized, last):
                    _feed(live, flat, required, horizons, start, length, ~is_blip)
                live.n = last + 1
                _next_flip(amp, noise_std, rngs, live, ionized, flipped[live.need[flipped] > 0],
                           n_end)
            live.n = np.maximum(live.n, n_last + 1)  # lanes past their last trigger too
            if len(capped):
                _close(live, flat, capped[live.fire_k[capped] == was], required, horizons)
            if not np.count_nonzero(live.need[capped]):
                break

        # A threshold ends at once when abandoned, and at the first event
        # after trigger + latency when fired, keeping the state before it.
        ending = (live.end_k < live.fire_k).nonzero()[0]
        while len(ending):
            at = live.lane[ending] * K + live.end_k[ending]
            trigger = flat.trigger_sample[at]
            ends = (trigger < 0) | (t_event[ending] > trigger * ts + latency)
            ending, at = ending[ends], at[ends]
            flat.state_at_trigger[at] = np.where(trigger[ends] < 0, -1, live.state[ending])
            live.end_k[ending] += 1
            ending = ending[live.end_k[ending] < live.fire_k[ending]]
        done = live.end_k == K
        if np.count_nonzero(done):
            kept = (~done).nonzero()[0]
            live.keep(kept)
            t_event, new_state, ionized = t_event[kept], new_state[kept], ionized[kept]

        # Apply each remaining lane's event; past its last trigger only the
        # state moves.
        counting = live.need > 0
        if detector == "ideal":
            live.latched_until = np.where(ionized, np.maximum(
                live.latched_until, np.ceil(t_event / ts - 1e-12).astype(np.int64)
            ), live.latched_until)
        else:
            live.level = _output(ionized * 1.0, live.level, omega, t_event - live.seg_start)
        ionizes = new_state == _IONIZED
        reloads = ionized & ~ionizes & counting & (live.n_ionizations > 0)
        ionizes &= ~ionized & counting
        if np.count_nonzero(reloads):
            live.episode_reloaded |= reloads
            live.n_missed_subrise += reloads & (t_event - live.episode_start < t_rise_det)
        if np.count_nonzero(ionizes):
            live.n_missed_sampled += (
                ionizes & live.episode_reloaded & (live.episode_blips == 0)
            )
            live.episode_start[ionizes] = t_event[ionizes]
            live.episode_reloaded &= ~ionizes
            live.episode_blips[ionizes] = 0
            live.n_ionizations += ionizes
        live.seg_start = t_event
        live.state = new_state
    rows = slice(None) if np.ndim(n_required) else 0  # an int gives one entry per lane
    trigger, *rest = (getattr(flat, name).reshape(lanes, K).T[rows]
                      for name in ("trigger_sample", "state_at_trigger", *_COUNTS))
    return _Detection(trigger, *rest, np.where(trigger >= 0, trigger * ts + latency,
                                               horizons[:K, None][rows]))


def shot_rng(master_seed: int, shot_index: int) -> np.random.Generator:
    """Noise generator of shot ``shot_index``."""
    return np.random.default_rng([master_seed, _NOISE_STREAM, shot_index])


def _block_events(master_seed: int, rates: RateSet, indices: range):
    """Event source of the shots ``indices`` for run_detection: lane k is
    shot ``indices[k]``.

    Each round draws (2, _SEED_BLOCK) uniforms from the generator of every
    block with a live lane, and steps each live lane's chain with its shot's
    column.  A block whose lanes have ended draws no more, which leaves the
    other blocks' streams as they were.
    """
    first = indices[0] // _SEED_BLOCK
    gens = [np.random.default_rng([master_seed, _EVENT_STREAM, b])
            for b in range(first, indices[-1] // _SEED_BLOCK + 1)]
    block, column = np.divmod(np.asarray(indices) - first * _SEED_BLOCK, _SEED_BLOCK)
    drawn = np.empty((len(gens), 2, _SEED_BLOCK))  # round r of each block

    def events(lane: np.ndarray, state: np.ndarray, t: np.ndarray):
        live, col = block[lane], column[lane]
        for b in np.flatnonzero(np.bincount(live, minlength=len(gens))).tolist():
            gens[b].random(out=drawn[b])
        dt, new_state = gillespie_step(state, rates, drawn[live, 0, col], drawn[live, 1, col])
        return t + dt, new_state

    return events


def _shot_block(args) -> _Detection:
    """Run the shots ``indices`` as the lanes of one run_detection call."""
    cfg, rates, n_required, indices = args
    return run_detection(
        _block_events(cfg.master_seed, rates, indices),
        len(indices),
        amp=cfg.amplifier,
        n_required=n_required,
        horizon=cfg.abandon_factor * np.asarray(n_required) * cfg.amplifier.sample_period,
        latency=cfg.demon.latency,
        detector=cfg.detector,
        noise_std=cfg.noise_std,
        rngs=[shot_rng(cfg.master_seed, i) for i in indices] if cfg.noise_std > 0.0 else None,
    )


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
    rates = cfg.rates if rates is None else rates
    n_required = cfg.demon.required_samples if n_required is None else n_required
    block = range(shot_index, shot_index + 1)
    return _shot_block((cfg, rates, n_required, block)).records(shot_index)[0]


def _blocks(shots: int, size: int) -> list[range]:
    """Shot indices 0 .. shots - 1 in consecutive ranges of up to ``size``."""
    return [range(k, min(k + size, shots)) for k in range(0, shots, size)]


def _tally_block(args) -> tuple[np.ndarray, np.ndarray]:
    """All a sweep point reads of _shot_block, and all that a pool worker sends
    back: per threshold, each lane's spin at trigger (-1 if none) and the
    sums of the _TALLIED counts."""
    shots = _shot_block(args)
    return shots.state_at_trigger, np.stack(
        [getattr(shots, name).sum(axis=-1) for name in _TALLIED], axis=-1)


def _run_shots(cfg: ExperimentConfig, jobs: list[tuple[RateSet, int | list[int]]],
               tally: bool = False) -> list:
    """Every shot of cfg for each (rates, thresholds) job, in run_detection
    calls of up to _LANE_BLOCKS aligned blocks (with workers > 1, one run per
    worker).  All go through one map, a pool's one call at a time, so jobs of
    unequal cost spread over the workers.  Returns each job's _Detection, or
    with ``tally`` its calls' _tally_block results, in shot-index order.
    """
    blocks = min(_LANE_BLOCKS, math.ceil(cfg.shots / (cfg.workers * _SEED_BLOCK)))
    ranges = _blocks(cfg.shots, blocks * _SEED_BLOCK)
    calls = [(cfg, rates, n_required, r) for rates, n_required in jobs for r in ranges]
    block = _tally_block if tally else _shot_block
    processes = min(cfg.workers, len(calls))  # a pool starts no idle worker
    with Pool(processes=processes) if cfg.workers > 1 else contextlib.nullcontext() as pool:
        parts = list(map(block, calls) if pool is None else pool.map(block, calls, 1))
    per_job = [parts[k:k + len(ranges)] for k in range(0, len(parts), len(ranges))]
    return per_job if tally else [_Detection.concatenate(p) for p in per_job]


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


def _draw_load_spin(cfg: ExperimentConfig, rates: RateSet, indices: range) -> np.ndarray:
    """Spins of the first electrons the shots ``indices`` load from the
    ionized donor: round 0 of their events, as a monitored run draws it."""
    lane = np.arange(len(indices))
    events = _block_events(cfg.master_seed, rates, indices)
    return events(lane, np.full(len(lane), _IONIZED), np.zeros(len(lane)))[1]


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


def _sweep_point(cfg: ExperimentConfig, point_index: int, grid_value: float, rates: RateSet,
                 n_required: int, tallies: list[tuple[np.ndarray, np.ndarray]] | None
                 ) -> SweepResult:
    """One point's SweepResult from the _tally_block results of its monitored
    shots, in shot order; without them every shot keeps its loaded spin."""
    if tallies is not None:
        spins = np.concatenate([spins for spins, _ in tallies])
        spins = spins[spins >= 0]
        counts = dict(zip(_TALLIED, sum(totals for _, totals in tallies).tolist()))
    else:
        spins = np.concatenate([_draw_load_spin(cfg, rates, block)
                                for block in _blocks(cfg.shots, _LANE_BLOCKS * _SEED_BLOCK)])
        counts = {}
    flags = (spins == DonorState.DOWN).astype(float)
    median, p25, p75 = _bootstrap_quartiles(flags, cfg.master_seed, point_index)
    return SweepResult(
        grid_value=grid_value,
        shots=cfg.shots,
        successes=int(flags.sum()),
        median=median,
        p25=p25,
        p75=p75,
        analytic=_analytic_fidelity(cfg, rates, n_required, tallies is not None),
        n_triggered=len(spins),
        n_abandoned=cfg.shots - len(spins),
        **counts,
    )


def sweep_tobs(cfg: ExperimentConfig) -> list[SweepResult]:
    """Monitored fidelity versus observation time.

    Each grid value is an observation time in seconds, converted to the
    nearest whole number of sample periods; zero means "trigger immediately
    at load", whose fidelity is the loading prior itself.  Each shot is
    followed once, and every time is read off its one trajectory.
    """
    if cfg.sweep is None or cfg.sweep.variable != "t_obs":
        raise ValueError("config must carry a t_obs sweep")
    ts = cfg.amplifier.sample_period
    required = [round(t_obs / ts) for t_obs in cfg.sweep.grid]
    if bad := [t for t, n in zip(cfg.sweep.grid, required) if t < 0.0 or n == 0 < t]:
        raise ValueError(f"t_obs grid value {bad[0]!r} s must be 0 or more than half the "
                         f"sample period ({ts!r} s)")
    thresholds = sorted(set(required) - {0})
    rates = cfg.rates
    tallies = _run_shots(cfg, [(rates, thresholds)], tally=True)[0] if thresholds else []
    point = {n: [(spins[k], totals[k]) for spins, totals in tallies]
             for k, n in enumerate(thresholds)}
    return [_sweep_point(cfg, k, t_obs, rates, n_required, point.get(n_required))
            for k, (t_obs, n_required) in enumerate(zip(cfg.sweep.grid, required))]


def sweep_bias(cfg: ExperimentConfig, demon_on: bool) -> list[SweepResult]:
    """Fidelity versus donor potential, with or without real-time monitoring.

    The base tunnel rate is held fixed while the potential moves, so the
    rates change only through the reservoir occupations.  Without monitoring
    the fidelity is the loading fraction itself (the tuning-dependent bare
    curve); with monitoring the silent-sample counter runs at the configured
    observation length.
    """
    if cfg.sweep is None or cfg.sweep.variable != "mu_d":
        raise ValueError("sweep_bias needs sweep.variable = mu_d in the config")
    n_required = cfg.demon.required_samples
    rates = [build_rates(replace(cfg.physics, donor_potential=mu_d)) for mu_d in cfg.sweep.grid]
    tallies = (_run_shots(cfg, [(r, n_required) for r in rates], tally=True)
               if demon_on and n_required > 0 else [None] * len(rates))
    return [_sweep_point(cfg, k, mu_d, r, n_required, point)
            for k, (mu_d, r, point) in enumerate(zip(cfg.sweep.grid, rates, tallies))]


def projection_999(cfg: ExperimentConfig) -> list[ProjectionScenario]:
    """Detection-loss plateaus for the two hardware improvement paths.

    Evaluates the rise-time and missed-event formulas for the baseline
    chain, for a faster amplifier with a 300 kHz cutoff, and for loading
    slowed to 880 /s; each scenario reports its plateau 1 - P_miss.
    """
    amp = cfg.amplifier
    base_in = cfg.rates.in_total
    rows = []
    for label, cutoff, in_rate in (
        ("baseline", amp.cutoff, base_in),
        ("faster_amplifier", 300e3, base_in),
        ("slower_loading", amp.cutoff, 880.0),
    ):
        t_r = rise_time(cutoff, amp.threshold)
        p_m = missed_blip_probability(t_r, in_rate)
        rows.append(ProjectionScenario(label, cutoff, in_rate, t_r, p_m, 1.0 - p_m))
    return rows
