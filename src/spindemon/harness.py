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
order.  A noisy shot draws its sensor noise, and only that, from
``default_rng([master_seed, i])``, its ``SeedSequence`` hashed per block.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import operator
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

_SEED_BLOCK = 1024  # shots per event generator and per SeedSequence hash block
# Blocks per run_detection call.  On op-point (2 vCPU) wall time stops falling
# at 16 blocks (0.11 s; 0.36 s at 1), and peak RSS grows with the lanes: 83.9
# MiB at 1 block, 87.0 at 16, 98.9 at 128.
_LANE_BLOCKS = 16
# SeedSequence's hash constants (numpy/random/bit_generator.pyx).
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _MASK = 0xCA01F9DD, 0x4973F715, 0xFFFFFFFF

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

    master_seed fixes every draw: shot i's r-th tunneling event comes from
    column i % 1024 of the r-th round of uniforms of its 1024-shot block,
    and its noise from its own generator (see the module docstring).
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
    """Outcome of every lane of one run_detection call, one entry per lane.

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
    runs: list[list[tuple[int, int, bool]]] | None

    @classmethod
    def concatenate(cls, parts: list[_Detection]) -> _Detection:
        """The lanes of ``parts`` in order, without their runs."""
        return cls(*(np.concatenate([getattr(p, f.name) for p in parts])
                     for f in fields(cls) if f.name != "runs"), None)

    def records(self, first_index: int = 0) -> list[ShotRecord]:
        """One ShotRecord per lane, lane k being shot ``first_index + k``."""
        columns = (getattr(self, f.name).tolist() for f in fields(self) if f.name != "runs")
        records = []
        for k, (trigger, state, resets, ionizations, subrise, sampled, end) in enumerate(
            zip(*columns)
        ):
            triggered = trigger >= 0
            records.append(ShotRecord(
                shot_index=first_index + k,
                triggered=triggered,
                trigger_time=end if triggered else None,
                n_resets=resets,
                spin_at_trigger=DonorState(state) if triggered else None,
                n_ionizations=ionizations,
                n_missed_subrise=subrise,
                n_missed_sampled=sampled,
                observed_duration=end,
            ))
        return records


_IONIZED = int(DonorState.IONIZED)  # array comparisons skip the enum lookup
_COUNTS = ("n_resets", "n_ionizations", "n_missed_subrise", "n_missed_sampled")


class _Lanes:
    """Detection state of the live lanes, one array entry per lane."""

    def __init__(self, count: int):
        self.lane = np.arange(count)  # position of the lane in the call
        self.state = np.full(count, _IONIZED)
        self.level = np.ones(count)  # amplifier output at seg_start
        self.seg_start = np.zeros(count)
        self.n = np.ones(count, np.int64)  # next sample to classify
        self.counter = np.zeros(count, np.int64)
        self.trigger_sample = np.full(count, -1)
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
    n_cross = n.copy()  # where the threshold is already behind
    ahead = ((live.level > s_th) != ionized).nonzero()[0]
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


def _noisy_runs(amp: AmplifierParams, noise_std: float, n_required: int, live: _Lanes,
                rngs: list, pending: np.ndarray, ionized: np.ndarray, n_last: np.ndarray):
    """Draw the next chunk of samples of each pending lane, split each chunk
    into runs, and advance live.n past the chunks.

    A chunk holds min(samples left in the segment, n_required - counter)
    samples, so it either holds a blip or fires the trigger on its last
    sample.  Returns one (start, length, is_blip) array triple per run
    position: the k-th run of every chunk, length 0 for lanes without one.
    """
    ts, omega = amp.sample_period, amp.angular_cutoff
    chunks = {}
    for j in pending.tolist():
        n = int(live.n[j])
        size = int(min(n_last[j] - n + 1, n_required - live.counter[j]))
        x, level, times = float(ionized[j]), live.level[j], np.arange(n, n + size) * ts
        values = x + (level - x) * np.exp(-omega * (times - live.seg_start[j]))
        blips = values + rngs[live.lane[j]].normal(0.0, noise_std, size=size) > amp.threshold
        edges = [0, *(np.flatnonzero(blips[1:] != blips[:-1]) + 1).tolist(), size]
        chunks[j] = [(n + a, b - a, bool(blips[a])) for a, b in zip(edges, edges[1:])]
        live.n[j] = n + size
    steps = []
    for k in range(max(map(len, chunks.values()))):
        start, length = np.zeros((2, len(live.n)), np.int64)
        is_blip = np.zeros(len(live.n), bool)
        for j, runs in chunks.items():
            if k < len(runs):
                start[j], length[j], is_blip[j] = runs[k]
        steps.append((start, length, is_blip))
    return steps


def _feed(live: _Lanes, n_required: int, runs, start, length, is_blip) -> None:
    """Feed each lane one (start, length, is_blip) run of samples.

    A blip run resets the silent-sample counter; a silent run adds to it or
    fires the trigger.  An empty run, or a lane that has fired, is skipped.
    """
    go = (length > 0) & (live.trigger_sample < 0)
    if runs is not None:
        for j in go.nonzero()[0].tolist():
            runs[live.lane[j]].append((int(start[j]), int(length[j]), bool(is_blip[j])))
    blip = go & is_blip
    silent = go ^ blip
    live.n_resets += blip & (live.counter > 0)
    live.episode_blips += blip * length
    total = live.counter + length
    fire = silent & (total >= n_required)
    if np.count_nonzero(fire):
        live.trigger_sample[fire] = (start + (n_required - 1) - live.counter)[fire]
    live.counter = np.where(silent, total, live.counter)
    live.counter[blip] = 0


def run_detection(
    events: Callable[[np.ndarray, np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]],
    lanes: int,
    *,
    amp: AmplifierParams,
    n_required: int,
    horizon: float,
    latency: float = 0.0,
    detector: str = "amplifier",
    noise_std: float = 0.0,
    rngs: Sequence[np.random.Generator] | None = None,
    record_runs: bool = False,
) -> _Detection:
    """Run the trigger logic over the samples of ``lanes`` transition streams.

    The lanes share every argument but their events and noise.  The donor
    starts ionized with the amplifier output settled at 1.  Samples sit at
    t = n * T_s, n = 1, 2, ...  The trigger fires at the sample completing
    ``n_required`` consecutive silent samples; the loaded state is then
    evaluated ``latency`` seconds after that sample instant.  A lane stops
    at its trigger or at ``horizon``, whichever is first.

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

    With noise, the generator ``rngs[k]`` of lane k draws one value per
    sample in sample order, in chunks of ``n_required - counter`` samples.
    Such a chunk either holds a blip or fires the trigger on its last
    sample, so no draw reaches past the trigger, and a lane's draws do not
    depend on the other lanes.  With ``record_runs``, ``runs`` holds each
    lane's (start_sample, length, is_blip) tuples, one per nonempty run, up
    to and including the one that fires the trigger.
    """
    ts = amp.sample_period
    omega = amp.angular_cutoff
    t_rise_det = 0.0 if detector == "ideal" else rise_time(amp.cutoff, amp.threshold)
    noisy = noise_std > 0.0 and detector == "amplifier"
    if noisy and rngs is None:
        raise ValueError("noise_std > 0 requires an rng per lane")
    if n_required < 1:
        raise ValueError("n_required must be >= 1")

    live = _Lanes(lanes)
    result = _Detection(np.full(lanes, -1), np.full(lanes, -1),
                        *(np.zeros(lanes, np.int64) for _ in _COUNTS),
                        np.zeros(lanes), [[] for _ in range(lanes)] if record_runs else None)
    while len(live.lane):
        t_event, new_state = events(live.lane, live.state, live.seg_start)
        n_last = _last_sample(np.minimum(t_event, horizon), ts)
        ionized = live.state == _IONIZED
        if noisy:
            while len(pending := ((live.n <= n_last) & (live.trigger_sample < 0)).nonzero()[0]):
                for run in _noisy_runs(amp, noise_std, n_required, live, rngs, pending,
                                       ionized, n_last):
                    _feed(live, n_required, result.runs, *run)
        else:
            for run in _noiseless_runs(amp, detector, live, ionized, n_last):
                _feed(live, n_required, result.runs, *run)
            live.n = np.maximum(live.n, n_last + 1)

        fired = live.trigger_sample >= 0
        end_time = np.where(fired, live.trigger_sample * ts + latency, horizon)
        done = np.where(fired, t_event > end_time, t_event >= horizon)
        if np.count_nonzero(done):
            ended = done.nonzero()[0]
            positions = live.lane[ended]
            live.n_missed_sampled[ended] += (
                live.episode_reloaded[ended] & (live.episode_blips[ended] == 0)
            )
            result.trigger_sample[positions] = live.trigger_sample[ended]
            result.state_at_trigger[positions] = np.where(fired[ended], live.state[ended], -1)
            result.end_time[positions] = end_time[ended]
            for name in _COUNTS:
                getattr(result, name)[positions] = getattr(live, name)[ended]
            kept = (~done).nonzero()[0]
            live.keep(kept)
            t_event, new_state, ionized, fired = (
                t_event[kept], new_state[kept], ionized[kept], fired[kept]
            )

        # Apply each remaining lane's event; inside a latency window only
        # the state moves.
        if detector == "ideal":
            live.latched_until = np.where(ionized, np.maximum(
                live.latched_until, np.ceil(t_event / ts - 1e-12).astype(np.int64)
            ), live.latched_until)
        else:
            live.level = _output(ionized * 1.0, live.level, omega, t_event - live.seg_start)
        ionizes = new_state == _IONIZED
        reloads = ionized & ~ionizes & ~fired & (live.n_ionizations > 0)
        ionizes &= ~ionized & ~fired
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
    return result


def _hashmix(value: np.ndarray, k: int, init: int = _INIT_A, mult: int = _MULT_A):
    """SeedSequence's k-th hash step; uint32 lanes wrap as its C code does."""
    key = init * pow(mult, k, 1 << 32) & _MASK
    value = (value ^ key) * (key * mult & _MASK)
    return value ^ (value >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of two words, on uint32 lanes."""
    mixed = x * _MIX_L - y * _MIX_R
    return mixed ^ (mixed >> 16)


@functools.lru_cache(maxsize=1)
def _seed_block(prefix: tuple[int, ...], block: int) -> np.ndarray:
    """Read-only uint64 rows; row i is what ``SeedSequence([*prefix, block *
    _SEED_BLOCK + i])`` gives from ``generate_state(4, np.uint64)``."""
    words = [np.full(_SEED_BLOCK, (x >> s) & _MASK, np.uint32)
             for x in prefix for s in range(0, max(operator.index(x).bit_length(), 1), 32)]
    words.append(np.arange(block * _SEED_BLOCK, (block + 1) * _SEED_BLOCK, dtype=np.uint32))
    k = itertools.count()
    padded = words[:4] + [np.zeros_like(words[0])] * (4 - len(words))
    pool = [_hashmix(word, next(k)) for word in padded]
    for src, dst in itertools.permutations(range(4), 2):
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], next(k)))
    for word, dst in itertools.product(words[4:], range(4)):
        pool[dst] = _mix(pool[dst], _hashmix(word, next(k)))
    state = np.stack([_hashmix(pool[i % 4], i, _INIT_B, _MULT_B) for i in range(8)], axis=1)
    rows = state.astype("<u4").view("<u8").astype(np.uint64)
    rows.flags.writeable = False
    return rows


@dataclass
class _SeedRow(np.random.bit_generator.ISeedSequence):
    row: np.ndarray  # PCG64 asks for 4 uint64 words: one row of _seed_block

    def generate_state(self, n_words, dtype=np.uint32):
        return self.row


def shot_rng(master_seed: int, shot_index: int) -> np.random.Generator:
    """Counter-based per-shot generator equal to ``default_rng([master_seed,
    shot_index])``, its seed hash computed in blocks (``_seed_block``)."""
    if not 0 <= shot_index < 1 << 32 or master_seed < 0:  # let numpy hash or reject it
        return np.random.default_rng([master_seed, shot_index])
    row = _seed_block((master_seed,), shot_index // _SEED_BLOCK)[shot_index % _SEED_BLOCK]
    return np.random.Generator(np.random.PCG64(_SeedRow(row)))


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
        horizon=cfg.abandon_factor * n_required * cfg.amplifier.sample_period,
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
    if rates is None:
        rates = cfg.rates
    if n_required is None:
        n_required = cfg.demon.required_samples
    block = range(shot_index, shot_index + 1)
    return _shot_block((cfg, rates, n_required, block)).records(shot_index)[0]


def _blocks(shots: int, size: int) -> list[range]:
    """Shot indices 0 .. shots - 1 in consecutive ranges of up to ``size``."""
    return [range(k, min(k + size, shots)) for k in range(0, shots, size)]


@contextlib.contextmanager
def _shot_map(workers: int):
    """The map that runs _shot_block calls: a pool's for workers > 1."""
    with Pool(processes=workers) if workers > 1 else contextlib.nullcontext() as pool:
        yield map if pool is None else pool.map


def _run_shots(cfg: ExperimentConfig, rates: RateSet, n_required: int,
               pool_map=None) -> _Detection:
    """Every shot of cfg, as run_detection calls of up to _LANE_BLOCKS aligned
    blocks; with workers > 1, one run of whole blocks per worker.  The calls
    go through ``pool_map`` (a sweep's one pool), or else a ``_shot_map`` of
    their own; reduction in shot-index order keeps the result the same.
    """
    blocks = min(_LANE_BLOCKS, math.ceil(cfg.shots / (cfg.workers * _SEED_BLOCK)))
    calls = [(cfg, rates, n_required, r) for r in _blocks(cfg.shots, blocks * _SEED_BLOCK)]
    with _shot_map(cfg.workers if pool_map is None else 1) as own_map:
        return _Detection.concatenate(list((pool_map or own_map)(_shot_block, calls)))


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
                 n_required: int, demon_on: bool, pool_map) -> SweepResult:
    """Without monitoring every shot keeps its loaded spin and no shot is run."""
    monitored = demon_on and n_required > 0
    if monitored:
        shots = _run_shots(cfg, rates, n_required, pool_map)
        spins = shots.state_at_trigger[shots.trigger_sample >= 0]
        counts = {name: int(getattr(shots, name).sum())
                  for name in ("n_ionizations", "n_missed_subrise", "n_missed_sampled")}
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
        analytic=_analytic_fidelity(cfg, rates, n_required, monitored),
        n_triggered=len(spins),
        n_abandoned=cfg.shots - len(spins),
        **counts,
    )


def sweep_tobs(cfg: ExperimentConfig) -> list[SweepResult]:
    """Monitored fidelity versus observation time.

    Each grid value is an observation time in seconds, converted to the
    nearest whole number of sample periods; zero means "trigger immediately
    at load", whose fidelity is the loading prior itself.
    """
    if cfg.sweep is None or cfg.sweep.variable != "t_obs":
        raise ValueError("config must carry a t_obs sweep")
    if cfg.sweep.grid[0] < 0.0:  # the grid is sorted
        raise ValueError("t_obs grid values must be >= 0")
    rates = cfg.rates
    required = [round(t_obs / cfg.amplifier.sample_period) for t_obs in cfg.sweep.grid]
    with _shot_map(cfg.workers if max(required) > 0 else 1) as pool_map:
        return [_sweep_point(cfg, k, t_obs, rates, n_required, True, pool_map)
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
    with _shot_map(cfg.workers if demon_on and n_required > 0 else 1) as pool_map:
        return [_sweep_point(cfg, k, mu_d, build_rates(replace(cfg.physics, donor_potential=mu_d)),
                             n_required, demon_on, pool_map)
                for k, mu_d in enumerate(cfg.sweep.grid)]


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
