"""Experiment orchestration: the initialization-cycle shot engine and the
sweeps built on it.

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
of its detection state are entries of numpy arrays, and each pass advances
every shot still running by k tunneling events at once, k chosen from the
number of lanes still running.  The k segments of a lane become a matrix of
runs of samples, resolved for every lane with cumulative sums, so a call's
long tail of few lanes costs passes, not events.  A call's lanes are up to
_LANE_BLOCKS aligned blocks of 1024 shots.  Block b owns the generator
``default_rng([master_seed, _EVENT_STREAM, b])``; each pass in which it has
a live lane reads the (k, 2, 1024) array of uniforms that k draws of (2,
1024) from it give, and an array Gillespie step turns column i % 1024 of
round r into the r-th event of shot i.  A block with many live lanes draws
that array; one with few computes only its live lanes' columns, by
jump-ahead in the generator's PCG64 stream, to the same bits.  A shot's
events therefore depend on nothing but the master seed and its index: not
on how shots are grouped into calls or passes, on the worker or on the
order.  Sensor noise only
flips samples away from their noiseless outcome, each independently, and
the lanes find their flips together by thinning (Lewis & Shedler 1979).  A
noisy pass takes as many events as a noiseless one, and feeds once per
wave of flips: each wave finds every flip of the pass's segments up to
each lane's trigger bound, the earliest sample at which its last
threshold can still fire.  The uniforms are keyed the same way: round r of
block b reads ``default_rng([master_seed, _NOISE_STREAM, b, r])``, whose
j-th (2, 1024) draw is row j, and a lane reads its j-th (u_gap, u_accept)
pair of round r from its column of row j, whatever order it searches its
segments in.  A shot's flips therefore depend on nothing but the master
seed and its index either.  A call's result holds a row per threshold and
a column per shot, its thresholds sharing one counter, so a t_obs sweep
follows each shot once.
"""

from __future__ import annotations

import contextlib
import math
import os
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
_MIN_BOUND = 1e-300  # least bound on a flip probability (see _next_flip)
# Blocks per run_detection call.  With passes of several events, op-point's
# sweep (2 vCPU, in one process, 9 interleaved runs) takes 1.43, 1.11 and
# 0.97 times as long at 4, 8 and 32 blocks as at 16, and its peak RSS
# (bench/run.py) is 68.5 MiB at 8 blocks, 71.4 at 16 and 79.1 at 32.
_LANE_BLOCKS = 16
# Lanes (shots x jobs) past which _run_shots starts a pool.  In-process
# medians of 10 interleaved runs at 1 and 2 workers (2 vCPU, fork start
# method, Python 3.11): op-point at 100 000 shots 79 / 83 ms, 131 072 100 /
# 93, 160 000 122 / 105, 10**6 776 / 494; the 7-point mu_d sweep at 5 000
# shots a point 94 / 97, 15 000 233 / 170, 19 000 316 / 213.  Pooling only
# past 2**17 lanes keeps the 100 000-shot op-point and paper-pipeline's
# sweeps (35 000 lanes and less) in one process, at the cost of the gain of
# sweeps of 105 000 to 131 072 lanes.  Repeats (BENCH_pool-crossover.json)
# swing by about 30 %.  Not measured under forkserver.
_POOL_MIN_LANES = 2 ** 17
# Events a pass takes: _PASS_EVENTS over the live lanes, but no more than
# _PASS_MAX nor than the call has taken so far, so that its last lanes step
# past their end at most as often as before it (a 1-lane tail at 512 events
# a pass took 20 ms, against 1.2 ms one event at a time).  Measured against
# one event a pass (2 vCPU, one process, 9 interleaved runs), 2048, 4096,
# 8192 and 16384 took 1.10, 0.88, 0.98 and 0.96 of its time on a 16 384-lane
# op-point call, 0.60, 0.57, 0.47 and 0.50 at mu_D = +25 ueV (2 500 lanes),
# and 1.05, 0.99, 1.02 and 0.97 on the 8-point t_obs sweep of 10 000 shots.
# A pass draws 16 KiB per event and live block; caps of 128 to 512 took the
# same time at mu_D = +50 ueV.
_PASS_EVENTS = 8192
_PASS_MAX = 256
# A block with fewer live lanes than _SEED_BLOCK / _SPARSE_COST in a pass
# computes only their columns of its draw (_read_columns), which costs about
# _SPARSE_COST native draws a uniform, plus _SPARSE_SETUP native draws a
# pass (about 75 us); a denser block draws every uniform, and so do all
# blocks of a pass that would save fewer draws than that.  In-process
# medians of interleaved runs (2 vCPU, Python 3.11, numpy 2.4) with
# _SPARSE_COST at 0 (every block computed), 2, 4, 8, 11, 16, 24, 48 and
# 10**6 (none): op-point 87.9, 70.2, 67.7, 68.5, 68.9, 68.6, 67.6, 67.1 and
# 70.0 ms (31 runs each); the 7-point mu_D sweep at 5 000 shots a point
# 81.6, 79.3, 77.4, 78.5, 77.5, 77.9, 77.4, 79.1 and 83.7 ms (21); mu_D =
# +50 ueV, 100 shots, 223, 215, 215, 215, 222, 220, 228, 242 and 253 ms (7).
# With _SPARSE_SETUP at 0, 8 000, 16 000, 32 000, 64 000 and 128 000,
# noisy-detector's 1 000-shot sweep took 5.99, 5.86, 5.78, 5.78, 5.76 and
# 5.76 ms (31), and the three runs above did not move beyond their noise.
_SPARSE_COST = 11
_SPARSE_SETUP = 32_000
# numpy's PCG64 steps its 128-bit state s to s * _PCG_MULT + inc mod 2**128,
# and each output is the XSL-RR permutation of the new state.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_LOW64, _MASK128 = 2 ** 64 - 1, 2 ** 128 - 1

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
    per flip up to the first flip after the trigger of the largest threshold
    a run watches for (see run_detection).  A run costs per pass of several
    events, not per sample, with noise or without: a noisy pass takes as
    many events as a noiseless one and feeds once per wave of flips, each
    wave every flip up to each lane's trigger bound.

    workers is an upper bound on the processes a run uses: a run too small
    to gain from a pool stays in this process, and a pool gets no more
    workers than the CPUs this process may use (see _run_shots).

    master_seed fixes every draw: shot i's r-th tunneling event comes from
    column i % 1024 of the r-th round of uniforms of its 1024-shot block,
    and the flips of its r-th segment from the same column of that block's
    round-r noise generator (see the module docstring).
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
class _Detection:
    """Outcome of one run_detection call: (thresholds, lanes) arrays, row k
    for threshold k and column i for lane i.

    trigger_sample and state_at_trigger hold -1 where a lane did not
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
        """One ShotRecord per lane at the first threshold, lane k being shot
        ``first_index + k``."""
        columns = (getattr(self, f.name)[0].tolist() for f in fields(self))
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
        self.counter = np.zeros(count, np.int64)
        # Next threshold to fire or abandon, its need (0 past the last) and horizon.
        self.fire_k = np.zeros(count, np.int64)
        self.end_k = np.zeros(count, np.int64)  # first threshold not yet ended
        self.need = np.full(count, required[0])
        self.horizon = np.full(count, horizon[0])
        self.latched_until = np.zeros(count, np.int64)  # ideal detector: last
        # sample index covered by an ionization.  Blip samples fed so far, and
        # how many of them came before the last ionization: the ionization
        # episode in progress has shown the difference.
        self.blips = np.zeros(count, np.int64)
        self.episode_base = np.zeros(count, np.int64)
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


def _scan(ufunc, x: np.ndarray) -> np.ndarray:
    """ufunc.accumulate(x, axis=0) for an associative ufunc, overwriting x,
    in ceil(log2 rows) shifted steps (Hillis & Steele 1986): numpy's
    accumulate loops once per column (on a 2-vCPU VM, 295 us on a (2, 16 384)
    array against 16 us in shifted steps)."""
    shift = 1
    while shift < len(x):
        ufunc(x[shift:], x[:-shift], out=x[shift:])
        shift *= 2
    return x


def _before(first: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``first`` stacked on all of ``rows`` but the last: each row's predecessor."""
    return np.concatenate((first[None], rows[:-1]))


def _rows_where(compare, a: np.ndarray, lanes: np.ndarray, value) -> np.ndarray:
    """How many rows of ``a`` hold compare(a, value) in each column of
    ``lanes``: the first row that does not, where the rows ascend."""
    return np.count_nonzero(compare(a.take(lanes, axis=1), value), axis=0)


def _output(x, level, omega: float, dt):
    """Noiseless amplifier output dt after it was at level, settling toward x."""
    return x + (level - x) * np.exp(-omega * dt)


def _noiseless_runs(amp: AmplifierParams, detector: str, n, n_last, ionized, level, seg_start,
                    latched):
    """Where samples n .. n_last of each segment split into two runs, either
    possibly empty: returns (split, first_blip), samples n .. split - 1
    being blips where first_blip and split .. n_last where not.

    The ideal detector's blips last while the donor is ionized and then up
    to the sample ``latched``.  The amplifier output moves monotonically
    from ``level`` toward 1 while the donor is ionized and toward 0 while
    it is loaded, so its samples split at one crossing: silent then blips
    while rising, blips then silent while falling.
    """
    if detector == "ideal":
        covered = np.where(ionized, n_last, np.minimum(latched, n_last))
        return np.maximum(n, covered + 1), np.ones(n.shape, bool)
    ts, s_th, omega = amp.sample_period, amp.threshold, amp.angular_cutoff
    split = n.copy()  # where the threshold is already behind or no sample is left
    ahead = (((level > s_th) != ionized) & (n <= n_last)).ravel().nonzero()[0]
    if len(ahead):
        rising, first, last = ionized.ravel()[ahead], n.ravel()[ahead], n_last.ravel()[ahead]
        x, start, t0 = rising * 1.0, level.ravel()[ahead], seg_start.ravel()[ahead]
        t_c = t0 + np.log((x - start) / (x - s_th)) / omega
        cross = np.maximum(first, np.minimum((t_c / ts).astype(np.int64) + 1, last + 1))
        # The closed form can be a sample off either way: step to the exact crossing.
        while np.count_nonzero(fwd := (cross <= last) & (
            (_output(x, start, omega, cross * ts - t0) > s_th) != rising
        )):
            cross += fwd
        while np.count_nonzero(back := (cross > first) & (
            (_output(x, start, omega, (cross - 1) * ts - t0) > s_th) == rising
        )):
            cross -= back
        split.flat[ahead] = cross
    return split, ~ionized


def _run_pairs(n, split, n_last, first_blip):
    """The run matrix of segments split by _noiseless_runs: (n, split,
    first_blip, silent, blips), each row of each array one segment's pair
    of runs in sample order, with its silent and blip sample counts."""
    first = split - n
    silent = np.where(first_blip, n_last + 1 - split, first)
    return n, split, first_blip, silent, n_last + 1 - n - silent


def _flip_runs(flips, n0, fed, n_first, n_last, split, first_blip):
    """The run matrix of a noisy wave, in _run_pairs' form, and the row that
    ends each segment, (k, lanes): each lane's samples n0 .. fed, its
    segments cut before and after each of the flips that _next_flip found,
    and each flipped sample a row of its own, the other way.

    Segment j of lane i starts at row j + 2 c, c being the lane's flips in
    its earlier segments.  The lane's q-th flip in sample order, in segment
    j, is row j + 2 q + 1, and the rest of segment j past it row j + 2 q +
    2.  The rows tile n0 .. fed in sample order, each ending where the next
    starts and the lane's last at fed; rows past fed, and those past a
    lane's own k + 2 c rows, are empty.  Without flips each segment is one
    row, and the second array is None.
    """
    if flips is None or not len(flips[0]):  # a row per segment
        cut = np.minimum(n_last, fed)
        n = np.minimum(np.maximum(n_first, n0), cut + 1)
        return _run_pairs(n, np.minimum(np.maximum(split, n), cut + 1), cut, first_blip), None
    k, width = n_last.shape
    flat, sample = flips
    seg, lane = np.divmod(flat, width)
    order = np.lexsort((sample, lane))
    seg, lane, sample = seg[order], lane[order], sample[order]
    per_lane = np.bincount(lane, minlength=width)
    rank = np.arange(len(lane)) - (np.cumsum(per_lane) - per_lane)[lane]
    per_seg = np.bincount(flat, minlength=k * width).reshape(k, width)
    first_row = np.arange(k)[:, None] + 2 * (np.cumsum(per_seg, axis=0) - per_seg)
    rows = k + 2 * int(per_lane.max())
    start = np.empty((rows, width), np.int64)
    start[:] = fed + 1
    head = np.zeros((rows, width), bool)
    at = first_row * width + np.arange(width)
    start.flat[at], head.flat[at] = np.maximum(n_first, n0), True
    at = (seg + 2 * rank + 1) * width + lane
    start.flat[at], start.flat[at + width] = sample, sample + 1
    np.minimum(start, fed + 1, out=start)
    flipped = np.zeros((rows, width), bool)
    flipped.flat[at] = True
    at = (np.cumsum(head, axis=0) - 1) * width + np.arange(width)  # each row's segment
    cut, blip_first = split.ravel()[at], first_blip.ravel()[at]
    end = np.concatenate((start[1:], (fed + 1)[None])) - 1
    split = np.where(flipped, start + 1, np.minimum(np.maximum(cut, start), end + 1))
    blip_first = np.where(flipped, (start < cut) != blip_first, blip_first)
    runs = _run_pairs(start, split, end, blip_first)
    return runs, np.concatenate((first_row[1:], (k + 2 * per_lane)[None])) - 1


def _half_erfc(z: np.ndarray) -> np.ndarray:
    """erfc(z) / 2 element by element with math.erfc: numpy has no erfc."""
    return 0.5 * np.fromiter(map(math.erfc, z.tolist()), float, len(z))


def _next_flip(amp: AmplifierParams, noise_std: float, uniforms, lane: np.ndarray, rnd: int,
               search: tuple[np.ndarray, np.ndarray], segments, last: np.ndarray, need: int
               ) -> tuple[np.ndarray, np.ndarray]:
    """Find the samples that noise flips away from their noiseless outcome in
    the pass's (k, lanes) segments, from each one's next start up to its
    end, a search lane per (segment j, lane i) whose start is at most
    ``last[i]``.  Returns the flat (j, i) index and the sample of each flip
    found, and leaves in ``search`` = (start, row) where each search stopped.

    Sample n flips with p_n = Q(|m_n - S_th| / noise_std), m_n its
    noiseless output.  Candidates lie a geometric gap apart at a bound r on
    p: p at the gap's start once m is past the threshold toward where it
    settles (p only falls from there), 1/2 before.  A candidate is kept
    with probability p / r.  r is at least _MIN_BOUND, so that the gap
    stays finite; any r >= p keeps the thinning exact.  A search lane moves
    on past each flip while the sample after it is at most its bound,
    ``last[i]`` at first, and stops at its segment's end.  A flip to a blip
    at or before the bound restarts the count, so it moves the bound to
    ``need`` (the last threshold) samples past the flip.  The search lanes
    step together, one candidate each per step, and each step reads one
    (u_gap, u_accept) pair per search lane from ``uniforms(lane, round,
    row)``, segment j being the pass's round ``rnd + j``, and moves that
    search lane's row pointer on.  ``segments`` = (level, seg_start,
    ionized, n_end, split, first_blip): each segment's amplifier output at
    its start, its start time, whether the donor is ionized in it, its last
    sample and its noiseless runs (_noiseless_runs).
    """
    ts, s_th, omega = amp.sample_period, amp.threshold, amp.angular_cutoff
    scale = noise_std * math.sqrt(2.0)
    width = len(lane)
    start, row = (a.reshape(-1) for a in search)
    level, seg_start, ionized, n_end, split, first_blip = segments
    at = (search[0] <= np.minimum(n_end, last)).ravel().nonzero()[0]
    seg, i = np.divmod(at, width)
    # Each search lane's (level, seg_start, rising) and (n_end, last, lane,
    # round, split, first_blip).
    floats = np.stack([a.ravel()[at] for a in (level, seg_start, ionized)])
    ints = np.stack((n_end.ravel()[at], last[i], lane[i], rnd + seg, split.ravel()[at],
                     first_blip.ravel()[at]))
    n = start[at]
    found = [(at[:0], n[:0])]  # (flat index, sample) of each flip
    while len(at):
        (level, t0, rising), (end, stop, shot, rounds, cut, blip_first) = floats, ints
        m = _output(rising, level, omega, n * ts - t0)
        z = np.abs(m - s_th) / scale * ((m > s_th) == rising)  # 0: r = 1/2
        bound = np.maximum(_half_erfc(z), _MIN_BOUND)
        u_gap, u_accept = uniforms(shot, rounds, row[at])
        row[at] += 1
        gap = np.log1p(-u_gap) / np.log1p(-bound)  # geometric, by inversion
        inside = (gap < end - n + 1).nonzero()[0]
        cand = n[inside] + gap[inside].astype(np.int64)
        m = _output(rising[inside], level[inside], omega, cand * ts - t0[inside])
        kept = inside[u_accept[inside] * bound[inside] < _half_erfc(np.abs(m - s_th) / scale)]
        n = end + 1  # where the search resumes: past its end, or past the candidate
        n[inside] = cand + 1
        found.append((at[kept], n[kept] - 1))
        # A flip to a blip at or before the bound restarts the count there, so
        # the last threshold fires no sooner than ``need`` samples after it.
        reset = kept[((n[kept] - 1 < cut[kept]) != blip_first[kept]) & (n[kept] - 1 <= stop[kept])]
        stop[reset] = n[reset] - 1 + need
        start[at] = n
        go = n <= end
        go[kept] &= n[kept] <= stop[kept]
        go = go.nonzero()[0]  # take, not a mask, for the (3 | 4, lanes) arrays
        at, n, floats, ints = at[go], n[go], floats.take(go, axis=1), ints.take(go, axis=1)
    return tuple(np.concatenate(a) for a in zip(*found))


def _event_counts(live: _Lanes, ionized, ionizes, subrise, b_end):
    """n_ionizations, n_missed_subrise, n_missed_sampled and episode_base at
    the start of each of a pass's k segments, as (k, lanes) arrays, and
    after its last event.

    Event j ionizes where ``ionizes``, and reloads where segment j is
    ionized after an earlier ionization; a reload is missed below the rise
    time where ``subrise``.  ``b_end`` holds the blip samples fed by the end
    of each segment: an ionization counts the episode it closes as missed
    between samples when that episode showed no blip.
    """
    def prefix(first, steps):
        total = _scan(np.add, steps.astype(np.int64))
        total += first
        return _before(first, total), total[-1]

    n_ion = prefix(live.n_ionizations, ionizes)
    seen = n_ion[0] > 0
    base = _scan(np.maximum, b_end * ionizes)
    np.maximum(base, live.episode_base, out=base)
    base = _before(live.episode_base, base), base[-1]
    return (n_ion, prefix(live.n_missed_subrise, ionized & seen & subrise),
            prefix(live.n_missed_sampled, ionizes & seen & (b_end == base[0])), base)


def _feed(live: _Lanes, det: _Detection, runs, fed: np.ndarray, segments, limits) -> None:
    """Feed each lane the run matrix ``runs`` of _run_pairs, which covers
    its samples up to ``fed``.

    ``segments`` = (t_event, ionized, counts) describes the k segments the
    rows cover: each segment's closing event, whether the donor is ionized
    in it, and the _event_counts.  The silent-sample counter is a
    cumulative sum over the runs that restarts at each blip run; a blip run
    entered with a count above 0 is a reset.  Each threshold, in order,
    fires at the first sample where the count reaches its need, if that is
    within its horizon (``limits`` = required, horizon and the horizon's
    last sample per threshold, and the sample period), and is otherwise
    abandoned once the runs reach that last sample and an event at or after
    the horizon.  Its counts are taken at its trigger or at that last
    sample: the event counts of the segment of the first event at or after
    the trigger or the horizon, and the resets and blip samples of the rows
    above the last row starting by then and of that row's blip run if it
    starts by then.
    """
    n, split, first_blip, silent, blips = runs
    t_event, ionized, counts = segments
    required, horizon, last, ts = limits
    lanes = n.shape[1]
    # The count without resets, at the end of each row ...
    total = _scan(np.add, silent.copy()) + live.counter
    at_blip = total - silent * first_blip  # ... as the row's blip run starts
    flashes = blips > 0
    cleared = _scan(np.maximum, at_blip * flashes)  # ... at the last reset
    cleared_before = _before(np.zeros(lanes, np.int64), cleared)
    count = total - silent - np.where(first_blip, cleared, cleared_before)  # as silence starts
    resets = flashes & (at_blip > cleared_before)
    n_resets, shown = live.n_resets, live.blips  # as the runs start
    live.counter = total[-1] - cleared[-1]
    live.n_resets = n_resets + resets.sum(axis=0)
    live.blips = shown + blips.sum(axis=0)
    # The first row where the count reaches a need is one with silence.
    ends = count + silent  # the count as each row's silence ends
    far = t_event[-1] >= live.horizon  # lanes whose threshold may be abandoned
    reach = (ends >= live.need).any(axis=0)
    todo = (live.need.astype(bool) & (reach | far)).nonzero()[0]
    if not len(todo):
        return

    def pick(a, at):  # a at the flat indices ``at``
        return a.ravel()[at]

    def above(a):  # a summed over the rows above, per row
        return _scan(np.add, a.astype(np.int64)) - a

    quiet = np.where(first_blip, split, n) - count - 1  # a need's trigger, less the need
    blip_start = np.where(first_blip, n, split)
    prior_resets, prior_blips = above(resets), above(blips)
    j = todo
    while len(j):
        k, need = live.fire_k[j], live.need[j]
        last_k = last[k]
        # The trigger of the first row to reach the need, rows being in
        # sample order; past the horizon's last sample when none does.
        trigger = np.where(ends.take(j, axis=1) >= need, quiet.take(j, axis=1),
                           last_k + 1 - need).min(axis=0) + need
        fired = trigger <= last_k
        done = fired | ((t_event[-1][j] >= horizon[k]) & (last_k <= fed[j]))
        j, k, last_k, trigger, fired = (a[done] for a in (j, k, last_k, trigger, fired))
        if not len(j):
            break
        # Counts at the trigger, or the horizon's last sample if that is first:
        # of the last row starting by then, and the first event at or after it.
        at = np.minimum(trigger, last_k)
        row = np.maximum(_rows_where(np.less_equal, n, j, at) - 1, 0) * lanes + j  # flat
        seg = _rows_where(np.less, t_event, j, np.minimum(trigger * ts, horizon[k])) * lanes + j
        blip_at = pick(blip_start, row)
        in_blip = blip_at <= at
        shows = shown[j] + pick(prior_blips, row) + in_blip * np.minimum(
            at - blip_at + 1, pick(blips, row))
        ions, subrises, sampled, base = (pick(start, seg) for start, _ in counts)
        lane = live.lane[j]
        det.trigger_sample[k[fired], lane[fired]] = trigger[fired]
        det.n_resets[k, lane] = n_resets[j] + pick(prior_resets, row) + (
            in_blip & pick(resets, row))
        det.n_ionizations[k, lane] = ions
        det.n_missed_subrise[k, lane] = subrises
        # An episode unseen as the lane ends counts as missed between samples.
        det.n_missed_sampled[k, lane] = sampled + (
            ~pick(ionized, seg) & (ions > 0) & (shows == base))
        live.fire_k[j] = k + 1
        live.need[j], live.horizon[j] = required[k + 1], horizon[k + 1]
        j = j[live.need[j] > 0]


def _checked_limits(n_required: Sequence[int], horizon: Sequence[float], latency: float,
                    ts: float) -> tuple[np.ndarray, np.ndarray]:
    """run_detection's thresholds and horizons as arrays; ValueError if out of range."""
    thresholds, horizons = np.asarray(n_required), np.asarray(horizon, float)
    if len(horizons) != len(thresholds) or not len(thresholds) or min(
            np.diff(thresholds, prepend=0)) < 1 or min(np.diff(horizons), default=0) < 0:
        raise ValueError("n_required must be ascending thresholds >= 1, with a horizon each, "
                         "horizons not falling")
    # Sample indices are int64, and the engine adds to them: keep a margin.
    # A fired lane steps events until one falls after its latency window.
    if thresholds[-1] >= 2**62 or not max(horizons[-1], latency) / ts < 2**62:
        raise ValueError("thresholds, horizons and the latency must lie within 2**62 samples "
                         f"of {ts!r} s, got {int(thresholds[-1])}, {float(horizons[-1])!r} s "
                         f"and {float(latency)!r} s")
    return thresholds, horizons


def run_detection(
    events: Callable[..., tuple[np.ndarray, np.ndarray]],
    lanes: int,
    *,
    amp: AmplifierParams,
    n_required: Sequence[int],
    horizon: Sequence[float],
    latency: float = 0.0,
    detector: str = "amplifier",
    noise_std: float = 0.0,
    noise: Callable[[np.ndarray, int, np.ndarray], tuple[np.ndarray, np.ndarray]] | None = None,
) -> _Detection:
    """Run the trigger logic over the samples of ``lanes`` transition streams.

    The lanes share every argument but their events and noise.  The donor
    starts ionized with the amplifier output settled at 1.  Samples sit at
    t = n * T_s, n = 1, 2, ...  ``n_required`` lists ascending thresholds
    and ``horizon`` one horizon for each.  A threshold fires at the sample
    completing that many consecutive silent samples, if that is within its
    horizon; the loaded state is then evaluated ``latency`` seconds after
    that sample instant.  Otherwise it is abandoned at the first event at
    or after its horizon.  Its counts are taken where it fires or is
    abandoned.  The thresholds share one silent-sample counter, fire and
    end in order, and a lane stays live until its last has ended.  Every
    field of the result holds one row per threshold, equal to a run at it
    alone, and one column per lane.

    The lanes advance in passes of k events each, k chosen from the number
    of live lanes (_PASS_EVENTS): ``events(lane, state, t, k)`` returns the
    (t_event, new_state) arrays, (k, lanes), of the next k events of the
    lanes at positions ``lane``, which are in ``state`` since time ``t``:
    row j is event j of every lane, which closes the lane's segment j.
    The level before each segment follows from the last one in one array
    step per event, and the k segments become a (k, lanes) matrix of
    (start_sample, length, is_blip) runs, a row of two per segment, split
    in closed form.  _feed resolves the matrix for every lane at once: a
    blip run resets a counter, a silent run adds to it or fires a trigger.
    The ideal detector latches: a sample is a blip when the donor is
    ionized at any instant of ((n - 1) T_s, n T_s], so it misses no
    ionization.  A lane that has fired takes the state of each event inside
    the latency window, until an event falls after it.  Lanes whose last
    threshold has ended leave the arrays after the pass, ignoring the rest
    of its events, so a pass costs in proportion to the lanes still live,
    and a call's long tail of few lanes costs passes, not events.

    Every pass feeds its rows in one loop.  Without noise the loop runs
    once.  With noise it runs once per wave of flips, from each counting
    lane's trigger bound: live.n - 1 - counter + the last threshold, the
    earliest sample at which that threshold can fire.  ``_next_flip``
    searches each of the pass's segments whose next sample lies at or
    before the bound, a search lane per (segment, lane), and each search
    lane moves on past a flip while the sample after it is within the
    bound; a flip to a blip within the bound restarts the count, and moves
    the bound to the last threshold's need past it.  The wave then feeds
    each lane's runs up to its first sample not yet searched, cut at every
    flip found, each flipped sample a row of its own (_flip_runs), and the
    next wave starts from the new bounds, until every lane has triggered
    its last threshold or searched the whole pass.  No trigger of the last
    threshold comes before the bound, so every search that a wave makes,
    the one-lane scalar loop makes as well.
    ``noise(lane, round, row)`` returns the (u_gap, u_accept) arrays of the
    lanes at positions ``lane``, each in its own ``round`` and at its own
    ``row``: a lane's row pointer starts at 0 in every round and moves on
    by one with each pair it reads in that round.  A lane reads pairs up to
    the first flip after its last trigger, or to its segment's end, so what
    it reads depends neither on the other lanes nor on the pass length nor
    on the thresholds below its last.
    """
    ts = amp.sample_period
    omega = amp.angular_cutoff
    t_rise_det = 0.0 if detector == "ideal" else rise_time(amp.cutoff, amp.threshold)
    noisy = noise_std > 0.0 and detector == "amplifier"
    if noisy and noise is None:
        raise ValueError("noise_std > 0 requires a noise source")
    thresholds, horizons = _checked_limits(n_required, horizon, latency, ts)
    K = len(thresholds)
    required = np.append(thresholds, 0).astype(np.int64)
    horizons = np.append(horizons, horizons[-1])
    limits = (required, horizons, _last_sample(horizons, ts), ts)

    live = _Lanes(lanes, required, horizons)
    det = _Detection(np.full((K, lanes), -1), np.full((K, lanes), -1, np.int8),
                     *(np.zeros((K, lanes), np.int64) for _ in _COUNTS), None)
    rnd = 0
    while len(live.lane):
        k = max(1, min(_PASS_EVENTS // len(live.lane), rnd, _PASS_MAX))
        t_event, new_state = events(live.lane, live.state, live.seg_start, k)
        # Row j of each (k, lanes) array is segment j, closed by event j.
        state = _before(live.state, new_state)
        ionized = state == _IONIZED
        seg_start = _before(live.seg_start, t_event)
        n_last = _last_sample(np.minimum(t_event, horizons[-1]), ts)
        n_first = _before(live.n, np.maximum(live.n, n_last + 1))
        level = latched = None
        with np.errstate(invalid="ignore"):  # events at inf, past a lane's last
            dt = t_event - seg_start
            if detector == "ideal":
                latched = np.ceil(t_event / ts - 1e-12).astype(np.int64) * ionized
                np.maximum(latched[0], live.latched_until, out=latched[0])
                latched = _scan(np.maximum, latched)
            else:
                decay = np.exp(-omega * dt)
                level = np.empty((k + 1, len(live.lane)))
                level[0] = live.level
                for j in range(k):  # _output, one event at a time
                    np.subtract(level[j], ionized[j], out=level[j + 1])
                    level[j + 1] *= decay[j]
                    level[j + 1] += ionized[j]
        split, first_blip = _noiseless_runs(
            amp, detector, n_first, n_last, ionized, None if level is None else level[:-1],
            seg_start, None if latched is None else _before(live.latched_until, latched))
        ionizes, subrise = ~ionized & (new_state == _IONIZED), dt < t_rise_det
        fed, flips = n_last[-1], None
        if noisy:  # each search lane's next start and noise row, each segment's blips
            search = n_first.copy(), np.zeros(n_first.shape, np.int64)
            b_end = np.broadcast_to(live.blips, n_first.shape)
        while True:  # once, or once per wave of flips
            if noisy:
                # No trigger of the last threshold comes before this bound.
                counting = live.need > 0
                need = required[K - 1]
                last = np.where(counting, live.n - 1 - live.counter + need, -1)
                flips = _next_flip(amp, noise_std, noise, live.lane, rnd, search,
                                   (level[:-1], seg_start, ionized, n_last, split, first_blip),
                                   last, need)
                # Each counting lane feeds up to the first sample not yet searched.
                start = search[0]
                fed = np.where(counting, np.where(start <= n_last, start - 1, n_last[-1]).min(
                    axis=0), n_last[-1])
            runs, last_row = _flip_runs(flips, live.n, fed, n_first, n_last, split, first_blip)
            blips = _scan(np.add, runs[4].copy())  # fed by the end of each row
            if last_row is not None:
                blips = np.take_along_axis(blips, last_row, 0)
            blips += live.blips
            # With noise, segments fed in full by an earlier wave keep their blips.
            b_end = np.where(n_last < live.n, b_end, blips) if noisy else blips
            counts = _event_counts(live, ionized, ionizes, subrise, b_end)
            _feed(live, det, runs, fed, (t_event, ionized, counts), limits)
            live.n = np.maximum(live.n, fed + 1)
            if not (noisy and np.count_nonzero((live.need > 0) & (live.n <= n_last[-1]))):
                break

        # A threshold ends at once when abandoned, and at the first event
        # after trigger + latency when fired, keeping the state before it.
        ending = (live.end_k < live.fire_k).nonzero()[0]
        while len(ending):
            trigger = det.trigger_sample[live.end_k[ending], live.lane[ending]]
            j = _rows_where(np.less_equal, t_event, ending, trigger * ts + latency)
            ends = (trigger < 0) | (j < k)
            ending, j, trigger = ending[ends], j[ends], trigger[ends]
            det.state_at_trigger[live.end_k[ending], live.lane[ending]] = np.where(
                trigger < 0, -1, state.ravel()[np.minimum(j, k - 1) * len(state[0]) + ending])
            live.end_k[ending] += 1
            ending = ending[live.end_k[ending] < live.fire_k[ending]]

        # Every lane moves past the pass's last event; those whose last
        # threshold has ended leave.
        (live.n_ionizations, live.n_missed_subrise, live.n_missed_sampled,
         live.episode_base) = (after for _, after in counts)
        if detector == "ideal":
            live.latched_until = latched[-1]
        else:
            live.level = level[-1]
        live.n = np.maximum(live.n, n_last[-1] + 1)
        live.seg_start, live.state = t_event[-1], new_state[-1]
        if np.count_nonzero(done := live.end_k == K):
            live.keep((~done).nonzero()[0])
        rnd += k
    det.end_time = np.where(det.trigger_sample >= 0, det.trigger_sample * ts + latency,
                            horizons[:K, None])
    return det


def shot_rng(master_seed: int, block: int, rnd: int) -> np.random.Generator:
    """Noise generator of round ``rnd`` of the 1024-shot block ``block``.

    The name dates from when each shot had a noise generator of its own.
    It stays because bench/tracer.py times the noise set-up by wrapping
    ``harness.shot_rng``, which _block_noise looks up at call time; its
    calls now count (block, round) generators.
    """
    return np.random.default_rng([master_seed, _NOISE_STREAM, block, rnd])


def _limbs(rows: list[list[int]]) -> np.ndarray:
    """The high and low uint64 halves of rows of 128-bit ints, as a (limb,
    row, column) array."""
    return np.array([[[v >> 64 for v in row] for row in rows],
                     [[v & _LOW64 for v in row] for row in rows]], np.uint64)


def _jumps(step: tuple[int, int], n: int) -> tuple[np.ndarray, tuple[int, int]]:
    """Powers 0 to n - 1 of the PCG64 jump ``step`` as a (limb, A or G, power)
    array, and power n.  A jump (A, G) takes a state s to A * s + G * inc
    mod 2**128; one step is (_PCG_MULT, 1)."""
    (a_step, g_step), a, g, powers = step, 1, 0, ([], [])
    for _ in range(n):
        powers[0].append(a)
        powers[1].append(g)
        a, g = a_step * a & _MASK128, (a_step * g + g_step) & _MASK128
    return _limbs(powers), (a, g)


# The jumps of 0 to _SEED_BLOCK - 1 steps and of _SEED_BLOCK * m steps for
# every row m that a pass draws.
_COLUMN_JUMPS, _BLOCK_JUMP = _jumps((_PCG_MULT, 1), _SEED_BLOCK)
_ROW_A, _ROW_G = _jumps(_BLOCK_JUMP, 2 * _PASS_MAX)[0].transpose(1, 0, 2)[..., None]


def _mul128(a, b):
    """a * b mod 2**128 for (high, low) pairs of uint64 arrays, broadcast."""
    (a_hi, a_lo), (b_hi, b_lo) = a, b
    a0, a1, b0, b1 = a_lo & 0xFFFFFFFF, a_lo >> 32, b_lo & 0xFFFFFFFF, b_lo >> 32
    p01, p10 = a0 * b1, a1 * b0
    carry = ((a0 * b0) >> 32) + (p01 & 0xFFFFFFFF) + (p10 & 0xFFFFFFFF)
    return (a1 * b1 + (p01 >> 32) + (p10 >> 32) + (carry >> 32) + a_hi * b_lo + a_lo * b_hi,
            a_lo * b_lo)


def _add128(a, b):
    """a + b mod 2**128 for (high, low) pairs of uint64 arrays, broadcast."""
    low = a[1] + b[1]
    return a[0] + b[0] + (low < b[1]), low


def _read_columns(gens: list[np.random.Generator], owner: np.ndarray, column: np.ndarray,
                  k: int) -> np.ndarray:
    """``gens[owner[i]].random((k, 2, _SEED_BLOCK))[:, :, column[i]]`` for
    every i, as a (2, k, len(owner)) array, computed without drawing the
    other columns.  Every generator then stands where that draw leaves it.

    PCG64's j-th output is the XSL-RR permutation of its state j steps on
    (O'Neill 2014), and a jump reaches any state in one step (Brown 1994).
    Uniform (r, i, c) of the draw is output _SEED_BLOCK * m + c + 1, m =
    2r + i: row m's jump of _SEED_BLOCK * m steps from the lane's state
    c + 1 steps on.  The 128-bit arithmetic runs on uint64 limbs, and each
    output becomes (out >> 11) * 2**-53, as in Generator.random.
    """
    rows = 2 * k
    states = [gen.bit_generator.state["state"] for gen in gens]
    s_inc = _limbs([[st["state"] * _PCG_MULT + st["inc"] & _MASK128 for st in states],
                    [st["inc"] for st in states]])  # (limb, state one step on or inc, block)
    with np.errstate(over="ignore"):
        hi, lo = _mul128(_COLUMN_JUMPS.take(column, -1), s_inc.take(owner, -1))
        hi, lo = _add128((hi[0], lo[0]), (hi[1], lo[1]))  # each lane's state c + 1 steps on
        offset = _mul128(_ROW_G[:, :rows], s_inc[:, 1])  # G_{1024 m} inc, (rows, blocks)
        if len(gens) > 1:
            offset = offset[0].take(owner, -1), offset[1].take(owner, -1)
        hi, lo = _add128(_mul128(_ROW_A[:, :rows], (hi, lo)), offset)
        rot = hi >> 58  # XSL-RR: the xor of the halves, rotated right by rot
        hi ^= lo
        out = (hi >> rot) | (hi << ((64 - rot) & 63))
    u = (out >> 11) * 2.0 ** -53
    for gen in gens:
        gen.bit_generator.advance(rows * _SEED_BLOCK)
    return u.reshape(k, 2, len(owner)).transpose(1, 0, 2)


def _block_events(master_seed: int, rates: RateSet, indices: range):
    """Event source of the shots ``indices`` for run_detection: lane k is
    shot ``indices[k]``, and ``lane`` ascends.

    A call for k events reads, from the generator of every block with a
    live lane, the (k, 2, _SEED_BLOCK) uniforms that k rounds of (2,
    _SEED_BLOCK) draws give: event r of shot i is the Gillespie step of
    column i % _SEED_BLOCK of round r.  A block with at least _SEED_BLOCK /
    _SPARSE_COST live lanes draws the array and keeps their columns (all of
    it, with no copy by column, when every lane is live).  A block with
    fewer computes only their columns (_read_columns), so that a pass costs
    what its live lanes read, unless the pass would save fewer than
    _SPARSE_SETUP draws that way.  Either way the generator moves past the
    whole array.  One gillespie_step call steps each of the three states
    with every lane's k columns, and each lane then follows its chain
    through that table, k = 1 included.  A block whose lanes have ended
    reads no more, which leaves the other blocks' streams as they were.
    The (t_event, new_state) arrays are (k, lanes).
    """
    first = indices[0] // _SEED_BLOCK
    gens = [np.random.default_rng([master_seed, _EVENT_STREAM, b])
            for b in range(first, indices[-1] // _SEED_BLOCK + 1)]
    column = np.arange(indices.start, indices.stop) % _SEED_BLOCK
    states = np.arange(len(DonorState))[:, None]
    # Each block's first lane: the lanes of block b are edges[b]:edges[b + 1].
    starts = np.maximum(np.arange(len(gens) + 1) * _SEED_BLOCK - column[0], 0)

    def events(lane: np.ndarray, state: np.ndarray, t: np.ndarray, k: int):
        width = len(lane)
        u = np.empty((2, k, width))
        edges = np.searchsorted(lane, starts).tolist()
        spans = [(b, lo, hi) for b, (lo, hi) in enumerate(zip(edges, edges[1:])) if hi > lo]
        sparse = [(b, lo, hi) for b, lo, hi in spans if (hi - lo) * _SPARSE_COST < _SEED_BLOCK]
        if 2 * k * sum(_SEED_BLOCK - (hi - lo) * _SPARSE_COST for _, lo, hi in sparse) \
                < _SPARSE_SETUP:
            sparse = []  # too few draws saved to pay for the reader
        for b, lo, hi in spans:
            if (b, lo, hi) not in sparse:
                drawn = gens[b].random((k, 2, _SEED_BLOCK))
                if hi - lo < _SEED_BLOCK:
                    drawn = drawn.take(column[lane[lo:hi]], axis=-1)
                u[..., lo:hi] = drawn.transpose(1, 0, 2)
        if sparse:
            at = np.concatenate([np.arange(lo, hi) for _, lo, hi in sparse])
            owner = np.repeat(np.arange(len(sparse)), [hi - lo for _, lo, hi in sparse])
            u[..., at] = _read_columns([gens[b] for b, _, _ in sparse], owner, column[lane[at]], k)
        step, to = (a.ravel() for a in gillespie_step(states, rates, u[0].ravel(), u[1].ravel()))
        times, path = np.empty((k, width)), np.empty((k, width), np.int64)
        at = np.arange(width)
        for r in range(k):
            j = state * (k * width) + at
            t = times[r] = t + step[j]
            state = path[r] = to[j]
            at += width
        return times, path

    return events


def _block_noise(master_seed: int, indices: range):
    """Noise source of the shots ``indices`` for run_detection: lane k is
    shot ``indices[k]``.

    Round r of block b reads ``shot_rng(master_seed, b, r)``, built when a
    lane of the block first asks for a pair in that round and kept while
    the call may read that round again: a pass reads only its own rounds,
    at most _PASS_MAX of them.  Its j-th (2, _SEED_BLOCK) draw is row j,
    and a lane reads its pair from its shot's column of the row it asks
    for, each lane in its own round.  A call draws only the columns from
    its first to its last lane's: the generator (PCG64, of period 2**128)
    advances past the others, or back to a row behind it.
    """
    first = indices[0] // _SEED_BLOCK
    block, column = np.divmod(np.arange(indices.start, indices.stop) - first * _SEED_BLOCK,
                              _SEED_BLOCK)
    blocks = int(block[-1]) + 1
    c0 = int(column.min())
    width = int(column.max()) - c0 + 1
    streams = {}  # (round, block) -> [its generator, draws made]

    def uniforms(lane: np.ndarray, rnd, row: np.ndarray):
        rows = int(row.max()) + 1
        key = (rnd * rows + row) * blocks + block[lane]
        order = key.argsort()  # groups the asks by key
        key = key[order]
        head = np.empty(len(key), bool)
        head[0] = True
        np.not_equal(key[1:], key[:-1], out=head[1:])
        drawn = np.empty((np.count_nonzero(head), 2, width))
        for k, out in zip(key[head].tolist(), drawn):
            k, b = divmod(k, blocks)
            r, j = divmod(k, rows)
            if (stream := streams.get((r, b))) is None:
                stream = streams[r, b] = [shot_rng(master_seed, first + b, r), 0]
            gen, at = stream[0], 2 * j * _SEED_BLOCK + c0
            gen.bit_generator.advance((at - stream[1]) % 2**128)
            gen.random(out=out[0])
            gen.bit_generator.advance(_SEED_BLOCK - width)
            gen.random(out=out[1])
            stream[1] = at + _SEED_BLOCK + width
        if len(streams) > 2 * _PASS_MAX * blocks:  # drop the rounds of earlier passes
            newest = max(r for r, _ in streams)
            for old in [old for old in streams if old[0] <= newest - _PASS_MAX]:
                del streams[old]
        at = np.empty(len(key), np.int64)  # each ask's pair in drawn, flat
        at[order] = (np.cumsum(head) - 1) * (2 * width)
        at += column[lane] - c0
        drawn = drawn.ravel()
        return drawn[at], drawn[at + width]

    return uniforms


def _horizons(cfg: ExperimentConfig, n_required: Sequence[int]) -> np.ndarray:
    """The abandon horizon of each threshold; ValueError where run_detection
    would reject the run, or where the latency lies past the last horizon:
    a fired lane steps every event up to the end of its latency window."""
    ts = cfg.amplifier.sample_period
    horizon = cfg.abandon_factor * np.asarray(n_required) * ts
    if cfg.demon.latency > horizon[-1]:
        raise ValueError(f"demon latency {float(cfg.demon.latency)!r} s lies past the last "
                         f"abandon horizon, {float(horizon[-1])!r} s")
    return _checked_limits(n_required, horizon, cfg.demon.latency, ts)[1]


def _shot_block(args) -> _Detection:
    """Run the shots ``indices`` as the lanes of one run_detection call."""
    cfg, rates, n_required, indices = args
    return run_detection(
        _block_events(cfg.master_seed, rates, indices),
        len(indices),
        amp=cfg.amplifier,
        n_required=n_required,
        horizon=_horizons(cfg, n_required),
        latency=cfg.demon.latency,
        detector=cfg.detector,
        noise_std=cfg.noise_std,
        noise=_block_noise(cfg.master_seed, indices) if cfg.noise_std > 0.0 else None,
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
    return _shot_block((cfg, rates, [n_required], block)).records(shot_index)[0]


def _blocks(shots: int, size: int) -> list[range]:
    """Shot indices 0 .. shots - 1 in consecutive ranges of up to ``size``."""
    return [range(k, min(k + size, shots)) for k in range(0, shots, size)]


def _tally_block(args) -> tuple[np.ndarray, np.ndarray]:
    """All a sweep point reads of _shot_block, and all that a pool worker sends
    back: per threshold, each lane's spin at trigger (-1 if none) and the
    sums of the _TALLIED counts.  Dropping the rest of each call's
    _Detection at once keeps memory down: without it, op-point's peak RSS
    (bench/run.py, 2-vCPU VM) read 77.6-77.9 MiB against 71.0-71.5 MiB."""
    shots = _shot_block(args)
    return shots.state_at_trigger, np.stack(
        [getattr(shots, name).sum(axis=-1) for name in _TALLIED], axis=-1)


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _run_shots(cfg: ExperimentConfig, jobs: list[tuple[RateSet, list[int]]],
               tally: bool = False) -> list:
    """Every shot of cfg for each (rates, thresholds) job, in run_detection
    calls of up to _LANE_BLOCKS aligned blocks.  cfg.workers is an upper
    bound: work of at most _POOL_MIN_LANES lanes (shots x jobs) runs in this
    process, one call of up to _LANE_BLOCKS blocks per job, and larger work
    uses no more workers than the CPUs this process may use.  With more than
    one worker, each job's shots are split into one run per worker, and all
    calls go through one pool's map, one call at a time, so jobs of unequal
    cost spread over the workers.  Returns each job's _Detection, or with
    ``tally`` its calls' _tally_block results, in shot-index order.  A job
    that a call would reject raises ValueError here, before any pool starts.
    """
    for _, n_required in jobs:
        _horizons(cfg, n_required)
    workers = (min(cfg.workers, _usable_cpus())
               if cfg.shots * len(jobs) > _POOL_MIN_LANES else 1)
    blocks = min(_LANE_BLOCKS, math.ceil(cfg.shots / (workers * _SEED_BLOCK)))
    ranges = _blocks(cfg.shots, blocks * _SEED_BLOCK)
    calls = [(cfg, rates, n_required, r) for rates, n_required in jobs for r in ranges]
    block = _tally_block if tally else _shot_block
    pooled = workers > 1 and len(calls) > 1  # and starts no idle worker
    with Pool(processes=min(workers, len(calls))) if pooled else contextlib.nullcontext() \
            as pool:
        parts = list(map(block, calls) if pool is None else pool.map(block, calls, 1))
    per_job = [parts[k:k + len(ranges)] for k in range(0, len(parts), len(ranges))]
    return per_job if tally else [_Detection.concatenate(p) for p in per_job]


def _bootstrap_quartiles(
    successes: np.ndarray, master_seed: int, point_index: int
) -> tuple[float, float, float]:
    """Median and quartiles of batch-resampled success fractions, from a
    boolean array of successes."""
    rng = np.random.default_rng([master_seed, _BOOTSTRAP_STREAM, point_index])
    if len(successes) == 0:
        return math.nan, math.nan, math.nan
    batch = max(1, len(successes) // BOOTSTRAP_BATCH_DIVISOR)
    draws = rng.integers(0, len(successes), size=(BOOTSTRAP_RESAMPLES, batch))
    means = np.count_nonzero(successes[draws], axis=1) / batch
    p25, median, p75 = np.percentile(means, [25.0, 50.0, 75.0])
    return float(median), float(p25), float(p75)


def _draw_load_spin(cfg: ExperimentConfig, rates: RateSet, indices: range) -> np.ndarray:
    """Spins of the first electrons the shots ``indices`` load from the
    ionized donor: round 0 of their events, as a monitored run draws it."""
    lane = np.arange(len(indices))
    events = _block_events(cfg.master_seed, rates, indices)
    return events(lane, np.full(len(lane), _IONIZED), np.zeros(len(lane)), 1)[1][0]


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
    flags = spins == DonorState.DOWN
    median, p25, p75 = _bootstrap_quartiles(flags, cfg.master_seed, point_index)
    return SweepResult(
        grid_value=grid_value,
        shots=cfg.shots,
        successes=int(np.count_nonzero(flags)),
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
    tallies = ([[(spins[0], totals[0]) for spins, totals in job]
                for job in _run_shots(cfg, [(r, [n_required]) for r in rates], tally=True)]
               if demon_on else [None] * len(rates))
    return [_sweep_point(cfg, k, mu_d, r, n_required, point)
            for k, (mu_d, r, point) in enumerate(zip(cfg.sweep.grid, rates, tallies))]

