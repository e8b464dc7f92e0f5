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
a live lane draws a (k, 2, 1024) array of uniforms from it, the same values
as k draws of (2, 1024), and an array Gillespie step turns column i % 1024
of round r into the r-th event of shot i.  A shot's events therefore depend
on nothing but the master seed and its index: not on how shots are grouped
into calls or passes, on the worker or on the order.  Sensor noise only
flips samples away from their noiseless outcome, each independently, and
the lanes find their flips together by thinning (Lewis & Shedler 1979),
one event per pass while a lane still counts, each pass feeding once per
wave of flips.  The uniforms are keyed the same way: round r of block b
reads ``default_rng([master_seed, _NOISE_STREAM, b, r])``, whose j-th (2,
1024) draw is row j, and a lane reads its j-th (u_gap, u_accept) pair of
the round from its column of row j.  A shot's flips therefore depend on
nothing but the master seed and its index either.  A call's result holds
a row per threshold and a column per shot, its thresholds sharing one
counter, so a t_obs sweep follows each shot once.
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
_MIN_BOUND = 1e-300  # least bound on a flip probability (see _next_flip)
# Blocks per run_detection call.  With passes of several events, op-point's
# sweep (2 vCPU, in one process, 9 interleaved runs) takes 1.43, 1.11 and
# 0.97 times as long at 4, 8 and 32 blocks as at 16, and its peak RSS
# (bench/run.py) is 68.5 MiB at 8 blocks, 71.4 at 16 and 79.1 at 32.
_LANE_BLOCKS = 16
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
    events, not per sample; while noise is searched for flips, a pass takes
    one event and feeds once per wave of flips.

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


def _reduce(ufunc, a: np.ndarray) -> np.ndarray:
    """ufunc.reduce(a, axis=0); a's one row as it is."""
    return a[0] if len(a) == 1 else ufunc.reduce(a, axis=0)


def _before(first: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``first`` stacked on all of ``rows`` but the last: each row's predecessor."""
    return first[None] if len(rows) == 1 else np.concatenate((first[None], rows[:-1]))


def _rows_where(compare, a: np.ndarray, lanes: np.ndarray, value) -> np.ndarray:
    """How many rows of ``a`` hold compare(a, value) in each column of
    ``lanes``: the first row that does not, where the rows ascend."""
    if len(a) == 1:
        return compare(a[0][lanes], value).astype(np.int64)
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


def _half_erfc(z: np.ndarray) -> np.ndarray:
    """erfc(z) / 2 element by element with math.erfc: numpy has no erfc."""
    return 0.5 * np.fromiter(map(math.erfc, z.tolist()), float, len(z))


def _next_flip(amp: AmplifierParams, noise_std: float, uniforms, rnd: int, row: np.ndarray,
               live: _Lanes, flip: np.ndarray, ionized: np.ndarray, at: np.ndarray,
               n_end: np.ndarray) -> None:
    """Set ``flip`` of each lane at ``at`` to its first sample from live.n to
    n_end that noise flips away from the noiseless outcome, if it has one.

    Sample k flips with p_k = Q(|m_k - S_th| / noise_std), m_k its noiseless
    output.  Candidates lie a geometric gap apart at a bound r on p: p at
    the gap's start once m is past the threshold toward where it settles (p
    only falls from there), 1/2 before.  A candidate is kept with
    probability p / r.  r is at least _MIN_BOUND, so that the gap stays
    finite; any r >= p keeps the thinning exact.  The searching lanes step
    together, one candidate each per step, and each step reads one (u_gap,
    u_accept) pair per lane from ``uniforms(lane, rnd, row)`` and moves that
    lane's row pointer on.
    """
    ts, s_th, omega = amp.sample_period, amp.threshold, amp.angular_cutoff
    scale = noise_std * math.sqrt(2.0)
    n = live.n[at]
    while True:
        go = n <= n_end[at]
        at, n = at[go], n[go]
        if not len(at):
            return
        rising = ionized[at]
        m = _output(rising, live.level[at], omega, n * ts - live.seg_start[at])
        z = np.abs(m - s_th) / scale * ((m > s_th) == rising)  # 0: r = 1/2
        bound = np.maximum(_half_erfc(z), _MIN_BOUND)
        u_gap, u_accept = uniforms(live.lane[at], rnd, row[at])
        row[at] += 1
        gap = np.log1p(-u_gap) / np.log1p(-bound)  # geometric, by inversion
        go = gap < n_end[at] - n + 1
        at, bound, u_accept = at[go], bound[go], u_accept[go]
        n = n[go] + gap[go].astype(np.int64)
        m = _output(ionized[at], live.level[at], omega, n * ts - live.seg_start[at])
        kept = u_accept * bound < _half_erfc(np.abs(m - s_th) / scale)
        flip[at[kept]] = n[kept]
        at, n = at[~kept], n[~kept] + 1


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
    rows, lanes = n.shape
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
    live.n_resets = n_resets + _reduce(np.add, resets)
    live.blips = shown + _reduce(np.add, blips)
    # The first row where the count reaches a need is one with silence.
    ends = count + silent  # the count as each row's silence ends
    far = t_event[-1] >= live.horizon  # lanes whose threshold may be abandoned
    reach = _reduce(np.logical_or, ends >= live.need)
    todo = (live.need.astype(bool) & (reach | far)).nonzero()[0]
    if not len(todo):
        return

    def pick(a, at):  # a at the flat indices ``at``, 0 for a of no rows
        return a.ravel()[at] if np.ndim(a) else a

    def above(a):  # a summed over the rows above, per row
        return 0 if rows == 1 else _scan(np.add, a.astype(np.int64)) - a

    quiet = np.where(first_blip, split, n) - count - 1  # a need's trigger, less the need
    blip_start = np.where(first_blip, n, split)
    prior_resets, prior_blips = above(resets), above(blips)
    j = todo
    while len(j):
        k, need = live.fire_k[j], live.need[j]
        last_k = last[k]
        # The trigger of the first row to reach the need, rows being in
        # sample order; past the horizon's last sample when none does.
        trigger = _reduce(np.minimum, np.where(
            ends.take(j, axis=1) >= need, quiet.take(j, axis=1), last_k + 1 - need)) + need
        fired = trigger <= last_k
        done = fired | ((t_event[-1][j] >= horizon[k]) & (last_k <= fed[j]))
        if not done.all():
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
    once.  With noise a pass takes one event while any lane still counts,
    and the loop runs once per wave of flips: ``_next_flip`` finds each
    counting lane's next sample that noise flips, searching its segment up
    to its event or the last threshold's horizon, and the wave feeds the
    closed-form runs up to that sample, then the flipped sample as one more
    row.  ``noise(lane, round, row)`` returns the (u_gap, u_accept) arrays
    of the lanes at positions ``lane`` in round ``round``, each at its own
    ``row``: a lane's row pointer starts at 0 every round and moves on by
    one with each pair it reads.  A lane reads pairs up to the first flip
    after its last trigger, or to its segment's end, so what it reads
    depends neither on the other lanes nor on the thresholds below its last.
    """
    ts = amp.sample_period
    omega = amp.angular_cutoff
    t_rise_det = 0.0 if detector == "ideal" else rise_time(amp.cutoff, amp.threshold)
    noisy = noise_std > 0.0 and detector == "amplifier"
    if noisy and noise is None:
        raise ValueError("noise_std > 0 requires a noise source")
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
    K = len(thresholds)
    required = np.append(thresholds, 0).astype(np.int64)
    horizons = np.append(horizons, horizons[-1])
    limits = (required, horizons, _last_sample(horizons, ts), ts)

    live = _Lanes(lanes, required, horizons)
    det = _Detection(np.full((K, lanes), -1), np.full((K, lanes), -1, np.int8),
                     *(np.zeros((K, lanes), np.int64) for _ in _COUNTS), None)
    rnd = 0
    while len(live.lane):
        searching = noisy and np.count_nonzero(live.need)
        k = 1 if searching else max(1, min(_PASS_EVENTS // len(live.lane), rnd, _PASS_MAX))
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
        row = np.zeros(len(live.lane), np.int64)  # each lane's next noise row
        while True:  # once, or once per wave of flips
            flip = n_last[-1] + 1  # each lane's next flipped sample
            if noisy:
                _next_flip(amp, noise_std, noise, rnd, row, live, flip, ionized[0],
                           live.need.nonzero()[0], n_last[-1])
            flipped = flip <= n_last[-1]
            n, cut = np.maximum(n_first, live.n), np.minimum(n_last, flip - 1)
            fed = cut[-1] + flipped
            runs = (n, np.minimum(np.maximum(split, n), cut + 1), cut, first_blip)
            if flipped.any():  # the flipped sample as one more row, the other way
                runs = (np.concatenate((a, b[None])) for a, b in zip(runs, (
                    cut[-1] + 1, fed + 1, fed, (fed < split[-1]) != first_blip[-1])))
            runs = _run_pairs(*runs)
            # The last k rows end the k segments.
            b_end = _scan(np.add, runs[4].copy())[-k:] + live.blips
            counts = _event_counts(live, ionized, ionizes, subrise, b_end)
            _feed(live, det, runs, fed, (t_event, ionized, counts), limits)
            live.n = np.maximum(live.n, fed + 1)
            if not np.count_nonzero(flipped & (live.need > 0)):
                break

        # A threshold ends at once when abandoned, and at the first event
        # after trigger + latency when fired, keeping the state before it.
        ending = (live.end_k < live.fire_k).nonzero()[0]
        while len(ending):
            trigger = det.trigger_sample[live.end_k[ending], live.lane[ending]]
            j = _rows_where(np.less_equal, t_event, ending, trigger * ts + latency)
            ends = (trigger < 0) | (j < k)
            if not ends.all():
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


def _block_events(master_seed: int, rates: RateSet, indices: range):
    """Event source of the shots ``indices`` for run_detection: lane k is
    shot ``indices[k]``, and ``lane`` ascends.

    A call for k events draws (k, 2, _SEED_BLOCK) uniforms once from the
    generator of every block with a live lane, the same values as k rounds
    of (2, _SEED_BLOCK) draws: event r of shot i is the Gillespie step of
    column i % _SEED_BLOCK of round r.  One gillespie_step call steps each
    of the three states with every lane's k columns, and each lane then
    follows its chain through that table, k = 1 included.  A block whose
    lanes have ended draws no more, which leaves the other blocks' streams
    as they were.  The (t_event, new_state) arrays are (k, lanes).
    """
    first = indices[0] // _SEED_BLOCK
    gens = [np.random.default_rng([master_seed, _EVENT_STREAM, b])
            for b in range(first, indices[-1] // _SEED_BLOCK + 1)]
    block, column = np.divmod(np.arange(indices.start, indices.stop) - first * _SEED_BLOCK,
                              _SEED_BLOCK)
    states = np.arange(len(DonorState))[:, None]

    def events(lane: np.ndarray, state: np.ndarray, t: np.ndarray, k: int):
        width = len(lane)
        u = np.empty((2, k, width))
        lo = 0
        for b, hi in enumerate(np.bincount(block[lane], minlength=len(gens)).cumsum().tolist()):
            if hi > lo:
                u[..., lo:hi] = gens[b].random((k, 2, _SEED_BLOCK)).take(
                    column[lane[lo:hi]], axis=-1).transpose(1, 0, 2)
            lo = hi
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
    lane of the block first asks for a pair in that round.  Its j-th (2,
    _SEED_BLOCK) draw is row j, and a lane reads its pair from its shot's
    column of the row it asks for.  A call draws only the columns from its
    first to its last lane's: the generator (PCG64, of period 2**128)
    advances past the others, or back to a row behind it.
    """
    first = indices[0] // _SEED_BLOCK
    block, column = np.divmod(np.arange(indices.start, indices.stop) - first * _SEED_BLOCK,
                              _SEED_BLOCK)
    blocks = int(block[-1]) + 1
    streams = {}  # block -> [round, its generator, draws made]

    def uniforms(lane: np.ndarray, rnd: int, row: np.ndarray):
        col = column[lane]
        c0 = int(col.min())
        key = row * blocks + block[lane]  # one key per (row, block)
        present = np.bincount(key) > 0
        drawn = np.empty((np.count_nonzero(present), 2, int(col.max()) - c0 + 1))
        for k, out in zip(np.flatnonzero(present).tolist(), drawn):
            j, b = divmod(k, blocks)
            if (stream := streams.get(b)) is None or stream[0] != rnd:
                stream = streams[b] = [rnd, shot_rng(master_seed, first + b, rnd), 0]
            gen, at = stream[1], 2 * j * _SEED_BLOCK + c0
            gen.bit_generator.advance((at - stream[2]) % 2**128)
            gen.random(out=out[0])
            gen.bit_generator.advance(_SEED_BLOCK - out.shape[1])
            gen.random(out=out[1])
            stream[2] = at + _SEED_BLOCK + out.shape[1]
        width = drawn.shape[2]
        at = (np.cumsum(present) - 1)[key] * (2 * width) + col - c0  # in drawn, flat
        return drawn.ravel()[at], drawn.ravel()[at + width]

    return uniforms


def _shot_block(args) -> _Detection:
    """Run the shots ``indices`` as the lanes of one run_detection call."""
    cfg, rates, n_required, indices = args
    horizon = cfg.abandon_factor * np.asarray(n_required) * cfg.amplifier.sample_period
    # A fired lane steps every event up to the end of its latency window.
    if cfg.demon.latency > horizon[-1]:
        raise ValueError(f"demon latency {float(cfg.demon.latency)!r} s lies past the last "
                         f"abandon horizon, {float(horizon[-1])!r} s")
    return run_detection(
        _block_events(cfg.master_seed, rates, indices),
        len(indices),
        amp=cfg.amplifier,
        n_required=n_required,
        horizon=horizon,
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


def _run_shots(cfg: ExperimentConfig, jobs: list[tuple[RateSet, list[int]]],
               tally: bool = False) -> list:
    """Every shot of cfg for each (rates, thresholds) job, in run_detection
    calls of up to _LANE_BLOCKS aligned blocks.  Work that fits one call
    (one job of at most _LANE_BLOCKS blocks) is that call, made in this
    process.  Otherwise, with workers > 1, each job's shots are split into
    one run per worker, and all calls go through one pool's map, one call
    at a time, so jobs of unequal cost spread over the workers.  Returns
    each job's _Detection, or with ``tally`` its calls' _tally_block
    results, in shot-index order.
    """
    one_call = len(jobs) == 1 and cfg.shots <= _LANE_BLOCKS * _SEED_BLOCK
    blocks = min(_LANE_BLOCKS, math.ceil(
        cfg.shots / ((1 if one_call else cfg.workers) * _SEED_BLOCK)))
    ranges = _blocks(cfg.shots, blocks * _SEED_BLOCK)
    calls = [(cfg, rates, n_required, r) for rates, n_required in jobs for r in ranges]
    block = _tally_block if tally else _shot_block
    pooled = cfg.workers > 1 and len(calls) > 1  # and starts no idle worker
    with Pool(processes=min(cfg.workers, len(calls))) if pooled else contextlib.nullcontext() \
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

