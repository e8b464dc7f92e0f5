"""One benchmark workload in a fresh process: set up, run timed rounds, check.

run.py starts this file; it is not meant to be run by hand.  With
``--setup-only`` the process stops after set-up, so run.py can time set-up
in several fresh processes.  The last line of standard output is one JSON
object that run.py reads.

A round is the workload's fixed list of operations on inputs made from
``--seed``; every round repeats the same operations on the same inputs, so
counts repeat exactly from round to round.  Rounds run until ``--seconds``
have passed, at least one.  Only the calls into spindemon are timed; the
output checks run between them.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import oracle
from tracer import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

DEVICE = oracle.Device(
    temperature_k=0.26,
    asymmetry=0.388,
    b_field_t=1.423,
    gyromagnetic_ghz_per_t=28.0,
    in_total_per_s=2700.0,
    cutoff_hz=50e3,
    threshold=0.3,
    sample_period_s=1e-5,
    latency_s=1e-7,
)
PRIOR = 0.78
OP_T_OBS = 0.02  # operating point: trigger after 20 ms of silence,
REQUIRED_SAMPLES = 2000  # which is OP_T_OBS / sample_period_s samples
NOISE_STD = 0.05
PIPELINE_WORKERS = 2
TOBS_GRID = (1e-3, 2e-3, 3e-3, 5e-3, 7e-3, 10e-3, 15e-3, 20e-3)
BIAS_GRID = (-250.0, -200.0, -150.0, -100.0, -50.0, 0.0, 25.0)
FIT_GRID = (0.0,) + TOBS_GRID
FIT_MISSED = 0.003
HIST_P_UP, HIST_P_DOWN, HIST_SHOTS_PER_READ, HIST_THRESHOLD = 0.5, 0.2, 20, 0.35
# The program integrates the overlap on a 10k-point grid over [0, 1]; the
# grid and the tails outside [0, 1] put it about 1e-7 (relative) off the
# closed form.
OVERLAP_RTOL = 1e-5
PROJECT_RTOL = 1e-12

FULL_SIZES = {
    "op-point": {"shots": 100_000},
    "noisy-detector": {"shots": 1_000},
    "paper-pipeline": {
        "tobs_shots": 10_000,
        "bias_shots": 5_000,
        "off_shots": 10_000,
        "fit_shots": 100_000,
        "reads": 100_000,
    },
}
QUICK_DIVISOR = 10

PER_LAYER = (
    ("harness.shot_rng.self_s", "s"),
    ("harness.shot_rng.calls", "count"),
    ("telegraph.gillespie_step.self_s", "s"),
    ("telegraph.gillespie_step.calls", "count"),
    ("harness.events_per_shot", "events/shot"),
    ("harness.run_detection.self_s", "s"),
    ("harness.run_detection.calls", "count"),
    ("harness.shot.self_s", "s"),
    ("harness.noise_samples_per_shot", "samples/shot"),
    ("harness.noise_sample_yield", "ratio"),
    ("harness.shots", "count"),
    ("harness.triggered", "count"),
    ("harness.abandoned", "count"),
    ("harness.ionizations", "count"),
    ("harness.missed_subrise", "count"),
    ("harness.missed_sampled", "count"),
    ("harness.run_shots.wall_s", "s"),
    ("harness.pool.starts", "count"),
    ("harness.load_draw.self_s", "s"),
    ("harness.load_draw.calls", "count"),
    ("harness.bootstrap.self_s", "s"),
    ("harness.bootstrap.calls", "count"),
    ("fitting.fit.self_s", "s"),
    ("fitting.fit.iterations", "count"),
    ("ancilla.histogram.self_s", "s"),
    ("ancilla.visibility.self_s", "s"),
    ("output.write.self_s", "s"),
    ("output.bytes", "B"),
    ("config.load.self_s", "s"),
    ("cli.sweep-tobs.wall_s", "s"),
    ("cli.sweep-bias.wall_s", "s"),
    ("cli.fit.wall_s", "s"),
    ("cli.histogram.wall_s", "s"),
    ("cli.project.wall_s", "s"),
    ("trace.overhead_s", "s"),
)


def import_program():
    """Import spindemon from this checkout's src/, never from elsewhere."""
    if not (SRC / "spindemon" / "__init__.py").is_file():
        sys.exit(f"error: no spindemon sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import spindemon
    import spindemon.ancilla
    import spindemon.cli
    import spindemon.config
    import spindemon.fitting
    import spindemon.harness
    import spindemon.output

    if Path(spindemon.__file__).resolve().parent != (SRC / "spindemon").resolve():
        sys.exit(f"error: imported spindemon from {spindemon.__file__}, not {SRC}")
    return spindemon


def sizes_for(workload: str, quick: bool) -> dict:
    sizes = dict(FULL_SIZES[workload])
    if quick:
        sizes = {k: v if k == "fit_shots" else max(1, v // QUICK_DIVISOR) for k, v in sizes.items()}
    return sizes


def device_keys(mu: float) -> dict[str, str]:
    d = DEVICE
    return {
        "physics.temperature_k": repr(d.temperature_k),
        "physics.asymmetry": repr(d.asymmetry),
        "physics.b_field_t": repr(d.b_field_t),
        "physics.gyromagnetic_ghz_per_t": repr(d.gyromagnetic_ghz_per_t),
        "physics.donor_potential_uev": repr(mu),
        "rates.in_total_per_s": repr(d.in_total_per_s),
        "amplifier.cutoff_hz": repr(d.cutoff_hz),
        "amplifier.threshold": repr(d.threshold),
        "amplifier.sample_period_s": repr(d.sample_period_s),
        "demon.required_samples": str(REQUIRED_SAMPLES),
        "demon.latency_s": repr(d.latency_s),
    }


def write_config(path: Path, keys: dict[str, str]) -> Path:
    path.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()), encoding="utf-8")
    return path


class Inputs:
    """Everything a workload needs, made from the seed and the device model."""

    def __init__(self, workload: str, seed: int, quick: bool, work_dir: Path):
        self.workload = workload
        self.sizes = sizes_for(workload, quick)
        state = np.random.SeedSequence(seed).generate_state(3)
        self.master_seed = int(state[0] & 0x7FFFFFFF)
        self.hist_seed = int(state[1] & 0x7FFFFFFF)
        self.mu = oracle.potential_for_prior(DEVICE, PRIOR)
        self.g0 = oracle.base_rate(DEVICE, self.mu)
        self.rates = oracle.rates(DEVICE, self.mu, self.g0)
        self.t_rise = oracle.rise_time(DEVICE.cutoff_hz, DEVICE.threshold)
        self.work_dir = work_dir
        keys = device_keys(self.mu)
        keys["run.master_seed"] = str(self.master_seed)
        if workload == "paper-pipeline":
            work_dir.mkdir(parents=True, exist_ok=True)
            keys["run.workers"] = str(PIPELINE_WORKERS)
            grid = ",".join(repr(t) for t in TOBS_GRID)
            self.tobs_amp = write_config(
                work_dir / "tobs-amplifier.cfg", {**keys, "sweep.grid": grid}
            )
            self.tobs_ideal = write_config(
                work_dir / "tobs-ideal.cfg",
                {**keys, "sweep.grid": grid, "run.detector": "ideal"},
            )
            self.bias = write_config(
                work_dir / "bias.cfg",
                {
                    **keys,
                    "sweep.variable": "mu_d",
                    "sweep.grid": ",".join(repr(m) for m in BIAS_GRID),
                },
            )
            self.fit_data = work_dir / "fit-data.csv"
            self.fit_truth = {
                "prior": self.rates.prior,
                "rate_gap": self.rates.out_up - self.rates.out_down,
                "missed_probability": FIT_MISSED,
            }
            rng = np.random.default_rng([seed, 0xF17])
            shots = self.sizes["fit_shots"]
            with open(self.fit_data, "w", encoding="utf-8") as fh:
                fh.write("grid_value,shots,successes\n")
                truth = self.fit_truth
                for t in FIT_GRID:
                    p = oracle.posterior(truth["prior"], t, truth["rate_gap"]) - FIT_MISSED
                    fh.write(f"{t!r},{shots},{int(rng.binomial(shots, p))}\n")
            self.raw = {}
        else:
            keys["run.workers"] = "1"
            keys["sweep.grid"] = repr(OP_T_OBS)
            keys["run.shots"] = str(self.sizes["shots"])
            if workload == "noisy-detector":
                keys["run.noise_std"] = repr(NOISE_STD)
            self.raw = keys

    @property
    def p_miss(self) -> float:
        return oracle.p_miss(self.t_rise, self.rates.in_total)


def set_up(sd, inputs: Inputs):
    """Program-side set-up: the config the first timed call uses, one warm-up shot."""
    if inputs.workload == "paper-pipeline":
        cfg, _ = sd.config.load_config(inputs.tobs_amp)
    else:
        cfg = sd.config.build_experiment_config(inputs.raw)
    sd.harness.run_initialization_shot(cfg, 0)
    return cfg


# ---------------------------------------------------------------- checks


def check_interval(label, successes, trials, low, high, problems):
    if not oracle.binomial_consistent(successes, trials, low, high):
        problems.append(
            f"{label}: {successes}/{trials} = {successes / trials:.6f} "
            f"outside [{low:.6f}, {high:.6f}] at {oracle.K_SIGMA} sigma"
        )


def monitored_band(inputs: Inputs, n_required: int, rates, detector: str):
    """Fidelity band of a monitored point: the posterior, less detection loss."""
    t_obs = n_required * DEVICE.sample_period_s
    post = oracle.posterior(rates.prior, t_obs, rates.out_up - rates.out_down)
    if detector == "ideal":
        return post, post
    return post - oracle.p_miss(inputs.t_rise, rates.in_total), post


def check_op_point(inputs: Inputs, results, missed_ratio: bool) -> list[str]:
    problems = []
    if len(results) != 1:
        return [f"expected one sweep point, got {len(results)}"]
    r = results[0]
    if r.shots != inputs.sizes["shots"]:
        problems.append(f"shots {r.shots} != {inputs.sizes['shots']}")
    if r.n_abandoned:
        problems.append(f"{r.n_abandoned} abandoned shots")
        return problems
    low, high = monitored_band(inputs, REQUIRED_SAMPLES, inputs.rates, "amplifier")
    check_interval("fidelity", r.successes, r.n_triggered, low, high, problems)
    if missed_ratio:
        check_interval(
            "missed_subrise/ionizations",
            r.n_missed_subrise,
            r.n_ionizations,
            inputs.p_miss,
            inputs.p_miss,
            problems,
        )
    return problems


def read_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check_sweep_file(
    inputs: Inputs, path: Path, kind: str, grid: tuple[float, ...], want: int
) -> tuple[int, list[str]]:
    """Check a sweep's JSON output point by point; return (shots, problems).

    ``kind`` is tobs-amplifier, tobs-ideal, bias-on or bias-off; ``want``
    is the requested shots per point.
    """
    payload = read_json(path)
    rows = payload["rows"]
    problems = []
    abandoned = payload["metadata"].get("abandoned_total")
    if abandoned != 0:
        problems.append(f"{kind}: abandoned_total = {abandoned}")
    if [row["grid_value"] for row in rows] != list(grid):
        problems.append(f"{kind}: grid {[row['grid_value'] for row in rows]}")
        return 0, problems
    for row in rows:
        x, shots, successes = row["grid_value"], row["shots"], row["successes"]
        if shots != want:
            problems.append(f"{kind} @ {x}: shots {shots} != {want}")
        if kind.startswith("tobs"):
            n_required = round(x / DEVICE.sample_period_s)
            low, high = monitored_band(
                inputs, n_required, inputs.rates, "ideal" if kind == "tobs-ideal" else "amplifier"
            )
        else:
            rates = oracle.rates(DEVICE, x, inputs.g0)
            if kind == "bias-off":
                low = high = rates.prior
            else:
                low, high = monitored_band(inputs, REQUIRED_SAMPLES, rates, "amplifier")
        check_interval(f"{kind} @ {x}", successes, shots, low, high, problems)
    return sum(row["shots"] for row in rows), problems


def check_fit_file(inputs: Inputs, path: Path) -> list[str]:
    rows = {row["param"]: row for row in read_json(path)["rows"]}
    problems = []
    for name, truth in inputs.fit_truth.items():
        est, se = rows[name]["estimate"], rows[name]["std_error"]
        if not (isinstance(se, float) and math.isfinite(se) and se > 0.0):
            problems.append(f"fit {name}: standard error {se!r}")
        elif abs(est - truth) > oracle.K_SIGMA * se:
            problems.append(
                f"fit {name}: {est!r} is {abs(est - truth) / se:.2f} SE from truth {truth!r}"
            )
    return problems


def check_histogram(inputs: Inputs, path: Path, stderr: str) -> list[str]:
    reads = inputs.sizes["reads"]
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split()
    counts = [int(line.split(",")[1]) for line in lines[1:]]
    problems = []
    if sum(counts) != reads:
        problems.append(f"histogram counts sum to {sum(counts)}, not {reads}")
    if len(counts) != HIST_SHOTS_PER_READ + 1:
        return problems + [f"histogram has {len(counts)} bins"]
    # One bin per possible fraction k / shots_per_read.
    sides = ([], [])
    for k, n in enumerate(counts):
        value = k / HIST_SHOTS_PER_READ
        sides[value > HIST_THRESHOLD].append((value, n))
    moments = []
    for side in sides:
        total = sum(n for _, n in side)
        mean = sum(v * n for v, n in side) / total
        var = sum(n * (v - mean) ** 2 for v, n in side) / total
        moments += [mean, math.sqrt(var)]
    expected = oracle.two_gaussian_overlap(*moments)
    fields = dict(part.split("=", 1) for part in stderr.split() if "=" in part)
    reported = float(fields["overlap"])
    if abs(reported - expected) > OVERLAP_RTOL * expected:
        problems.append(f"overlap {reported!r} != closed form {expected!r}")
    return problems


def check_project_file(inputs: Inputs, path: Path) -> list[str]:
    rows = {row["label"]: row for row in read_json(path)["rows"]}
    base_in = inputs.rates.in_total
    scenarios = {
        "baseline": (DEVICE.cutoff_hz, base_in),
        "faster_amplifier": (300e3, base_in),
        "slower_loading": (DEVICE.cutoff_hz, 880.0),
    }
    problems = []
    if set(rows) != set(scenarios):
        return [f"project labels {sorted(rows)}"]
    for label, (cutoff, in_rate) in scenarios.items():
        t_rise = oracle.rise_time(cutoff, DEVICE.threshold)
        pm = oracle.p_miss(t_rise, in_rate)
        expected = {
            "cutoff_hz": cutoff,
            "in_rate_total": in_rate,
            "t_rise_s": t_rise,
            "p_miss": pm,
            "plateau": 1.0 - pm,
        }
        for key, want in expected.items():
            got = rows[label][key]
            if abs(got - want) > PROJECT_RTOL * abs(want):
                problems.append(f"project {label}.{key}: {got!r} != {want!r}")
    return problems


# ---------------------------------------------------------------- operations


def usage() -> float:
    """CPU seconds of this process and its reaped workers."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class Op:
    """One program call and the check of its output.

    ``call()`` returns whatever ``check(result)`` needs; ``check`` returns
    (shots completed, list of problems).  ``out`` is the file the call
    writes, if any.
    """

    def __init__(self, name: str, call, check, out: Path | None = None):
        self.name, self.call, self.check, self.out = name, call, check, out


def cli_op(sd, name: str, argv: list[str], out: Path, check) -> Op:
    """A ``spindemon.cli.main`` call; ``check`` receives what it wrote to stderr."""

    def call():
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            try:
                code = sd.cli.main(argv + ["--out", str(out)])
            except SystemExit as exc:  # argparse rejected the arguments
                code = exc.code
        if code != 0:
            raise RuntimeError(f"exit code {code}: {err.getvalue().strip()}")
        return err.getvalue()

    return Op(name, call, check, out)


def build_ops(sd, inputs: Inputs, cfg) -> list[Op]:
    if inputs.workload != "paper-pipeline":
        missed_ratio = inputs.workload == "op-point"
        return [
            Op(
                "sweep_tobs",
                lambda: sd.harness.sweep_tobs(cfg),
                lambda results: (
                    sum(r.shots for r in results),
                    check_op_point(inputs, results, missed_ratio),
                ),
            )
        ]
    w, s = inputs.work_dir, inputs.sizes
    fmt = ["--format", "json"]

    def sweep(kind: str, config: Path, grid: tuple, shots: int, *extra: str) -> Op:
        command = "sweep-tobs" if kind.startswith("tobs") else "sweep-bias"
        out = w / f"{kind}.json"
        argv = [command, "--config", str(config), "--shots", str(shots), *extra, *fmt]
        return cli_op(sd, command, argv, out,
                      lambda stderr: check_sweep_file(inputs, out, kind, grid, shots))

    def no_shots(check):
        return lambda stderr: (0, check(stderr))

    return [
        sweep("tobs-amplifier", inputs.tobs_amp, TOBS_GRID, s["tobs_shots"]),
        sweep("tobs-ideal", inputs.tobs_ideal, TOBS_GRID, s["tobs_shots"]),
        sweep("bias-on", inputs.bias, BIAS_GRID, s["bias_shots"]),
        sweep("bias-off", inputs.bias, BIAS_GRID, s["off_shots"], "--demon-off"),
        cli_op(sd, "fit", ["fit", "--data", str(inputs.fit_data), *fmt],
               w / "fit.json", no_shots(lambda _: check_fit_file(inputs, w / "fit.json"))),
        cli_op(sd, "histogram", ["histogram", "--seed", str(inputs.hist_seed),
                                 "--shots", str(s["reads"]),
                                 "--p-up-given-up", repr(HIST_P_UP),
                                 "--p-up-given-down", repr(HIST_P_DOWN),
                                 "--shots-per-read", str(HIST_SHOTS_PER_READ),
                                 "--threshold", repr(HIST_THRESHOLD)],
               w / "histogram.csv",
               no_shots(lambda stderr: check_histogram(inputs, w / "histogram.csv", stderr))),
        cli_op(sd, "project", ["project", "--config", str(inputs.tobs_amp), *fmt],
               w / "project.json", no_shots(lambda _: check_project_file(inputs, w / "project.json"))),
    ]


def run_round(ops: list[Op], tally: dict) -> dict:
    """Run every operation once; time only the program calls."""
    wall = cpu = 0.0
    shots = 0
    per_op: dict[str, float] = {}
    for op in ops:
        tally["attempted"] += 1
        cpu0 = usage()
        t0 = time.perf_counter()
        try:
            result = op.call()
        except Exception:  # a failed operation is counted, not fatal
            elapsed = time.perf_counter() - t0
            tally["failed"] += 1
            tally["errors"].append(f"{op.name}: {traceback.format_exc()}")
            result = None
        else:
            elapsed = time.perf_counter() - t0
        cpu += usage() - cpu0
        wall += elapsed
        per_op[op.name] = per_op.get(op.name, 0.0) + elapsed
        if result is None:
            continue
        try:
            done, problems = op.check(result)
        except Exception:  # output the checks cannot read is wrong output
            done, problems = 0, [traceback.format_exc()]
        if problems:
            tally["failed"] += 1
            tally["wrong"].extend(f"{op.name}: {p}" for p in problems)
        else:
            shots += done
    out_bytes = sum(op.out.stat().st_size for op in ops if op.out and op.out.exists())
    return {"wall_s": wall, "cpu_s": cpu, "shots": shots, "per_op_s": per_op, "output_bytes": out_bytes}


def run_rounds(ops: list[Op], tally: dict, deadline: float) -> list[dict]:
    """Whole rounds until ``deadline`` (perf_counter time), at least one."""
    rounds = [run_round(ops, tally)]
    while time.perf_counter() < deadline:
        rounds.append(run_round(ops, tally))
    return rounds


# ---------------------------------------------------------------- tracing


class ShotProbe:
    """Counts gathered at span boundaries: events, noise draws, sweep outcomes."""

    def __init__(self):
        self.counts = {
            "shots_seen": 0, "events_in_shots": 0, "noise_drawn": 0, "noise_used": 0,
            "pool_starts": 0, "gn_iterations": 0, "shots": 0, "triggered": 0,
            "abandoned": 0, "ionizations": 0, "missed_subrise": 0, "missed_sampled": 0,
        }
        self._event_times: list[float] | None = None
        self._t = 0.0

    def start_shot(self, args, kwargs):
        self._event_times, self._t = [], 0.0

    def on_event(self, args, kwargs, result):
        if self._event_times is not None:
            self._t += result[0]
            self._event_times.append(self._t)

    def end_shot(self, args, kwargs, record):
        cfg = args[0]
        n_required = args[3] if len(args) > 3 and args[3] is not None else cfg.demon.required_samples
        times, self._event_times = self._event_times, None
        self.counts["shots_seen"] += 1
        self.counts["events_in_shots"] += len(times)
        if cfg.noise_std > 0.0 and cfg.detector == "amplifier":
            drawn, used = noise_draws(cfg, n_required, times, record)
            self.counts["noise_drawn"] += drawn
            self.counts["noise_used"] += used

    def on_point(self, args, kwargs, result):
        c = self.counts
        c["shots"] += result.shots
        c["triggered"] += result.n_triggered
        c["abandoned"] += result.n_abandoned
        c["ionizations"] += result.n_ionizations
        c["missed_subrise"] += result.n_missed_subrise
        c["missed_sampled"] += result.n_missed_sampled

    def on_pool(self, args, kwargs, result):
        self.counts["pool_starts"] += 1

    def on_gauss_newton(self, args, kwargs, result):
        self.counts["gn_iterations"] += result[2]


def noise_draws(cfg, n_required: int, event_times: list[float], record) -> tuple[int, int]:
    """Noise samples one noisy shot draws and the samples up to its trigger.

    Computed, not counted: the noisy detector draws one Gaussian for every
    sample from the first up to the end of the inter-event segment in which
    the trigger fires (or the abandon horizon).
    """
    ts = cfg.amplifier.sample_period
    horizon = cfg.abandon_factor * n_required * ts
    if record.triggered:
        trigger_sample = round((record.trigger_time - cfg.demon.latency) / ts)
        t_trigger = trigger_sample * ts
        end = next((t for t in event_times if t >= t_trigger), horizon)
        used = trigger_sample
    else:
        end, used = horizon, 0
    end = min(end, horizon)
    n = int(end / ts)
    while (n + 1) * ts <= end:
        n += 1
    while n > 0 and n * ts > end:
        n -= 1
    return n, used


def install_tracer(sd, probe: ShotProbe) -> Tracer:
    tr = Tracer()
    h = sd.harness
    tr.wrap(h, "shot_rng", "harness.shot_rng")
    tr.wrap(h, "gillespie_step", "telegraph.gillespie_step", after=probe.on_event)
    tr.wrap(h, "run_detection", "harness.run_detection")
    tr.wrap(h, "run_initialization_shot", "harness.shot",
            before=probe.start_shot, after=probe.end_shot)
    tr.wrap(h, "_run_shots", "harness.run_shots")
    tr.wrap(h, "_draw_load_spin", "harness.load_draw")
    tr.wrap(h, "_bootstrap_quartiles", "harness.bootstrap")
    tr.count(h, "Pool", probe.on_pool)
    tr.count(h, "_sweep_point", probe.on_point)
    tr.wrap(sd.cli, "fit_fidelity_curve", "fitting.fit")
    tr.count(sd.fitting, "_gauss_newton", probe.on_gauss_newton)
    tr.wrap(sd.ancilla, "simulate_nuclear_histogram", "ancilla.histogram")
    tr.wrap(sd.ancilla, "visibility", "ancilla.visibility")
    for writer in ("write_sweep", "write_fit", "write_projection", "write_histogram"):
        tr.wrap(sd.output, writer, "output.write")
    tr.wrap(sd.cli, "load_config", "config.load")
    return tr


def per_layer_metrics(tr: Tracer, probe: ShotProbe, traced: list[dict], untraced: list[dict]) -> dict:
    rounds = len(traced)
    c = probe.counts

    def per_round(value):
        return value / rounds

    def count(value):
        return value // rounds if value % rounds == 0 else value / rounds

    m = {}
    for span in ("harness.shot_rng", "telegraph.gillespie_step", "harness.run_detection",
                 "harness.load_draw", "harness.bootstrap"):
        m[f"{span}.self_s"] = per_round(tr.self_s[span])
        m[f"{span}.calls"] = count(tr.calls[span])
    for span in ("harness.shot", "fitting.fit", "ancilla.histogram", "ancilla.visibility",
                 "output.write", "config.load"):
        m[f"{span}.self_s"] = per_round(tr.self_s[span])
    seen = c["shots_seen"]
    m["harness.events_per_shot"] = c["events_in_shots"] / seen if seen else 0.0
    m["harness.noise_samples_per_shot"] = c["noise_drawn"] / seen if seen else 0.0
    m["harness.noise_sample_yield"] = c["noise_used"] / c["noise_drawn"] if c["noise_drawn"] else 0.0
    for key in ("shots", "triggered", "abandoned", "ionizations", "missed_subrise", "missed_sampled"):
        m[f"harness.{key}"] = count(c[key])
    m["harness.run_shots.wall_s"] = per_round(tr.total_s["harness.run_shots"])
    m["harness.pool.starts"] = count(c["pool_starts"])
    m["fitting.fit.iterations"] = count(c["gn_iterations"])
    m["output.bytes"] = traced[0]["output_bytes"]
    for sub in ("sweep-tobs", "sweep-bias", "fit", "histogram", "project"):
        m[f"cli.{sub}.wall_s"] = statistics.median(r["per_op_s"].get(sub, 0.0) for r in traced)
    m["trace.overhead_s"] = (
        statistics.median(r["wall_s"] for r in traced)
        - statistics.median(r["wall_s"] for r in untraced)
    )
    units = dict(PER_LAYER)
    return {name: {"value": m[name], "unit": units[name]} for name, _ in PER_LAYER}


# ---------------------------------------------------------------- main


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(FULL_SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--work-dir", type=Path, required=True)
    args = parser.parse_args(argv)

    sd = import_program()
    inputs = Inputs(args.workload, args.seed, args.quick, args.work_dir)
    cfg = set_up(sd, inputs)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    ops = build_ops(sd, inputs, cfg)
    tally = {"attempted": 0, "failed": 0, "errors": [], "wrong": []}
    start = time.perf_counter()
    untraced = []
    tracer = probe = None
    if args.trace:
        # Untraced rounds in the first half give the baseline for the
        # tracing overhead; traced rounds fill the second half.
        untraced = run_rounds(ops, tally, start + args.seconds / 2)
        probe = ShotProbe()
        tracer = install_tracer(sd, probe)
    rounds = run_rounds(ops, tally, start + args.seconds)
    if tracer is not None:
        tracer.restore()

    for line in tally["errors"] + tally["wrong"]:
        print(f"failed: {line}", file=sys.stderr)
    result = {
        "ready": ready,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "correct": not tally["wrong"],
        "rounds": rounds,
        "untraced_rounds": untraced,
        "peak_rss_mb": peak_rss_mb(),
        "sizes": inputs.sizes,
        "inputs": {
            "master_seed": inputs.master_seed,
            "histogram_seed": inputs.hist_seed,
            "mu_d_uev": inputs.mu,
            "base_rate_down_per_s": inputs.g0,
            "workers": PIPELINE_WORKERS if args.workload == "paper-pipeline" else 1,
        },
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "spindemon": sd.__version__,
        },
    }
    if tracer is not None:
        result["per_layer"] = per_layer_metrics(tracer, probe, rounds, untraced)
        result["spans"] = {
            name: {"calls": tracer.calls[name], "total_s": tracer.total_s[name],
                   "self_s": tracer.self_s[name]}
            for name in sorted(tracer.calls)
        }
        result["probe_counts"] = probe.counts
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
