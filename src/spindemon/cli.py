"""Command-line interface.

Subcommands: simulate-shot, sweep-tobs, sweep-bias, fit, project, budget,
histogram.  Exit codes: 0 success, 2 configuration error or any other
rejected input, 3 fit non-convergence.
"""

from __future__ import annotations

import argparse
import csv
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

from . import __version__, ancilla, harness, output
from .config import ConfigError, load_config
from .fitting import FitConvergenceError, fit_fidelity_curve
from .harness import sweep_bias, sweep_tobs
from .telegraph import projection_999

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_FIT = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spindemon",
        description="Monitored spin-qubit initialization simulator",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    # Every subcommand reads these; only those that draw shots read --seed and --shots.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, default=None, help="key = value config file")
    common.add_argument("--out", type=Path, default=None, help="output path (default stdout)")
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--seed", type=int, default=None, help="override run.master_seed")
    run.add_argument("--shots", type=int, default=None, help="override run.shots")

    sub.add_parser("simulate-shot", parents=[common, run],
                   help="run initialization shots, dump records")
    sub.add_parser("sweep-tobs", parents=[common, run], help="fidelity versus observation time")

    p = sub.add_parser("sweep-bias", parents=[common, run], help="fidelity versus donor potential")
    p.add_argument("--demon-off", action="store_true", help="bare loading, no monitoring")

    p = sub.add_parser("fit", parents=[common], help="fit the fidelity curve to sweep data")
    p.add_argument("--data", type=Path, required=True,
                   help="CSV with grid_value (or t_obs), shots, successes columns")

    sub.add_parser("project", parents=[common], help="detection-loss plateau projections")

    p = sub.add_parser("budget", parents=[common], help="combine stage fidelities")
    p.add_argument("--f-init", type=float, required=True)
    p.add_argument("--f-control", type=float, required=True)
    p.add_argument("--f-readout", type=float, required=True)

    p = sub.add_parser("histogram", parents=[common, run],
                       help="simulate repetitive ancilla readout")
    p.add_argument("--p-up-given-up", type=float, default=0.85)
    p.add_argument("--p-up-given-down", type=float, default=0.04)
    p.add_argument("--shots-per-read", type=int, default=65)
    p.add_argument("--threshold", type=float, default=None,
                   help="also print the visibility summary at this threshold")
    return parser


@contextmanager
def _open_out(path: Path | None):
    if path is None:
        yield sys.stdout
        return
    try:
        fh = open(path, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc
    with fh:
        yield fh


def _load(args) -> tuple:
    cfg, cfg_hash = load_config(args.config)
    overrides = {}
    if getattr(args, "seed", None) is not None:
        overrides["master_seed"] = args.seed
    if getattr(args, "shots", None) is not None:
        overrides["shots"] = args.shots
    if overrides:
        try:
            cfg = replace(cfg, **overrides)
        except ValueError as exc:
            raise ConfigError(f"bad --seed/--shots override: {exc}") from exc
    return cfg, cfg_hash


def _read_fit_data(path: Path) -> list[tuple[float, float, float]]:
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None:
                raise ConfigError(f"{path}: empty data file")
            names = {name.strip(): name for name in reader.fieldnames}
            t_col = names.get("grid_value") or names.get("t_obs")
            if t_col is None or "shots" not in names or "successes" not in names:
                raise ConfigError(
                    f"{path}: need grid_value (or t_obs), shots, successes columns"
                )
            rows = []
            for row in reader:
                fields = (row[t_col], row[names["successes"]], row[names["shots"]])
                if None in fields:
                    raise ConfigError(f"{path}: line {reader.line_num}: missing field")
                rows.append(tuple(float(value) for value in fields))
    except ConfigError:
        raise
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"{path}: bad numeric value: {exc}") from exc
    if not rows:
        raise ConfigError(f"{path}: no data rows")
    return rows


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg, cfg_hash = _load(args)
        extra, vis = None, None
        if args.command == "simulate-shot":
            writer = output.write_shots
            (shots,) = harness._run_shots(cfg, [(cfg.rates, [cfg.demon.required_samples])])
            payload = shots.records()
        elif args.command in ("sweep-tobs", "sweep-bias"):
            writer = output.write_sweep
            if args.command == "sweep-tobs":
                payload, extra = sweep_tobs(cfg), {"sweep": "t_obs"}
            else:
                demon_on = not args.demon_off
                payload = sweep_bias(cfg, demon_on=demon_on)
                extra = {"sweep": "mu_d", "demon_on": demon_on}
            abandoned = sum(r.n_abandoned for r in payload)
            if abandoned:
                print(f"warning: {abandoned} shots abandoned without trigger", file=sys.stderr)
        elif args.command == "fit":
            writer, extra = output.write_fit, {"data": str(args.data)}
            payload = fit_fidelity_curve(_read_fit_data(args.data))
        elif args.command == "project":
            writer = output.write_projection
            payload = projection_999(cfg.amplifier, cfg.rates.in_total)
        elif args.command == "budget":
            writer = output.write_budget
            payload = ancilla.total_fidelity(args.f_init, args.f_control, args.f_readout)
        else:  # histogram
            writer, extra = output.write_histogram, {"reads": cfg.shots}
            payload = ancilla.simulate_nuclear_histogram(
                args.p_up_given_up,
                args.p_up_given_down,
                args.shots_per_read,
                cfg.shots,
                seed=cfg.master_seed,
            )
            # Visibility rejects data that are not bimodal; check before any
            # output is written so that an exit 2 leaves no file behind.
            if args.threshold is not None:
                vis = ancilla.visibility(payload, args.threshold)
        meta = output.build_metadata(cfg_hash, cfg.master_seed, extra)
        with _open_out(args.out) as fh:
            writer(fh, payload, args.format, meta)
        if vis is not None:
            print(
                f"visibility={vis.visibility!r} overlap={vis.overlap!r} "
                f"f_low={vis.f_low!r} f_high={vis.f_high!r}",
                file=sys.stderr,
            )
    except ValueError as exc:  # ConfigError and every rejected input value
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FitConvergenceError as exc:
        print(f"fit error: {exc}", file=sys.stderr)
        return EXIT_FIT
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
