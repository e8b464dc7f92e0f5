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
from .harness import projection_999, sweep_bias, sweep_tobs

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_FIT = 3


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, default=None, help="key = value config file")
    parser.add_argument("--seed", type=int, default=None, help="override run.master_seed")
    parser.add_argument("--shots", type=int, default=None, help="override run.shots")
    parser.add_argument("--out", type=Path, default=None, help="output path (default stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spindemon",
        description="Monitored spin-qubit initialization simulator",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate-shot", help="run initialization shots, dump records")
    _add_common(p)

    p = sub.add_parser("sweep-tobs", help="fidelity versus observation time")
    _add_common(p)

    p = sub.add_parser("sweep-bias", help="fidelity versus donor potential")
    _add_common(p)
    p.add_argument("--demon-off", action="store_true", help="bare loading, no monitoring")

    p = sub.add_parser("fit", help="fit the fidelity curve to sweep data")
    _add_common(p)
    p.add_argument("--data", type=Path, required=True,
                   help="CSV with grid_value (or t_obs), shots, successes columns")

    p = sub.add_parser("project", help="detection-loss plateau projections")
    _add_common(p)

    p = sub.add_parser("budget", help="combine stage fidelities")
    _add_common(p)
    p.add_argument("--f-init", type=float, required=True)
    p.add_argument("--f-control", type=float, required=True)
    p.add_argument("--f-readout", type=float, required=True)

    p = sub.add_parser("histogram", help="simulate repetitive ancilla readout")
    _add_common(p)
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
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh


def _load(args) -> tuple:
    cfg, cfg_hash = load_config(args.config)
    overrides = {}
    if args.seed is not None:
        overrides["master_seed"] = args.seed
    if args.shots is not None:
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
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"{path}: bad numeric value: {exc}") from exc
    if not rows:
        raise ConfigError(f"{path}: no data rows")
    return rows


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "simulate-shot":
            cfg, cfg_hash = _load(args)
            records = harness._run_shots(cfg, cfg.rates, cfg.demon.required_samples).records()
            meta = output.build_metadata(cfg_hash, cfg.master_seed)
            with _open_out(args.out) as fh:
                output.write_shots(fh, records, args.format, meta)
        elif args.command == "sweep-tobs":
            cfg, cfg_hash = _load(args)
            results = sweep_tobs(cfg)
            _report_abandoned(results)
            meta = output.build_metadata(cfg_hash, cfg.master_seed, {"sweep": "t_obs"})
            with _open_out(args.out) as fh:
                output.write_sweep(fh, results, args.format, meta)
        elif args.command == "sweep-bias":
            cfg, cfg_hash = _load(args)
            if cfg.sweep is None or cfg.sweep.variable != "mu_d":
                raise ConfigError("sweep-bias needs sweep.variable = mu_d in the config")
            demon_on = not args.demon_off
            results = sweep_bias(cfg, demon_on=demon_on)
            _report_abandoned(results)
            meta = output.build_metadata(
                cfg_hash, cfg.master_seed, {"sweep": "mu_d", "demon_on": demon_on}
            )
            with _open_out(args.out) as fh:
                output.write_sweep(fh, results, args.format, meta)
        elif args.command == "fit":
            cfg, cfg_hash = _load(args)
            fit = fit_fidelity_curve(_read_fit_data(args.data))
            meta = output.build_metadata(cfg_hash, cfg.master_seed, {"data": str(args.data)})
            with _open_out(args.out) as fh:
                output.write_fit(fh, fit, args.format, meta)
        elif args.command == "project":
            cfg, cfg_hash = _load(args)
            rows = projection_999(cfg)
            meta = output.build_metadata(cfg_hash, cfg.master_seed)
            with _open_out(args.out) as fh:
                output.write_projection(fh, rows, args.format, meta)
        elif args.command == "budget":
            cfg, cfg_hash = _load(args)
            budget = ancilla.total_fidelity(args.f_init, args.f_control, args.f_readout)
            meta = output.build_metadata(cfg_hash, cfg.master_seed)
            with _open_out(args.out) as fh:
                output.write_budget(fh, budget, args.format, meta)
        elif args.command == "histogram":
            cfg, cfg_hash = _load(args)
            histogram = ancilla.simulate_nuclear_histogram(
                args.p_up_given_up,
                args.p_up_given_down,
                args.shots_per_read,
                cfg.shots,
                seed=cfg.master_seed,
            )
            # Visibility rejects data that are not bimodal; check before any
            # output is written so that an exit 2 leaves no file behind.
            vis = None
            if args.threshold is not None:
                vis = ancilla.visibility(histogram, args.threshold)
            meta = output.build_metadata(cfg_hash, cfg.master_seed, {"reads": cfg.shots})
            with _open_out(args.out) as fh:
                output.write_histogram(fh, histogram, args.format, meta)
            if vis is not None:
                print(
                    f"visibility={vis.visibility!r} overlap={vis.overlap!r} "
                    f"f_low={vis.f_low!r} f_high={vis.f_high!r}",
                    file=sys.stderr,
                )
        else:  # pragma: no cover - argparse enforces the choices
            raise ConfigError(f"unknown command {args.command!r}")
    except ValueError as exc:  # ConfigError and every rejected input value
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FitConvergenceError as exc:
        print(f"fit error: {exc}", file=sys.stderr)
        return EXIT_FIT
    return EXIT_OK


def _report_abandoned(results) -> None:
    abandoned = sum(r.n_abandoned for r in results)
    if abandoned:
        print(f"warning: {abandoned} shots abandoned without trigger", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
