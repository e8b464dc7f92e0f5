"""CSV and JSON writers for harness results.

CSV schemas are fixed: sweeps write (grid_value, shots, successes, median,
p25, p75, analytic); fits write (param, estimate, std_error); budgets write
(stage, fidelity).  JSON files mirror the CSV rows and add a metadata header
with the config hash, seed, and package version.  Floats are serialized with
repr so identical runs produce byte-identical files.  A float that is not
finite, such as the quartiles of a point whose every shot was abandoned,
reads nan in CSV and null in JSON, which has no token for it.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import astuple
from typing import IO

from . import __version__
from .ancilla import FidelityBudget, NuclearHistogram
from .fitting import PARAM_NAMES, FitResult
from .harness import ShotRecord, SweepResult
from .telegraph import ProjectionScenario

SWEEP_COLUMNS = ("grid_value", "shots", "successes", "median", "p25", "p75", "analytic")
FIT_COLUMNS = ("param", "estimate", "std_error")
SHOT_COLUMNS = (
    "shot_index",
    "triggered",
    "trigger_time_s",
    "n_resets",
    "spin_at_trigger",
    "n_ionizations",
    "n_missed_subrise",
    "n_missed_sampled",
)
PROJECTION_COLUMNS = ("label", "cutoff_hz", "in_rate_total", "t_rise_s", "p_miss", "plateau")
BUDGET_COLUMNS = ("stage", "fidelity")


def build_metadata(cfg_hash: str, master_seed: int, extra: dict | None = None) -> dict:
    meta = {"version": __version__, "config_hash": cfg_hash, "master_seed": master_seed}
    if extra:
        meta.update(extra)
    return meta


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _shot_row(record: ShotRecord) -> list:
    return [
        record.shot_index,
        int(record.triggered),
        "" if record.trigger_time is None else record.trigger_time,
        record.n_resets,
        "" if record.spin_at_trigger is None else record.spin_at_trigger.name.lower(),
        record.n_ionizations,
        record.n_missed_subrise,
        record.n_missed_sampled,
    ]


def _json_value(value):
    """value, or None for a float that is not finite."""
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _write(
    stream: IO[str], columns: tuple[str, ...], rows: list, fmt: str, metadata: dict
) -> None:
    """Write rows as CSV, or as JSON under a metadata header when fmt is "json"."""
    if fmt == "json":
        payload = {
            "metadata": metadata,
            "rows": [dict(zip(columns, map(_json_value, row))) for row in rows],
        }
        json.dump(payload, stream, indent=2, sort_keys=True, allow_nan=False)
        stream.write("\n")
        return
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(value) for value in row])


def write_sweep(stream, results: list[SweepResult], fmt: str, metadata: dict) -> None:
    meta = dict(metadata, abandoned_total=sum(r.n_abandoned for r in results))
    rows = [[getattr(r, name) for name in SWEEP_COLUMNS] for r in results]
    _write(stream, SWEEP_COLUMNS, rows, fmt, meta)


def write_fit(stream, fit: FitResult, fmt: str, metadata: dict) -> None:
    rows = [[name, getattr(fit, name), fit.std_errors[name]] for name in PARAM_NAMES]
    rows.append(["residual_norm", fit.residual_norm, ""])
    _write(stream, FIT_COLUMNS, rows, fmt, metadata)


def write_shots(stream, records: list[ShotRecord], fmt: str, metadata: dict) -> None:
    _write(stream, SHOT_COLUMNS, [_shot_row(r) for r in records], fmt, metadata)


def write_projection(stream, rows: list[ProjectionScenario], fmt: str, metadata: dict) -> None:
    _write(stream, PROJECTION_COLUMNS, [astuple(r) for r in rows], fmt, metadata)


def write_budget(stream, budget: FidelityBudget, fmt: str, metadata: dict) -> None:
    rows = list(zip(("init", "control", "readout", "total"), astuple(budget)))
    _write(stream, BUDGET_COLUMNS, rows, fmt, metadata)


def write_histogram(stream, histogram: NuclearHistogram, fmt: str, metadata: dict) -> None:
    centers, counts = histogram.histogram()
    rows = [[float(c), int(n)] for c, n in zip(centers, counts)]
    _write(stream, ("bin_center", "count"), rows, fmt, metadata)
