"""spindemon benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload op-point --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --quick          # every workload, reduced sizes

Set-up is timed in several fresh processes (``--setup-only``) and once more
in the process that then runs the timed rounds; ``setup_s`` is their
median.  With ``--trace 0`` the last line of standard output is the
end-to-end result, with ``--trace 1`` the per-layer result of a traced run.
The full result, with provenance, is written to bench/out/.  See README.md
for the workloads, the metrics and the checks.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
WORKLOADS = ("op-point", "paper-pipeline", "noisy-detector")
SETUP_PROBES = 6
RUN_LIMIT_S = 170.0
# BLAS threads pinned to one so pool workers do not oversubscribe the cores.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def run_child(args: list[str], timeout: float) -> tuple[float, dict]:
    """Start workload.py; return (spawn time, its JSON result)."""
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "workload.py"), *args],
        env=child_env(),
        stdout=subprocess.PIPE,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise SystemExit(f"error: workload process exited with {proc.returncode}")
    return spawned, json.loads(proc.stdout.strip().splitlines()[-1])


def provenance(seed: int, workload_result: dict) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "spindemon").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        commit = git.stdout.strip() or None
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        **workload_result["versions"],
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "workers": workload_result["inputs"]["workers"],
        "seed": seed,
        "blas_threads": 1,
    }


def run_workload(name: str, seed: int, seconds: float, trace: int, quick: bool) -> dict:
    started = time.monotonic()
    work_dir = OUT_DIR / f"{name}-seed{seed}"
    common = ["--workload", name, "--seed", str(seed), "--work-dir", str(work_dir)]
    if quick:
        common.append("--quick")
    setups = []
    for _ in range(SETUP_PROBES):
        spawned, probe = run_child(
            [*common, "--seconds", "0", "--setup-only"], RUN_LIMIT_S - (time.monotonic() - started)
        )
        setups.append(probe["ready"] - spawned)
    spawned, res = run_child(
        [*common, "--seconds", str(seconds), "--trace", str(trace)],
        RUN_LIMIT_S - (time.monotonic() - started),
    )
    setups.append(res["ready"] - spawned)

    rounds = res["rounds"]
    total_wall = sum(r["wall_s"] for r in rounds)
    end_to_end = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "wall_s": {"value": statistics.median(r["wall_s"] for r in rounds), "unit": "s"},
        "shots_per_s": {"value": sum(r["shots"] for r in rounds) / total_wall, "unit": "shots/s"},
        "cpu_s": {"value": statistics.median(r["cpu_s"] for r in rounds), "unit": "s"},
        "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MiB"},
    }
    metrics = res["per_layer"] if trace else end_to_end
    record = {
        "workload": name,
        "trace": trace,
        "quick": quick,
        "provenance": provenance(seed, res),
        "sizes": res["sizes"],
        "inputs": res["inputs"],
        "setup_samples_s": setups,
        "rounds": rounds,
        "untraced_rounds": res["untraced_rounds"],
        "end_to_end": end_to_end,
        "per_layer": res.get("per_layer"),
        "spans": res.get("spans"),
        "probe_counts": res.get("probe_counts"),
        "result": {
            "correct": res["correct"],
            "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": metrics,
        },
    }
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    suffix = "-quick" if quick else ""
    out = OUT_DIR / f"result-{name}-seed{seed}-trace{trace}{suffix}.json"
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="spindemon benchmark")
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="time the rounds for this long (at least one round)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="shot counts divided by 10, for a check in under a minute")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "spindemon" / "__init__.py").is_file():
        print(f"error: no spindemon sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        record = run_workload(name, args.seed, args.seconds, args.trace, args.quick)
        prov = record["provenance"]
        print(f"# {name}: seed {args.seed}, workers {prov['workers']}, nproc {prov['nproc']}, "
              f"commit {prov['commit']}, sizes {record['sizes']}")
        for metric, entry in record["result"]["metrics"].items():
            print(f"#   {metric} = {entry['value']:.6g} {entry['unit']}")
        print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
