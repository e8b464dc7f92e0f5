import importlib
import os
import subprocess
import sys
from pathlib import Path

import spindemon
from spindemon.cli import main
from spindemon.config import load_config


def test_import_does_not_load_scipy():
    # scipy is a test-only dependency; importing the package and its CLI
    # must not pull it in.
    src = str(Path(spindemon.__file__).resolve().parent.parent)
    code = (
        "import sys, spindemon, spindemon.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


RUN_CONFIG = """
physics.temperature_k = 0.26
rates.in_total_per_s = 2700
demon.required_samples = 20
run.shots = 8
run.master_seed = 5
sweep.grid = 0, 2e-4
"""


def _counting(calls, key, inner):
    def counted(*args, **kwargs):
        calls[key].append(args)
        return inner(*args, **kwargs)

    return counted


def test_traced_attributes_are_looked_up_at_call_time(tmp_path, monkeypatch):
    # bench/tracer.py times each layer by replacing these spindemon module
    # attributes.  The program must look each one up at call time: a name
    # bound at import bypasses the replacement, and its per-layer metrics
    # silently read zero.  Each run must reach every name listed with it, so
    # that a name still reached from another path cannot hide a bypass.
    serial = tmp_path / "serial.cfg"
    serial.write_text(RUN_CONFIG)
    pooled = tmp_path / "pooled.cfg"
    pooled.write_text(RUN_CONFIG + "run.workers = 2\n")
    noisy = tmp_path / "noisy.cfg"
    noisy.write_text(RUN_CONFIG + "run.noise_std = 0.05\n")
    bias = tmp_path / "bias.cfg"  # two points: two calls, so a pool
    bias.write_text(RUN_CONFIG.replace("sweep.grid = 0, 2e-4", "sweep.variable = mu_d\n"
                                       "sweep.grid = 0, 20") + "run.workers = 2\n")
    fit_data = Path(__file__).resolve().parent / "golden" / "fit-data.csv"
    runs = [
        (["simulate-shot", "--config", str(serial), "--shots", "1"],
         ("harness.gillespie_step", "harness.run_detection", "harness._run_shots",
          "cli.load_config", "output.write_shots")),
        (["simulate-shot", "--config", str(noisy), "--shots", "1"], ("harness.shot_rng",)),
        (["sweep-tobs", "--config", str(pooled)],
         ("harness._sweep_point", "harness._draw_load_spin",
          "harness._bootstrap_quartiles", "output.write_sweep")),
        (["sweep-bias", "--config", str(bias)], ("harness.Pool",)),
        (["fit", "--data", str(fit_data)],
         ("cli.fit_fidelity_curve", "fitting._gauss_newton", "output.write_fit")),
        (["histogram", "--shots", "2000", "--threshold", "0.45"],
         ("ancilla.simulate_nuclear_histogram", "ancilla.visibility",
          "output.write_histogram")),
        (["project"], ("output.write_projection",)),
        (["budget", "--f-init", "0.989", "--f-control", "0.995", "--f-readout", "0.9999"],
         ("output.write_budget",)),
    ]
    calls = {}
    for _, keys in runs:
        for key in keys:
            module_name, name = key.split(".")
            module = importlib.import_module(f"spindemon.{module_name}")
            calls[key] = []
            monkeypatch.setattr(module, name, _counting(calls, key, getattr(module, name)))

    out = str(tmp_path / "out")
    for argv, keys in runs:
        before = {key: len(calls[key]) for key in keys}
        assert main(argv + ["--out", out]) == 0, argv
        assert [key for key in keys if len(calls[key]) == before[key]] == [], argv

    # The benchmark's set-up calls run_initialization_shot directly, and its
    # tracer reads the config and n_required from positions 0 and 3.
    harness = importlib.import_module("spindemon.harness")
    cfg, _ = load_config(serial)
    by_position = harness.run_initialization_shot(cfg, 0, cfg.rates, 3)
    assert by_position == harness.run_initialization_shot(
        cfg=cfg, shot_index=0, rates=cfg.rates, n_required=3
    )
    assert by_position.trigger_time >= 3 * cfg.amplifier.sample_period
