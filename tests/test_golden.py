"""Byte-for-byte golden outputs of every CLI subcommand, in CSV and JSON.

Each case runs ``spindemon.cli.main`` on the committed inputs in
``tests/golden/`` and compares the file it writes with the committed
golden.  A refactor that keeps behaviour leaves every golden unchanged; a
change that alters output on purpose regenerates them with

    PYTHONPATH=src python tests/test_golden.py

and says why in CHANGES.md.
"""

import os
from pathlib import Path

import pytest

from spindemon.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

# Paths in argv are relative to GOLDEN, so the fit metadata ("data") does
# not depend on where the repository lives.
CASES = {
    "simulate-shot": ["simulate-shot", "--config", "tobs.cfg", "--shots", "12"],
    "simulate-shot-noisy": ["simulate-shot", "--config", "tobs-noisy.cfg", "--shots", "12"],
    "simulate-shot-noisier": ["simulate-shot", "--config", "tobs-noisier.cfg", "--shots", "40"],
    "sweep-tobs-amplifier": ["sweep-tobs", "--config", "tobs.cfg"],
    "sweep-tobs-ideal": ["sweep-tobs", "--config", "tobs-ideal.cfg"],
    "sweep-tobs-noisy": ["sweep-tobs", "--config", "tobs-noisy.cfg"],
    "sweep-tobs-noisier": ["sweep-tobs", "--config", "tobs-noisier.cfg"],
    "sweep-bias-on": ["sweep-bias", "--config", "bias.cfg"],
    "sweep-bias-off": ["sweep-bias", "--config", "bias.cfg", "--demon-off"],
    "fit": ["fit", "--data", "fit-data.csv"],
    "project": ["project"],
    "budget": ["budget", "--f-init", "0.989", "--f-control", "0.995",
               "--f-readout", "0.9999"],
    "histogram": ["histogram", "--shots", "2000", "--seed", "3"],
}
PARAMS = [(name, fmt) for name in CASES for fmt in ("csv", "json")]


def render(name: str, fmt: str, out: Path) -> None:
    rc = main(CASES[name] + ["--format", fmt, "--out", str(out)])
    assert rc == 0, f"{name} exited {rc}"


@pytest.mark.parametrize("name,fmt", PARAMS, ids=[f"{n}.{f}" for n, f in PARAMS])
def test_golden_output(name, fmt, tmp_path, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    out = tmp_path / f"{name}.{fmt}"
    render(name, fmt, out)
    assert out.read_bytes() == (GOLDEN / f"{name}.{fmt}").read_bytes()


@pytest.mark.parametrize("name", ["simulate-shot-noisier", "sweep-tobs-noisier"])
def test_noisier_goldens_depend_on_the_noise(name, tmp_path, monkeypatch):
    # At noise 0.05 a settled sample almost never crosses the threshold, so
    # those goldens barely read the noise stream.  The 0.1 case must: run
    # without noise, its config gives other rows than its golden.  About one
    # shot in seven differs from its noiseless run, so the case has 40
    # shots and its sweep 600 per point: with 12 shots, 8 of 40 master seeds
    # gave the noiseless output, and with 150 per point, 5 of 40 sweeps.
    monkeypatch.chdir(GOLDEN)
    text = (GOLDEN / "tobs-noisier.cfg").read_text()
    assert "run.noise_std = 0.1\n" in text
    quiet = tmp_path / "quiet.cfg"
    quiet.write_text(text.replace("run.noise_std = 0.1\n", "run.noise_std = 0\n"))
    argv = [str(quiet) if arg == "tobs-noisier.cfg" else arg for arg in CASES[name]]
    out = tmp_path / f"{name}.csv"
    assert main(argv + ["--format", "csv", "--out", str(out)]) == 0
    assert out.read_bytes() != (GOLDEN / f"{name}.csv").read_bytes()


def test_goldens_hold_no_numpy_reprs():
    # A numpy scalar that reaches the writers prints as "np.float64(...)".
    for path in GOLDEN.iterdir():
        assert "np." not in path.read_text(), path.name


if __name__ == "__main__":
    os.chdir(GOLDEN)
    for name, fmt in PARAMS:
        render(name, fmt, GOLDEN / f"{name}.{fmt}")
