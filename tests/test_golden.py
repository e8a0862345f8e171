"""Pinned artifact bytes: a change that alters a simulated path, a draw count,
the fluid reference, a batched stability run or the check, equilibrium and
spectrum reports shows up here, and must then update these constants on
purpose.

The digests were computed with numpy 2.4.6 and scipy 1.17.1 on x86-64; a
different libm or numpy build may change last bits of the fluid solution.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from fluidlob import SimConfig, integrate, load_config, simulate
from fluidlob.cli import main

from helpers import FIXTURES

SIM_CSV_SHA256 = {
    "ref1": "5b0f47ce7585e686100187cc279fb392bb0349035da5efd6f38b5c64f3e72694",
    "ref2": "3a7dd5a54aa715832beac82a1b0d1e18d7c0f6bdfb4fb3a04eaf7fb8bb47f21b",
}
SIM_RNG_FINGERPRINT = {
    "ref1": "9f0844e04cd5512c2df6fd0a010701d4e6e9daa2f881c4994f237150b6c75fb2",
    "ref2": "1164bdbb096c3b1959ff47978c0ad2ba48362e4ac6d48b74f3ec1293e32e18f4",
}
# `fluid ref1 --T 2` at the explicit step 1e-3 (2001 rows) and at the
# steps in s (80 rows, non-uniform in t).
FLUID_REF1_CSV_SHA256 = "c53032f59dde9f2778eb142d17683e774267a517926878c07647f6655c699892"
FLUID_REF1_SELECTED_CSV_SHA256 = "484eb781cf56a1b0f77a4c4b695f8ba444a5f1671bc2daecc95347f18ffa1008"
# Batched RK4 (B = 32 and B = 50 trajectories) behind the stability experiments.
STABILITY_RUNS = {
    "local": (
        ["stability-local", "ref1", "--deltas", "0.01,0.1", "--T", "100", "--dt", "0.1"],
        "stability_local_ref1",
        {
            "json": "5a9411f07202f3a111a88d5e758b477dd8039abe419dcb7335d8eef50d30ef6e",
            "csv": "58adf0ebb9d724e8e3b9ee28931046a45e3ea64f269088e4a71a37ccf8af66a7",
        },
    ),
    "global": (
        ["stability-global", "ref2", "--inits", "50", "--T", "150", "--dt", "0.1"],
        "stability_global_ref2",
        {
            "json": "0a025bce87c2bbee68ed8c97d44ffa60eae93383030e8fecfbd0d6858c4b8eb3",
            "csv": "5172859b8198402805f04a97cbb942908773857cf03fc7b41bcd8da9b6e47985",
        },
    ),
}
# The JSON reports of the commands that run no integration.
REPORT_JSON_SHA256 = {
    ("check", "ref1"): "90c098580e6e4105e2cbad9976864591061715946d6f60d76b92192daa01edb0",
    ("check", "ref2"): "62a17881692003a2fddf20255f3a7d8422a4f285322101e8edddce777c9f8405",
    ("equilibrium", "ref1"): "b4fe937f1de46e146e09d0e1ef9a8e2465435e954b699c4f5ae59572b44d1d64",
    ("equilibrium", "ref2"): "2c6cb773d67e88594bad26fa402e8c7565419e7c27427f0c0266be1721054601",
    ("spectrum", "ref1"): "2c97b89f25be1e98a53e0f754edfe48b21b3e7f912b3bc6da2d49a74f118e4e1",
    ("spectrum", "ref2"): "f626e03165e52ab4d4768d0972edfc798c0b27e7489d2cba722b1f3e05979001",
}


# Companion checks of the four integration pins above, which a change of
# rounding alone moves: the runs behind them keep their node, step and
# pilot-step counts and their verdicts exactly, and their values to within
# tolerances far wider than rounding and far narrower than a fault.  The
# values are kept apart from the code, where Hypothesis would add their
# literals to its example pool.
INTEGRATION = json.loads(Path(__file__).with_name("golden_integration.json").read_text())
# The states at t = 2 and the trials' least workloads, relative to each entry.
STATE_REL = 1e-12
# The terminal distances: relative, or absolute for the smallest, down to
# 5e-12; 1e-13 is about 450 ulps of the unit-scale states they compare.
DISTANCE_REL, DISTANCE_ABS = 1e-6, 1e-13


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", ["ref1", "ref2"])
def test_simulate_bytes_and_fingerprint_are_pinned(tmp_path, name):
    config = FIXTURES / f"{name}.json"
    argv = ["simulate", str(config), "--n", "2000", "--T", "2", "--seed", "7", "-o", str(tmp_path)]
    assert main(argv) == 0
    assert _sha256(tmp_path / f"sim_{name}_n2000_seed7.csv") == SIM_CSV_SHA256[name]

    cfg = load_config(config)
    run = SimConfig(n=2000, horizon=2.0, sample_dt=0.01, seed=7, q0_scaled=np.ones(cfg.n_exchanges))
    assert simulate(cfg, run).rng_fingerprint == SIM_RNG_FINGERPRINT[name]


def test_fluid_reference_bytes_are_pinned(tmp_path):
    argv = ["fluid", str(FIXTURES / "ref1.json"), "--T", "2", "--dt", "0.001", "-o", str(tmp_path)]
    assert main(argv) == 0
    assert _sha256(tmp_path / "fluid_ref1.csv") == FLUID_REF1_CSV_SHA256


def test_fluid_selected_step_bytes_are_pinned(tmp_path):
    assert main(["fluid", str(FIXTURES / "ref1.json"), "--T", "2", "-o", str(tmp_path)]) == 0
    assert _sha256(tmp_path / "fluid_ref1.csv") == FLUID_REF1_SELECTED_CSV_SHA256


@pytest.mark.parametrize("kind", sorted(STABILITY_RUNS))
def test_stability_batch_bytes_are_pinned(tmp_path, kind):
    argv, stem, digests = STABILITY_RUNS[kind]
    command, name, *rest = argv
    config = str(FIXTURES / f"{name}.json")
    assert main([command, config, *rest, "--seed", "7", "-o", str(tmp_path)]) == 0
    for ext, digest in digests.items():
        assert _sha256(tmp_path / f"{stem}.{ext}") == digest


@pytest.mark.parametrize("command, name", sorted(REPORT_JSON_SHA256))
def test_report_json_bytes_are_pinned(tmp_path, command, name):
    assert main([command, str(FIXTURES / f"{name}.json"), "-o", str(tmp_path)]) == 0
    assert _sha256(tmp_path / f"{command}_{name}.json") == REPORT_JSON_SHA256[command, name]


@pytest.mark.parametrize("run", ["dt", "selected"])
def test_fluid_reference_runs_keep_their_counts_and_terminal_state(run):
    want = INTEGRATION["fluid"][run]
    step = {"dt": 0.001, "selected": None}[run]
    traj = integrate(load_config(FIXTURES / "ref1.json"), np.ones(2), 2.0, dt=step)
    assert (len(traj.times), traj.steps, traj.pilot_steps) == (
        want["nodes"], want["steps"], want["pilot_steps"]
    )
    assert traj.times[-1] == 2.0
    assert traj.states[-1] == pytest.approx(want["state_at_2"], rel=STATE_REL, abs=0.0)


@pytest.mark.parametrize("kind", sorted(STABILITY_RUNS))
def test_stability_runs_keep_their_verdicts_and_distances(tmp_path, kind):
    argv, stem, _ = STABILITY_RUNS[kind]
    command, name, *rest = argv
    assert main([command, str(FIXTURES / f"{name}.json"), *rest, "--seed", "7", "-o", str(tmp_path)]) == 0
    report, want = json.loads((tmp_path / f"{stem}.json").read_text()), INTEGRATION["stability"][kind]
    assert report["passed"] is want["passed"]
    trials = report["trials"]
    assert len(trials) == len(want["exact"])
    assert [{key: t[key] for key in exact} for t, exact in zip(trials, want["exact"])] == want["exact"]
    distances = [t["terminal_distance"] for t in trials]
    assert distances == pytest.approx(want["terminal_distance"], rel=DISTANCE_REL, abs=DISTANCE_ABS)
    lows = [t["min_workload"] for t in trials]
    assert lows == pytest.approx(want["min_workload"], rel=STATE_REL, abs=0.0)
