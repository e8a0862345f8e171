"""Pinned artifact bytes: a change that alters a simulated path, a draw count,
the fluid reference, a batched stability run or the check, equilibrium and
spectrum reports shows up here, and must then update these constants on
purpose.

The digests were computed with numpy 2.4.6 and scipy 1.17.1 on x86-64; a
different libm or numpy build may change last bits of the fluid solution.
"""

import hashlib

import numpy as np
import pytest

from fluidlob import SimConfig, load_config, simulate
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
# selected step in s (134 rows, non-uniform in t).
FLUID_REF1_CSV_SHA256 = "c53032f59dde9f2778eb142d17683e774267a517926878c07647f6655c699892"
FLUID_REF1_SELECTED_CSV_SHA256 = "e7696d93f79b8c8d211faf8350e5d4f7f4db88d4fef1f93d08ab44f382e3ebb5"
# Batched RK4 (B = 32 and B = 50 trajectories) behind the stability experiments.
STABILITY_RUNS = {
    "local": (
        ["stability-local", "ref1", "--deltas", "0.01,0.1", "--T", "100", "--dt", "0.1"],
        "stability_local_ref1",
        {
            "json": "062dd893c904aca4b8c14e54eb0f92162584305546b3087ff31353cdda8b25ef",
            "csv": "dc39836646829b6ef15b5242241078c28a6eaa8c7785a4ce5f61b7e34a66f46a",
        },
    ),
    "global": (
        ["stability-global", "ref2", "--inits", "50", "--T", "150", "--dt", "0.1"],
        "stability_global_ref2",
        {
            "json": "1b29c02e8823f25a222f284df1e8eaa8e984a1e4dbee9d404079e9006ec7d843",
            "csv": "4731e07f26f46917b48b545f9dc15ecfcba734070504c8e11cc89f36a5dd5159",
        },
    ),
}
# The JSON reports of the commands that run no integration.
REPORT_JSON_SHA256 = {
    ("check", "ref1"): "90c098580e6e4105e2cbad9976864591061715946d6f60d76b92192daa01edb0",
    ("check", "ref2"): "62a17881692003a2fddf20255f3a7d8422a4f285322101e8edddce777c9f8405",
    ("equilibrium", "ref1"): "b5c2e21873151579ee25d388653f028d9c48637af482421354aa42e1872b8802",
    ("equilibrium", "ref2"): "2c6cb773d67e88594bad26fa402e8c7565419e7c27427f0c0266be1721054601",
    ("spectrum", "ref1"): "8501dba59082f919d9ecb9a24b241cbed61b82f4fded48bf05b783f3b3f441c6",
    ("spectrum", "ref2"): "8f6ea765d988d80fb30de7216869cb2f1ed6a29af191e9998a9cdacccb8870af",
}


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
