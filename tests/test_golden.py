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
# selected step (201 rows).
FLUID_REF1_CSV_SHA256 = "c53032f59dde9f2778eb142d17683e774267a517926878c07647f6655c699892"
FLUID_REF1_SELECTED_CSV_SHA256 = "16587302aab6a9f473b80c37442ad1d0bdd2b91cb7a6810fe6ac89e32558270d"
# Batched RK4 (B = 32 and B = 50 trajectories) behind the stability experiments.
STABILITY_RUNS = {
    "local": (
        ["stability-local", "ref1", "--deltas", "0.01,0.1", "--T", "100", "--dt", "0.1"],
        "stability_local_ref1",
        {
            "json": "44fefba140c526b73b7b82474184a5478b792f1ee7b463ffdf556a0e59ebf32c",
            "csv": "7821ba7526714b4bb05907d062248ce65b81408e2839283b9ba9838937afd2dc",
        },
    ),
    "global": (
        ["stability-global", "ref2", "--inits", "50", "--T", "150", "--dt", "0.1"],
        "stability_global_ref2",
        {
            "json": "1a7eca2b2acc37f797a4054037fceda5c7ed164c45f57099f3c5f9ff5773971b",
            "csv": "d1803d7e242e561a3b9fde6b61ec0ce5e3a1aada2eb293fb2874bf1859728cf1",
        },
    ),
}
# The JSON reports of the commands that run no integration.
REPORT_JSON_SHA256 = {
    ("check", "ref1"): "615f2a2c7bc0f5c2df98f7dd5e1b0ceab41bd71c768328dddeba653634bfe727",
    ("check", "ref2"): "12492c8f91b5a947078567557f471d09a4896e2e07b6e0817e44272c182fc521",
    ("equilibrium", "ref1"): "d57f6182b6346626b81988dd1754c812f6970da98110d5eceaff3c98f9a07f7d",
    ("equilibrium", "ref2"): "540bc3f7e41e9189f3a724e26d652578c1b33dd206ed6400bc8528248eadd81b",
    ("spectrum", "ref1"): "00031ab010369684f4bd7def217f8b267a49176833af473980aa716c3230c720",
    ("spectrum", "ref2"): "af734a30890ca62d229d7f3407b54a2befb00c12262b8759598000bf8765f4e7",
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
