"""Seeded generator of stable model configs for the `certify` workload.

Modelled on the randomized configs of the test suite (random geometry,
distinct rebates, mixed type and size kinds), but the stability margin is
built in directly instead of being reached by repeated solver calls: with
contiguous routing bands the equilibrium satisfies
1 - F(W* a_min) = c / (b_o Lambda), c = v mu - b_d . lambda, so the optimized
rate that puts a_min (beta_min/beta_max) W* past the mode of gamma f(gamma)
has a closed form.  One package solve per config confirms the margin and
scales the rate up in the rare case the bands are not contiguous.
"""

from __future__ import annotations

import json
import math
import warnings
from pathlib import Path

import numpy as np

# The certificate needs a_min * (beta_min/beta_max) * W* >= 1.1 * mode; aim
# past it so the confirming solve nearly always passes at once.
MARGIN = 1.1
TARGET = 1.15
N_MAX = 12


def _size_with_mean(rng: np.random.Generator, mean: int) -> dict:
    if mean == 1:
        return {"kind": "deterministic", "value": 1}
    choice = rng.integers(0, 3)
    if choice == 0:
        return {"kind": "deterministic", "value": int(mean)}
    if choice == 1:
        return {"kind": "geometric", "p": 1.0 / mean}
    return {"kind": "tabulated", "values": [1, 2 * int(mean) - 1], "probs": [0.5, 0.5]}


def _distinct_rebates(rng: np.random.Generator, n: int) -> np.ndarray:
    """n values in [0.2, 3.0], pairwise at least 0.15 apart, in random order."""
    slack = 2.8 - 0.15 * (n - 1)
    rebates = 0.2 + 0.15 * np.arange(n) + np.sort(rng.uniform(0.0, slack, n))
    return rebates[rng.permutation(n)]


def config_dict(rng: np.random.Generator, n: int, kind: str) -> dict:
    """One config with `n` venues and type distribution `kind` inside the
    local-stability hypotheses (before the confirming solve)."""
    beta = rng.uniform(0.6, 1.8, n)
    rebates = _distinct_rebates(rng, n)
    mu = float(rng.uniform(0.6, 1.6))
    v = int(rng.integers(1, 3))
    b_ded = rng.integers(1, 3, n)
    b_opt = int(rng.integers(1, 3))

    lam = rng.uniform(0.05, 0.4, n)
    v_mu = v * mu
    inflow = float(lam @ b_ded)
    if inflow >= 0.8 * v_mu:
        lam *= 0.8 * v_mu / inflow
        inflow = float(lam @ b_ded)

    # x = W* a_min / scale must reach TARGET * (mode / scale) / ratio; the
    # tail 1 - F at that point fixes b_o Lambda / c.
    ratio = float(beta.min() / beta.max())
    x = TARGET * float(rng.uniform(1.0, 1.1)) / ratio
    if kind == "exponential":
        tdist = {"kind": "exponential", "rate": float(rng.uniform(0.7, 1.5))}
        tail = math.exp(-x)
    else:
        tdist = {"kind": "half-normal", "sigma": float(rng.uniform(0.7, 1.5))}
        tail = math.erfc(x / math.sqrt(2.0))
    big_lambda = (v_mu - inflow) / (b_opt * tail)

    return {
        "n_exchanges": n,
        "beta": beta.tolist(),
        "lambda": lam.tolist(),
        "big_lambda": big_lambda,
        "mu": mu,
        "rebate0": -float(rng.uniform(0.3, 1.5)),
        "rebates": rebates.tolist(),
        "v": float(v),
        "b_dedicated": [float(b) for b in b_ded],
        "b_optimized": float(b_opt),
        "type_dist": tdist,
        "size_dists": {
            "market": [_size_with_mean(rng, v) for _ in range(n)],
            "dedicated": [_size_with_mean(rng, int(b)) for b in b_ded],
            "optimized": _size_with_mean(rng, b_opt),
        },
    }


def _mode(tdist: dict) -> float:
    """Mode of gamma f(gamma) for the exponential and half-normal kinds."""
    return 1.0 / tdist["rate"] if tdist["kind"] == "exponential" else tdist["sigma"]


def stable_config_dict(fl, rng: np.random.Generator, n: int, kind: str) -> dict:
    """`config_dict`, with the margin confirmed by the package's own solver."""
    d = config_dict(rng, n, kind)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for _ in range(40):
            cfg = fl.config_from_dict(d)
            a_min = fl.compute_bands(cfg).a_min_global
            ratio = cfg.beta.min() / cfg.beta.max()
            if a_min * ratio * fl.solve_workload_star(cfg) >= MARGIN * _mode(d["type_dist"]):
                return d
            d = {**d, "big_lambda": d["big_lambda"] * 1.8}
    raise RuntimeError(f"config with n={n} did not reach the stability margin")


def generate(fl, seed: int, count: int, outdir: Path) -> list[Path]:
    """Write `count` configs for `seed` to `outdir` and return their paths.

    Venue counts cycle through 1..N_MAX and type kinds alternate, so every
    seed gives the same mix of sizes; only the parameters vary.  Each config
    draws from its own stream, so config k does not depend on `count`.
    """
    outdir.mkdir(parents=True, exist_ok=True)
    paths = []
    for k in range(count):
        rng = np.random.default_rng([seed, k])
        n = 1 + k % N_MAX
        kind = ("exponential", "half-normal")[(k // N_MAX) % 2]
        path = outdir / f"g{k:02d}_n{n}.json"
        path.write_text(json.dumps(stable_config_dict(fl, rng, n, kind), indent=2) + "\n")
        paths.append(path)
    return paths
