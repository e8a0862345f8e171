"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines;
`pytest -v` gives the same verdicts through the test names.
"""

import math
import time
import warnings

import numpy as np
import pytest

from fluidlob import (
    QueueState,
    SimConfig,
    chi,
    chi_derivative,
    compute_kappa,
    det_shifted,
    global_stability_experiment,
    integrate,
    jacobian,
    local_stability_experiment,
    replicate,
    route,
    simulate,
    solve_equilibrium,
    solve_workload_star,
    spectrum,
)

from helpers import band_route, brute_force_route, fd_jacobian, random_stable_config, random_valid_config

SEED = 20260808
Q0_REF1 = np.array([1.0, 1.0])


def _verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def eq_ref1(ref1):
    return solve_equilibrium(ref1)


@pytest.fixture(scope="module")
def eq_ref2(ref2):
    return solve_equilibrium(ref2)


@pytest.fixture(scope="module")
def local_report(ref1, eq_ref1):
    start = time.perf_counter()
    report = local_stability_experiment(
        ref1, eq_ref1, deltas=[0.01, 0.1], horizon=500.0, directions=16, seed=SEED
    )
    return report, time.perf_counter() - start


@pytest.fixture(scope="module")
def global_report(ref2):
    start = time.perf_counter()
    report = global_stability_experiment(ref2, n_inits=50, box=5.0, horizon=300.0, seed=SEED)
    return report, time.perf_counter() - start


@pytest.fixture(scope="module")
def fixture_trajectories(ref1, ref2):
    return [
        integrate(ref1, [1.0, 1.0], 200.0, dt=0.01),
        integrate(ref2, [1.0, 1.0, 1.0], 200.0, dt=0.01),
    ]


def test_criterion_1_fluid_scaling_convergence(ref1):
    start = time.perf_counter()
    template = SimConfig(n=20, horizon=10.0, sample_dt=0.05, seed=SEED, q0_scaled=Q0_REF1)
    # The reference is integrated at the selected step, uniform in s, and
    # read at the sample times by its cubic Hermite interpolant.
    table = replicate(ref1, template, [20, 200, 2000], 20)
    elapsed = time.perf_counter() - start
    medians = [med for (_, med, _) in table.summary]
    decreasing = all(a > b for a, b in zip(medians, medians[1:]))
    small = medians[-1] < 0.1
    _verdict(
        1,
        "fluid scaling convergence",
        decreasing and small and elapsed < 120,
        f"medians={[round(m, 4) for m in medians]} elapsed={elapsed:.1f}s",
    )


def test_criterion_2_equilibrium_values(ref1, ref2, eq_ref1, eq_ref2):
    start = time.perf_counter()
    ok = (
        abs(eq_ref1.w_star - 4 * math.log(2)) <= 1e-9 * 4 * math.log(2)
        and abs(eq_ref2.w_star - 4 * math.log(2.5)) <= 1e-9 * 4 * math.log(2.5)
        and eq_ref1.residual < 1e-10
        and eq_ref2.residual < 1e-10
    )
    elapsed = time.perf_counter() - start
    _verdict(
        2,
        "equilibrium correctness",
        ok and elapsed < 1.0,
        f"w1={eq_ref1.w_star:.9f} w2={eq_ref2.w_star:.9f} "
        f"residuals=({eq_ref1.residual:.1e},{eq_ref2.residual:.1e})",
    )


def test_criterion_3_spectrum_certificate(ref1, ref2, eq_ref1, eq_ref2):
    start = time.perf_counter()
    rng = np.random.default_rng(SEED)
    cases = [(ref1, eq_ref1), (ref2, eq_ref2)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for _ in range(100):
            cfg = random_stable_config(rng)
            cases.append((cfg, solve_equilibrium(cfg)))
        worst_real = -np.inf
        worst_det = 0.0
        sign_law = True
        for cfg, eq in cases:
            rep = spectrum(cfg, eq.q_star)
            worst_real = max(worst_real, rep.max_real_part)
            worst_det = max(worst_det, rep.det_identity_max_rel_err)
            want_sign = (-1.0) ** cfg.n_exchanges
            w = eq.w_star
            for nu in np.linspace(0.0, 2.0, 21) * (cfg.v * cfg.mu / w):
                direct = float(np.linalg.det(rep.jacobian - nu * np.eye(cfg.n_exchanges)))
                closed = det_shifted(cfg, eq.q_star, float(nu))
                if np.sign(direct) != want_sign or np.sign(closed) != want_sign:
                    sign_law = False
    elapsed = time.perf_counter() - start
    ok = worst_real < -1e-10 and worst_det < 1e-8 and sign_law and elapsed < 60
    _verdict(
        3,
        "local stability certificate",
        ok,
        f"configs={len(cases)} worst_real={worst_real:.2e} worst_det_err={worst_det:.1e} "
        f"sign_law={sign_law} elapsed={elapsed:.1f}s",
    )


def test_criterion_4_local_return(local_report):
    report, elapsed = local_report
    worst = max(t.terminal_distance for t in report.trials)
    _verdict(
        4,
        "local convergence experiment",
        report.passed and elapsed < 30,
        f"trials={len(report.trials)} worst={worst:.2e} elapsed={elapsed:.1f}s",
    )


def test_criterion_5_global_convergence(global_report, eq_ref2):
    report, elapsed = global_report
    worst = max(t.terminal_distance for t in report.trials)
    monotone = all(t.workload_monotone for t in report.trials)
    target = eq_ref2.q_star
    close = all(
        t.terminal_distance < 1e-4 for t in report.trials
    ) and np.allclose(target, [0.73303, 0.73303, 2.19910], atol=1e-5)
    _verdict(
        5,
        "global convergence (equal beta)",
        report.passed and monotone and close and elapsed < 60,
        f"trials={len(report.trials)} worst={worst:.2e} monotone={monotone} elapsed={elapsed:.1f}s",
    )


def test_criterion_6_workload_floor(local_report, global_report, fixture_trajectories):
    records = []
    for traj in fixture_trajectories:
        records.append((traj.min_workload, traj.kappa))
    for t in local_report[0].trials:
        records.append((t.min_workload, t.kappa))
    for t in global_report[0].trials:
        records.append((t.min_workload, t.kappa))
    ok = all(min_w > kappa * (1 - 1e-6) for min_w, kappa in records)
    margin = min(min_w / kappa for min_w, kappa in records)
    _verdict(6, "workload lower bound", ok, f"paths={len(records)} min(min_W/kappa)={margin:.4f}")


def test_criterion_7_routing_oracle(ref1, ref2):
    start = time.perf_counter()
    rng = np.random.default_rng(SEED)
    mismatches = 0
    total = 0
    for cfg in (ref1, ref2):
        for _ in range(10_000):
            q = rng.uniform(0.05, 4.0, cfg.n_exchanges)
            w = float(cfg.beta @ q)
            if rng.random() < 0.5:
                gamma = float(cfg.type_dist.sample(rng, 1)[0]) + 1e-12
            else:
                gamma = float(rng.uniform(1e-6, 1.5 * w))
            chosen = route(cfg, gamma, QueueState.of(cfg, q))
            if chosen != brute_force_route(cfg, gamma, q) or chosen != band_route(cfg, gamma, w):
                mismatches += 1
            total += 1
    elapsed = time.perf_counter() - start
    _verdict(
        7,
        "routing oracle equivalence",
        mismatches == 0 and elapsed < 5,
        f"agreement={total - mismatches}/{total} elapsed={elapsed:.1f}s",
    )


def test_criterion_8_derivative_checks():
    start = time.perf_counter()
    rng = np.random.default_rng(SEED + 1)
    worst_jac = worst_chi = 0.0
    pairs = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for _ in range(200):
            cfg = random_valid_config(rng)
            for _ in range(5):
                q = rng.uniform(0.2, 3.0, cfg.n_exchanges)
                jac = jacobian(cfg, q)
                fd = fd_jacobian(cfg, q)
                worst_jac = max(
                    worst_jac, float(np.abs(jac - fd).max()) / max(1.0, float(np.abs(jac).max()))
                )
                w = float(cfg.beta @ q)
                h = 1e-5 * max(1.0, w)
                fd_chi = (chi(cfg, w + h)[1:] - chi(cfg, w - h)[1:]) / (2 * h)
                analytic = chi_derivative(cfg, w)
                worst_chi = max(
                    worst_chi,
                    float(np.max(np.abs(analytic - fd_chi) / np.maximum(1.0, np.abs(analytic)))),
                )
                pairs += 1
    elapsed = time.perf_counter() - start
    ok = worst_jac < 1e-6 and worst_chi < 1e-6 and elapsed < 10
    _verdict(
        8,
        "derivative finite-difference checks",
        ok,
        f"pairs={pairs} worst_jac={worst_jac:.1e} worst_chi={worst_chi:.1e} elapsed={elapsed:.1f}s",
    )


def test_criterion_9_truncation_coupling(ref1):
    kappa = compute_kappa(ref1, float(ref1.beta @ Q0_REF1), solve_workload_star(ref1))
    eps = kappa / 2
    eligible = identical = 0
    for s in range(100):
        plain = simulate(
            ref1, SimConfig(n=40, horizon=4.0, sample_dt=0.1, seed=SEED + s, q0_scaled=Q0_REF1)
        )
        trunc = simulate(
            ref1,
            SimConfig(
                n=40, horizon=4.0, sample_dt=0.1, seed=SEED + s, q0_scaled=Q0_REF1, epsilon=eps
            ),
        )
        if plain.min_workload >= eps:
            eligible += 1
            same = (
                np.array_equal(plain.q_scaled, trunc.q_scaled)
                and np.array_equal(plain.arrivals_dedicated, trunc.arrivals_dedicated)
                and np.array_equal(plain.arrivals_optimized, trunc.arrivals_optimized)
                and np.array_equal(plain.served, trunc.served)
                and np.array_equal(plain.routed_zero, trunc.routed_zero)
                and plain.rng_fingerprint == trunc.rng_fingerprint
            )
            identical += same
    _verdict(
        9,
        "truncation coupling",
        eligible == 100 and identical == eligible,
        f"identical={identical}/{eligible} eligible runs (epsilon={eps:.4f})",
    )
