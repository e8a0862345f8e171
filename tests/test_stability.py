import math
import warnings

import numpy as np
import pytest

from fluidlob import (
    AssumptionError,
    chi_derivative,
    det_shifted,
    global_stability_experiment,
    integrate,
    jacobian,
    local_stability_experiment,
    solve_equilibrium,
    solve_workload_star,
    spectrum,
)

from helpers import (
    fd_jacobian,
    loop_secular_real_roots,
    loop_stationarity_gap,
    loop_workload_roots,
    make_config,
    random_stable_config,
    random_valid_config,
)


# ---------------------------------------------------------------------------
# Equilibrium
# ---------------------------------------------------------------------------

def test_equilibrium_ref1(ref1):
    eq = solve_equilibrium(ref1)
    assert eq.w_star == pytest.approx(4 * math.log(2), rel=1e-9)
    assert eq.q_star == pytest.approx([0.76246, 1.24767], abs=1e-5)
    assert eq.chi_at_star == pytest.approx([0.5, 0.25, 0.25], abs=1e-12)
    assert eq.residual < 1e-10
    assert eq.w_star == 2 * math.log(4)
    assert float(ref1.beta @ eq.q_star) == pytest.approx(eq.w_star, abs=1e-10)


def test_equilibrium_ref2(ref2):
    eq = solve_equilibrium(ref2)
    assert abs(eq.w_star - 4 * math.log(2.5)) <= 2 * math.ulp(4 * math.log(2.5))
    assert eq.q_star == pytest.approx([0.73303, 0.73303, 2.19910], abs=1e-5)
    assert eq.residual < 1e-10


def test_equilibrium_balance_identity(ref1):
    # At the stationary point, each venue's service rate matches its inflow.
    eq = solve_equilibrium(ref1)
    rates = ref1.mu * ref1.beta * eq.q_star / (ref1.beta @ eq.q_star)
    inflow = ref1.b_dedicated * ref1.lam + ref1.b_optimized * ref1.big_lambda * eq.chi_at_star[1:]
    assert rates[0] == pytest.approx(0.55, abs=1e-10)
    assert rates * ref1.v == pytest.approx(inflow, abs=1e-10)


def test_equilibrium_randomized_balance(rng):
    for _ in range(20):
        cfg = random_valid_config(rng)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            eq = solve_equilibrium(cfg)
        assert eq.residual < 1e-10
        assert float(cfg.beta @ eq.q_star) == pytest.approx(eq.w_star, abs=1e-10)
        rates = cfg.mu * cfg.beta * eq.q_star / (cfg.beta @ eq.q_star) * cfg.v
        inflow = cfg.b_dedicated * cfg.lam + cfg.b_optimized * cfg.big_lambda * eq.chi_at_star[1:]
        assert rates == pytest.approx(inflow, abs=1e-10)


def test_equilibrium_requires_throughput_condition():
    with pytest.raises(AssumptionError):
        solve_equilibrium(make_config(**{"lambda": [0.7, 0.4]}))
    with pytest.raises(AssumptionError):
        solve_equilibrium(make_config(big_lambda=0.4))  # v*mu above total inflow


def test_workload_fixed_point(ref2):
    eq = solve_equilibrium(ref2)
    assert loop_stationarity_gap(ref2, ref2.bands, eq.w_star) == pytest.approx(0.0, abs=1e-12)


def _assert_is_the_oracle_root(cfg):
    (root,) = loop_workload_roots(cfg)
    assert abs(solve_workload_star(cfg) - root) <= 1e-13 * root


def test_closed_form_workload_is_the_bisection_root(ref1, ref2, rng):
    # Both fixtures, and random configs of each type kind; tabulated laws
    # with flat segments included.
    kinds = ("exponential", "half-normal", "tabulated")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cases = [ref1, ref2] + [random_valid_config(rng, kinds=kinds) for _ in range(90)]
        for cfg in cases:
            _assert_is_the_oracle_root(cfg)
    tabulated = [cfg.type_dist for cfg in cases if cfg.type_dist.kind == "tabulated"]
    assert sum(np.any(t.cdf_values[1:] == t.cdf_values[:-1]) for t in tabulated) >= 5
    assert {cfg.type_dist.kind for cfg in cases} == set(kinds)


# ---------------------------------------------------------------------------
# Jacobian and determinant identity
# ---------------------------------------------------------------------------

def test_jacobian_single_exchange():
    cfg = make_config(
        n_exchanges=1, beta=[1.0], **{"lambda": [0.3]}, rebates=[1.0], b_dedicated=[1.0]
    )
    q = np.array([2.0])
    jac = jacobian(cfg, q)
    w = float(cfg.beta @ q)
    want = cfg.b_optimized * cfg.big_lambda * cfg.beta[0] * chi_derivative(cfg, w)[0]
    assert float(jac[0, 0]) == pytest.approx(want, abs=1e-14)


def test_jacobian_matches_finite_differences(ref1, ref2, rng):
    eq = solve_equilibrium(ref1)
    cases = [(ref1, eq.q_star), (ref1, np.array([1.0, 1.0])), (ref2, np.array([0.5, 1.0, 2.0]))]
    for _ in range(20):
        cfg = random_valid_config(rng)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cases.append((cfg, rng.uniform(0.2, 3.0, cfg.n_exchanges)))
    for cfg, q in cases:
        jac = jacobian(cfg, q)
        fd = fd_jacobian(cfg, q)
        scale = max(1.0, float(np.abs(jac).max()))
        assert np.abs(jac - fd).max() / scale < 1e-6


def test_det_shifted_single_exchange():
    cfg = make_config(
        n_exchanges=1, beta=[1.0], **{"lambda": [0.3]}, rebates=[1.0], b_dedicated=[1.0]
    )
    q = np.array([1.5])
    assert det_shifted(cfg, q, 0.0) == pytest.approx(float(jacobian(cfg, q)[0, 0]), rel=1e-12)


def test_det_shifted_ref1_signs(ref1):
    eq = solve_equilibrium(ref1)
    for nu in (0.0, 0.5, 1.0):
        closed = det_shifted(ref1, eq.q_star, nu)
        direct = float(np.linalg.det(jacobian(ref1, eq.q_star) - nu * np.eye(2)))
        assert closed == pytest.approx(direct, rel=1e-8)
        assert closed > 0  # (-1)^2


def test_det_shifted_ref2_sign(ref2):
    eq = solve_equilibrium(ref2)
    closed = det_shifted(ref2, eq.q_star, 0.0)
    direct = float(np.linalg.det(jacobian(ref2, eq.q_star)))
    assert closed == pytest.approx(direct, rel=1e-8)
    assert closed < 0  # (-1)^3


def test_det_identity_randomized(rng):
    for _ in range(30):
        cfg = random_valid_config(rng)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            q = rng.uniform(0.2, 3.0, cfg.n_exchanges)
            w = float(cfg.beta @ q)
            jac = jacobian(cfg, q)
            for nu in rng.uniform(0.0, 3.0 * cfg.v * cfg.mu / w, 5):
                closed = det_shifted(cfg, q, float(nu))
                direct = float(np.linalg.det(jac - nu * np.eye(cfg.n_exchanges)))
                assert closed == pytest.approx(direct, rel=1e-8)


# ---------------------------------------------------------------------------
# Spectrum
# ---------------------------------------------------------------------------

def test_spectrum_ref1_stable(ref1):
    eq = solve_equilibrium(ref1)
    rep = spectrum(ref1, eq.q_star)
    assert rep.verdict == "stable"
    assert rep.max_real_part < -1e-10
    assert rep.det_identity_max_rel_err < 1e-8
    assert rep.secular_checked
    assert rep.secular_real_roots == rep.real_eigs_off_pole
    assert rep.secular_max_residual < 1e-6


def test_spectrum_single_exchange_sign():
    cfg = make_config(
        n_exchanges=1, beta=[1.0], **{"lambda": [0.3]}, rebates=[1.0], b_dedicated=[1.0]
    )
    eq = solve_equilibrium(cfg)
    rep = spectrum(cfg, eq.q_star)
    want = cfg.big_lambda * chi_derivative(cfg, eq.w_star)[0]
    assert rep.eigenvalues == pytest.approx([want])
    assert want < 0 and rep.verdict == "stable"


def test_spectrum_eigenvalues_reproduce_determinant(ref1, ref2):
    # Characteristic-polynomial consistency: the dense determinant matches the
    # eigenvalue product on a grid of shifts.
    for cfg in (ref1, ref2):
        eq = solve_equilibrium(cfg)
        rep = spectrum(cfg, eq.q_star)
        for nu in np.linspace(0.0, 1.0, 7):
            direct = float(np.linalg.det(rep.jacobian - nu * np.eye(cfg.n_exchanges)))
            from_eigs = float(np.real(np.prod(rep.eigenvalues - nu)))
            assert from_eigs == pytest.approx(direct, rel=1e-8)


def test_spectrum_randomized_stable(rng):
    for _ in range(20):
        cfg = random_stable_config(rng)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            eq = solve_equilibrium(cfg)
            rep = spectrum(cfg, eq.q_star)
        assert rep.max_real_part < -1e-10, f"config with N={cfg.n_exchanges} not stable"


# ---------------------------------------------------------------------------
# Local stability experiment
# ---------------------------------------------------------------------------

def test_vectorised_solvers_match_loop_versions(ref1, ref2, rng):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cases = [ref1, ref2] + [random_stable_config(rng, n_max=12) for _ in range(24)]
        checked = 0
        for cfg in cases:
            _assert_is_the_oracle_root(cfg)
            q_star = solve_equilibrium(cfg).q_star
            rep = spectrum(cfg, q_star)
            if rep.secular_checked:
                assert rep.secular_real_roots == loop_secular_real_roots(cfg, q_star)
                checked += 1
    assert {cfg.n_exchanges for cfg in cases} >= {1, 12} and checked >= 20


def test_local_experiment_zero_delta(ref1):
    eq = solve_equilibrium(ref1)
    rep = local_stability_experiment(ref1, eq, [0.0], horizon=20.0, directions=4, seed=1)
    assert rep.passed
    assert all(t.terminal_distance < 1e-9 for t in rep.trials)


def test_local_experiment_ref2(ref2):
    eq = solve_equilibrium(ref2)
    rep = local_stability_experiment(ref2, eq, [0.01], horizon=500.0, directions=8, seed=3)
    assert rep.passed
    assert len(rep.trials) == 8


def test_local_experiment_reports_bad_start(ref1):
    eq = solve_equilibrium(ref1)
    # a perturbation radius larger than min(q*) can push a component negative
    rep = local_stability_experiment(ref1, eq, [5.0], horizon=5.0, directions=32, seed=2)
    bad = [t for t in rep.trials if t.error == "nonpositive start"]
    assert bad, "expected at least one rejected start at radius 5"
    assert not rep.passed


# ---------------------------------------------------------------------------
# Global stability experiment
# ---------------------------------------------------------------------------

def test_global_experiment_small(ref2):
    rep = global_stability_experiment(ref2, n_inits=10, box=5.0, horizon=300.0, seed=9)
    assert rep.passed
    assert all(t.workload_monotone for t in rep.trials)
    assert all(t.tube_entry_time is not None for t in rep.trials)
    assert all(t.min_workload > t.kappa * (1 - 1e-6) for t in rep.trials)


def test_global_experiment_rejects_unequal_beta(ref1):
    with pytest.raises(ValueError):
        global_stability_experiment(ref1, 5, 5.0, 10.0, seed=0)


def test_invariant_hyperplane(ref2):
    # Starting exactly on the equal-workload hyperplane keeps W_t at W*.
    eq = solve_equilibrium(ref2)
    q0 = np.array([0.5, 0.3, 0.2]) * eq.w_star
    traj = integrate(ref2, q0, 50.0, dt=0.01)
    assert np.abs(traj.workload - eq.w_star).max() < 1e-9


def test_workload_monotone_from_below(ref2):
    eq = solve_equilibrium(ref2)
    traj = integrate(ref2, [0.2, 0.1, 0.1], 50.0, dt=0.01)
    gap = np.abs(traj.workload - eq.w_star)
    inside = np.flatnonzero(gap <= 0.01 * eq.w_star)
    assert inside.size > 0
    until = inside[0]
    assert np.all(np.diff(traj.workload[: until + 1]) >= -1e-12)
