import dataclasses
import importlib.util
import math
import tracemalloc
import warnings

import numpy as np
import pytest

import fluidlob
from fluidlob import stability
from fluidlob import (
    AssumptionError,
    SpectrumReport,
    check_assumptions,
    chi_derivative,
    compute_bands,
    config_from_dict,
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
    REPO,
    all_active_config,
    assert_bitwise,
    fd_jacobian,
    loop_det_shifted,
    loop_spectrum,
    loop_stationarity_gap,
    loop_workload_roots,
    make_config,
    random_positive_state,
    random_stable_config,
    random_valid_config,
)


def _perfbench_gen():
    """perfbench/gen.py, the generator of the benchmark's certify configs."""
    spec = importlib.util.spec_from_file_location("gen", REPO / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


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


def test_det_shifted_is_bitwise_the_scalar_form(ref1, ref2, rng):
    cfgs = [ref1, ref2] + [random_stable_config(rng, n_max=12) for _ in range(12)]
    for cfg in cfgs:
        q = random_positive_state(rng, cfg)
        nus = [0.0, *rng.uniform(0.0, 3.0 * cfg.v * cfg.mu / float(cfg.beta @ q), 4)]
        for nu in nus:
            assert_bitwise(det_shifted(cfg, q, float(nu)), loop_det_shifted(cfg, q, float(nu)))


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
    assert rep.rhp_roots_by_winding == 0


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


def _assert_same_report(got: SpectrumReport, want: SpectrumReport) -> None:
    for f in dataclasses.fields(SpectrumReport):
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert type(a) is type(b), f.name
        assert_bitwise(a, b)


@pytest.mark.parametrize("block", [1, fluidlob.stability._BLOCK])
def test_spectrum_is_bitwise_the_loop_form(rng, monkeypatch, block):
    # One determinant and one closed form per step in the oracle, which reads
    # the right-half-plane count off its eigenvalues; arrays over the nu grid
    # and the omega grid here, in blocks of one matrix and one omega each or
    # in one block up to N = 12.  Both type kinds at every N from 1 to 12, at
    # q* and at a random positive state.
    monkeypatch.setattr(fluidlob.stability, "_BLOCK", block)
    for n in range(1, 13):
        for kind in ("exponential", "half-normal"):
            cfg = random_stable_config(rng, n=n, kinds=(kind,))
            for q in (solve_equilibrium(cfg).q_star, random_positive_state(rng, cfg)):
                _assert_same_report(spectrum(cfg, q), loop_spectrum(cfg, q))


def test_spectrum_is_bitwise_the_loop_form_on_benchmark_configs():
    # Twelve configs as the certify workload generates them for seed 1:
    # exponential types at N = 1..6 and half-normal ones at N = 7..12.
    gen = _perfbench_gen()
    for k in [*range(6), *range(18, 24)]:
        rng = np.random.default_rng([1, k])
        n, kind = 1 + k % gen.N_MAX, ("exponential", "half-normal")[(k // gen.N_MAX) % 2]
        cfg = config_from_dict(gen.stable_config_dict(fluidlob, rng, n, kind))
        q_star = solve_equilibrium(cfg).q_star
        _assert_same_report(spectrum(cfg, q_star), loop_spectrum(cfg, q_star))


def test_spectrum_memory_stays_linear_in_the_grid():
    # The large-N probe of the roadmap: N = 200, rebates evenly spread over
    # [0.2, 3], at q*.  The winding count evaluates its omega grid in blocks
    # and the dense determinants reuse one shifted block, so the traced peak
    # stays near a few N x N arrays rather than 21 of them (1.7 MB measured).
    gen = _perfbench_gen()
    gen._distinct_rebates = lambda rng, n: np.linspace(0.2, 3.0, n)
    n = 200
    cfg = config_from_dict(gen.config_dict(np.random.default_rng([0, n]), n, "exponential"))
    q_star = solve_equilibrium(cfg).q_star
    tracemalloc.start()
    try:
        rep = spectrum(cfg, q_star)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert rep.verdict == "stable"
    assert rep.rhp_roots_by_winding == 0 == np.count_nonzero(rep.eigenvalues.real > 0)


def _rank1_plus_diagonal(d, c):
    """The Jacobian form of `det_shifted`: J = c 1^T - diag(d), whose secular
    function is sum_i c_i/(d_i + z) - 1."""
    return np.outer(c, np.ones(len(d))) - np.diag(d)


def test_winding_count_is_the_closed_form_for_positive_weights():
    # With every c_i > 0, J is similar to sqrt(c) sqrt(c)^T - diag(d), so
    # every eigenvalue is real, and s(nu) falls from s(0) to -1 on nu >= 0:
    # one root there when s(0) = sum c_i/d_i - 1 > 0, none otherwise.
    rng = np.random.default_rng(11)
    for _ in range(300):
        n = int(rng.integers(1, 40))
        d = 10.0 ** rng.uniform(-2.0, 1.0, n)
        c = rng.uniform(0.1, 1.0, n)
        c *= rng.choice([rng.uniform(0.05, 0.95), rng.uniform(1.05, 4.0)]) / np.sum(c / d)
        eigs = np.linalg.eigvals(_rank1_plus_diagonal(d, c))
        assert np.abs(eigs.imag).max() <= 1e-9 * np.abs(eigs).max()
        want = int(np.sum(c / d) > 1.0)
        assert stability._winding_count(d, c) == want == np.count_nonzero(eigs.real > 0)


def test_winding_count_is_the_eigensolver_count():
    # 300 seeded rank-1-plus-diagonal matrices, N = 1 to 39, mixed-sign c,
    # a third with half the poles coincident: the count of eigenvalues with
    # Re > 0 is exact, stable and unstable cases alike.
    rng = np.random.default_rng(12)
    unstable = 0
    for k in range(300):
        n = int(rng.integers(1, 40))
        d = 10.0 ** rng.uniform(-2.0, 1.0, n)
        c = rng.normal(size=n) * d * rng.uniform(0.1, 3.0)
        if k % 3 == 0:
            d[: n // 2] = d[0]
        want = int(np.count_nonzero(np.linalg.eigvals(_rank1_plus_diagonal(d, c)).real > 0))
        assert stability._winding_count(d, c) == want
        unstable += want > 0
    assert 100 <= unstable <= 200


def test_winding_count_is_none_with_roots_on_the_imaginary_axis():
    # s(z) = -2/(1 + z) + 5/(2 + z) - 1 vanishes at z = +-i, where the phase
    # of s(i omega) jumps by pi however fine the grid: no count.
    d, c = np.array([1.0, 2.0]), np.array([-2.0, 5.0])
    eigs = sorted(np.linalg.eigvals(_rank1_plus_diagonal(d, c)), key=lambda z: z.imag)
    assert eigs == pytest.approx([-1j, 1j], abs=1e-12)
    assert stability._winding_count(d, c) is None


@pytest.mark.parametrize("kind", ["exponential", "half-normal"])
@pytest.mark.parametrize("n", [1, 2, 12, 50, 200])
def test_all_active_family_is_certified(n, kind):
    cfg = all_active_config(n, kind)
    assert not compute_bands(cfg).empty_band.any()
    eq = solve_equilibrium(cfg)
    report = check_assumptions(cfg, eq.q_star)
    assert report.cond_i_holds and report.cond_ii_holds and report.cond_iv_holds
    rep = spectrum(cfg, eq.q_star)
    assert rep.verdict == "stable"
    assert rep.rhp_roots_by_winding == 0 == np.count_nonzero(rep.eigenvalues.real > 0)


# ---------------------------------------------------------------------------
# Local stability experiment
# ---------------------------------------------------------------------------

def test_vectorised_solvers_match_loop_versions(ref1, ref2, rng):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cases = [ref1, ref2] + [random_stable_config(rng, n_max=12) for _ in range(24)]
        for cfg in cases:
            _assert_is_the_oracle_root(cfg)
    assert {cfg.n_exchanges for cfg in cases} >= {1, 12}


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


def test_default_experiments_match_a_fine_uniform_step(ref1, ref2, monkeypatch):
    # Without dt the experiments step in s, by step doubling; against their
    # runs at dt = 0.01 (10 000 and 15 000 steps) every verdict, `ok` and
    # `workload_monotone` holds, the terminal distances agree within 1e-9
    # (measured 5e-15 and 1.4e-12), and each tube entry time, a node time,
    # lies within the s run's node gap before it (measured 0.93 of it).
    runs = []
    batch = stability._integrate_batch

    def kept(*args, **kwargs):
        runs.append(batch(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(stability, "_integrate_batch", kept)
    eq = solve_equilibrium(ref1)
    local = [local_stability_experiment(ref1, eq, [0.01, 0.1], 100.0, 16, dt=dt) for dt in (None, 0.01)]
    glob = [global_stability_experiment(ref2, 50, 5.0, 150.0, 0, dt=dt) for dt in (None, 0.01)]
    assert [run.pilot_steps > 0 for run in runs] == [True, False, True, False]  # s, t, s, t
    in_s = runs[2]
    for k, (got, want) in enumerate(zip(*(rep.trials for rep in glob))):
        assert (got.ok, got.workload_monotone) == (want.ok, want.workload_monotone)
        assert abs(got.terminal_distance - want.terminal_distance) <= 1e-9
        node = int(np.flatnonzero(in_s.times[:, k] == got.tube_entry_time)[0])
        gap = in_s.times[node, k] - in_s.times[node - 1, k]
        assert abs(got.tube_entry_time - want.tube_entry_time) <= gap
    for got, want in zip(*(rep.trials for rep in local)):
        assert got.ok == want.ok
        assert abs(got.terminal_distance - want.terminal_distance) <= 1e-9
    assert local[0].passed and local[1].passed and glob[0].passed and glob[1].passed


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
