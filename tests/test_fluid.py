import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fluidlob import (
    IntegrationError,
    QueueState,
    SingularityError,
    StepInstabilityError,
    fluid_rhs,
    integrate,
    solve_equilibrium,
)
from fluidlob import compute_kappa, solve_workload_star
from fluidlob import fluid
from fluidlob.fluid import _SELECT_TOL, _failure, _integrate_batch, _rhs_batch, _step_count

from helpers import (
    assert_bitwise,
    loop_stationarity_gap,
    make_config,
    oracle_integrate_batch,
    oracle_rk4_step,
    random_positive_state,
    random_stable_config,
    unhoisted_rhs,
)


# ---------------------------------------------------------------------------
# fluid_rhs
# ---------------------------------------------------------------------------

def test_rhs_ref1(ref1):
    got = fluid_rhs(ref1, QueueState.of(ref1, [1.0, 1.0]))
    chi1 = math.exp(-0.75) - math.exp(-1.5)
    chi2 = math.exp(-1.5)
    want = [0.3 + chi1 - 2 / 3, 0.2 + chi2 - 1 / 3]
    assert got == pytest.approx(want, abs=1e-14)
    assert got == pytest.approx([-0.11743, 0.08980], abs=1e-5)


def test_rhs_vanishes_at_equilibrium(ref1):
    eq = solve_equilibrium(ref1)
    rhs = fluid_rhs(ref1, QueueState.of(ref1, eq.q_star))
    assert np.abs(rhs).max() < 1e-10


def test_rhs_ref2(ref2):
    got = fluid_rhs(ref2, QueueState.of(ref2, [1.0, 1.0, 1.0]))
    assert got[2] == pytest.approx(0.2 + math.exp(-0.75) - 1 / 3, abs=1e-14)
    assert got[2] == pytest.approx(0.33903, abs=1e-5)


def test_rhs_rejects_zero_workload(ref1):
    with pytest.raises(ValueError):
        fluid_rhs(ref1, QueueState.of(ref1, [0.0, 0.0]))


# ---------------------------------------------------------------------------
# integrate
# ---------------------------------------------------------------------------

def test_integrate_fixed_point(ref1):
    eq = solve_equilibrium(ref1)
    traj = integrate(ref1, eq.q_star, 25.0, dt=0.01)
    assert np.abs(traj.states - eq.q_star).max() < 1e-9


def test_integrate_converges_to_equilibrium(ref1):
    eq = solve_equilibrium(ref1)
    traj = integrate(ref1, [1.0, 1.0], 200.0, dt=0.01)
    assert np.abs(traj.states[-1] - eq.q_star).max() < 1e-6


def test_integrate_workload_stays_above_kappa(ref1, ref2):
    for cfg, q0 in ((ref1, [1.0, 1.0]), (ref2, [0.3, 0.2, 0.4])):
        traj = integrate(cfg, q0, 100.0, dt=0.01)
        assert traj.min_workload > traj.kappa * (1 - 1e-6)
        assert traj.min_workload > 0
        assert np.all(traj.states >= 0)
        # workload column is consistent with the states
        recomputed = traj.states @ cfg.beta
        assert np.abs(recomputed - traj.workload).max() < 1e-12


@pytest.mark.parametrize("horizon", [1.0, 2.0, 10.0])
@pytest.mark.parametrize("name", ["ref1", "ref2"])
def test_selected_step_meets_its_tolerance(request, name, horizon):
    # The selector's contract: the default run, whose nodes are uniform in s
    # and not in t, is within _SELECT_TOL of a fine uniform run at every node
    # (measured 6.0e-13 to 3.8e-12 against horizon/4000).
    cfg = request.getfixturevalue(name)
    q0 = np.ones(cfg.n_exchanges)
    traj = integrate(cfg, q0, horizon)
    assert traj.times[-1] == horizon and traj.steps == len(traj.times) - 1
    assert np.all(np.diff(traj.times) > 0) and np.ptp(np.diff(traj.times)) > 0
    assert traj.dt == horizon / traj.steps and traj.pilot_steps >= traj.steps // 2
    fine = integrate(cfg, q0, horizon, dt=horizon / 4000)
    assert np.abs(traj.states - fine.at(traj.times)).max() <= _SELECT_TOL


def test_selected_grid_counts(ref1, monkeypatch):
    # ref1 from (1, 1): the pilots at k = 8 and 16 steps per s-length
    # horizon / w_ref (w_ref = W0 = 3 here) disagree; the fourth-order rule
    # then asks for k = 64 at T=2 and k = 256 at T=10, and the runs at k
    # and 2k agree.
    # Each count includes the run's last, shortened step.
    grids = _count_runs(monkeypatch, "_integrate_s")
    short = integrate(ref1, [1.0, 1.0], 2.0)
    assert grids == [8, 16, 64, 128]
    assert (short.steps, short.pilot_steps, short.dt) == (133, 9 + 17 + 67, 2.0 / 133)
    grids.clear()
    long = integrate(ref1, [1.0, 1.0], 10.0)
    assert grids == [8, 16, 256, 512]
    assert (long.steps, long.pilot_steps) == (554, 9 + 18 + 277)


@pytest.fixture(scope="module")
def fine_reference(request):
    """ref1 and ref2 from all ones over T=2 at dt=1e-4, read at the
    multiples of 0.003, most of which are not nodes of a coarser grid."""
    refs = {}
    for name in ("ref1", "ref2"):
        cfg = request.getfixturevalue(name)
        fine = integrate(cfg, np.ones(cfg.n_exchanges), 2.0, dt=1e-4)
        refs[name] = (cfg, fine.times[::30], fine.states[::30])
    return refs


@pytest.mark.parametrize("name", ["ref1", "ref2"])
def test_trajectory_at_returns_the_nodes_as_stored(request, name):
    cfg = request.getfixturevalue(name)
    traj = integrate(cfg, np.ones(cfg.n_exchanges), 2.0)
    assert_bitwise(traj.at(traj.times), traj.states)
    assert_bitwise(traj.at([2.0, 0.0]), traj.states[[-1, 0]])
    assert_bitwise(traj.drift, _rhs_batch(cfg)(traj.states, traj.workload))
    for outside in ([-1e-300], [2.0 + 4e-16], [math.nan]):
        with pytest.raises(ValueError, match="^times: must lie in"):
            traj.at(outside)


@pytest.mark.parametrize("name", ["ref1", "ref2"])
def test_trajectory_at_meets_the_selector_tolerance_between_nodes(fine_reference, name):
    # The selected grid (133 steps on ref1, 153 on ref2) read off its nodes:
    # linear interpolation misses the reference by 1.4e-6 (ref1) and 2.3e-6
    # (ref2); the cubic Hermite reading by 1.5e-12 and 1.3e-12.
    cfg, times, states = fine_reference[name]
    traj = integrate(cfg, np.ones(cfg.n_exchanges), 2.0)
    assert not np.isin(times, traj.times).all()
    assert np.abs(traj.at(times) - states).max() <= _SELECT_TOL


@pytest.mark.parametrize("name", ["ref1", "ref2"])
def test_trajectory_at_is_fourth_order(fine_reference, name):
    # Each halving of the step divides the error between the nodes by about
    # 16; measured 12.8 to 16.9 on both fixtures for dt from 0.04 to 0.005.
    cfg, times, states = fine_reference[name]
    errors = [
        np.abs(integrate(cfg, np.ones(cfg.n_exchanges), 2.0, dt=dt).at(times) - states).max()
        for dt in (0.04, 0.02, 0.01, 0.005)
    ]
    ratios = np.array(errors[:-1]) / np.array(errors[1:])
    assert np.all((11.0 < ratios) & (ratios < 19.0)), ratios


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(st.integers(0, 2**32 - 1))
def test_floor_never_breached_on_random_stable_configs(seed):
    # Inside the assumptions the workload stays above kappa, and the
    # selected step meets the step-doubling tolerance.
    rng = np.random.default_rng(seed)
    cfg = random_stable_config(rng, n_max=6)
    traj = integrate(cfg, random_positive_state(rng, cfg), 2.0)
    assert traj.min_workload >= traj.kappa * (1 - 1e-12)
    assert traj.max_refine_error <= 1e-10 * max(1.0, np.abs(traj.states).max())


@settings(derandomize=True, max_examples=10, deadline=None, database=None)
@given(st.integers(0, 2**32 - 1))
def test_floor_never_breached_from_near_the_origin(seed):
    # The same configs started at W0 = 1e-3 W*, where the venue split
    # relaxes at a rate of order 1e3 * v mu beta_i / W*: the floor holds and
    # the tolerance is met in a bounded number of steps (at most 20 223 with
    # the pilots on 30 such starts).
    rng = np.random.default_rng(seed)
    cfg = random_stable_config(rng, n_max=6)
    q0 = random_positive_state(rng, cfg)
    q0 *= 1e-3 * solve_workload_star(cfg) / (q0 @ cfg.beta)
    traj = integrate(cfg, q0, 2.0)
    assert traj.min_workload >= traj.kappa * (1 - 1e-12)
    assert traj.max_refine_error <= 1e-10 * max(1.0, np.abs(traj.states).max())
    assert traj.steps + traj.pilot_steps < 50_000


@pytest.mark.parametrize("name", ["ref1", "ref2"])
def test_s_steps_are_fourth_order(request, name):
    # Runs at k, 2k, 4k and 8k steps per s-length horizon / w_ref share the
    # nodes of the k run but its last; against the run at 4096, the error in
    # (q, t) at those nodes falls by about 16 per halving (measured 16.1 to
    # 16.7).
    cfg = request.getfixturevalue(name)
    q0 = np.ones(cfg.n_exchanges)
    w_ref = max(float(q0 @ cfg.beta), solve_workload_star(cfg))
    ref = fluid._integrate_s(cfg, q0, 2.0, w_ref, 4096, 0.0)
    errors = []
    for k in (8, 16, 32, 64):
        run = fluid._integrate_s(cfg, q0, 2.0, w_ref, k, 0.0)
        nodes = np.arange(run.steps)
        same = nodes * (4096 // k)
        errors.append(max(
            np.abs(run.states[nodes, 0] - ref.states[same, 0]).max(),
            np.abs(run.times[nodes] - ref.times[same]).max(),
        ))
    ratios = np.array(errors[:-1]) / np.array(errors[1:])
    assert np.all((11.0 < ratios) & (ratios < 19.0)), ratios


@pytest.mark.parametrize(
    "q0, most",
    [([5e-4, 5e-4], (1953, 1711)), ([1e-4, 1e-4], (2457, 2152))],
)
def test_near_origin_start_takes_few_steps(ref1, q0, most):
    # In s the venue split decays at the rates v mu beta_i whatever W is, so
    # the step need not resolve v mu beta_i / W, which is about 1e3 here; the
    # bounds are the measured counts.
    traj = integrate(ref1, q0, 1.0)
    assert traj.steps <= most[0] and traj.pilot_steps <= most[1]
    assert traj.min_workload >= traj.kappa
    assert traj.max_refine_error <= _SELECT_TOL


def test_near_origin_start_meets_a_fine_uniform_reference(ref1):
    # Over the fast start from (5e-4, 5e-4), where the venue split relaxes in
    # about 1e-3, the selected run read at 201 sample times agrees with a
    # run of 10 000 uniform steps (measured 1.4e-13 apart).
    traj = integrate(ref1, [5e-4, 5e-4], 0.02)
    fine = integrate(ref1, [5e-4, 5e-4], 0.02, dt=2e-6)
    assert fine.steps == 10_000
    assert np.abs(traj.at(fine.times[::50]) - fine.states[::50]).max() <= _SELECT_TOL


def test_doubling_gap_counts_the_time_gap(ref1):
    # The s runs meet at equal s, so the gap takes t with q: moving the fine
    # run's nodes (all but the horizon) by 1e-3 in t moves the gap to 1e-3.
    coarse, fine = (fluid._integrate_s(ref1, np.ones(2), 2.0, 3.0, k, 0.0) for k in (8, 16))
    gap, tol, _ = fluid._doubling_gap(coarse, fine)
    assert gap < 1e-6
    shifted = dataclasses.replace(fine, times=fine.times + 1e-3 * (fine.times < 2.0))
    moved, _, first = fluid._doubling_gap(coarse, shifted)
    assert abs(moved - 1e-3) < 1e-6 and first == 0.0


def test_selected_step_semigroup(ref1):
    once = integrate(ref1, [1.0, 1.0], 8.0)
    first = integrate(ref1, [1.0, 1.0], 4.0)
    second = integrate(ref1, first.states[-1], 4.0)
    assert np.abs(second.states[-1] - once.states[-1]).max() < 1e-9


def _count_runs(monkeypatch, name: str) -> list:
    """Record the grid of every call of the kernel `name`: the step count
    of `_integrate_batch`, the k of `_integrate_s`."""
    grids = []
    kernel, arg = getattr(fluid, name), {"_integrate_batch": 3, "_integrate_s": 4}[name]

    def counted(*args, **kwargs):
        grids.append(args[arg])
        return kernel(*args, **kwargs)

    monkeypatch.setattr(fluid, name, counted)
    return grids


def test_refine_checks_the_selected_step(ref1, monkeypatch):
    # The selector has checked the run against one at twice its step, so
    # refine runs nothing more and reports the gap that accepted it.
    grids = _count_runs(monkeypatch, "_integrate_s")
    batches = _count_runs(monkeypatch, "_integrate_batch")
    plain = integrate(ref1, [1.0, 1.0], 2.0)
    pilots = list(grids)
    checked = integrate(ref1, [1.0, 1.0], 2.0, refine=True)
    assert grids == pilots + pilots and pilots and batches == []
    assert np.array_equal(plain.states, checked.states) and checked.steps == plain.steps
    scale = max(1.0, np.abs(plain.states).max())
    assert checked.max_refine_error == plain.max_refine_error
    assert 0 < plain.max_refine_error <= _SELECT_TOL * scale


def test_hopeless_start_stops_after_a_bounded_number_of_passes(ref1, monkeypatch):
    # From W0 = 1e-323 every step advances t by W ds / horizon, which rounds
    # to 0, so every pilot fails at its first step; each pass doubles k and
    # runs one new pilot, and the selector gives up after _MAX_PASSES.
    grids = _count_runs(monkeypatch, "_integrate_s")
    message = f"^no step meets the tolerance {_SELECT_TOL:g} within"
    with pytest.raises(IntegrationError, match=message):
        integrate(ref1, [5e-324, 0.0], 1.0)
    assert grids == [8 * 2**j for j in range(fluid._MAX_PASSES + 1)]


def test_selector_refuses_a_grid_beyond_the_cap(ref1, monkeypatch):
    # At T=10 the second pilot needs 18 steps; with the cap below that, the
    # run stops at the cap and the selector fails.
    grids = _count_runs(monkeypatch, "_integrate_s")
    monkeypatch.setattr(fluid, "_MAX_GRID", 12)
    with pytest.raises(IntegrationError, match=f"tolerance {_SELECT_TOL:g} in fewer than 12"):
        integrate(ref1, [1.0, 1.0], 10.0)
    assert grids == [8, 16]


def test_integrate_refine_check(ref1, monkeypatch):
    # A fixed step is checked against twice its step count; the run that
    # comes back is the unchecked one.
    grids = _count_runs(monkeypatch, "_integrate_batch")
    plain = integrate(ref1, [1.0, 1.0], 2.0, dt=0.01)
    traj = integrate(ref1, [1.0, 1.0], 2.0, dt=0.01, refine=True)
    assert grids == [200, 200, 400]
    assert_bitwise(traj.states, plain.states)
    assert plain.max_refine_error == 0.0
    assert (plain.pilot_steps, traj.pilot_steps) == (0, 400)
    assert 0 < traj.max_refine_error <= _SELECT_TOL * max(1.0, np.abs(traj.states).max())


def test_semigroup_property(ref1):
    once = integrate(ref1, [1.0, 1.0], 8.0, dt=0.01)
    first = integrate(ref1, [1.0, 1.0], 4.0, dt=0.01)
    second = integrate(ref1, first.states[-1], 4.0, dt=0.01)
    assert np.abs(second.states[-1] - once.states[-1]).max() < 1e-8


def test_step_halving_fourth_order(ref1):
    # Halving the step should shrink the deviation by at least 2^3.
    terminal = {}
    for dt in (0.2, 0.1, 0.05):
        terminal[dt] = integrate(ref1, [1.0, 1.0], 5.0, dt=dt).states[-1]
    d1 = np.abs(terminal[0.2] - terminal[0.1]).max()
    d2 = np.abs(terminal[0.1] - terminal[0.05]).max()
    assert d1 / d2 >= 8.0


def test_equal_beta_reduction(ref2):
    # For equal beta the workload along the full trajectory matches a scalar
    # integration of the summed field, the stationarity gap.
    dt = 0.01
    traj = integrate(ref2, [1.0, 0.5, 2.0], 20.0, dt=dt)
    w = float(ref2.beta @ np.array([1.0, 0.5, 2.0]))
    scalar = [w]
    beta1 = float(ref2.beta[0])
    for _ in range(traj.steps):
        k1 = beta1 * loop_stationarity_gap(ref2, ref2.bands, w)
        k2 = beta1 * loop_stationarity_gap(ref2, ref2.bands, w + 0.5 * dt * k1)
        k3 = beta1 * loop_stationarity_gap(ref2, ref2.bands, w + 0.5 * dt * k2)
        k4 = beta1 * loop_stationarity_gap(ref2, ref2.bands, w + dt * k3)
        w = w + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        scalar.append(w)
    assert np.abs(traj.workload - np.array(scalar)).max() < 1e-8


def test_integrate_input_validation(ref1):
    with pytest.raises(ValueError):
        integrate(ref1, [0.0, 0.0], 1.0, dt=0.01)
    with pytest.raises(ValueError):
        integrate(ref1, [1.0, -0.1], 1.0, dt=0.01)
    with pytest.raises(ValueError):
        integrate(ref1, [1.0, 1.0], 0.0, dt=0.01)
    for q0 in ([math.inf, 1.0], [1.0, math.nan]):
        with pytest.raises(ValueError, match="^q0: initial queue lengths must be finite$"):
            integrate(ref1, q0, 1.0)
    for dt in (0.0, -0.01, math.inf, math.nan):
        with pytest.raises(ValueError, match="^dt: must be positive and finite$"):
            integrate(ref1, [1.0, 1.0], 1.0, dt=dt)
    with pytest.raises(ValueError, match="^dt: the horizon would take more than"):
        integrate(ref1, [1.0, 1.0], 1.0, dt=1e-8)
    # The check at twice the step count would pass the cap; nothing runs.
    with pytest.raises(ValueError, match="^dt: the refine check would take"):
        integrate(ref1, [1.0, 1.0], 1.0, dt=1.5e-7, refine=True)
    assert _step_count(1.0, 1.0) == 1 and _step_count(1.0, 2.0) == 1
    assert _step_count(2.0, 0.01) == 200 and _step_count(1.0, 0.3) == 4


def test_workload_floor_abort():
    # A pure-drain field pushes the workload to zero; the batch core must
    # abort once it crosses the configured floor.
    cfg = make_config(**{"lambda": [0.0, 0.0]}, big_lambda=0.0, beta=[1.0, 1.0])
    res = _integrate_batch(cfg, np.array([[1.0, 1.0]]), 3.0, _step_count(3.0, 0.01), np.array([1.0]))
    with pytest.raises(SingularityError):
        raise _failure(res, 0)


def test_hoisted_rhs_is_bitwise_the_unhoisted_field(ref1, ref2, rng):
    cfgs = [ref1, ref2] + [random_stable_config(rng, n_max=6) for _ in range(6)]
    for cfg in cfgs:
        rhs = _rhs_batch(cfg)
        for rows in (1, 7):
            q = np.array([random_positive_state(rng, cfg) for _ in range(rows)])
            assert_bitwise(rhs(q), unhoisted_rhs(cfg, q))


def test_recorded_floor_breach_freezes_only_that_trajectory(ref1):
    # Row 2 starts high (W0 = 12 > W* = 4 ln 2) with a kappa whose floor, 10.5,
    # its workload crosses on the way down (near t = 2): the breach is recorded, the row
    # keeps its last state above the floor, and the other rows run exactly as
    # in a batch without it.
    steps = _step_count(4.0, 0.01)
    w_star = solve_equilibrium(ref1).w_star
    others = np.array([[0.5, 0.5], [2.0, 1.0], [0.2, 3.0], [1.0, 0.1]])
    kappas = np.array([compute_kappa(ref1, float(q @ ref1.beta), w_star) for q in others])
    base = _integrate_batch(ref1, others, 4.0, steps, kappas, store_states=True)
    assert not base.failed.any()

    q0s = np.insert(others, 2, [4.0, 4.0], axis=0)
    res = _integrate_batch(ref1, q0s, 4.0, steps, np.insert(kappas, 2, 21.0), store_states=True)
    assert res.fail_reason == [None, None, "floor", None, None]
    assert res.failed.tolist() == [False, False, True, False, False]
    keep = [0, 1, 3, 4]
    assert_bitwise(res.states[:, keep], base.states)
    assert_bitwise(res.workload[:, keep], base.workload)
    assert_bitwise(res.terminal[keep], base.terminal)
    assert_bitwise(res.min_workload[keep], base.min_workload)

    free = _integrate_batch(ref1, q0s[2:3], 4.0, steps, np.array([1.0]), store_states=True)
    breach = int(np.flatnonzero(free.workload[:, 0] < 10.5)[0])
    assert 0 < breach < res.steps
    assert_bitwise(res.states[:breach, 2], free.states[:breach, 0])
    frozen = free.states[breach - 1, 0]
    assert np.all(res.states[breach:, 2] == frozen)
    assert_bitwise(res.terminal[2], frozen)
    assert res.min_workload[2] == free.workload[breach - 1, 0]
    assert res.fail_time[2] == res.times[breach] and np.isnan(res.fail_time[keep]).all()


_NO_STATES = ("times", "workload", "terminal", "min_workload", "failed", "fail_time")


def _assert_same_batch(res, ref, fields=_NO_STATES + ("states",)) -> None:
    for name in fields:
        assert_bitwise(getattr(res, name), getattr(ref, name))
    assert res.fail_reason == ref.fail_reason
    assert res.steps == ref.steps


def test_lean_kernel_is_bitwise_the_oracle_step(ref1, ref2, rng):
    # Single and batched runs; in the "breach" runs the last row starts high
    # and gets a floor that its workload crosses mid-run, so it is recorded
    # and frozen there.  Each run is made with and without stored states:
    # the kernel reuses its buffers from step to step, and no returned array
    # may share them.  One config has a tabulated type, whose `cdf` writes
    # into the kernel's buffer by a copy.
    tabulated = make_config(
        type_dist={"kind": "tabulated", "gamma": [0.0, 1.0, 3.0], "cdf": [0.0, 0.6, 1.0]}
    )
    cfgs = [ref1, ref2, tabulated] + [random_stable_config(rng, n_max=12) for _ in range(12)]
    horizon, dt = 1.5, 0.01
    steps, kw = _step_count(horizon, dt), dict(store_states=True)
    seen = set()
    for cfg in cfgs:
        w_star = solve_workload_star(cfg)
        high = np.full(cfg.n_exchanges, 4.0 * w_star / cfg.beta.sum())
        free = oracle_integrate_batch(
            cfg, high[None, :], horizon, dt, np.array([0.0]), on_error="record", **kw
        )
        w_free = free.workload[:, 0]
        mid = len(w_free) // 2
        assert w_free[-1] < w_free[mid]
        breach_kappa = w_free[mid] + w_free[-1]  # floor = their mean

        for rows, breach in ((1, False), (1, True), (5, True)):
            q0s = np.array([random_positive_state(rng, cfg) for _ in range(rows)])
            kappas = np.array([compute_kappa(cfg, float(q @ cfg.beta), w_star) for q in q0s])
            if breach:
                q0s[-1], kappas[-1] = high, breach_kappa
            ref = oracle_integrate_batch(
                cfg, q0s, horizon, dt, kappas, on_error="record", **kw
            )
            assert ref.fail_reason[-1] == ("floor" if breach else None)
            seen.update(ref.fail_reason)
            res = _integrate_batch(cfg, q0s, horizon, steps, kappas, **kw)
            _assert_same_batch(res, ref)
            lean = _integrate_batch(cfg, q0s, horizon, steps, kappas)
            assert lean.states is None
            _assert_same_batch(lean, ref, _NO_STATES)
    assert seen == {None, "floor"}


@pytest.mark.parametrize("rows", [1, 5])
def test_lean_s_step_is_bitwise_the_oracle_step(ref1, rng, rows):
    # One step of the kernel in s, with its stage workloads, against one
    # RK4 step on W times the unhoisted field, for each type kind.  The
    # steps keep every stage's workload positive, the field's domain.
    half_normal = make_config(type_dist={"kind": "half-normal", "sigma": 1.3})
    tabulated = make_config(
        type_dist={"kind": "tabulated", "gamma": [0.0, 1.0, 3.0], "cdf": [0.0, 0.6, 1.0]}
    )
    cfgs = [ref1, half_normal, tabulated] + [random_stable_config(rng, n_max=6) for _ in range(4)]
    kinds = {type(cfg.type_dist).__name__ for cfg in cfgs}
    assert kinds == {"ExponentialType", "HalfNormalType", "TabulatedType"}
    for cfg in cfgs:
        for h in (0.01, 0.1):
            q = np.array([random_positive_state(rng, cfg) for _ in range(rows)])
            step, stage_w = fluid._rk4(cfg, rows, h, in_s=True)
            stage_w[0] = q @ cfg.beta
            out = np.empty_like(q)
            step(q, out)
            want, want_w = oracle_rk4_step(cfg, q, h, in_s=True)
            assert want_w.min() > 0
            assert_bitwise(out, want)
            assert_bitwise(stage_w, want_w)


# The type laws each failure case runs with: the stages that reach W <= 0
# (or NaN) go through each kind's clamp and NaN handling in `signed_cdf`.
_FAILURE_TYPES = [
    {"kind": "exponential", "rate": 1.0},
    {"kind": "half-normal", "sigma": 1.3},
    {"kind": "tabulated", "gamma": [0.0, 1.0, 3.0], "cdf": [0.0, 0.6, 1.0]},
]


@pytest.mark.parametrize(
    "lam, q0, dt, kappas",
    [
        ([0.0, 0.0], [1.0, 1.0], 0.01, [1.0, 1e-12]),
        ([0.0, 0.0], [1.0, 1.0], 0.5, [1e-9, 1e-12]),
        ([0.5, 0.0], [0.01, 1.0], 0.5, [1e-12, 1e-12]),
        ([0.0, 0.0], [1.0, 1.0], 0.01, [3.0, 2.0]),
    ],
    ids=["floor", "nan-state", "negative", "all-floor"],
)
def test_lean_kernel_fails_like_the_oracle(lam, q0, dt, kappas):
    # A draining field (the pure drain of the failure tests below, or one
    # fed only at venue 1) with a second row that stays healthy, except in
    # "all-floor": the same record as the oracle, and for each failing row
    # run alone, the error of the oracle's "raise" mode from `_failure`.
    # In "nan-state" the first row reaches W = 0 inside a step; in "negative"
    # it undershoots to a finite negative queue.  In "all-floor" the rows
    # breach their floors at t = 0.5 and t = 1.5 of the horizon 3.  Each
    # case runs with every type kind of `_FAILURE_TYPES`.
    steps = _step_count(3.0, dt)
    q0s, kappas = np.array([q0, [2.0, 0.5]]), np.array(kappas)
    for type_dist in _FAILURE_TYPES:
        cfg = make_config(**{"lambda": lam}, big_lambda=0.0, beta=[1.0, 1.0], type_dist=type_dist)
        ref = oracle_integrate_batch(
            cfg, q0s, 3.0, dt, kappas, store_states=True, on_error="record"
        )
        assert ref.failed[0]
        _assert_same_batch(_integrate_batch(cfg, q0s, 3.0, steps, kappas, store_states=True), ref)
        for row in np.flatnonzero(ref.failed):
            alone = slice(row, row + 1)
            with pytest.raises(IntegrationError) as want:
                oracle_integrate_batch(cfg, q0s[alone], 3.0, dt, kappas[alone])
            got = _failure(_integrate_batch(cfg, q0s[alone], 3.0, steps, kappas[alone]), 0)
            assert type(got) is want.type and str(got) == str(want.value)


def test_maximum_is_the_clip_of_the_undershoot():
    # The step floors its state with np.maximum(q, 0, out=q), the ufunc that
    # np.clip(q, 0, None) dispatches to: same bytes on signed zeros, tiny
    # undershoots, infinities and NaN.
    q = np.array([[-0.0, 0.0, -1e-300, 1e-300], [-1e-13, np.inf, -np.inf, np.nan]])
    assert_bitwise(np.maximum(q, 0.0, out=q.copy()), np.clip(q, 0.0, None, out=q.copy()))


def test_negative_undershoot_is_an_error():
    cfg = make_config(**{"lambda": [0.0, 0.0]}, big_lambda=0.0, beta=[1.0, 1.0])
    res = _integrate_batch(cfg, np.array([[1.0, 1.0]]), 3.0, _step_count(3.0, 0.5), np.array([1e-9]))
    with pytest.raises(IntegrationError):
        raise _failure(res, 0)


def test_step_instability_detected(ref1):
    # Near the origin the venue split relaxes at a rate of about 1.3e3, so
    # the step 1e-3 runs but is off the run at twice its step count.
    q0 = [5e-4, 5e-4]
    integrate(ref1, q0, 1.0, dt=0.001)
    with pytest.raises(StepInstabilityError, match="^trajectory 0: unstable at t=0.001$"):
        integrate(ref1, q0, 1.0, dt=0.001, refine=True)


# ---------------------------------------------------------------------------
# Workload drift for equal beta: the stationarity gap
# ---------------------------------------------------------------------------

def test_workload_rhs_root_at_w_star(ref2):
    w_star = 4 * math.log(2.5)
    assert loop_stationarity_gap(ref2, ref2.bands, w_star) == pytest.approx(0.0, abs=1e-12)


def test_workload_rhs_signs(ref2):
    w_star = 4 * math.log(2.5)
    assert loop_stationarity_gap(ref2, ref2.bands, 0.5 * w_star) > 0
    assert loop_stationarity_gap(ref2, ref2.bands, 2.0 * w_star) < 0


def test_workload_rhs_degenerate_lambda0(ref2):
    cfg = make_config(
        n_exchanges=3,
        beta=[1.0, 1.0, 1.0],
        **{"lambda": [0.2, 0.2, 0.2]},
        big_lambda=0.0,
        rebates=[1.0, 2.0, 3.0],
        b_dedicated=[1.0, 1.0, 1.0],
    )
    values = [loop_stationarity_gap(cfg, cfg.bands, w) for w in (0.5, 2.0, 9.0)]
    assert values == pytest.approx([-0.4, -0.4, -0.4])
