import dataclasses
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fluidlob import (
    IntegrationError,
    QueueState,
    SingularityError,
    StepInstabilityError,
    chi,
    config_from_dict,
    fluid_rhs,
    integrate,
    solve_equilibrium,
)
from fluidlob import compute_kappa, solve_workload_star
from fluidlob import fluid, routing
from fluidlob.fluid import _SELECT_TOL, _failure, _integrate_batch, _rhs_batch, _step_count

from helpers import (
    assert_bitwise,
    config_dicts,
    loop_stationarity_gap,
    make_config,
    old_order_rk4_step,
    oracle_integrate_batch,
    oracle_rk4_step,
    random_positive_state,
    random_stable_config,
    two_cdf_rhs,
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


def test_operands_are_made_once_per_config_on_first_use(monkeypatch):
    # Loading makes none; chi and the field share the band operands, and
    # `dataclasses.replace` builds a config that makes its own.
    made, real = [], routing._fractions

    def counted(cfg):
        made.append(cfg)
        return real(cfg)

    monkeypatch.setattr(routing, "_fractions", counted)
    monkeypatch.setattr(fluid, "_fractions", counted)
    cfg = make_config()
    assert "_kept" not in vars(cfg)
    for _ in range(3):
        chi(cfg, 1.3)
        fluid_rhs(cfg, QueueState.of(cfg, [1.0, 1.0]))
    assert made == [cfg]
    other = dataclasses.replace(cfg)
    chi(other, 1.3)
    assert made == [cfg, other] and made[1] is other


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


@pytest.mark.parametrize(
    "name, q0, horizon",
    [
        *(pytest.param(name, None, t, id=f"{name}-{t}") for name in ("ref1", "ref2")
          for t in (1.0, 2.0, 10.0)),
        pytest.param("ref1", [5e-4, 5e-4], 1.0, id="ref1-5e-4"),
        pytest.param("ref1", [1e-4, 1e-4], 1.0, id="ref1-1e-4"),
        pytest.param("ref1", [1e-300, 0.0], 1.0, id="ref1-1e-300"),
    ],
)
def test_selected_step_meets_its_tolerance(request, monkeypatch, name, q0, horizon):
    # The contract of the s steps: the default run, whose nodes are
    # non-uniform in t, is within _SELECT_TOL of a fine run at every node
    # (measured 7.3e-12 to 3.7e-11 from all ones against horizon/4000 steps
    # in t, the same against horizon/8000, and 1.1e-11 to 1.3e-11 near the
    # origin).  Near the origin a uniform t step fine enough takes 409 600
    # steps, so the reference there is the run at a local tolerance 100
    # times tighter, which is 3.3e-13 off that uniform run from (1e-4, 1e-4)
    # and from (5e-4, 5e-4).
    cfg = request.getfixturevalue(name)
    q0 = np.ones(cfg.n_exchanges) if q0 is None else np.array(q0)
    traj = integrate(cfg, q0, horizon)
    assert traj.times[-1] == horizon and traj.steps == len(traj.times) - 1
    assert np.all(np.diff(traj.times) > 0) and np.ptp(np.diff(traj.times)) > 0
    assert traj.dt == horizon / traj.steps and traj.pilot_steps >= traj.steps // 2
    if q0 @ cfg.beta < 1e-2:
        monkeypatch.setattr(fluid, "_LOCAL_TOL", fluid._LOCAL_TOL / 100)
        fine = integrate(cfg, q0, horizon)
    else:
        fine = integrate(cfg, q0, horizon, dt=horizon / 4000)
    assert np.abs(traj.states - fine.at(traj.times)).max() <= _SELECT_TOL


def test_selected_grid_counts(ref1):
    # ref1 from (1, 1): 40 and 144 accepted trials, 3 rejected each.  Each
    # accepted trial adds its two half steps to the path, except the last,
    # whose first half would pass the horizon and gives way to one step in t.
    # The pilot steps are each trial's full step, the three steps of each
    # rejected trial, and the last trial's two halves.
    short = integrate(ref1, [1.0, 1.0], 2.0)
    assert (short.steps, short.pilot_steps, short.dt) == (79, 40 + 3 * 3 + 2, 2.0 / 79)
    long = integrate(ref1, [1.0, 1.0], 10.0)
    assert (long.steps, long.pilot_steps) == (287, 144 + 3 * 3 + 2)


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
    assert_bitwise(traj.drift, _rhs_batch(cfg, traj.states, traj.workload))
    for outside in ([-1e-300], [2.0 + 4e-16], [math.nan]):
        with pytest.raises(ValueError, match="^times: must lie in"):
            traj.at(outside)


@pytest.mark.parametrize("name", ["ref1", "ref2"])
def test_trajectory_at_meets_the_selector_tolerance_between_nodes(fine_reference, name):
    # The s grid (79 steps on ref1, 72 on ref2) read off its nodes: linear
    # interpolation misses the reference by 3.3e-6 (ref1) and 8.7e-6 (ref2);
    # the cubic Hermite reading by 1.3e-11 and 1.9e-11.
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
    # the tolerance is met in a bounded number of steps (at most 1303 with
    # the pilot steps on 30 such starts).
    rng = np.random.default_rng(seed)
    cfg = random_stable_config(rng, n_max=6)
    q0 = random_positive_state(rng, cfg)
    q0 *= 1e-3 * solve_workload_star(cfg) / (q0 @ cfg.beta)
    traj = integrate(cfg, q0, 2.0)
    assert traj.min_workload >= traj.kappa * (1 - 1e-12)
    assert traj.max_refine_error <= 1e-10 * max(1.0, np.abs(traj.states).max())
    assert traj.steps + traj.pilot_steps < 5_000


def _uniform_s_run(cfg, q0, length: float, k: int):
    """(q, t) after k RK4 steps of `fluid._rk4` in s over the s-length `length`."""
    h = length / k
    kernel, t = fluid._rk4(cfg, 1, h, in_s=True), 0.0
    kernel.load(np.array(q0, dtype=float)[:, None])
    for _ in range(k):
        kernel.step()
        t += h * float(kernel.fields[:, -1, 0] @ [1.0, 2.0, 2.0, 1.0]) / 6.0
        kernel.weigh()
        kernel.accept()
    return np.append(kernel.state[:, 0], t)


@pytest.mark.parametrize("name", ["ref1", "ref2"])
def test_s_steps_are_fourth_order(request, name):
    # Over the s-length 0.5 from all ones, the error in (q, t) of k fixed s
    # steps against 1024 falls by about 16 per halving of the step (measured
    # 16.1 to 16.5 for k = 8 to 64).
    cfg = request.getfixturevalue(name)
    q0 = np.ones(cfg.n_exchanges)
    ref = _uniform_s_run(cfg, q0, 0.5, 1024)
    errors = [np.abs(_uniform_s_run(cfg, q0, 0.5, k) - ref).max() for k in (8, 16, 32, 64)]
    ratios = np.array(errors[:-1]) / np.array(errors[1:])
    assert np.all((11.0 < ratios) & (ratios < 19.0)), ratios


@pytest.mark.parametrize(
    "q0, most",
    [([5e-4, 5e-4], (468, 241)), ([1e-4, 1e-4], (510, 262))],
)
def test_near_origin_start_takes_few_steps(ref1, q0, most):
    # In s the venue split decays at the rates v mu beta_i whatever W is, so
    # the step need not resolve v mu beta_i / W, which is about 1e3 here; the
    # bounds are the measured counts.
    traj = integrate(ref1, q0, 1.0)
    assert traj.steps <= most[0] and traj.pilot_steps <= most[1]
    assert traj.min_workload >= traj.kappa
    assert traj.max_refine_error <= 15 * fluid._LOCAL_TOL


def test_near_origin_start_meets_a_fine_uniform_reference(ref1):
    # Over the fast start from (5e-4, 5e-4), where the venue split relaxes in
    # about 1e-3, the selected run read at 201 sample times agrees with a
    # run of 10 000 uniform steps (measured 1.4e-13 apart).
    traj = integrate(ref1, [5e-4, 5e-4], 0.02)
    fine = integrate(ref1, [5e-4, 5e-4], 0.02, dt=2e-6)
    assert fine.steps == 10_000
    assert np.abs(traj.at(fine.times[::50]) - fine.states[::50]).max() <= _SELECT_TOL


@pytest.mark.parametrize("name", ["ref1", "ref2"])
def test_run_from_the_origin_leaves_along_its_tangent(request, name):
    # As W -> 0 all optimized flow goes to the band that reaches +inf, so a
    # run from the origin leaves along the ray q = t v, v_i = a_i S /
    # (S + v mu beta_i) with a the inflow and S = beta . v: on ref1 S solves
    # 1 = 0.6 / (S + 2) + 1.2 / (S + 1), and on ref2 S = 0.6.  From 1e-300
    # e_1 the run reads v at t = 1e-6 (measured within 2e-7 relative), in
    # under 1 s of CPU, and ends where the run from 1e-9 v ends (measured
    # 2.9e-10 and 3.4e-10 apart).
    cfg = request.getfixturevalue(name)
    s = (math.sqrt(5.44) - 1.2) / 2.0
    v = {"ref1": [0.3 * s / (s + 2.0), 1.2 * s / (s + 1.0)], "ref2": [0.075, 0.075, 0.45]}[name]
    q0 = np.zeros(cfg.n_exchanges)
    q0[0] = 1e-300
    start = time.process_time()
    traj = integrate(cfg, q0, 1.0)
    assert time.process_time() - start < 1.0
    assert traj.at([1e-6])[0] / 1e-6 == pytest.approx(v, rel=1e-5)
    along = integrate(cfg, 1e-9 * np.array(v), 1.0)
    assert np.abs(traj.states[-1] - along.states[-1]).max() <= 1e-8


def test_doubling_gap_pairs_node_j_with_fine_node_2j(ref1):
    # On uniform t grids node j of the coarse run is node 2j of the fine one:
    # moving the fine run's odd nodes changes nothing, and moving its node
    # 2j moves the gap there, at the coarse node's time.
    coarse, fine = (
        _integrate_batch(ref1, np.ones((1, 2)), 2.0, k, np.array([0.0]), store_states=True)
        for k in (200, 400)
    )
    gap, first = fluid._doubling_gap(coarse, fine)
    assert 0 < gap and first is None
    odd = fine.states.copy()
    odd[1::2] += 1.0
    assert fluid._doubling_gap(coarse, dataclasses.replace(fine, states=odd)) == (gap, None)
    even = fine.states.copy()
    even[14] += 1e-3
    moved, first = fluid._doubling_gap(coarse, dataclasses.replace(fine, states=even))
    assert abs(moved - 1e-3) < 1e-6 and first == coarse.times[7]


def test_selected_step_semigroup(ref1):
    once = integrate(ref1, [1.0, 1.0], 8.0)
    first = integrate(ref1, [1.0, 1.0], 4.0)
    second = integrate(ref1, first.states[-1], 4.0)
    assert np.abs(second.states[-1] - once.states[-1]).max() < 1e-9


def _count_runs(monkeypatch) -> list:
    """Record the step count of every `_integrate_batch` run, None for a run
    in s, and its largest accepted gap."""
    runs = []
    kernel = fluid._integrate_batch

    def counted(*args, **kwargs):
        res = kernel(*args, **kwargs)
        runs.append((args[3], res.max_gap))
        return res

    monkeypatch.setattr(fluid, "_integrate_batch", counted)
    return runs


def _count_steps(monkeypatch) -> list:
    """Record the RK4 steps taken by each kernel that `fluid._rk4` makes."""
    counts = []
    kernel = fluid._rk4

    def counted(*args, **kwargs):
        made = kernel(*args, **kwargs)
        index = len(counts)
        counts.append(0)

        def counted_step():
            counts[index] += 1
            return made.step()

        return made._replace(step=counted_step)

    monkeypatch.setattr(fluid, "_rk4", counted)
    return counts


def test_refine_checks_the_selected_step(ref1, monkeypatch):
    # Every s step has been checked against two of half its size, so refine
    # runs nothing more and reports the largest gap that accepted a step:
    # the gap itself, up to 15 times the local tolerance, not the error
    # estimate, which is a 15th of it.
    runs = _count_runs(monkeypatch)
    plain = integrate(ref1, [1.0, 1.0], 2.0)
    checked = integrate(ref1, [1.0, 1.0], 2.0, refine=True)
    assert runs == [(None, plain.max_refine_error)] * 2
    assert np.array_equal(plain.states, checked.states) and checked.steps == plain.steps
    scale = max(1.0, np.abs(plain.states).max())
    assert checked.max_refine_error == plain.max_refine_error
    assert fluid._LOCAL_TOL * scale < plain.max_refine_error <= 15 * fluid._LOCAL_TOL * scale


def test_hopeless_start_stops_after_a_bounded_number_of_passes(ref1, monkeypatch):
    # From W0 = 1e-323 the first trial's half step advances t by
    # W h_max / 4 = 2.5e-324, which rounds to 0, and a step that does not
    # advance t is recorded as a floor failure: the run stops after that one
    # trial, its three s steps.
    counts = _count_steps(monkeypatch)
    with pytest.raises(SingularityError, match="^trajectory 0: floor at t=0$"):
        integrate(ref1, [5e-324, 0.0], 1.0)
    assert counts == [3]


def test_selector_refuses_a_grid_beyond_the_cap(ref1, monkeypatch):
    # At T=10 the run takes 442 RK4 steps; with the cap below that, it stops
    # at the cap.  A horizon that steps of at most h_max max(W0, W*) in t
    # (0.5 times 3 here) would cross only in the cap's number of steps or
    # more is refused before any step runs; its kernel only weighs the start.
    counts = _count_steps(monkeypatch)
    monkeypatch.setattr(fluid, "_MAX_GRID", 300)
    message = f"^no s step meets the local tolerance {fluid._LOCAL_TOL:g} in fewer than 300 steps$"
    with pytest.raises(IntegrationError, match=message):
        integrate(ref1, [1.0, 1.0], 10.0)
    assert counts == [300]
    counts.clear()
    with pytest.raises(IntegrationError, match="^horizon: the run would take 300 steps or more$"):
        integrate(ref1, [1.0, 1.0], 0.5 * 3.0 * 300)
    assert counts == [0]


def test_integrate_refine_check(ref1, monkeypatch):
    # A fixed step is checked against twice its step count; the run that
    # comes back is the unchecked one.
    runs = _count_runs(monkeypatch)
    plain = integrate(ref1, [1.0, 1.0], 2.0, dt=0.01)
    traj = integrate(ref1, [1.0, 1.0], 2.0, dt=0.01, refine=True)
    assert runs == [(200, 0.0), (200, 0.0), (400, 0.0)]
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
        for rows in (1, 7):
            q = np.array([random_positive_state(rng, cfg) for _ in range(rows)])
            assert_bitwise(_rhs_batch(cfg, q), unhoisted_rhs(cfg, q))


# The field as one product against the term-by-term expression it replaced
# (`two_cdf_rhs`).  Each rounds an entry a few times, so the two agree to
# within 4 eps times the entry's scale, which bounds its terms' magnitudes:
# b_d lam_i + 2 b_o Lambda + v mu beta_i q_i / W.  The largest gap over 3000
# generated configs (most with an empty band) and 7 states each was 1.75.
@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(config_dicts(n_max=12), st.integers(0, 2**32 - 1))
def test_field_product_is_within_ulps_of_the_term_by_term_field(d, seed):
    cfg = config_from_dict(d)
    gen = np.random.default_rng(seed)
    n = cfg.n_exchanges
    q = gen.uniform(0.0, 5.0, (7, n)) * gen.choice([0.0, 1e-3, 1.0, 1e3], (7, n))
    q[:, 0] += 0.01  # every workload positive
    w = q @ cfg.beta
    scale = (
        cfg.b_dedicated * cfg.lam
        + 2.0 * cfg.b_optimized * cfg.big_lambda
        + (cfg.v * cfg.mu) * cfg.beta * q / w[:, None]
    )
    with np.errstate(over="ignore"):  # the two-cdf form meets an empty band's huge edges
        old = two_cdf_rhs(cfg, q)
    gap = np.abs(_rhs_batch(cfg, q) - old)
    assert np.all(gap <= 4.0 * np.finfo(float).eps * scale)


# The stage products against the step before them (`old_order_rk4_step`):
# stage states, workloads and band edges now round once in a product, so the
# two steps differ by rounding, which the stages amplify by up to about h
# times the field's Lipschitz constant.  With h at most 0.05 or 0.1 times
# both the fastest decay time W / (v mu max(beta)) (in s, 1 / (v mu
# max(beta))) and max|q| / max|f| (f times W in s), each entry stays within
# 4 eps of its scale: |q_i| and the node's |q_i|, plus h times the field's
# term magnitudes b_d lam_i + 2 b_o Lambda + v mu beta_i q_i / W (times W in
# s).  The largest gap over 6000 generated configs, 5 states each, was 1.51
# eps of its scale.
@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(config_dicts(n_max=12), st.integers(0, 2**32 - 1))
def test_stage_products_are_within_ulps_of_the_old_step(d, seed):
    cfg = config_from_dict(d)
    gen = np.random.default_rng(seed)
    q = gen.uniform(0.2, 3.0, (5, cfg.n_exchanges))
    w, rate = q @ cfg.beta, cfg.v * cfg.mu * cfg.beta.max()
    terms = (
        cfg.b_dedicated * cfg.lam
        + 2.0 * cfg.b_optimized * cfg.big_lambda
        + (cfg.v * cfg.mu) * cfg.beta * q / w[:, None]
    )
    for in_s, fraction in ((False, 0.05), (False, 0.1), (True, 0.05), (True, 0.1)):
        per_t = w[:, None] if in_s else 1.0  # dt/ds
        f = np.abs(_rhs_batch(cfg, q)) * per_t
        h = fraction * min((1.0 if in_s else w.min()) / rate, np.abs(q).max() / f.max())
        kernel = fluid._rk4(cfg, len(q), h, in_s=in_s)
        kernel.load(q.T)
        got = kernel.step().T
        old = old_order_rk4_step(cfg, q, h, in_s=in_s)
        scale = np.abs(q) + np.abs(old) + h * terms * per_t
        assert np.all(np.abs(got - old) <= 4.0 * np.finfo(float).eps * scale)


@pytest.mark.parametrize("in_s", [False, True])
def test_a_rows_step_has_the_same_bits_in_every_batch(ref1, ref2, rng, in_s):
    # Numpy hands a product with a single row or column to gemv, whose bits
    # for a row depend on the batch, so the kernel pads its products to two
    # of each; gemm's bits for a column do not depend on the columns beside
    # it.  The configs cover N = 1, 2, 3 and 12 and every type kind.
    one = make_config(n_exchanges=1, beta=[1.5], **{"lambda": [0.3]}, rebates=[1.0], b_dedicated=[1.0])
    half_normal = make_config(type_dist={"kind": "half-normal", "sigma": 1.3})
    tabulated = make_config(
        type_dist={"kind": "tabulated", "gamma": [0.0, 1.0, 3.0], "cdf": [0.0, 0.6, 1.0]}
    )
    cfgs = [ref1, ref2, one, half_normal, tabulated, random_stable_config(rng, n=12)]
    for cfg in cfgs:
        q = np.array([random_positive_state(rng, cfg) for _ in range(200)])
        want, want_fields = None, None
        for rows in (200, 64, 50, 33, 32, 17, 16, 9, 8, 5, 3, 2, 1):
            kernel = fluid._rk4(cfg, rows, 0.05, in_s=in_s)
            kernel.load(q[:rows].T)
            out = kernel.step().copy()
            if want is None:
                want, want_fields = out, kernel.fields.copy()
            assert_bitwise(out, want[:, :rows])
            assert_bitwise(kernel.fields, want_fields[:, :, :rows])


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
    assert res.fail_time[2] == res.times[breach, 2] and np.isnan(res.fail_time[keep]).all()


def test_each_row_of_an_s_batch_ends_at_the_horizon(ref1):
    # The rows share one s step but each carries its own t, and its last
    # node, one step in t, is exactly the horizon: the rows, a slow start
    # near the origin among them, finish at different trials, and the done
    # ones repeat their last node while the others run.  Each ends within
    # the tolerance of its run alone.
    q0s = np.array([[0.5, 0.5], [2.0, 1.0], [5e-4, 5e-4], [0.2, 3.0], [1.0, 0.1]])
    w_star = solve_workload_star(ref1)
    kappas = np.array([compute_kappa(ref1, float(q @ ref1.beta), w_star) for q in q0s])
    res = _integrate_batch(ref1, q0s, 3.0, None, kappas, store_states=True)
    assert not res.failed.any() and np.all(res.times[-1] == 3.0)
    assert np.all(np.diff(res.times, axis=0) >= 0.0)
    ends = [int(np.flatnonzero(res.times[:, r] == 3.0)[0]) for r in range(len(q0s))]
    assert len(set(ends)) > 1
    for r, end in enumerate(ends):
        assert np.all(res.states[end:, r] == res.states[end, r])
        alone = integrate(ref1, q0s[r], 3.0)
        assert np.abs(res.terminal[r] - alone.states[-1]).max() <= _SELECT_TOL


def test_s_batch_freezes_only_the_row_that_breaches_its_floor(ref1):
    # The rows of `test_recorded_floor_breach_freezes_only_that_trajectory`,
    # now in s: row 2 crosses its floor 10.5 on the way down, and the breach
    # is recorded at the time of the first node below it.  The row keeps its
    # last node above the floor, its time included, and the other rows run
    # to the horizon, each within the tolerance of its run alone (they share
    # the step, so not to the bit).
    w_star = solve_equilibrium(ref1).w_star
    others = np.array([[0.5, 0.5], [2.0, 1.0], [0.2, 3.0], [1.0, 0.1]])
    kappas = np.array([compute_kappa(ref1, float(q @ ref1.beta), w_star) for q in others])
    q0s = np.insert(others, 2, [4.0, 4.0], axis=0)
    res = _integrate_batch(ref1, q0s, 4.0, None, np.insert(kappas, 2, 21.0), store_states=True)
    assert res.fail_reason == [None, None, "floor", None, None]
    assert res.failed.tolist() == [False, False, True, False, False]
    keep = [0, 1, 3, 4]
    assert np.all(res.times[-1, keep] == 4.0) and np.isnan(res.fail_time[keep]).all()
    for r in keep:
        alone = integrate(ref1, q0s[r], 4.0)
        assert np.abs(res.terminal[r] - alone.states[-1]).max() <= _SELECT_TOL

    last = int(np.flatnonzero(np.diff(res.times[:, 2]) > 0)[-1]) + 1
    assert last < len(res.times) - 1
    assert np.all(res.states[last:, 2] == res.states[last, 2])
    assert np.all(res.times[last:, 2] == res.times[last, 2])
    assert_bitwise(res.terminal[2], res.states[last, 2])
    assert res.min_workload[2] == res.workload[last, 2] >= 10.5
    free = integrate(ref1, q0s[2], 4.0)
    stop, breach = res.times[last, 2], res.fail_time[2]
    assert stop < breach < 4.0
    assert free.at([stop])[0] @ ref1.beta > 10.5 > free.at([breach])[0] @ ref1.beta


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
    # steps keep every stage's workload positive, the field's domain.  The
    # kernel is made at one step size and resized to the other.  With
    # mu = 5e-324 every band edge is +inf, so the field has no S(W e) row,
    # and a field operand still keeps one W row: its stage-1 workload is
    # beta . q.
    half_normal = make_config(type_dist={"kind": "half-normal", "sigma": 1.3})
    tabulated = make_config(
        type_dist={"kind": "tabulated", "gamma": [0.0, 1.0, 3.0], "cdf": [0.0, 0.6, 1.0]}
    )
    no_edges = make_config(mu=5e-324)
    assert np.all(no_edges.bands.edges == np.inf)
    cfgs = [ref1, half_normal, tabulated, no_edges] + [random_stable_config(rng, n_max=6) for _ in range(4)]
    kinds = {type(cfg.type_dist).__name__ for cfg in cfgs}
    assert kinds == {"ExponentialType", "HalfNormalType", "TabulatedType"}
    for cfg in cfgs:
        kernel = fluid._rk4(cfg, rows, 0.01, in_s=True)
        for h in (0.01, 0.1):
            q = np.array([random_positive_state(rng, cfg) for _ in range(rows)])
            kernel.resize(h)
            kernel.load(q.T)
            out = kernel.step()
            want, want_w = oracle_rk4_step(cfg, q, h, in_s=True)
            assert want_w.min() > 0
            assert want_w[0] == pytest.approx(q @ cfg.beta, rel=4 * np.finfo(float).eps, abs=0.0)
            assert_bitwise(out.T, want)
            assert_bitwise(kernel.fields[:, -1], want_w)


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


# Steps 1 to n of the uniform-t driver run in blocks of `_CHECK_BLOCK`;
# here the last block is a partial one.
_BLOCK = fluid._CHECK_BLOCK
_BLOCK_STEPS = 3 * _BLOCK + _BLOCK // 2


@pytest.mark.parametrize(
    "first_bad",
    [1, _BLOCK + 1, _BLOCK + _BLOCK // 2, 2 * _BLOCK, 3 * _BLOCK + 3],
    ids=["first-step", "block-start", "block-middle", "block-end", "partial-block"],
)
def test_a_floor_breach_replays_its_block_like_the_oracle(first_bad):
    # The pure drain lowers W steadily, and row 0's floor lies halfway
    # between its workloads at steps first_bad - 1 and first_bad, so its
    # first bad step lands at that place of a block; row 1 stays healthy.
    # The driver reruns that block from its start with a check per step:
    # the same record as the oracle, bit for bit, for every type kind.
    q0s, horizon = np.array([[2.0, 2.0], [3.0, 2.0]]), 3.0
    dt = horizon / _BLOCK_STEPS
    for type_dist in _FAILURE_TYPES:
        cfg = make_config(**{"lambda": [0.0, 0.0]}, big_lambda=0.0, beta=[1.0, 1.0], type_dist=type_dist)
        free = oracle_integrate_batch(cfg, q0s[:1], horizon, dt, [0.0], on_error="record").workload[:, 0]
        assert np.all(np.diff(free) < 0)
        kappas = np.array([free[first_bad - 1] + free[first_bad], 1e-12])
        ref = oracle_integrate_batch(cfg, q0s, horizon, dt, kappas, store_states=True, on_error="record")
        assert ref.fail_reason == ["floor", None] and ref.fail_time[0] == ref.times[first_bad, 0]
        for store_states in (True, False):
            res = _integrate_batch(cfg, q0s, horizon, _BLOCK_STEPS, kappas, store_states=store_states)
            _assert_same_batch(res, ref, _NO_STATES + ("states",) * store_states)


@pytest.mark.parametrize(
    "lam, q0, dt, horizon",
    [
        ([0.0, 0.0], [0.0, 4.0], 3.0 / _BLOCK_STEPS, 3.0),
        ([0.5, 0.0], [0.07616857631277527, 1.0], 0.5, 0.5 * _BLOCK_STEPS),
        ([0.0, 0.0], [1.0, 1.0], 3.0 / _BLOCK_STEPS, 3.0),
        ([0.0, 0.0], [1.0, 1.0], 0.5, 3.0),
    ],
    ids=["clip-every-step", "clip-then-negative", "nan-state", "short-run"],
)
def test_a_clipped_or_failed_step_replays_its_block_like_the_oracle(lam, q0, dt, horizon):
    # Each case takes a branch of the per-step checks inside a block, beside
    # a healthy row, with every type kind, bit for bit against the oracle:
    # - "clip-every-step": venue 0 starts and stays at exactly 0, so every
    #   node is clipped at 0 and every block is rerun, with no failure;
    # - "clip-then-negative": step 4's node undershoots to within
    #   `_CLIP_TOL` below 0 and is clipped, and step 5 fails as negative;
    # - "nan-state": W reaches 0 in the third block, failing the row there;
    # - "short-run": the same drain in fewer steps than one block.
    steps = _step_count(horizon, dt)
    q0s, kappas = np.array([q0, [20.0, 20.0]]), np.array([1e-12, 1e-12])
    for type_dist in _FAILURE_TYPES:
        cfg = make_config(**{"lambda": lam}, big_lambda=0.0, beta=[1.0, 1.0], type_dist=type_dist)
        ref = oracle_integrate_batch(cfg, q0s, horizon, dt, kappas, store_states=True, on_error="record")
        assert ref.fail_reason[1] is None
        if q0[0] == 0.0:
            assert not ref.failed.any() and np.all(ref.states[:, 0, 0] == 0.0)
        else:
            assert ref.failed[0]
        if q0[0] == 0.07616857631277527:
            with np.errstate(divide="ignore", invalid="ignore"):
                low = oracle_rk4_step(cfg, ref.states[3], dt)[0].min()
            assert -fluid._CLIP_TOL <= low < 0.0 and ref.fail_time[0] == ref.times[5, 0]
        if horizon / dt < _BLOCK:
            assert steps < _BLOCK
        for store_states in (True, False):
            res = _integrate_batch(cfg, q0s, horizon, steps, kappas, store_states=store_states)
            _assert_same_batch(res, ref, _NO_STATES + ("states",) * store_states)


@pytest.mark.parametrize("store_states", [False, True])
def test_the_check_block_changes_only_the_cost(ref1, ref2, rng, monkeypatch, store_states):
    # Any block length gives the same bits: one step per block, an odd
    # length that leaves a partial block, and one block past the whole grid.
    # The last row starts high and breaches its floor halfway, so its block
    # runs again and the rest of the run is checked step by step.  With N = 1
    # the kernel pads its states with a row of ones, which `load` and `weigh`
    # must treat alike.
    steps = _step_count(3.0, 0.02)
    cfgs = [ref1, ref2, random_stable_config(rng, n=1)] + [random_stable_config(rng, n_max=8) for _ in range(3)]
    for cfg in cfgs:
        w_star = solve_workload_star(cfg)
        q0s = np.array([random_positive_state(rng, cfg) for _ in range(5)])
        kappas = np.array([compute_kappa(cfg, float(q @ cfg.beta), w_star) for q in q0s])
        q0s[-1] = 4.0 * w_star / cfg.beta.sum()
        free = _integrate_batch(cfg, q0s[-1:], 3.0, steps, [0.0]).workload[:, 0]
        kappas[-1] = free[steps // 2] + free[steps // 2 + 1]  # floor = their mean
        runs = []
        for block in (_BLOCK, 1, 7, steps + 1):
            monkeypatch.setattr(fluid, "_CHECK_BLOCK", block)
            runs.append(_integrate_batch(cfg, q0s, 3.0, steps, kappas, store_states=store_states))
        assert runs[0].fail_reason == [None] * 4 + ["floor"]
        for res in runs[1:]:
            _assert_same_batch(res, runs[0], _NO_STATES + ("states",) * store_states)


def test_a_row_below_another_rows_floor_runs_no_block_twice(ref1, monkeypatch):
    # Row 0 starts near the origin, its workload far below row 1's floor, and
    # neither row breaches its own floor.  The per-step check takes no branch
    # there, so the block check, row by row, passes every block: the kernel
    # is loaded once, at the start, and the record is the oracle's.
    kernel, loads = fluid._rk4, []

    def counted(*args):
        built = kernel(*args)

        def load(states):
            loads.append(1)
            built.load(states)

        return built._replace(load=load)

    monkeypatch.setattr(fluid, "_rk4", counted)
    q0s, horizon, dt = np.array([[0.05, 0.05], [8.0, 8.0]]), 3.0, 0.02
    kappas = np.array([1e-4, 2.0])
    ref = oracle_integrate_batch(ref1, q0s, horizon, dt, kappas, store_states=True, on_error="record")
    assert not ref.failed.any() and ref.workload[0, 0] < fluid._FLOOR_FACTOR * kappas[1]
    res = _integrate_batch(ref1, q0s, horizon, _step_count(horizon, dt), kappas, store_states=True)
    _assert_same_batch(res, ref)
    assert len(loads) == 1


@pytest.mark.parametrize("type_dist", _FAILURE_TYPES, ids=lambda d: d["kind"])
def test_a_stage_at_nonpositive_workload_takes_the_cdf_at_zero(type_dist):
    # From near the origin the venue split relaxes at a rate of about
    # v mu beta_i / W = 1e3, so a step of 0.5 overshoots and later stages
    # reach W <= 0; there the type's `scaled_cdf` clamps, and every band
    # entry of the field operand is S(0), as `signed_cdf` gives it.
    cfg = make_config(type_dist=type_dist)
    q = np.array([[1e-3, 0.0], [2e-3, 1e-3], [1.0, 1.0]])
    kernel = fluid._rk4(cfg, len(q), 0.5)
    kernel.load(q.T)
    with np.errstate(divide="ignore", invalid="ignore"):
        kernel.step()
    n_edges = len(cfg.kept(routing._fractions)[0])
    stage_w, bands = kernel.fields[:, -1], kernel.fields[:, 1:1 + n_edges]
    low = stage_w <= 0.0
    assert low.any() and not low[:, 2].any()
    at_zero = cfg.type_dist.signed_cdf(np.zeros(n_edges))
    for j, r in zip(*np.nonzero(low)):
        assert_bitwise(bands[j, :, r], at_zero)
    assert np.all(kernel.fields[:, 0] == cfg.type_dist.cdf_sign)


@pytest.mark.parametrize("in_s", [False, True])
def test_a_nan_band_edge_makes_the_whole_step_nan(in_s):
    # The config of `test_a_nan_band_edge_makes_every_fraction_nan`: its NaN
    # lower edge reaches every entry of the stage products.
    cfg = make_config(beta=[1.0, 3.0], mu=5e-324, rebates=[1e308, 0.0], rebate0=-1e308)
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isnan(cfg.bands.edges[0])
        kernel = fluid._rk4(cfg, 2, 0.1, in_s=in_s)
        kernel.load(np.ones((2, 2)))
        assert np.isnan(kernel.step()).all()


@pytest.mark.parametrize("n_steps", [_step_count(3.0, 0.05), None])
def test_a_nodes_workload_is_its_next_stage_one_workload(ref1, ref2, rng, n_steps):
    # Each recorded workload is the stage-1 workload of a step from that node,
    # bit for bit, in a batch of any size: `_integrate_batch` weighs each node
    # with the kernel's stage-1 product, in t and in s, the halves, the nodes
    # that finish at the horizon and the frozen rows included.
    for cfg in (ref1, ref2):
        q0s = np.array([random_positive_state(rng, cfg) for _ in range(5)])
        q0s[0] = 5e-4  # a slow start: its row finishes last in s
        kappas = np.full(len(q0s), 1e-3)
        kappas[1] = 2.0 * float(q0s[1] @ cfg.beta)  # frozen at its start
        res = _integrate_batch(cfg, q0s, 3.0, n_steps, kappas, store_states=True)
        assert res.fail_reason[1] == "floor" and not res.failed[[0, 2, 3, 4]].any()
        for rows in (1, len(q0s)):
            kernel = fluid._rk4(cfg, rows, 0.1)
            for states, want in zip(res.states, res.workload):
                kernel.load(states[:rows].T)
                assert_bitwise(kernel.fields[0, -1], want[:rows])


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
