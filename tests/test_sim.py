import math
from dataclasses import replace

import numpy as np
import pytest

from fluidlob import (
    FluidTrajectory,
    IntegratorConfig,
    ParameterError,
    SimConfig,
    SimPath,
    integrate,
    replicate,
    simulate,
    solve_workload_star,
    sup_distance,
)
from fluidlob import sim
from fluidlob.model import compute_kappa

from helpers import make_config


Q0 = np.array([1.0, 1.0])


def _sim(**kw):
    base = dict(n=50, horizon=5.0, sample_dt=0.25, seed=42, q0_scaled=Q0)
    base.update(kw)
    return SimConfig(**base)


def test_zero_horizon_single_sample(ref1):
    path = simulate(ref1, _sim(horizon=0.0, q0_scaled=np.array([1.0, 2.0])))
    assert len(path.times) == 1 and path.times[0] == 0.0
    assert path.q_scaled[0] == pytest.approx([1.0, 2.0])


def test_determinism(ref1):
    a = simulate(ref1, _sim())
    b = simulate(ref1, _sim())
    assert np.array_equal(a.q_scaled, b.q_scaled)
    assert np.array_equal(a.served, b.served)
    assert a.rng_fingerprint == b.rng_fingerprint
    c = simulate(ref1, _sim(seed=43))
    assert not np.array_equal(a.q_scaled, c.q_scaled)


def test_pure_service_nonincreasing():
    cfg = make_config(**{"lambda": [0.0, 0.0]}, big_lambda=0.0)
    for seed in range(100):
        path = simulate(cfg, _sim(n=30, horizon=10.0, seed=seed))
        assert np.all(np.diff(path.q_scaled, axis=0) <= 1e-15)


def test_bookkeeping_identity_exact(ref1):
    # All series are integers divided by n, so rounding recovers them exactly
    # and the identity holds in integer arithmetic at every grid point.
    path = simulate(ref1, _sim(n=73, horizon=8.0, sample_dt=0.2))
    n = path.n
    q0 = np.rint(Q0 * n)
    lhs = np.rint(path.q_scaled * n)
    rhs = (
        q0
        + np.rint(path.arrivals_dedicated * n)
        + np.rint(path.arrivals_optimized * n)
        - np.rint(path.served * n)
    )
    assert np.array_equal(lhs, rhs)
    assert np.all(path.q_scaled >= 0)
    assert np.all(np.diff(path.routed_zero) >= 0)


def test_served_bounded_by_supply(ref1):
    path = simulate(ref1, _sim(n=60, horizon=10.0))
    n = path.n
    q0 = np.rint(Q0 * n)
    supply = q0 + np.rint(path.arrivals_dedicated * n) + np.rint(path.arrivals_optimized * n)
    assert np.all(np.rint(path.served * n) <= supply)


def test_dedicated_event_rate(ref1):
    # Mean scaled dedicated volume over replications matches lam_i * T * b
    # within three Monte Carlo standard errors.
    n, horizon, reps = 200, 5.0, 40
    totals = np.zeros((reps, 2))
    for r in range(reps):
        path = simulate(ref1, _sim(n=n, horizon=horizon, seed=900 + r))
        totals[r] = path.arrivals_dedicated[-1]
    want = ref1.lam * horizon  # unit sizes
    se = np.sqrt(ref1.lam * horizon / n) / math.sqrt(reps)
    assert np.all(np.abs(totals.mean(axis=0) - want) <= 3 * se)


def test_routed_zero_accumulates(ref1):
    path = simulate(ref1, _sim(n=200, horizon=10.0))
    assert path.routed_zero[-1] > 0


def test_truncation_coupling(ref1):
    kappa = compute_kappa(ref1, float(ref1.beta @ Q0), solve_workload_star(ref1))
    eps = kappa / 2
    for seed in range(30):
        plain = simulate(ref1, _sim(n=40, horizon=4.0, sample_dt=0.1, seed=seed))
        trunc = simulate(ref1, _sim(n=40, horizon=4.0, sample_dt=0.1, seed=seed, epsilon=eps))
        if plain.min_workload >= eps:
            assert np.array_equal(plain.q_scaled, trunc.q_scaled)
            assert np.array_equal(plain.served, trunc.served)
            assert plain.rng_fingerprint == trunc.rng_fingerprint


def test_sup_distance_exact_match(ref1):
    traj = integrate(ref1, Q0, 2.0, IntegratorConfig(dt=0.01))
    idx = np.arange(0, len(traj.times), 20)
    path = SimPath(
        times=traj.times[idx],
        q_scaled=traj.states[idx],
        arrivals_dedicated=np.zeros_like(traj.states[idx]),
        arrivals_optimized=np.zeros_like(traj.states[idx]),
        served=np.zeros_like(traj.states[idx]),
        routed_zero=np.zeros(len(idx)),
        min_workload=float(traj.min_workload),
        rng_fingerprint="",
        n=1,
        seed=0,
    )
    assert sup_distance(path, traj) == pytest.approx(0.0, abs=1e-12)


def test_sup_distance_constant_paths():
    times = np.linspace(0.0, 1.0, 5)
    path = SimPath(
        times=times,
        q_scaled=np.tile([1.0, 1.0], (5, 1)),
        arrivals_dedicated=np.zeros((5, 2)),
        arrivals_optimized=np.zeros((5, 2)),
        served=np.zeros((5, 2)),
        routed_zero=np.zeros(5),
        min_workload=1.0,
        rng_fingerprint="",
        n=1,
        seed=0,
    )
    traj = FluidTrajectory(
        times=times,
        states=np.tile([1.0, 2.0], (5, 1)),
        workload=np.full(5, 4.0),
        min_workload=4.0,
        kappa=1.0,
        steps=4,
        dt=0.25,
        pilot_steps=0,
        max_refine_error=0.0,
    )
    assert sup_distance(path, traj) == pytest.approx(1.0)


def test_sup_distance_horizon_mismatch(ref1):
    traj = integrate(ref1, Q0, 2.0, IntegratorConfig(dt=0.01))
    path = simulate(ref1, _sim(horizon=3.0))
    with pytest.raises(ValueError):
        sup_distance(path, traj)


def test_replicate_single_rep_matches_direct_run(ref1):
    template = _sim(n=30, horizon=3.0, sample_dt=0.1, seed=5)
    table = replicate(ref1, template, [30], 1)
    traj = integrate(ref1, Q0, 3.0)
    direct = sup_distance(simulate(ref1, replace(template, seed=5)), traj)
    assert table.rows == ((30, 0, pytest.approx(direct)),)
    assert table.median(30) == pytest.approx(direct)


@pytest.mark.parametrize("horizon", [1.0, 3.0, 10.0])
def test_replicate_reference_holds_every_sample_time(ref1, monkeypatch, horizon):
    # At the CLI's default sample step, horizon/200, every sample time is a
    # node of the fluid reference; a finer sample grid gets a finer reference.
    refs = []

    def recorded(*args, **kwargs):
        refs.append(integrate(*args, **kwargs))
        return refs[-1]

    monkeypatch.setattr(sim, "integrate", recorded)
    for sample_dt in (horizon / 200, horizon / 1000):
        template = _sim(n=20, horizon=horizon, sample_dt=sample_dt, seed=3)
        replicate(ref1, template, [20], 1)
        times = simulate(ref1, template).times
        assert refs[-1].steps >= len(times) - 1
        assert np.isin(times, refs[-1].times).all()


def test_replicate_median_decreases(ref1):
    template = _sim(n=20, horizon=3.0, sample_dt=0.1, seed=77)
    table = replicate(ref1, template, [20, 500], 6)
    assert table.median(20) > table.median(500)
    assert len(table.rows) == 12


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(n=0, horizon=1.0, sample_dt=0.1, seed=1, q0_scaled=Q0)
    with pytest.raises(ValueError):
        SimConfig(n=10, horizon=1.0, sample_dt=2.0, seed=1, q0_scaled=Q0)
    with pytest.raises(ValueError):
        SimConfig(n=10, horizon=1.0, sample_dt=0.1, seed=1, q0_scaled=Q0, epsilon=-1.0)
    with pytest.raises(ValueError):
        SimConfig(n=10, horizon=1.0, sample_dt=0.1, seed=1, q0_scaled=np.array([-1.0, 1.0]))
    with pytest.raises(ValueError):
        SimConfig(n=10, horizon=1.0, sample_dt=0.1, seed=1, q0_scaled=np.array([0.0, 0.0]))


@pytest.mark.parametrize("entries", [2, 5])
def test_simulate_rejects_q0_of_the_wrong_length(ref2, entries):
    run = _sim(q0_scaled=np.ones(entries), horizon=1.0)
    with pytest.raises(ParameterError, match=f"^q0_scaled: expected 3 entries, got {entries}$"):
        simulate(ref2, run)
