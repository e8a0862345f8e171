import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fluidlob import (
    FluidTrajectory,
    ParameterError,
    SimConfig,
    SimCounters,
    SimPath,
    global_stability_experiment,
    integrate,
    local_stability_experiment,
    replicate,
    simulate,
    solve_equilibrium,
    solve_workload_star,
    sup_distance,
)
from fluidlob import load_config, sim
from fluidlob.fluid import _SELECT_TOL
from fluidlob.model import compute_kappa

from helpers import FIXTURES, make_config, oracle_simulate, random_valid_config, ref1_dict


Q0 = np.array([1.0, 1.0])
NO_EVENTS = SimCounters(
    dedicated=(0, 0), optimized=0, candidates=0, accepted=0, truncated=0, routed=(0, 0), routed_zero=0
)


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


def _size_law(mean: int):
    """A geometric or a two-point tabulated size law with the given mean."""
    geometric = st.just({"kind": "geometric", "p": 1.0 / mean})
    tabulated = st.integers(1, mean).map(
        lambda low: {"kind": "tabulated", "values": [low, 2 * mean - low], "probs": [0.5, 0.5]}
    )
    return st.one_of(geometric, tabulated)


@st.composite
def _sized_runs(draw):
    """A small config whose every size law is geometric or tabulated, and a
    short run of it."""
    n = draw(st.integers(1, 3))

    def floats(lo, hi):
        return draw(st.lists(st.floats(lo, hi), min_size=n, max_size=n))

    v = draw(st.integers(1, 3))
    b_dedicated = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    b_optimized = draw(st.integers(1, 3))
    cfg = make_config(**{
        **ref1_dict(),
        "n_exchanges": n,
        "beta": floats(0.5, 2.0),
        "lambda": floats(0.0, 0.5),
        "big_lambda": draw(st.floats(0.0, 1.5)),
        "mu": draw(st.floats(0.5, 2.0)),
        "rebates": [float(r) for r in draw(st.permutations(range(1, n + 1)))],
        "v": float(v),
        "b_dedicated": [float(b) for b in b_dedicated],
        "b_optimized": float(b_optimized),
        "size_dists": {
            "market": [draw(_size_law(v)) for _ in range(n)],
            "dedicated": [draw(_size_law(b)) for b in b_dedicated],
            "optimized": draw(_size_law(b_optimized)),
        },
    })
    horizon = draw(st.floats(0.0, 2.0, allow_subnormal=False))
    q0 = floats(0.0, 2.0)
    q0[draw(st.integers(0, n - 1))] += 0.5
    run = SimConfig(
        n=draw(st.integers(1, 30)),
        horizon=horizon,
        sample_dt=horizon / draw(st.integers(1, 20)) if horizon > 0 else 1.0,
        seed=draw(st.integers(0, 2**32 - 1)),
        q0_scaled=q0,
        epsilon=draw(st.sampled_from([0.0, 0.1])),
    )
    return cfg, run


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(_sized_runs())
def test_bookkeeping_identity_under_random_size_laws(case):
    # Q = Q0 + A_d + A_o - D in integer counts on every row, with the
    # series exact multiples of 1/n.
    cfg, run = case
    path = simulate(cfg, run)
    n = path.n
    counts = {}
    for name in ("q_scaled", "arrivals_dedicated", "arrivals_optimized", "served"):
        scaled = getattr(path, name) * n
        counts[name] = np.rint(scaled)
        assert np.abs(scaled - counts[name]).max() < 1e-6
    q0 = np.rint(run.q0_scaled * n)
    assert np.array_equal(
        counts["q_scaled"],
        q0 + counts["arrivals_dedicated"] + counts["arrivals_optimized"] - counts["served"],
    )
    assert np.all(counts["q_scaled"] >= 0)


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


def test_subnormal_rate_draws_no_events_and_no_warning():
    # n * 5e-324 is subnormal and its inverse overflows: the stream's scale
    # is inf, so it has no events, and the division warns of nothing.
    cfg = make_config(**{"lambda": [5e-324, 0.2]})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        path = simulate(cfg, _sim(n=2000, horizon=1.0, sample_dt=0.01, seed=1))
    assert not path.arrivals_dedicated[:, 0].any()
    assert path.arrivals_dedicated[-1, 1] > 0
    assert path.rng_fingerprint == (
        "549a6232b860e5a9fdd5dc14d3a7df770a2b7c360046b31e8e254c5cd493d6f4"
    )


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
    traj = integrate(ref1, Q0, 2.0, dt=0.01)
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
        counters=NO_EVENTS,
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
        counters=NO_EVENTS,
    )
    traj = FluidTrajectory(
        times=times,
        states=np.tile([1.0, 2.0], (5, 1)),
        drift=np.zeros((5, 2)),
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
    # The tolerance is relative: tiny horizons that differ by a factor fail.
    for traj_horizon, path_horizon in ((2.0, 3.0), (3e-10, 1e-10), (2e-300, 1e-300)):
        traj = integrate(ref1, Q0, traj_horizon)
        path = simulate(ref1, _sim(horizon=path_horizon, sample_dt=path_horizon))
        with pytest.raises(ValueError, match="^path and trajectory horizons differ$"):
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
    # The selected fluid reference steps uniformly in s, so the sample times
    # (the CLI's default step, horizon/200) fall between its nodes; read
    # there, it is within the selector's tolerance of a fine uniform run.
    refs = []

    def recorded(*args, **kwargs):
        refs.append(integrate(*args, **kwargs))
        return refs[-1]

    monkeypatch.setattr(sim, "integrate", recorded)
    template = _sim(n=20, horizon=horizon, sample_dt=horizon / 200, seed=3)
    replicate(ref1, template, [20], 1)
    times = simulate(ref1, template).times
    fine = integrate(ref1, Q0, horizon, dt=horizon / 4000)
    assert np.abs(refs[-1].at(times) - fine.at(times)).max() <= _SELECT_TOL


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
    for q0 in ([math.inf, 1.0], [math.nan, 1.0], [1.0, -math.inf]):
        with pytest.raises(ParameterError, match="^q0_scaled: entries must be finite$"):
            SimConfig(n=10, horizon=1.0, sample_dt=0.1, seed=1, q0_scaled=np.array(q0))
    # Counts n * q0_scaled must stay below 2**53, where float64 is still exact;
    # one that overflows is past the bound, without a numpy warning.
    for n, q0 in ((10, [1e300, 1.0]), (10, [1e308, 1.0]), (2, [2.0**52, 1.0]), (2**53, [1.0, 0.0])):
        with pytest.raises(ParameterError, match=r"^q0_scaled: n \* q0_scaled must be below 2\*\*53"):
            SimConfig(n=n, horizon=1.0, sample_dt=0.1, seed=1, q0_scaled=np.array(q0))
    SimConfig(n=2, horizon=1.0, sample_dt=0.1, seed=1, q0_scaled=np.array([2.0**52 - 1, 1.0]))


def _local(cfg, directions=2, seed=0):
    return local_stability_experiment(cfg, solve_equilibrium(cfg), [0.1], 1.0, directions, seed=seed)


@pytest.mark.parametrize(
    "call, key",
    [
        (lambda ref1, ref2: _sim(n=math.nan), "n"),
        (lambda ref1, ref2: _sim(n=math.inf), "n"),
        (lambda ref1, ref2: _sim(seed=2.5), "seed"),
        (lambda ref1, ref2: replicate(ref1, _sim(), [2.5, 20], 1), "n"),
        (lambda ref1, ref2: replicate(ref1, _sim(), [20], 1.5), "reps"),
        (lambda ref1, ref2: _local(ref1, directions=2.5), "directions"),
        (lambda ref1, ref2: _local(ref1, seed=1.5), "seed"),
        (lambda ref1, ref2: global_stability_experiment(ref2, 1.5, 5.0, 1.0, 0), "n_inits"),
        (lambda ref1, ref2: global_stability_experiment(ref2, 2, 5.0, 1.0, 1.5), "seed"),
    ],
)
def test_integer_parameters_name_their_key(ref1, ref2, call, key):
    with pytest.raises(ParameterError, match=f"^{key}: "):
        call(ref1, ref2)


def test_integer_valued_parameters_become_ints(ref1, ref2):
    run = _sim(n=50.0, seed=-3.0)
    assert (run.n, run.seed) == (50, -3) and type(run.n) is type(run.seed) is int
    table = replicate(ref1, _sim(n=20, horizon=1.0, sample_dt=0.5), [20.0], 2.0)
    assert [row[:2] for row in table.rows] == [(20, 0), (20, 1)]
    assert _local(ref1, directions=2.0, seed=3.0).seed == 3
    report = global_stability_experiment(ref2, 2.0, 5.0, 1.0, 4.0, dt=0.1)
    assert len(report.trials) == 2 and report.seed == 4


@pytest.mark.parametrize("entries", [2, 5])
def test_simulate_rejects_q0_of_the_wrong_length(ref2, entries):
    run = _sim(q0_scaled=np.ones(entries), horizon=1.0)
    with pytest.raises(ParameterError, match=f"^q0_scaled: expected 3 entries, got {entries}$"):
        simulate(ref2, run)


# ---------------------------------------------------------------------------
# The precomputed schedule against the event-loop oracle
# ---------------------------------------------------------------------------

_GEOMETRIC = {"kind": "geometric", "p": 0.5}
_TABULATED = {"kind": "tabulated", "values": [1, 3], "probs": [0.5, 0.5]}
# Tabulated types; geometric and tabulated sizes with means b = v = 2.
_MIXED = dict(
    type_dist={"kind": "tabulated", "gamma": [0.0, 1.0, 3.0], "cdf": [0.0, 0.6, 1.0]},
    v=2.0,
    b_dedicated=[2.0, 2.0],
    b_optimized=2.0,
    size_dists={
        "market": [_GEOMETRIC, _TABULATED],
        "dedicated": [_TABULATED, _GEOMETRIC],
        "optimized": _GEOMETRIC,
    },
)


def _case_config(name):
    if name in ("ref1", "ref2"):
        return load_config(FIXTURES / f"{name}.json")
    if name == "mixed":
        return make_config(**_MIXED)
    if name == "no-dedicated-1":
        return make_config(**{"lambda": [0.0, 0.2]})
    if name == "no-arrivals":
        return make_config(**{"lambda": [0.0, 0.0]}, big_lambda=0.0)
    kind, seed = name.rsplit("-", 1)
    return random_valid_config(np.random.default_rng(int(seed)), kinds=(kind,))


# (config, n, horizon, sample_dt, epsilon, q0 per venue); q0 None is all ones.
ORACLE_CASES = {
    "ref1": ("ref1", 2000, 2.0, 0.01, 0.0, None),
    "ref2": ("ref2", 200, 1.0, 0.005, 0.0, None),
    "tabulated types, geometric and tabulated sizes": ("mixed", 500, 2.0, 0.01, 0.0, None),
    "exponential types": ("exponential-3", 300, 2.0, 0.02, 0.0, None),
    "half-normal types": ("half-normal-4", 300, 2.0, 0.02, 0.0, None),
    "epsilon truncation": ("ref1", 400, 3.0, 0.03, 2.9, None),
    "queues that empty": ("ref1", 10, 2.0, 0.01, 0.0, 0.1),
    "zero-rate dedicated stream": ("no-dedicated-1", 300, 2.0, 0.02, 0.0, None),
    "service only": ("no-arrivals", 300, 2.0, 0.02, 0.0, None),
    "zero horizon": ("ref2", 100, 0.0, 1.0, 0.0, None),
    "block boundary": ("ref1", 5000, 2.0, 0.01, 0.0, None),
}


def _oracle_run(case, seed):
    name, n, horizon, sample_dt, eps, q0 = ORACLE_CASES[case]
    cfg = _case_config(name)
    q0 = np.ones(cfg.n_exchanges) if q0 is None else np.full(cfg.n_exchanges, q0)
    run = SimConfig(n=n, horizon=horizon, sample_dt=sample_dt, seed=seed, q0_scaled=q0, epsilon=eps)
    return cfg, run, simulate(cfg, run), oracle_simulate(cfg, run)


def _assert_is_the_oracle(path, want) -> None:
    for key, value in want.items():
        if key == "counts":
            continue
        got = getattr(path, key)
        if isinstance(value, np.ndarray):
            assert got.dtype == value.dtype and got.shape == value.shape, key
            assert got.tobytes() == value.tobytes(), key
        else:
            assert got == value, key


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("case", list(ORACLE_CASES))
def test_simulate_is_bitwise_the_event_loop_oracle(case, seed):
    _, _, path, want = _oracle_run(case, seed)
    _assert_is_the_oracle(path, want)


@pytest.mark.parametrize(
    "case",
    ["ref2", "tabulated types, geometric and tabulated sizes", "half-normal types",
     "epsilon truncation", "queues that empty"],
)
def test_first_block_size_changes_no_draw(case, monkeypatch):
    # A stream's first block is sized from its expected draws; the samplers
    # give the same values whatever the block split.  With first blocks of 5
    # the busier streams refill mid-run, and path and fingerprint are still
    # the oracle's (whose blocks all hold 4096).
    assert sim._first_block(0.0) == 16 and sim._first_block(1e9) == sim._BLOCK
    monkeypatch.setattr(sim, "_first_block", lambda mean: 5)
    _, _, path, want = _oracle_run(case, 3)
    assert sum(count > 5 for count in want["counts"].values()) >= 3
    _assert_is_the_oracle(path, want)


def test_oracle_cases_reach_their_edge(ref1):
    # Each edge case does what its name says, so the bitwise test covers it.
    counts = {case: _oracle_run(case, 3)[3]["counts"] for case in ORACLE_CASES}
    assert counts["block boundary"]["mkt-times"] > 2 * sim._BLOCK
    assert counts["block boundary"]["opt-types"] > sim._BLOCK
    assert counts["zero-rate dedicated stream"]["ded-times-0"] == 0
    assert counts["zero horizon"]["mkt-accept"] == 0
    assert counts["service only"]["opt-times"] == 0
    # Candidates met with every queue empty are rejected: the clock is suspended.
    empty = _oracle_run("queues that empty", 3)[2]
    assert np.any(empty.q_scaled.sum(axis=1) == 0)
    assert empty.counters.accepted < empty.counters.candidates
    assert _oracle_run("epsilon truncation", 3)[2].counters.truncated > 0


@pytest.mark.parametrize("case", list(ORACLE_CASES))
def test_counters_equal_the_stream_counts(case):
    cfg, run, path, want = _oracle_run(case, 3)
    counts = want["counts"]
    c = path.counters
    n_venues = cfg.n_exchanges
    for i in range(n_venues):
        present = cfg.lam[i] > 0
        assert counts[f"ded-times-{i}"] == (c.dedicated[i] + 1 if present else 0)
        assert counts[f"ded-sizes-{i}"] == c.dedicated[i]
    assert counts["opt-times"] == (c.optimized + 1 if cfg.big_lambda > 0 else 0)
    assert counts["opt-types"] == counts["opt-sizes"] == c.optimized
    assert counts["mkt-times"] - 1 == counts["mkt-accept"] == c.candidates
    assert counts["mkt-venue"] == sum(counts[f"mkt-sizes-{i}"] for i in range(n_venues))
    assert counts["mkt-venue"] == c.accepted
    assert sum(c.routed) + c.routed_zero == c.optimized
    if run.epsilon > 0:
        # Only a probability below 1 can reject a candidate.
        assert c.candidates - c.accepted <= c.truncated <= c.candidates
    else:
        assert c.truncated == 0


@pytest.mark.parametrize("case", ["ref1", "ref2", "epsilon truncation", "queues that empty"])
def test_counters_count_orders_at_unit_sizes(case):
    _, run, path, _ = _oracle_run(case, 5)
    c = path.counters
    n = run.n
    assert np.array_equal(np.rint(path.arrivals_dedicated[-1] * n), c.dedicated)
    assert np.array_equal(np.rint(path.arrivals_optimized[-1] * n), c.routed)
    assert round(path.routed_zero[-1] * n) == c.routed_zero
    # Every accepted candidate serves one unit from a nonempty queue.
    assert round(path.served[-1].sum() * n) == c.accepted


class _HandClock(sim._Clock):
    """A clock whose blocks of event times are given; each event's float
    mark is its index in the stream."""

    def __init__(self, code, blocks):
        super().__init__(0, f"hand-{code}", 1.0, code, self._marks, sim._BLOCK)
        self._blocks = [np.array(b, dtype=float) for b in blocks]

    def _marks(self, m):
        start = self.events - m
        return np.arange(start, start + m, dtype=float), np.zeros(m, dtype=np.int64)

    def refill(self):
        self.pending = self._blocks.pop(0)
        self.last = float(self.pending[-1])


def test_schedule_breaks_ties_market_then_dedicated_then_optimized():
    # Equal times within and across streams, and across a block boundary:
    # the market stream's first block ends at 2 and its second starts at 2.
    clocks = [
        _HandClock(0, [[1, 2], [2, 6]]),
        _HandClock(1, [[2, 3, 7]]),
        _HandClock(2, [[2, 2, 9]]),
        _HandClock(3, [[1, 2], [4, 8]]),
    ]
    windows = list(sim._schedule(clocks, 5.0))
    got = [
        (t, code, int(index))
        for times, codes, floats, _, _ in windows
        for t, code, index in zip(times.tolist(), codes.tolist(), floats.tolist())
    ]
    assert got == [
        (1.0, 0, 0), (1.0, 3, 0),
        (2.0, 0, 1), (2.0, 0, 2), (2.0, 1, 0), (2.0, 2, 0), (2.0, 2, 1), (2.0, 3, 1),
        (3.0, 1, 1), (4.0, 3, 2),
    ]
    # A window's limit bounds every earlier event and no later one.
    assert len(windows) > 1 and windows[-1][4] == math.inf
    for k, (_, _, _, _, limit) in enumerate(windows):
        assert all(t <= limit for w in windows[: k + 1] for t in w[0])
        assert all(t >= limit for w in windows[k + 1 :] for t in w[0])
    assert [c.events for c in clocks] == [3, 2, 2, 3]


def test_schedule_windows_stay_within_a_block_per_stream(ref1):
    # The merge never holds the whole event list: a long run is cut into
    # windows of at most one block per time stream.
    run = SimConfig(n=20000, horizon=2.0, sample_dt=0.01, seed=1, q0_scaled=Q0)
    path = simulate(ref1, run)
    c = path.counters
    total = sum(c.dedicated) + c.optimized + c.candidates
    clocks = [
        sim._Clock(
            1, name, rate, code, lambda m: (np.zeros(m), np.zeros(m, dtype=np.int64)), sim._BLOCK
        )
        for code, (name, rate) in enumerate(
            [("mkt-times", 20000 * ref1.mu), ("ded-times-0", 20000 * ref1.lam[0]),
             ("ded-times-1", 20000 * ref1.lam[1]), ("opt-times", 20000 * ref1.big_lambda)]
        )
    ]
    sizes = [len(w[0]) for w in sim._schedule(clocks, 2.0)]
    assert sum(sizes) == total > 10 * sim._BLOCK
    assert max(sizes) <= len(clocks) * sim._BLOCK
