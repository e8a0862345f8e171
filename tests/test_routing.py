import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fluidlob import (
    QueueState,
    chi,
    chi_derivative,
    compute_bands,
    compute_kappa,
    config_from_dict,
    det_shifted,
    route,
    solve_workload_star,
)

from fluidlob.routing import _band_chi, _router

from helpers import (
    FIXTURES,
    assert_bitwise,
    brute_force_route,
    config_dicts,
    make_config,
    numpy_route,
    random_stable_config,
    random_valid_config,
    ref1_dict,
    two_cdf_band_chi,
)


# ---------------------------------------------------------------------------
# route
# ---------------------------------------------------------------------------

def test_route_examples(ref1):
    state = QueueState.of(ref1, [0.5, 1.0])  # workload 2
    assert route(ref1, 0.6, state) == 1
    assert route(ref1, 1.5, state) == 2
    assert route(ref1, 0.3, state) == 0


def test_route_rejects_zero_workload(ref1):
    with pytest.raises(ValueError):
        route(ref1, 1.0, QueueState.of(ref1, [0.0, 0.0]))


def test_route_oracle_equivalence(ref1, ref2, rng):
    for cfg in (ref1, ref2):
        for _ in range(2000):
            q = rng.uniform(0.05, 4.0, cfg.n_exchanges)
            gamma = float(cfg.type_dist.sample(rng, 1)[0]) + 1e-12
            state = QueueState.of(cfg, q)
            assert route(cfg, gamma, state) == brute_force_route(cfg, gamma, q)


def test_plain_float_router_matches_numpy_argmax(ref1, ref2, rng):
    # Integer queue states as the simulator holds them (empty queues and the
    # all-empty state included), delays on the 1/n scale.
    cfgs = [ref1, ref2] + [random_stable_config(rng, n_max=6) for _ in range(12)]
    n = 50
    for cfg in cfgs:
        pick = _router(cfg)
        top = 1 + int(np.argmax(cfg.rebates))
        for _ in range(300):
            queues = rng.integers(0, 6, cfg.n_exchanges)
            queues[rng.random(cfg.n_exchanges) < 0.3] = 0
            gamma = float(cfg.type_dist.sample(rng, 1)[0]) + 1e-12
            w_int = 0.0
            for b, k in zip(cfg.beta.tolist(), queues.tolist()):
                w_int += b * k
            got = pick(gamma, queues.tolist(), w_int / n)
            assert got == brute_force_route(cfg, gamma, queues / n)
            if w_int == 0:
                assert got == top
                continue
            state = QueueState(q=queues / n, workload=w_int / n)
            assert got == numpy_route(cfg, gamma, state) == route(cfg, gamma, state)


def test_router_exact_payoff_ties_go_to_the_higher_rebate(ref1):
    # ref1: beta (2, 1), rebates (1, 2), rebate0 -1, mu = v = 1.
    # q = (0.5, 1), W = 2, gamma = 1: both venues pay exactly 0.
    # q = (1.5, 1), W = 4, gamma = 1: option 0 and venue 1 both pay exactly -1.
    for q, want in (([0.5, 1.0], 2), ([1.5, 1.0], 1)):
        state = QueueState.of(ref1, q)
        assert _router(ref1)(1.0, q, state.workload) == want
        assert route(ref1, 1.0, state) == want
        assert numpy_route(ref1, 1.0, state) == want
        assert brute_force_route(ref1, 1.0, q) == want


def test_fused_band_chi_is_bitwise_the_two_cdf_form(ref1, ref2, rng):
    tabulated = make_config(
        type_dist={"kind": "tabulated", "gamma": [0.0, 0.5, 1.0, 2.0, 4.0],
                   "cdf": [0.0, 0.3, 0.6, 0.9, 1.0]}
    )
    half_normal = make_config(type_dist={"kind": "half-normal", "sigma": 1.3})
    cfgs = [ref1, ref2, tabulated, half_normal]
    cfgs += [random_stable_config(rng, n_max=8) for _ in range(8)]
    kinds = {type(cfg.type_dist).__name__ for cfg in cfgs}
    assert kinds == {"ExponentialType", "HalfNormalType", "TabulatedType"}
    for cfg in cfgs:
        bands = compute_bands(cfg)
        grid = np.geomspace(1e-6, 1e6, 97)
        workloads = [1.7, grid, rng.uniform(0.01, 20.0, (9, cfg.n_exchanges))]
        for w in workloads:
            assert_bitwise(_band_chi(bands, cfg.type_dist, w), two_cdf_band_chi(bands, cfg.type_dist, w))


@st.composite
def _routing_cases(draw):
    """A config dict of 1 to 6 venues, queues of which some may be empty,
    and types in [0.001, 20]."""
    d = draw(config_dicts(n_max=6))
    n = d["n_exchanges"]
    queue = st.one_of(st.just(0.0), st.floats(0.0, 3.0))
    q = draw(st.lists(queue, min_size=n, max_size=n).filter(any))
    gammas = draw(st.lists(st.floats(1e-3, 20.0), min_size=1, max_size=30))
    return d, q, gammas


# Rebates a subnormal apart, where one venue's band overflows to [inf, inf].
_REF1_AT_INF = {**ref1_dict(), "rebates": [0.0, 5e-324]}
_REF2_AT_INF = {
    **json.loads((FIXTURES / "ref2.json").read_text()),
    "beta": [2.0, 1.0, 1.0],
    "rebates": [0.0, 5e-324, 1.0],
}


@example((ref1_dict(), [1.0, 0.0], [0.3, 0.9, 1.6, 3.5]))
@example((_REF1_AT_INF, [1.0, 1.0], [0.2, 0.7, 3.0]))
@example((_REF2_AT_INF, [1.0, 0.5, 1.0], [0.2, 0.7, 3.0]))
@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(_routing_cases())
def test_route_band_consistency(case):
    # Choosing venue i implies gamma sits inside W * [a_minus_i, a_plus_i],
    # also when other queues are empty.  Besides the drawn types, each finite
    # positive band edge is tried with its two float neighbours.
    d, q, gammas = case
    cfg = config_from_dict(d)
    bands = compute_bands(cfg)
    state = QueueState.of(cfg, q)
    edges = state.workload * np.concatenate((bands.a_minus, bands.a_plus))
    edges = edges[np.isfinite(edges) & (edges > 0)]
    probes = np.concatenate((gammas, edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)))
    for gamma in probes[probes > 0].tolist():
        i = route(cfg, gamma, state)
        if i >= 1 and q[i - 1] > 0:
            tol = 1e-12 * max(1.0, gamma)
            assert state.workload * bands.a_minus[i - 1] - tol <= gamma
            assert gamma <= state.workload * bands.a_plus[i - 1] + tol


# ---------------------------------------------------------------------------
# chi
# ---------------------------------------------------------------------------

@example(_REF1_AT_INF, [0.3, 7.0])
@example(_REF2_AT_INF, [0.3, 7.0])
@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(config_dicts(n_max=6), st.lists(st.floats(1e-300, 1e300), min_size=1, max_size=8))
def test_venue_fractions_sum_to_the_tail_past_a_min(d, workloads):
    # The bands tile [W a_min, inf): in rebate order the nonempty ones chain
    # a_min = b_0 < ... < b_k = inf, each upper edge the next lower edge to
    # the bit, so no fraction is negative and they sum to the tail past
    # W a_min, the identity behind the closed-form equilibrium workload.
    cfg = config_from_dict(d)
    bands = cfg.bands
    live = [i for i in np.argsort(cfg.rebates) if not bands.empty_band[i]]
    lower, upper = bands.a_minus[live], bands.a_plus[live]
    assert lower[0] == bands.a_min_global and upper[-1] == math.inf
    assert_bitwise(upper[:-1], lower[1:])
    for w in workloads:
        venues = chi(cfg, w)[1:]
        tail = 1.0 - float(cfg.type_dist.cdf(w * bands.a_min_global))
        assert np.all(venues >= 0.0) and abs(venues.sum() - tail) <= 4 * np.finfo(float).eps


def test_chi_ref1_closed_form(ref1):
    got = chi(ref1, 2.0)
    want = [1 - math.exp(-0.5), math.exp(-0.5) - math.exp(-1), math.exp(-1)]
    assert got == pytest.approx(want, abs=1e-12)
    assert got == pytest.approx([0.39347, 0.23865, 0.36788], abs=1e-5)


def test_chi_ref1_quarter_point(ref1):
    got = chi(ref1, 4 * math.log(2))
    assert got[1] == pytest.approx(0.25, abs=1e-14)
    assert got[2] == pytest.approx(0.25, abs=1e-14)


def test_chi_ref2_tail(ref2):
    for w in [0.5, 1.0, 3.0, 10.0]:
        got = chi(ref2, w)
        assert got[1] == 0.0 and got[2] == 0.0
        assert got[3] == pytest.approx(math.exp(-0.25 * w), abs=1e-13)


def test_chi_normalization(ref1, ref2, strict):
    for cfg in (ref1, ref2, strict):
        for w in np.geomspace(0.01, 100, 60):
            parts = chi(cfg, float(w))
            assert np.all(parts >= 0) and np.all(parts <= 1)
            assert abs(parts.sum() - 1.0) < 1e-12


def test_chi_rejects_nonpositive_workload(ref1):
    for w in (0.0, -1.0, float("nan"), math.inf):
        with pytest.raises(ValueError):
            chi(ref1, w)


@pytest.mark.parametrize(
    "call",
    [
        lambda cfg: chi_derivative(cfg, math.inf),
        lambda cfg: QueueState.of(cfg, [math.nan, 1.0]),
        lambda cfg: QueueState.of(cfg, [1.0, math.inf]),
        lambda cfg: det_shifted(cfg, [1.0, 1.0], math.nan),
        lambda cfg: det_shifted(cfg, [1.0, 1.0], math.inf),
    ],
)
def test_non_finite_inputs_fail_early(ref1, call):
    with pytest.raises(ValueError):
        call(ref1)


def test_chi_monotone_in_regime(ref2, strict):
    # chi_0 never decreases in the workload; above kappa each venue share is
    # nonincreasing for configurations inside the tail-monotonicity regime.
    for cfg, q0 in ((strict, [3.0, 4.0]), (ref2, [1.0, 1.0, 1.0])):
        kappa = compute_kappa(cfg, float(cfg.beta @ np.asarray(q0)), solve_workload_star(cfg))
        grid = np.linspace(kappa, 10 * kappa, 400)
        values = np.array([chi(cfg, float(w)) for w in grid])
        assert np.all(np.diff(values[:, 0]) >= -1e-14)
        assert np.all(np.diff(values[:, 1:], axis=0) <= 1e-14)


def test_chi0_nondecreasing_everywhere(ref1):
    grid = np.linspace(0.01, 40, 500)
    chi0 = np.array([chi(ref1, float(w))[0] for w in grid])
    assert np.all(np.diff(chi0) >= -1e-14)


# ---------------------------------------------------------------------------
# chi_derivative
# ---------------------------------------------------------------------------

def test_chi_derivative_ref1(ref1):
    got = chi_derivative(ref1, 2.0)
    want = [0.5 * math.exp(-1) - 0.25 * math.exp(-0.5), -0.5 * math.exp(-1)]
    assert got == pytest.approx(want, abs=1e-14)
    assert got == pytest.approx([0.03231, -0.18394], abs=1e-5)


def test_chi_derivative_ref2(ref2):
    for w in [0.5, 2.0, 7.0]:
        got = chi_derivative(ref2, w)
        assert got[0] == 0.0 and got[1] == 0.0
        assert got[2] == pytest.approx(-0.25 * math.exp(-0.25 * w), abs=1e-14)


def test_chi_derivative_matches_finite_differences(ref1, ref2, strict, rng):
    configs = [ref1, ref2, strict] + [random_valid_config(rng) for _ in range(20)]
    for cfg in configs:
        for w in rng.uniform(0.3, 6.0, 5):
            h = 1e-5 * max(1.0, w)
            fd = (chi(cfg, w + h)[1:] - chi(cfg, w - h)[1:]) / (2 * h)
            analytic = chi_derivative(cfg, w)
            tol = np.maximum(1e-6, 1e-4 * np.abs(analytic))
            assert np.all(np.abs(analytic - fd) <= tol)


# ---------------------------------------------------------------------------
# Lipschitz witness
# ---------------------------------------------------------------------------

def test_lipschitz_witness_on_workload_floor(ref1, ref2, rng):
    rho = 0.5
    for cfg in (ref1, ref2):
        grid = np.geomspace(1e-4, 1e3, 4000)
        g_max = float(np.max(grid * np.asarray(cfg.type_dist.pdf(grid))))
        chi_bound = 2.0 * g_max * float(cfg.beta.sum()) / rho
        mu_bound = cfg.mu * float(cfg.beta.max() + cfg.beta.sum()) / rho
        worst_chi = worst_mu = 0.0
        for _ in range(2000):
            q1 = rng.uniform(0.0, 3.0, cfg.n_exchanges)
            q2 = rng.uniform(0.0, 3.0, cfg.n_exchanges)
            s1, s2 = QueueState.of(cfg, q1), QueueState.of(cfg, q2)
            if s1.workload <= rho or s2.workload <= rho:
                continue
            gap = float(np.abs(q1 - q2).max())
            if gap < 1e-9:
                continue
            d_chi = float(np.abs(chi(cfg, s1.workload) - chi(cfg, s2.workload)).max())
            rates1 = cfg.mu * cfg.beta * s1.q / s1.workload
            rates2 = cfg.mu * cfg.beta * s2.q / s2.workload
            d_mu = float(np.abs(rates1 - rates2).max())
            worst_chi = max(worst_chi, d_chi / gap)
            worst_mu = max(worst_mu, d_mu / gap)
        assert worst_chi <= chi_bound
        assert worst_mu <= mu_bound
