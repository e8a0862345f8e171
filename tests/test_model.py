import dataclasses
import itertools
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import erf

from fluidlob import (
    ConfigError,
    ExponentialType,
    GeometricSize,
    HalfNormalType,
    TabulatedSize,
    TabulatedType,
    check_assumptions,
    chi,
    chi_derivative,
    compute_bands,
    compute_kappa,
    config_from_dict,
    config_to_dict,
    global_stability_experiment,
    load_config,
    save_config,
    solve_equilibrium,
    spectrum,
)

from fluidlob.model import RoutingBands

from helpers import (
    FIXTURES,
    _gamma_f_mode,
    assert_bitwise,
    brute_force_route,
    config_dicts,
    loop_compute_bands,
    make_config,
    random_valid_config,
    ref1_dict,
)


# ---------------------------------------------------------------------------
# Routing bands
# ---------------------------------------------------------------------------

def test_bands_ref1(ref1):
    bands = compute_bands(ref1)
    assert bands.a_minus == pytest.approx([0.25, 0.5], abs=1e-15)
    assert bands.a_plus[0] == pytest.approx(0.5, abs=1e-15)
    assert np.isinf(bands.a_plus[1])
    assert bands.a_min_global == pytest.approx(0.25)
    assert not bands.empty_band.any()


def test_bands_ref2(ref2):
    bands = compute_bands(ref2)
    assert bands.a_minus == pytest.approx([0.5, 1 / 3, 0.25], abs=1e-15)
    assert bands.a_plus[0] == 0.0 and bands.a_plus[1] == 0.0
    assert np.isinf(bands.a_plus[2])
    assert list(bands.empty_band) == [True, True, False]
    assert bands.a_min_global == pytest.approx(0.25)


def test_bands_single_exchange():
    cfg = make_config(
        n_exchanges=1, beta=[1.0], **{"lambda": [0.3]}, rebates=[1.0], b_dedicated=[1.0]
    )
    bands = compute_bands(cfg)
    assert bands.a_minus[0] == pytest.approx(0.5)
    assert np.isinf(bands.a_plus[0])


def test_band_edges_match_argmax_oracle(ref1, rng):
    # Just inside an edge the payoff argmax picks the venue; just outside it
    # does not.  This pins the closed-form edges to the routing rule itself.
    configs = [ref1] + [random_valid_config(rng) for _ in range(10)]
    for cfg in configs:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            bands = compute_bands(cfg)
        q = rng.uniform(0.5, 2.0, cfg.n_exchanges)
        w = float(cfg.beta @ q)
        for i in range(cfg.n_exchanges):
            if bands.empty_band[i]:
                continue
            lo, hi = w * bands.a_minus[i], w * bands.a_plus[i]
            eps = 1e-7 * max(1.0, lo)
            assert brute_force_route(cfg, lo + eps, q) == i + 1
            assert brute_force_route(cfg, lo - eps, q) != i + 1
            if np.isfinite(hi) and hi - lo > 4 * eps:
                assert brute_force_route(cfg, hi - eps, q) == i + 1
                assert brute_force_route(cfg, hi + eps, q) != i + 1


def test_a_minus_positive_for_random_configs(rng):
    for _ in range(50):
        cfg = random_valid_config(rng)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            bands = compute_bands(cfg)
        assert np.all(bands.a_minus > 0)
        # +inf exactly for the top-rebate venue
        assert np.isinf(bands.a_plus[np.argmax(cfg.rebates)])
        assert np.isfinite(np.delete(bands.a_plus, np.argmax(cfg.rebates))).all()


# Three hull points whose cross product is within this fraction of the
# product of their two spans lie too near one line for the hull rule: there
# rounding decides between an empty band and one of zero width.
_COLLINEAR_REL = 1e-9


def _cross(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _lower_hull(points) -> set[int]:
    """Indices of the strict vertices of the lower convex hull of `points`,
    whose x-coordinates are distinct, by the monotone chain."""
    hull: list[int] = []
    for k in sorted(range(len(points)), key=lambda k: points[k][0]):
        while len(hull) >= 2 and _cross(points[hull[-2]], points[hull[-1]], points[k]) <= 0:
            hull.pop()
        hull.append(k)
    return set(hull)


def test_nonempty_bands_are_the_lower_hull_vertices(rng):
    # Venue i pays W (x r_i - 1/(mu beta_i v)) at x = gamma/W and option 0
    # pays W x rebate0: each option is a point (r, 1/(mu beta v)), with
    # (rebate0, 0) leftmost and lowest, and the best option at slope x > 0 is
    # the lower hull's vertex that a line of that slope supports.  So venue i
    # has a nonempty band exactly when its point is a strict vertex of that
    # hull, a derivation independent of `compute_bands`' edge formulas.
    checked = with_empty = several = 0
    for _ in range(300):
        cfg = random_valid_config(rng, n_max=8)
        points = [(cfg.rebate0, 0.0), *zip(cfg.rebates, 1.0 / (cfg.mu * cfg.beta * cfg.v))]
        if any(
            abs(_cross(o, a, b)) <= _COLLINEAR_REL * math.dist(o, a) * math.dist(o, b)
            for o, a, b in itertools.combinations(points, 3)
        ):
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            empty = compute_bands(cfg).empty_band
        hull = _lower_hull(points)
        assert [not e for e in empty] == [i + 1 in hull for i in range(cfg.n_exchanges)]
        checked += 1
        with_empty += bool(empty.any())
        several += int(np.count_nonzero(~empty)) >= 2
    assert checked >= 250 and 0 < with_empty < checked and several >= 80


@st.composite
def _band_configs(draw):
    """Configs of 1 to 50 venues, about half of them ordinary and the rest
    reaching every branch of the band edges: rebates on runs of ulps of 1
    and of subnormals (near-ties whose edges overflow) or near the float
    maximum (r - rebate0 overflows), beta with repeats (equal delays, zero
    slopes) and mu down to the smallest subnormal (1 / (mu beta v)
    overflows to inf)."""
    n = draw(st.integers(1, 50))
    rebate, mu, rebate0 = st.floats(0.0, 5.0), st.floats(0.1, 5.0), st.floats(-5.0, -0.01)
    if draw(st.booleans()):
        rebate = st.one_of(
            rebate,
            st.integers(0, 64).map(lambda k: k * 5e-324),
            st.integers(1, 64).map(lambda k: 1.0 + k * 2.0**-52),
            st.floats(1e307, 1.7e308),
        )
        mu = st.one_of(mu, st.floats(5e-324, 1e-300))
        rebate0 = st.one_of(rebate0, st.floats(-1.7e308, -1e307))
    beta = st.one_of(st.floats(0.1, 10.0), st.sampled_from([0.5, 1.0, 2.0]))
    return {
        **ref1_dict(),
        "n_exchanges": n,
        "beta": draw(st.lists(beta, min_size=n, max_size=n)),
        "lambda": [0.1] * n,
        "b_dedicated": [1.0] * n,
        "mu": draw(mu),
        "rebate0": draw(rebate0),
        "rebates": draw(st.lists(rebate, min_size=n, max_size=n, unique=True)),
    }


def _bands_and_warnings(bands_of, cfg):
    """The bands and the set of warnings raised making them; numpy words a
    warning of a scalar operation "scalar divide" where the array one says
    "divide"."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        bands = bands_of(cfg)
    return bands, {(w.category, str(w.message).replace("scalar ", "")) for w in caught}


@example({**ref1_dict(), "rebates": [0.0, 5e-324]})
@example({**ref1_dict(), "beta": [1.0, 1.0], "mu": 5e-324})
@example({**ref1_dict(), "beta": [1e-20, 1.0], "mu": 1e-300})
@example({**ref1_dict(), "beta": [1.0, 3.0], "mu": 5e-324, "rebates": [1e308, 0.0],
          "rebate0": -1e308})
@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(_band_configs())
def test_band_edges_are_bitwise_the_loop_form(d):
    # The N x N slope matrix gives the per-venue loop's bits, and raises no
    # warning (warnings are errors in this suite) that the loop does not.
    cfg = config_from_dict(d)
    got, got_warnings = _bands_and_warnings(compute_bands, cfg)
    want, want_warnings = _bands_and_warnings(loop_compute_bands, cfg)
    for name in ("a_minus", "a_plus", "empty_band", "edges"):
        assert_bitwise(getattr(got, name), getattr(want, name))
    assert_bitwise(got.a_min_global, want.a_min_global)
    assert got_warnings == want_warnings


def test_empty_band_warns(ref2):
    with pytest.warns(UserWarning, match="empty routing bands"):
        compute_bands(ref2)


def test_empty_band_warns_once_per_config():
    # A fresh config: the session fixture may already hold its bands.
    cfg = load_config(FIXTURES / "ref2.json")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        global_stability_experiment(cfg, n_inits=2, box=5.0, horizon=1.0, seed=0)
        spectrum(cfg, solve_equilibrium(cfg).q_star)
    assert sum("empty routing bands" in str(w.message) for w in caught) == 1


def test_overflowing_band_edge_takes_its_limit():
    # Rebates 0 and 5e-324 with the larger delay at the larger rebate: the
    # pair's indifference type overflows, and the band edges take its limit
    # without an overflow warning.  The venue at 5e-324 never beats the one
    # at 0, so its band is empty.
    d = json.loads((FIXTURES / "ref2.json").read_text())
    cfg = config_from_dict({**d, "beta": [2.0, 1.0, 1.0], "rebates": [0.0, 5e-324, 1.0]})
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "venues .* have empty routing bands", UserWarning)
        bands = compute_bands(cfg)
    assert bands.a_minus[1] == math.inf and bands.empty_band.tolist() == [True, True, False]
    assert np.isfinite(bands.a_plus[:2]).all() and chi(cfg, 1.0)[2] == 0.0
    assert chi_derivative(cfg, 1.0)[1] == 0.0  # no inf * 0 at the infinite lower edge


def test_an_overflowing_delay_keeps_its_band_edges():
    # With mu = 5e-324 each 1 / (mu beta v) overflows to +inf, so the slopes
    # between venues are inf - inf: the bands come without a RuntimeWarning
    # (the suite makes warnings errors), both lower edges are +inf and the
    # top venue's upper edge stays +inf.
    bands = make_config(mu=5e-324).bands
    assert bands.a_minus.tolist() == [math.inf, math.inf]
    assert bands.a_plus.tolist() == [0.0, math.inf]


def test_zero_width_band_counts_as_empty():
    # The config above: venue 0's band is [0.5, 0.5], a single type, so it
    # never receives flow and `check` lists it with venue 1.  Its fraction
    # and derivative keep their bits: F(0.5 W) - F(0.5 W) was already 0.
    d = json.loads((FIXTURES / "ref2.json").read_text())
    d = {**d, "beta": [2.0, 1.0, 1.0], "rebates": [0.0, 5e-324, 1.0]}
    cfg, legacy = config_from_dict(d), config_from_dict(d)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "venues .* have empty routing bands", UserWarning)
        bands = cfg.bands
        report = check_assumptions(cfg, np.ones(3))
    assert bands.a_minus[0] == bands.a_plus[0] == 0.5
    assert report.empty_band_exchanges == (0, 1)
    # The same bands with the zero-width one counted as nonempty: empty only
    # where a_plus < a_minus or a_minus = inf.
    legacy.__dict__["bands"] = RoutingBands(
        a_minus=bands.a_minus,
        a_plus=bands.a_plus,
        a_min_global=bands.a_min_global,
        empty_band=(bands.a_plus < bands.a_minus) | (bands.a_minus == math.inf),
    )
    assert legacy.bands.empty_band.tolist() == [False, True, False]
    for w in (0.3, 1.0, 7.0, 50.0):
        assert_bitwise(chi(cfg, w), chi(legacy, w))
        assert_bitwise(chi_derivative(cfg, w), chi_derivative(legacy, w))


def test_a_band_at_infinity_counts_as_empty():
    # Rebates 0 and 5e-324 on ref1: the venue at 5e-324 never wins, and both
    # its edges overflow to +inf, a second infinite upper edge.
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "venues .* have empty routing bands", UserWarning)
        cfg = make_config(rebates=[0.0, 5e-324])
        bands = cfg.bands
    assert bands.a_minus.tolist() == [0.5, math.inf] and np.isinf(bands.a_plus).all()
    assert bands.empty_band.tolist() == [False, True]
    assert bands.edges.tolist() == [0.5, math.inf, math.inf, math.inf]
    for w in (0.3, 1.0, 7.0):
        tail = math.exp(-0.5 * w)
        assert chi(cfg, w) == pytest.approx([1.0 - tail, tail, 0.0], abs=1e-15)
        assert chi_derivative(cfg, w) == pytest.approx([-0.5 * tail, 0.0], abs=1e-15)


def test_empty_band_gets_no_flow(ref2):
    for w in np.geomspace(0.1, 50, 40):
        fractions = chi(ref2, float(w))
        assert fractions[1] == 0.0 and fractions[2] == 0.0


# ---------------------------------------------------------------------------
# kappa
# ---------------------------------------------------------------------------

def test_kappa_ref1(ref1):
    assert compute_kappa(ref1, 3.0, 2.77259) == pytest.approx(1.38629, abs=1e-5)


def test_kappa_equal_beta(ref2):
    assert compute_kappa(ref2, 5.0, 5.0) == pytest.approx(5.0)


def test_kappa_simple(ref1):
    assert compute_kappa(ref1, 10.0, 4.0) == pytest.approx(2.0)


def test_kappa_rejects_nonpositive(ref1):
    with pytest.raises(ValueError):
        compute_kappa(ref1, 0.0, 1.0)
    with pytest.raises(ValueError):
        compute_kappa(ref1, 1.0, -2.0)


def test_kappa_monotone(ref1, rng):
    for _ in range(100):
        w0, ws = rng.uniform(0.1, 10, 2)
        d0, ds = rng.uniform(0, 2, 2)
        assert compute_kappa(ref1, w0 + d0, ws) >= compute_kappa(ref1, w0, ws)
        assert compute_kappa(ref1, w0, ws + ds) >= compute_kappa(ref1, w0, ws)


# ---------------------------------------------------------------------------
# Assumption checks
# ---------------------------------------------------------------------------

def test_check_assumptions_ref1(ref1):
    report = check_assumptions(ref1, [1.0, 1.0])
    assert report.cond_ii_holds
    assert report.cond_ii_sides == pytest.approx((0.5, 1.0, 1.5))
    assert report.cond_iv_holds
    assert report.complete
    assert report.kappa == pytest.approx(0.5 * 4 * math.log(2), rel=1e-10)
    # gamma*f(gamma) rises before 1/rate = 1 > a_min*kappa, so (i) fails here.
    assert report.cond_i_holds is False


def test_check_assumptions_ref2(ref2):
    report = check_assumptions(ref2, [1.0, 1.0, 1.0])
    assert not report.cond_iv_holds
    assert report.empty_band_exchanges == (0, 1)
    assert report.cond_ii_holds


def test_check_assumptions_strict(strict):
    # big_lambda = 5 pushes W* to 4 ln 10, putting a_min*kappa past the mode
    # of gamma*f(gamma); condition (i) genuinely holds.
    report = check_assumptions(strict, [3.0, 4.0])
    assert report.cond_i_holds is True
    assert report.gamma_f_mode == 1.0
    assert 0.25 * report.kappa == pytest.approx(0.25 * 0.5 * 4 * math.log(10), rel=1e-9)


def test_condition_i_follows_the_mode_rule():
    # Four of these draws put a_min*kappa at 0.996-0.999 of the mode of
    # gamma*f(gamma), where a geometric grid from a_min*kappa steps past the
    # rise and reads a strict decrease.
    rng = np.random.default_rng(5)
    near = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for draw in range(2832):
            cfg = random_valid_config(rng, n_max=6)
            report = check_assumptions(cfg, rng.uniform(0.01, 3, cfg.n_exchanges))
            ratio = cfg.bands.a_min_global * report.kappa / _gamma_f_mode(cfg)
            assert report.gamma_f_mode == _gamma_f_mode(cfg)
            assert report.cond_i_holds is (ratio >= 1.0)
            if 0.99 < ratio < 1.0:
                near[draw] = ratio
    assert {1185, 2174, 2621, 2831} <= set(near)


def test_check_assumptions_overloaded():
    cfg = make_config(**{"lambda": [0.6, 0.5]})
    report = check_assumptions(cfg, [1.0, 1.0])
    assert not report.cond_ii_holds
    assert not report.complete
    assert report.kappa is None and report.cond_i_holds is None


def test_check_assumptions_needs_positive_workload(ref1):
    with pytest.raises(ValueError):
        check_assumptions(ref1, [0.0, 0.0])


# ---------------------------------------------------------------------------
# Distributions
# ---------------------------------------------------------------------------

def test_type_density_integrates_to_cdf():
    dists = [ExponentialType(rate=1.3), HalfNormalType(sigma=0.8)]
    for dist in dists:
        for g in [0.1, 0.5, 1.0, 2.5, 6.0]:
            integral, _ = quad(lambda x: float(dist.pdf(x)), 0.0, g)
            assert integral == pytest.approx(float(dist.cdf(g)), abs=1e-8)


def test_tabulated_type_consistency():
    dist = TabulatedType(gammas=[0.0, 0.5, 1.0, 2.0, 4.0], cdf_values=[0.0, 0.1, 0.45, 0.8, 1.0])
    # density is the exact slope of the interpolant, so segment sums reproduce F
    for g in [0.25, 0.5, 1.5, 3.0, 4.0, 10.0]:
        knots = [x for x in [0.0, 0.5, 1.0, 2.0, 4.0] if x < g] + [min(g, 4.0)]
        total = sum(
            float(dist.pdf(0.5 * (a + b))) * (b - a) for a, b in zip(knots[:-1], knots[1:])
        )
        assert total == pytest.approx(float(dist.cdf(g)), abs=1e-12)
    assert float(dist.cdf(np.inf)) == 1.0
    assert float(dist.pdf(5.0)) == 0.0


def test_tabulated_gamma_f_mode_ends_the_last_rising_segment():
    dist = TabulatedType(gammas=[0.0, 1.0, 2.0, 3.0, 4.0, 5.0], cdf_values=[0.0, 0.2, 0.2, 0.9, 1.0, 1.0])
    assert dist.gamma_f_mode == 4.0
    grid = np.linspace(0.0, 6.0, 601)
    steps = np.diff(grid * dist.pdf(grid))
    assert np.all(steps[grid[:-1] >= 4.0] <= 0) and steps[grid[:-1] < 4.0].max() > 0


def test_isf_is_the_upper_tail_quantile():
    # Taken from s itself: a tail of 1e-20 is far below the spacing of the
    # floats near 1, where 1 - s would be 1.
    for s in (1e-300, 1e-20, 0.01, 0.5, 0.99):
        g = ExponentialType(rate=1.3).isf(s)
        assert math.exp(-1.3 * g) == pytest.approx(s, rel=1e-13)
        g = HalfNormalType(sigma=0.8).isf(s)
        assert math.erfc(g / (0.8 * math.sqrt(2.0))) == pytest.approx(s, rel=1e-13)
    # On a flat part the smallest type reaching 1 - s.
    dist = TabulatedType(gammas=[0.0, 0.5, 1.0, 2.0, 4.0], cdf_values=[0.0, 0.25, 0.25, 0.75, 1.0])
    assert [dist.isf(s) for s in (0.75, 0.5, 0.125)] == [0.5, 1.5, 3.0]


def test_type_distribution_edge_values():
    for dist in [ExponentialType(rate=2.0), HalfNormalType(sigma=1.5)]:
        assert float(dist.cdf(0.0)) == 0.0
        assert float(dist.cdf(np.inf)) == 1.0
        grid = np.linspace(0.01, 10, 200)
        assert np.all(np.diff(dist.cdf(grid)) > 0)
        assert np.all(dist.pdf(grid) >= 0)


@pytest.mark.parametrize("dist", [ExponentialType(rate=1.3), HalfNormalType(sigma=0.8)], ids=["exp", "hn"])
def test_signed_cdf_keeps_the_bits_of_clamp_then_scale(dist, rng):
    # `signed_cdf` runs through `scaled_cdf`; it keeps the bits of the form
    # that clamps x at 0 first, signed zeros and NaNs included, allocating or
    # in place, and S(x) for x <= 0 is S(0), as the fluid kernel relies on.
    x = np.concatenate((
        [-math.inf, -1e300, -1.0, -5e-324, -0.0, 0.0, 5e-324, 1e-300, 1.0, 1e300, math.inf, math.nan],
        rng.uniform(-3.0, 3.0, 50),
    ))
    clamped = np.maximum(x, 0.0)
    if isinstance(dist, ExponentialType):
        want = np.expm1(clamped * -dist.rate)
    else:
        want = erf(clamped / (dist.sigma * math.sqrt(2.0)))
    assert_bitwise(dist.signed_cdf(x), want)
    assert_bitwise(dist.signed_cdf(x.copy(), np.empty_like(x)), want)
    buffer = x.copy()
    assert dist.signed_cdf(buffer, buffer) is buffer
    assert_bitwise(buffer, want)
    at_zero = dist.signed_cdf(np.zeros(1))
    assert_bitwise(dist.scaled_cdf(dist.cdf_scale * x[:6]), np.repeat(at_zero, 6))


@pytest.mark.parametrize(
    "dist",
    [ExponentialType(rate=1.3), HalfNormalType(sigma=0.8),
     TabulatedType(gammas=[0.0, 1.0, 3.0], cdf_values=[0.0, 0.6, 1.0])],
    ids=["exp", "hn", "tab"],
)
def test_scaled_cdf_is_its_clamp_bound_cdf_triple(dist):
    # The fluid kernel runs a kind's `scaled_parts` directly, in place, as
    # cdf(clamp(z, bound, out=z), z): `scaled_cdf` gives its bits, signed
    # zeros and NaN included, and so does each kind's clamp written out
    # (the tabulated kind's F is 0 left of 0, which its clamp keeps).
    z = np.array([-2.0, -1e-300, -0.0, 0.0, 1e-300, 2.0, math.inf, -math.inf, math.nan])
    clamp, bound, cdf = dist.scaled_parts
    want = cdf(clamp(z, bound))
    buffer = z.copy()
    assert cdf(clamp(buffer, bound, out=buffer), buffer) is buffer
    assert_bitwise(buffer, want)
    assert_bitwise(dist.scaled_cdf(z), want)
    assert_bitwise(dist.scaled_cdf(z.copy(), np.empty_like(z)), want)
    written = {
        "exponential": lambda: np.expm1(np.minimum(z, -0.0)),
        "half-normal": lambda: erf(np.maximum(z, 0.0)),
        "tabulated": lambda: np.interp(z, dist.gammas, dist.cdf_values),
    }
    assert_bitwise(written[dist.kind](), want)


def test_type_samplers_match_cdf(rng):
    for dist in [ExponentialType(rate=1.0), HalfNormalType(sigma=1.0),
                 TabulatedType(gammas=[0.0, 1.0, 3.0], cdf_values=[0.0, 0.6, 1.0])]:
        draws = dist.sample(rng, 20000)
        assert np.all(draws >= 0)
        for g in [0.5, 1.0, 2.0]:
            frac = float(np.mean(draws <= g))
            assert frac == pytest.approx(float(dist.cdf(g)), abs=0.02)


def test_size_distribution_moments(rng):
    geo = GeometricSize(p=0.4)
    assert geo.mean == pytest.approx(2.5)
    tab = TabulatedSize(values=[1, 3], probs=[0.5, 0.5])
    assert tab.mean == pytest.approx(2.0)
    draws = geo.sample(rng, 50000)
    assert draws.min() >= 1
    assert float(draws.mean()) == pytest.approx(2.5, abs=0.05)


# ---------------------------------------------------------------------------
# Config validation and JSON round trip
# ---------------------------------------------------------------------------

def test_config_rejects_duplicate_rebates():
    with pytest.raises(ConfigError, match="rebates"):
        make_config(rebates=[1.0, 1.0])


def test_config_rejects_positive_rebate0():
    with pytest.raises(ConfigError, match="rebate0"):
        make_config(rebate0=0.5)


def test_config_rejects_mean_mismatch():
    with pytest.raises(ConfigError, match="size_dists.market"):
        make_config(v=2.0)  # deterministic(1) market sizes no longer match v


_NAN, _INF = float("nan"), float("inf")
_DET1 = {"kind": "deterministic", "value": 1}


@pytest.mark.parametrize(
    "key, value, named",
    [
        ("n_exchanges", _NAN, "n_exchanges"),
        ("beta", [_NAN, 1.0], "beta"),
        ("lambda", [0.3, _INF], "lambda"),
        ("big_lambda", _INF, "big_lambda"),
        ("mu", _INF, "mu"),
        ("rebate0", -_INF, "rebate0"),
        ("rebates", [1.0, _NAN], "rebates"),
        ("v", _NAN, "v"),
        ("b_dedicated", [_INF, 1.0], "b_dedicated"),
        ("b_optimized", _NAN, "b_optimized"),
        ("type_dist", {"kind": "exponential", "rate": _INF}, "type_dist.rate"),
        ("type_dist", {"kind": "half-normal", "sigma": _NAN}, "type_dist.sigma"),
        (
            "type_dist",
            {"kind": "tabulated", "gamma": [0.0, 1.0, _INF], "cdf": [0.0, 0.5, 1.0]},
            "type_dist.gamma/cdf",
        ),
        (
            "type_dist",
            {"kind": "tabulated", "gamma": [0.0, 1.0, 2.0], "cdf": [0.0, _NAN, 1.0]},
            "type_dist.gamma/cdf",
        ),
        (
            "size_dists",
            {"market": {"kind": "deterministic", "value": _INF}, "dedicated": _DET1, "optimized": _DET1},
            "size_dists.market.value",
        ),
        (
            "size_dists",
            {
                "market": _DET1,
                "dedicated": {"kind": "tabulated", "values": [1, 1], "probs": [_NAN, 1.0]},
                "optimized": _DET1,
            },
            "size_dists.dedicated.values/probs",
        ),
        # Values that are not numbers at all.
        ("beta", ["a", 1.0], "beta"),
        ("lambda", [0.3, {}], "lambda"),
        ("rebates", "x", "rebates"),
        ("b_dedicated", [1.0, None, 2.0], "b_dedicated"),
        ("mu", "x", "mu"),
        ("big_lambda", [1.0], "big_lambda"),
        ("rebate0", None, "rebate0"),
        ("v", "one", "v"),
        ("b_optimized", {}, "b_optimized"),
        ("type_dist", {"kind": "exponential", "rate": "x"}, "type_dist.rate"),
        ("type_dist", {"kind": "half-normal", "sigma": None}, "type_dist.sigma"),
        ("type_dist", {"kind": "tabulated", "gamma": [0.0, "a"], "cdf": [0.0, 1.0]}, "type_dist"),
        (
            "size_dists",
            {"market": _DET1, "dedicated": _DET1, "optimized": {"kind": "geometric", "p": "x"}},
            "size_dists.optimized.p",
        ),
        (
            "size_dists",
            {
                "market": [_DET1, {"kind": "tabulated", "values": ["a", 1], "probs": [0.5, 0.5]}],
                "dedicated": _DET1,
                "optimized": _DET1,
            },
            "size_dists.market[1]",
        ),
    ],
)
def test_config_rejects_non_finite_values(key, value, named):
    with pytest.raises(ConfigError) as info:
        make_config(**{key: value})
    assert str(info.value).startswith(f"{named}:")


@pytest.mark.parametrize(
    "entry, named",
    [
        ({"kind": "deterministic", "value": 0}, "size_dists.market[1].value"),
        ({"kind": "geometric", "p": 1.5}, "size_dists.market[1].p"),
        ({"kind": "tabulated", "values": [1, 2], "probs": [0.5, 0.6]}, "size_dists.market[1].probs"),
        ({"kind": "tabulated", "values": [0, 2], "probs": [0.5, 0.5]}, "size_dists.market[1].values"),
    ],
)
def test_size_dist_errors_name_the_config_key(entry, named):
    with pytest.raises(ConfigError) as info:
        make_config(size_dists={"market": [_DET1, entry], "dedicated": _DET1, "optimized": _DET1})
    assert str(info.value).startswith(f"{named}:")


def test_non_numeric_tabulated_size_support_asks_for_integers():
    entry = {"kind": "tabulated", "values": ["a", 1], "probs": [0.5, 0.5]}
    with pytest.raises(ConfigError) as info:
        make_config(size_dists={"market": [_DET1, entry], "dedicated": _DET1, "optimized": _DET1})
    assert str(info.value) == "size_dists.market[1]: values must be integers, got ['a', 1]"


def test_config_reports_missing_key():
    bad = {"n_exchanges": 2}
    with pytest.raises(ConfigError, match="beta"):
        config_from_dict(bad)


def test_config_round_trip(tmp_path, ref1, rng):
    for cfg in [ref1, random_valid_config(rng)]:
        path = tmp_path / "cfg.json"
        save_config(cfg, path)
        back = load_config(path)
        assert back.n_exchanges == cfg.n_exchanges
        for name in ("beta", "lam", "rebates", "b_dedicated"):
            assert np.array_equal(getattr(back, name), getattr(cfg, name))
        for name in ("big_lambda", "mu", "rebate0", "v", "b_optimized"):
            assert getattr(back, name) == getattr(cfg, name)
        assert config_to_dict(back) == config_to_dict(cfg)


def _same(a, b) -> bool:
    """Field-by-field equality of configs and distributions, arrays exact."""
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            _same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a)
        )
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(_same, a, b))
    return np.asarray(a).dtype == np.asarray(b).dtype and np.array_equal(a, b)


@settings(derandomize=True, max_examples=80, deadline=None, database=None)
@given(config_dicts())
def test_config_dict_round_trip_keeps_every_field(tmp_path_factory, d):
    cfg = config_from_dict(d)
    assert _same(config_from_dict(config_to_dict(cfg)), cfg)
    path = tmp_path_factory.getbasetemp() / "round_trip.json"
    save_config(cfg, path)
    assert _same(load_config(path), cfg)


def test_fixture_files_match_reference_values(ref1, ref2):
    with open(FIXTURES / "ref1.json") as fh:
        raw = json.load(fh)
    assert raw["beta"] == [2.0, 1.0] and raw["rebates"] == [1.0, 2.0]
    assert ref1.big_lambda == 1.0 and ref1.mu == 1.0 and ref1.v == 1.0
    assert ref2.n_exchanges == 3
    assert np.array_equal(ref2.lam, [0.2, 0.2, 0.2])


def test_size_dist_broadcast_and_list():
    cfg = config_from_dict(
        {
            **json.loads((FIXTURES / "ref1.json").read_text()),
            "size_dists": {
                "market": [
                    {"kind": "deterministic", "value": 1},
                    {"kind": "deterministic", "value": 1},
                ],
                "dedicated": {"kind": "deterministic", "value": 1},
                "optimized": {"kind": "geometric", "p": 1.0},
            },
        }
    )
    assert len(cfg.market_sizes) == 2 and len(cfg.dedicated_sizes) == 2
    assert cfg.optimized_size.mean == 1.0


def test_broadcast_size_law_is_parsed_once():
    # One tagged object is built once and repeated, and writes back as one
    # entry per venue, as the list form does.
    law = {"kind": "tabulated", "values": [1, 3], "probs": [0.5, 0.5]}
    d = {**ref1_dict(), "v": 2.0, "b_dedicated": [2.0, 2.0], "b_optimized": 2.0}
    broadcast = config_from_dict({**d, "size_dists": {"market": law, "dedicated": law, "optimized": law}})
    listed = config_from_dict(
        {**d, "size_dists": {"market": [law, law], "dedicated": [law, law], "optimized": law}}
    )
    assert broadcast.market_sizes[0] is broadcast.market_sizes[1]
    assert broadcast.dedicated_sizes[0] is broadcast.dedicated_sizes[1]
    assert broadcast.market_sizes[0].mean == 2.0
    assert config_to_dict(broadcast)["size_dists"] == config_to_dict(listed)["size_dists"]
