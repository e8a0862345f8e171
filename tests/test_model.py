import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from scipy.integrate import quad

from fluidlob import (
    ConfigError,
    ExponentialType,
    GeometricSize,
    HalfNormalType,
    TabulatedSize,
    TabulatedType,
    check_assumptions,
    chi,
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

from helpers import FIXTURES, brute_force_route, config_dicts, make_config, random_valid_config


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
    # of gamma*f(gamma); condition (i) genuinely holds on the grid.
    report = check_assumptions(strict, [3.0, 4.0])
    assert report.cond_i_holds is True
    lo, hi, pts = report.gamma_f_grid
    assert lo == pytest.approx(0.25 * 0.5 * 4 * math.log(10), rel=1e-9)
    assert hi == pytest.approx(lo * 1e4)
    assert pts >= 1000


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


def test_type_distribution_edge_values():
    for dist in [ExponentialType(rate=2.0), HalfNormalType(sigma=1.5)]:
        assert float(dist.cdf(0.0)) == 0.0
        assert float(dist.cdf(np.inf)) == 1.0
        grid = np.linspace(0.01, 10, 200)
        assert np.all(np.diff(dist.cdf(grid)) > 0)
        assert np.all(dist.pdf(grid) >= 0)


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
