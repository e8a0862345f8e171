"""Model primitives: parameters, investor-type and order-size distributions,
and the routing bands.

All types are immutable after construction (arrays are marked read-only).  A
ModelConfig derives its bands (`bands`) and other operands (`kept`) on first
use and keeps them, so each is derived, and an empty band reported, once.
"""

from __future__ import annotations

import functools
import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy  # loads scipy.special on first access: only half-normal types pay for it

from .errors import ConfigError

__all__ = [
    "TypeDistribution",
    "ExponentialType",
    "HalfNormalType",
    "TabulatedType",
    "SizeDistribution",
    "DeterministicSize",
    "GeometricSize",
    "TabulatedSize",
    "ModelConfig",
    "RoutingBands",
    "compute_bands",
    "compute_kappa",
    "config_from_dict",
    "config_to_dict",
    "load_config",
    "save_config",
]

_SQRT2 = math.sqrt(2.0)
# A 0-d operand gives the bits of the Python float, and numpy dispatches it
# faster on small arrays.
_ZERO = np.array(0.0)
_MINUS_ZERO = np.array(-0.0)


def _positive_int(x, low=1) -> bool:
    """Whether x equals an integer of at least `low` (1 by default)."""
    try:
        return int(x) == x and x >= low
    except (TypeError, ValueError, OverflowError):  # NaN, inf, non-numbers
        return False


def _number(value, key: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{key}: must be a number, got {value!r}") from None
    except OverflowError:  # an integer beyond the float range
        raise ConfigError(f"{key}: must be finite") from None


def _frozen(x, dtype=float) -> np.ndarray:
    a = np.array(x, dtype=dtype)
    a.setflags(write=False)
    return a


def _scaled_cdf(dist, z, out=None):
    """A type kind's `scaled_cdf`: cdf(clamp(z, bound)) of its `scaled_parts`."""
    clamp, bound, cdf = dist.scaled_parts
    return cdf(clamp(z, bound, out=out), out)


# ---------------------------------------------------------------------------
# Investor-type distributions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExponentialType:
    rate: float

    kind = "exponential"
    cdf_sign = -1

    def __post_init__(self):
        if not 0 < self.rate < math.inf:
            raise ConfigError("type_dist.rate: must be positive and finite")
        object.__setattr__(self, "cdf_scale", np.array(-self.rate))

    # The bound -0.0 gives expm1 the signed zero that -rate max(x, 0) has.
    scaled_parts = (np.minimum, _MINUS_ZERO, np.expm1)
    scaled_cdf = _scaled_cdf

    def signed_cdf(self, x, out=None):
        return self.scaled_cdf(np.multiply(np.asarray(x, dtype=float), self.cdf_scale, out), out)

    def cdf(self, x, out=None):
        return np.negative(self.signed_cdf(x, out), out)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x >= 0, self.rate * np.exp(-self.rate * np.maximum(x, 0.0)), 0.0)

    def isf(self, s):
        return -math.log(s) / self.rate

    @property
    def gamma_f_mode(self):
        return 1.0 / self.rate

    def sample(self, gen, size):
        return gen.exponential(1.0 / self.rate, size)

    def to_dict(self):
        return {"kind": self.kind, "rate": self.rate}


@dataclass(frozen=True)
class HalfNormalType:
    sigma: float

    kind = "half-normal"
    cdf_sign = 1

    def __post_init__(self):
        if not 0 < self.sigma < math.inf:
            raise ConfigError("type_dist.sigma: must be positive and finite")
        object.__setattr__(self, "_scale", np.array(self.sigma * _SQRT2))
        object.__setattr__(self, "cdf_scale", 1.0 / (self.sigma * _SQRT2))

    @functools.cached_property
    def scaled_parts(self):
        return np.maximum, _ZERO, scipy.special.erf

    scaled_cdf = _scaled_cdf

    def cdf(self, x, out=None):
        return self.scaled_cdf(np.divide(np.asarray(x, dtype=float), self._scale, out), out)

    signed_cdf = cdf

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        c = math.sqrt(2.0 / math.pi) / self.sigma
        return np.where(x >= 0, c * np.exp(-np.square(np.maximum(x, 0.0)) / (2.0 * self.sigma**2)), 0.0)

    def isf(self, s):
        return self.sigma * _SQRT2 * float(scipy.special.erfcinv(s))

    @property
    def gamma_f_mode(self):
        return self.sigma

    def sample(self, gen, size):
        return np.abs(gen.normal(0.0, self.sigma, size))

    def to_dict(self):
        return {"kind": self.kind, "sigma": self.sigma}


@dataclass(frozen=True)
class TabulatedType:
    """CDF given on a grid and completed by monotone piecewise-linear interpolation.

    The grid must start at (0, 0) and end with CDF value 1; the density is the
    (piecewise-constant) derivative of the interpolant, zero outside the grid.
    """

    gammas: np.ndarray
    cdf_values: np.ndarray

    kind = "tabulated"
    cdf_sign = 1
    cdf_scale = 1.0

    def __post_init__(self):
        g = np.asarray(self.gammas, dtype=float)
        c = np.asarray(self.cdf_values, dtype=float)
        if g.ndim != 1 or g.shape != c.shape or len(g) < 2:
            raise ConfigError("type_dist.gamma/cdf: need two equal-length 1-d grids")
        if not (np.isfinite(g).all() and np.isfinite(c).all()):
            raise ConfigError("type_dist.gamma/cdf: values must be finite")
        if g[0] != 0.0:
            raise ConfigError("type_dist.gamma: grid must start at 0")
        if (np.diff(g) <= 0).any():
            raise ConfigError("type_dist.gamma: grid must be strictly increasing")
        if c[0] != 0.0 or (np.diff(c) < 0).any():
            raise ConfigError("type_dist.cdf: values must start at 0 and be nondecreasing")
        if abs(c[-1] - 1.0) > 1e-9:
            raise ConfigError("type_dist.cdf: last value must be 1")
        c = c / c[-1]
        object.__setattr__(self, "gammas", _frozen(g))
        object.__setattr__(self, "cdf_values", _frozen(c))
        object.__setattr__(self, "_slopes", _frozen(np.diff(c) / np.diff(g)))

    def cdf(self, x, out=None):
        f = np.interp(np.asarray(x, dtype=float), self.gammas, self.cdf_values)
        if out is None:
            return f
        out[...] = f
        return out

    signed_cdf = cdf  # F is 0 left of 0, so needs no clamp

    @property
    def scaled_parts(self):
        # F is 0 left of 0, so this clamp moves no bit; it keeps every kind's rule.
        return np.maximum, _ZERO, self.cdf

    scaled_cdf = _scaled_cdf

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        idx = np.searchsorted(self.gammas, x, side="right") - 1
        inside = (idx >= 0) & (idx < len(self._slopes)) & np.isfinite(x)
        return np.where(inside, self._slopes[np.clip(idx, 0, len(self._slopes) - 1)], 0.0)

    def isf(self, s):
        # The smallest gamma with F(gamma) = 1 - s: the knot that reaches it
        # exactly, or the point inside the rising segment that ends past it.
        p = 1.0 - s
        k = int(np.searchsorted(self.cdf_values, p))
        if self.cdf_values[k] == p:
            return float(self.gammas[k])
        return float(self.gammas[k - 1] + (p - self.cdf_values[k - 1]) / self._slopes[k - 1])

    @property
    def gamma_f_mode(self):
        # gamma f(gamma) = slope * gamma rises on every segment of positive
        # slope, so it falls (or stays 0) only past the last of them.
        return float(self.gammas[np.flatnonzero(self._slopes > 0)[-1] + 1])

    def sample(self, gen, size):
        return np.interp(gen.random(size), self.cdf_values, self.gammas)

    def to_dict(self):
        return {"kind": self.kind, "gamma": self.gammas.tolist(), "cdf": self.cdf_values.tolist()}


# Distribution of the investor type: atomless CDF F on (0, inf) with density
# f, F nondecreasing with F(0) = 0 and F(inf) = 1.  Each kind has `cdf` and
# `pdf`, which take scalars or arrays (inf included) and broadcast like numpy
# ufuncs, `sample(gen, size)` and `to_dict()`.  `cdf(x, out=)` writes F(x)
# into the float array `out` of x's shape, which may be x itself, and
# returns it; the bits are those of the allocating call.  `signed_cdf` does
# the same for `cdf_sign` * F(x): the exponential kind leaves out its
# negation, which a difference of two F values takes from the order of its
# operands, as (-a) - (-b) and b - a round to the same bits.  The fluid
# kernel folds the scaling of x into a matrix product, so each kind also has
# `cdf_scale` c and `scaled_cdf(z, out=)`, S as a function of z = c x with
# the clamp at x = 0 included.  `scaled_parts` is its triple (clamp ufunc,
# bound, cdf), run as cdf(clamp(z, bound, out=), out): `scaled_cdf` and the
# kernel both call it, so each kind writes its clamp once, and the
# half-normal kind looks up `erf` when the triple is first asked for and
# keeps it, so `cdf` pays no lookup per call.
# `signed_cdf` is `scaled_cdf` of c x, except that the half-normal kind
# divides x by sigma sqrt 2, as c x would move its bits.  `isf(s)` is the
# upper-tail quantile, the smallest gamma with 1 - F(gamma) = s for s in
# (0, 1), formed from s itself so that a small s loses no digits to 1 - s
# (the tabulated kind, whose grid holds F, excepted).  `gamma_f_mode` is the point from which gamma f(gamma) no
# longer rises: condition (i) holds on [a, inf) exactly when a is at or
# past it.
TypeDistribution = ExponentialType | HalfNormalType | TabulatedType


# ---------------------------------------------------------------------------
# Order-size distributions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DeterministicSize:
    value: int

    kind = "deterministic"

    def __post_init__(self):
        if not (_positive_int(self.value) and self.value < 2**63):  # the draws are int64
            raise ConfigError("size.value: must be a positive integer below 2**63")
        object.__setattr__(self, "value", int(self.value))

    @property
    def mean(self):
        return float(self.value)

    def sample(self, gen, size):
        return np.full(size, self.value, dtype=np.int64)

    def to_dict(self):
        return {"kind": self.kind, "value": self.value}


@dataclass(frozen=True)
class GeometricSize:
    p: float

    kind = "geometric"

    def __post_init__(self):
        if not 0.0 < self.p <= 1.0:
            raise ConfigError("size.p: must lie in (0, 1]")

    @property
    def mean(self):
        return 1.0 / self.p

    def sample(self, gen, size):
        return gen.geometric(self.p, size).astype(np.int64)

    def to_dict(self):
        return {"kind": self.kind, "p": self.p}


@dataclass(frozen=True)
class TabulatedSize:
    values: np.ndarray
    probs: np.ndarray

    kind = "tabulated"

    def __post_init__(self):
        try:
            v = np.asarray(self.values, dtype=float)
        except (TypeError, ValueError):
            raise ConfigError(f"size: values must be integers, got {self.values!r}") from None
        p = np.asarray(self.probs, dtype=float)
        if v.ndim != 1 or v.shape != p.shape or len(v) == 0:
            raise ConfigError("size.values/probs: need two equal-length 1-d arrays")
        if not (np.isfinite(v).all() and np.isfinite(p).all()):
            raise ConfigError("size.values/probs: must be finite")
        if (v != np.rint(v)).any() or (v < 1).any():
            raise ConfigError("size.values: support must be positive integers")
        total = p.sum()
        if (p < 0).any() or abs(total - 1.0) > 1e-9:
            raise ConfigError("size.probs: must be nonnegative and sum to 1")
        object.__setattr__(self, "values", _frozen(v, dtype=np.int64))
        object.__setattr__(self, "probs", _frozen(p / total))
        object.__setattr__(self, "mean", float(self.probs @ self.values))

    def sample(self, gen, size):
        return gen.choice(self.values, size=size, p=self.probs)

    def to_dict(self):
        return {"kind": self.kind, "values": self.values.tolist(), "probs": self.probs.tolist()}


# Order-size distribution on {1, 2, ...} with a finite mean.  Each kind has
# the float `mean` (the tabulated kind computes it once, at construction),
# `sample(gen, size)` (int64 draws) and `to_dict()`.
SizeDistribution = DeterministicSize | GeometricSize | TabulatedSize


# ---------------------------------------------------------------------------
# Model configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModelConfig:
    """All primitives of the N-venue order-routing model.

    `beta` weights how strongly each venue attracts market orders, `lam` is the
    per-venue dedicated limit-order rate, `big_lambda` the rate of optimally
    routed limit orders and `mu` the total market-order rate.  `rebate0` is the
    (negative) rebate of the immediate-execution option; venue rebates must be
    pairwise distinct.  `v`, `b_dedicated` and `b_optimized` are the mean order
    sizes and must agree with the means of the attached size distributions.
    """

    n_exchanges: int
    beta: np.ndarray
    lam: np.ndarray
    big_lambda: float
    mu: float
    rebate0: float
    rebates: np.ndarray
    v: float
    b_dedicated: np.ndarray
    b_optimized: float
    type_dist: TypeDistribution
    market_sizes: tuple[SizeDistribution, ...]
    dedicated_sizes: tuple[SizeDistribution, ...]
    optimized_size: SizeDistribution

    def __post_init__(self):
        if not _positive_int(self.n_exchanges):
            raise ConfigError("n_exchanges: must be a positive integer")
        object.__setattr__(self, "n_exchanges", int(self.n_exchanges))
        for name in ("beta", "lam", "rebates", "b_dedicated"):
            key = "lambda" if name == "lam" else name
            try:
                arr = _frozen(getattr(self, name))
            except (TypeError, ValueError):
                raise ConfigError(f"{key}: entries must be numbers") from None
            except OverflowError:  # an integer beyond the float range
                raise ConfigError(f"{key}: must be finite") from None
            if arr.shape != (self.n_exchanges,):
                raise ConfigError(f"{key}: expected {self.n_exchanges} entries")
            object.__setattr__(self, name, arr)
        for name in ("beta", "lam", "big_lambda", "mu", "rebate0", "rebates", "v",
                     "b_dedicated", "b_optimized"):
            x = getattr(self, name)
            if not (np.isfinite(x).all() if isinstance(x, np.ndarray) else math.isfinite(x)):
                raise ConfigError(f"{'lambda' if name == 'lam' else name}: must be finite")
        if (self.beta <= 0).any():
            raise ConfigError("beta: entries must be positive")
        if (self.lam < 0).any():
            raise ConfigError("lambda: entries must be nonnegative")
        if not self.big_lambda >= 0:
            raise ConfigError("big_lambda: must be nonnegative")
        if not self.mu > 0:
            raise ConfigError("mu: must be positive")
        if not self.rebate0 < 0:
            raise ConfigError("rebate0: must be negative")
        if (self.rebates < 0).any():
            raise ConfigError("rebates: entries must be nonnegative")
        if len(set(self.rebates.tolist())) != self.n_exchanges:
            raise ConfigError("rebates: entries must be pairwise distinct")
        if not self.v > 0:
            raise ConfigError("v: must be positive")
        if (self.b_dedicated <= 0).any():
            raise ConfigError("b_dedicated: entries must be positive")
        if not self.b_optimized > 0:
            raise ConfigError("b_optimized: must be positive")
        for name, dists in (("market", self.market_sizes), ("dedicated", self.dedicated_sizes)):
            if len(dists) != self.n_exchanges:
                raise ConfigError(f"size_dists.{name}: expected {self.n_exchanges} distributions")
        for i, d in enumerate(self.market_sizes):
            if abs(d.mean - self.v) > 1e-9 * max(1.0, self.v):
                raise ConfigError(f"size_dists.market[{i}]: mean {d.mean} does not match v={self.v}")
        for i, (d, b) in enumerate(zip(self.dedicated_sizes, self.b_dedicated.tolist())):
            if abs(d.mean - b) > 1e-9 * max(1.0, b):
                raise ConfigError(
                    f"size_dists.dedicated[{i}]: mean {d.mean} does not match b_dedicated[{i}]"
                )
        if abs(self.optimized_size.mean - self.b_optimized) > 1e-9 * max(1.0, self.b_optimized):
            raise ConfigError("size_dists.optimized: mean does not match b_optimized")

    @functools.cached_property
    def bands(self) -> RoutingBands:
        """The routing bands of this config, computed on first use and kept.

        `dataclasses.replace` builds a new config, which computes its own.
        """
        return compute_bands(self)

    def kept(self, make):
        """`make(self)`, made on the first call with this `make` and kept, as `bands` is."""
        kept = self.__dict__.setdefault("_kept", {})
        return kept[make] if make in kept else kept.setdefault(make, make(self))


# ---------------------------------------------------------------------------
# Routing bands and derived constants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RoutingBands:
    """Per-venue type-band edges [a_minus, a_plus] of the routing rule.

    A type gamma is routed to venue i exactly when gamma lies in
    W * [a_minus[i], a_plus[i]] for the current workload W.  `a_plus` is +inf
    for the venue with the top rebate; `empty_band[i]` marks venues that are
    never chosen (a_plus <= a_minus: a band of zero width, which holds one
    type and so no flow, or a band [inf, inf] left by an edge that
    overflowed, count as empty).  `edges` is [a_minus, a_plus], the points at
    which the routing fractions evaluate the type CDF, with both edges of an
    empty band set to +inf: as F(inf) = 1, the top band's fraction is
    1 - F(W a_minus) and an empty band's is exactly 0 at every W > 0.
    """

    a_minus: np.ndarray
    a_plus: np.ndarray
    a_min_global: float
    empty_band: np.ndarray
    edges: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "a_minus", _frozen(self.a_minus))
        object.__setattr__(self, "a_plus", _frozen(self.a_plus))
        object.__setattr__(self, "empty_band", _frozen(self.empty_band, dtype=bool))
        edges = np.concatenate((self.a_minus, self.a_plus))
        edges[np.concatenate((self.empty_band, self.empty_band))] = math.inf
        edges.setflags(write=False)
        object.__setattr__(self, "edges", edges)


def compute_bands(cfg: ModelConfig) -> RoutingBands:
    """Compute the routing-band edges from rebates, beta weights and mu, v.

    Venues i and j pay the same to the type slope[i, j] = (inv_j - inv_i) /
    (r_j - r_i), inv = 1 / (mu beta v), an N x N matrix whose diagonal is
    never formed.  Venue i's upper edge is max(0, its smallest slope to a
    larger rebate), +inf if none; its lower edge is max(floor, its largest
    slope to a smaller rebate), floor = inv_i / (r_i - rebate0) against the
    immediate-execution option.  Each max compares as Python's does (a NaN
    slope loses, a NaN floor wins), and slope[j, i] has slope[i, j]'s bits
    but for a zero's sign, which no max returns.  An edge that overflows
    takes its limit +-inf.  A band of zero width, [inf, inf] included, is
    empty.  Every call warns about empty bands; `ModelConfig.bands` calls
    this once per config.
    """
    r = cfg.rebates
    rise = r - r[:, None]                      # rise[i, j] = r_j - r_i
    above, below = rise > 0.0, rise < 0.0
    off = above | below
    slopes = np.empty_like(rise)
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf is a NaN slope
        inv = 1.0 / (cfg.mu * cfg.beta * cfg.v)
        np.subtract(inv, inv[:, None], out=slopes, where=off)
        np.divide(slopes, rise, out=slopes, where=off)
        floor = inv / (r - cfg.rebate0)
    upper = slopes.min(axis=1, initial=math.inf, where=above)
    lower = slopes.max(axis=1, initial=-math.inf, where=below)
    a_plus = np.where(upper > 0.0, upper, 0.0)
    a_minus = np.where(lower > floor, lower, floor)
    empty = a_plus <= a_minus
    if empty.any():
        warnings.warn(
            f"venues {np.flatnonzero(empty).tolist()} have empty routing bands and will never "
            "receive optimized orders",
            stacklevel=2,
        )
    return RoutingBands(a_minus, a_plus, float(a_minus.min()), empty)


def compute_kappa(cfg: ModelConfig, w0: float, w_star: float) -> float:
    """Lower bound on the fluid workload: (beta_min/beta_max) * min(w0, w_star)."""
    if not w0 > 0:
        raise ValueError("w0 must be positive")
    if not w_star > 0:
        raise ValueError("w_star must be positive")
    return float(cfg.beta.min() / cfg.beta.max() * min(w0, w_star))


# ---------------------------------------------------------------------------
# JSON config schema
# ---------------------------------------------------------------------------

_TYPE_KINDS = {"exponential", "half-normal", "tabulated"}
_SIZE_KINDS = {"deterministic", "geometric", "tabulated"}


def _type_dist_from_dict(d, key: str) -> TypeDistribution:
    if not isinstance(d, dict) or "kind" not in d:
        raise ConfigError(f"{key}: expected a tagged object with a 'kind' field")
    kind = d["kind"]
    try:
        if kind == "exponential":
            return ExponentialType(rate=_number(d["rate"], f"{key}.rate"))
        if kind == "half-normal":
            return HalfNormalType(sigma=_number(d["sigma"], f"{key}.sigma"))
        if kind == "tabulated":
            return TabulatedType(gammas=d["gamma"], cdf_values=d["cdf"])
    except KeyError as exc:
        raise ConfigError(f"{key}: missing field {exc}") from None
    except ConfigError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:  # non-numeric or too large grid entries
        raise ConfigError(f"{key}: {exc}") from None
    raise ConfigError(f"{key}.kind: unknown type distribution '{kind}' (one of {sorted(_TYPE_KINDS)})")


def _size_dist_from_dict(d, key: str) -> SizeDistribution:
    if not isinstance(d, dict) or "kind" not in d:
        raise ConfigError(f"{key}: expected a tagged object with a 'kind' field")
    kind = d["kind"]
    try:
        if kind == "deterministic":
            return DeterministicSize(value=d["value"])
        if kind == "geometric":
            return GeometricSize(p=_number(d["p"], "size.p"))
        if kind == "tabulated":
            return TabulatedSize(values=d["values"], probs=d["probs"])
    except KeyError as exc:
        raise ConfigError(f"{key}: missing field {exc}") from None
    except ConfigError as exc:
        # The size classes name their fields "size.<field>"; name the config key.
        raise ConfigError(key + str(exc).removeprefix("size")) from None
    except (TypeError, ValueError, OverflowError) as exc:  # non-numeric or too large entries
        raise ConfigError(f"{key}: {exc}") from None
    raise ConfigError(f"{key}.kind: unknown size distribution '{kind}' (one of {sorted(_SIZE_KINDS)})")


def _size_dist_list(entry, key: str, n: int) -> tuple[SizeDistribution, ...]:
    # A single tagged object is parsed once and broadcast to all venues.
    if isinstance(entry, dict):
        return (_size_dist_from_dict(entry, key),) * n
    if isinstance(entry, list):
        if len(entry) != n:
            raise ConfigError(f"{key}: expected {n} distributions, got {len(entry)}")
        return tuple(_size_dist_from_dict(e, f"{key}[{i}]") for i, e in enumerate(entry))
    raise ConfigError(f"{key}: expected a tagged object or a list of them")


def config_from_dict(d: dict) -> ModelConfig:
    """Build a ModelConfig from the documented JSON schema (see docs/schema.md)."""
    required = [
        "n_exchanges", "beta", "lambda", "big_lambda", "mu", "rebate0",
        "rebates", "v", "b_dedicated", "b_optimized", "type_dist", "size_dists",
    ]
    for key in required:
        if key not in d:
            raise ConfigError(f"{key}: missing")
    if not _positive_int(d["n_exchanges"]):
        raise ConfigError("n_exchanges: must be a positive integer")
    n = int(d["n_exchanges"])
    sizes = d["size_dists"]
    if not isinstance(sizes, dict):
        raise ConfigError("size_dists: expected an object with market/dedicated/optimized")
    for key in ("market", "dedicated", "optimized"):
        if key not in sizes:
            raise ConfigError(f"size_dists.{key}: missing")
    return ModelConfig(
        n_exchanges=n,
        beta=d["beta"],
        lam=d["lambda"],
        big_lambda=_number(d["big_lambda"], "big_lambda"),
        mu=_number(d["mu"], "mu"),
        rebate0=_number(d["rebate0"], "rebate0"),
        rebates=d["rebates"],
        v=_number(d["v"], "v"),
        b_dedicated=d["b_dedicated"],
        b_optimized=_number(d["b_optimized"], "b_optimized"),
        type_dist=_type_dist_from_dict(d["type_dist"], "type_dist"),
        market_sizes=_size_dist_list(sizes["market"], "size_dists.market", n),
        dedicated_sizes=_size_dist_list(sizes["dedicated"], "size_dists.dedicated", n),
        optimized_size=_size_dist_from_dict(sizes["optimized"], "size_dists.optimized"),
    )


def config_to_dict(cfg: ModelConfig) -> dict:
    return {
        "n_exchanges": cfg.n_exchanges,
        "beta": cfg.beta.tolist(),
        "lambda": cfg.lam.tolist(),
        "big_lambda": cfg.big_lambda,
        "mu": cfg.mu,
        "rebate0": cfg.rebate0,
        "rebates": cfg.rebates.tolist(),
        "v": cfg.v,
        "b_dedicated": cfg.b_dedicated.tolist(),
        "b_optimized": cfg.b_optimized,
        "type_dist": cfg.type_dist.to_dict(),
        "size_dists": {
            "market": [d.to_dict() for d in cfg.market_sizes],
            "dedicated": [d.to_dict() for d in cfg.dedicated_sizes],
            "optimized": cfg.optimized_size.to_dict(),
        },
    }


def load_config(path) -> ModelConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file: no such file '{path}'") from None
    except OSError as exc:
        raise ConfigError(f"config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path}: invalid JSON ({exc})") from exc
    return config_from_dict(data)


def save_config(cfg: ModelConfig, path) -> None:
    with open(path, "w") as fh:
        json.dump(config_to_dict(cfg), fh, indent=2)
        fh.write("\n")

