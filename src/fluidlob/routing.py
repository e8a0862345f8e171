"""Pure functions of the queue state and the workload: the routing argmax,
the routing fractions chi and their derivative, and the stationary workload.

The venue bands tile [W a_min, inf), so the venue fractions sum to
1 - F(W a_min) and the stationary workload has a closed form in the type's
upper-tail quantile (`solve_workload_star`).  Everything here is stateless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AssumptionError
from .model import ModelConfig, RoutingBands, TypeDistribution

__all__ = [
    "QueueState",
    "route",
    "chi",
    "chi_derivative",
    "solve_workload_star",
]


@dataclass(frozen=True)
class QueueState:
    """Queue-length vector together with its workload W = beta . q."""

    q: np.ndarray
    workload: float

    @classmethod
    def of(cls, cfg: ModelConfig, q) -> "QueueState":
        q = np.asarray(q, dtype=float)
        if q.shape != (cfg.n_exchanges,):
            raise ValueError(f"expected {cfg.n_exchanges} queue lengths")
        if not np.all(np.isfinite(q)):
            raise ValueError("queue lengths must be finite")
        if np.any(q < 0):
            raise ValueError("queue lengths must be nonnegative")
        q = q.copy()
        q.setflags(write=False)
        return cls(q=q, workload=float(cfg.beta @ q))


def _router(cfg: ModelConfig):
    """The routing argmax as a plain-float rule `pick(gamma, queues, w)`.

    `queues` holds the N queue lengths (any scale) and `w` the workload on the
    scale of the delays.  Payoffs follow numpy's operation order: option 0
    pays gamma*rebate0, venue i pays gamma*r_i - W / ((mu*beta_i)*v) when its
    queue is nonempty and gamma*r_i otherwise.  Exact payoff ties go to the
    highest rebate, which puts index 0 last.  With every queue empty no delay
    is formed and the top-rebate venue wins.
    """
    rebate0 = float(cfg.rebate0)
    venues = [
        (i + 1, float(r), float(s))
        for i, (r, s) in enumerate(zip(cfg.rebates, cfg.mu * cfg.beta * cfg.v))
    ]

    def pick(gamma, queues, w) -> int:
        best, best_r, target = gamma * rebate0, rebate0, 0
        for (k, r, s), q in zip(venues, queues):
            pay = gamma * r - w / s if q > 0 else gamma * r
            if pay > best or (pay == best and r > best_r):
                best, best_r, target = pay, r, k
        return target

    return pick


def route(cfg: ModelConfig, gamma: float, state: QueueState) -> int:
    """Venue choice of a type-gamma investor: argmax of gamma*r_i - delay_i.

    Index 0 is the immediate-execution option with rebate `rebate0` and zero
    delay.  Floating-point payoff ties (probability zero for atomless types)
    are broken in favour of the highest rebate, which puts index 0 last.
    """
    if not gamma > 0:
        raise ValueError("gamma must be positive")
    if not state.workload > 0:
        raise ValueError("routing is undefined at zero workload")
    return _router(cfg)(gamma, state.q.tolist(), state.workload)


def _band_chi(
    bands: RoutingBands, tdist: TypeDistribution, w, out=None, *, edges=None, products=None
) -> np.ndarray:
    """Venue routing fractions F(w a_plus) - F(w a_minus) at workloads w > 0.

    `w` may be a scalar or an array of workloads; the result has one row of
    N venue fractions per workload.  One `cdf` call covers both edges
    (`bands.edges`): an infinite edge gives F(inf) = 1, so the top band takes
    1 - F(w a_minus) and an empty band, both of whose edges are infinite,
    exactly 0.  Not defined at w <= 0, where the top fraction is not
    1 - F(w a_minus) (it is 0 * inf, NaN, at w = 0).

    Buffers: by default a call allocates its edge products and its result.
    A caller that evaluates many batches of B workloads passes `edges`,
    `bands.edges` tiled to (B, 2N), which it keeps; `products`, a (B, 2N)
    scratch array that each call overwrites with the products and then their
    `cdf`; and `out`, the (B, N) array that receives the fractions and is
    returned.  The bits are those of the allocating call.
    """
    w = np.asarray(w, dtype=float)
    f = np.multiply(w[..., None], bands.edges if edges is None else edges, out=products)
    tdist.cdf(f, out=f)
    n = len(bands.a_minus)
    return np.subtract(f[..., n:], f[..., :n], out=out)


def chi(cfg: ModelConfig, w: float) -> np.ndarray:
    """Routing fractions (chi_0, chi_1, ..., chi_N) at workload w in (0, inf),
    index 0 first.  Components lie in [0, 1] and sum to 1.
    """
    if not 0 < w < math.inf:
        raise ValueError("chi is defined for workloads in (0, inf)")
    venues = _band_chi(cfg.bands, cfg.type_dist, w)
    chi0 = min(max(1.0 - float(venues.sum()), 0.0), 1.0)
    return np.concatenate(([chi0], venues))


def chi_derivative(cfg: ModelConfig, w: float) -> np.ndarray:
    """d chi_i / dW at workload w in (0, inf):
    a_plus f(w a_plus) - a_minus f(w a_minus).

    An infinite edge, the top band's upper edge or either edge of an empty
    band, contributes 0 (the density vanishes at infinity for any
    finite-mean type distribution), so it is taken as 0 here.
    """
    if not 0 < w < math.inf:
        raise ValueError("w must lie in (0, inf)")
    edges = np.where(np.isinf(cfg.bands.edges), 0.0, cfg.bands.edges)
    g = edges * np.asarray(cfg.type_dist.pdf(w * edges), dtype=float)
    return g[cfg.n_exchanges:] - g[: cfg.n_exchanges]


def _throughput_sides(cfg: ModelConfig) -> tuple[float, float, float]:
    """The three sides of the throughput condition lam_eff < v mu < lam_eff + b_o Lambda."""
    lam_eff = float(cfg.b_dedicated @ cfg.lam)
    return lam_eff, cfg.v * cfg.mu, lam_eff + cfg.b_optimized * cfg.big_lambda


def _require_throughput(cfg: ModelConfig) -> tuple[float, float, float]:
    lam_eff, v_mu, total = _throughput_sides(cfg)
    if not lam_eff < v_mu:
        raise AssumptionError(
            f"dedicated inflow {lam_eff} must stay below service capacity {v_mu}"
        )
    if not v_mu < total:
        raise AssumptionError(f"service capacity must stay below the total inflow {total}")
    return lam_eff, v_mu, total


def solve_workload_star(cfg: ModelConfig) -> float:
    """Equilibrium workload W*: the root of the stationarity gap
    lam_eff + b_o Lambda sum_i chi_i(W) - v mu.

    The bands tile [W a_min, inf), so sum_i chi_i(W) = 1 - F(W a_min), the
    gap is monotone in W, and W* = isf(s) / a_min with
    s = (v mu - lam_eff) / (b_o Lambda).  The throughput condition puts s in
    (0, 1), so W* exists; it is unique wherever F strictly increases, and
    otherwise the smallest root.
    """
    lam_eff, v_mu, _ = _require_throughput(cfg)
    tail = (v_mu - lam_eff) / (cfg.b_optimized * cfg.big_lambda)
    return cfg.type_dist.isf(tail) / cfg.bands.a_min_global
