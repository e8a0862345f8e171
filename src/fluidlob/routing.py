"""Pure functions of the queue state and the workload: the routing argmax,
the routing fractions chi and their derivative, and the stationary workload
(the root of the stationarity gap built from chi).

Everything here is stateless.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import AssumptionError, BracketError
from .model import ModelConfig, RoutingBands, TypeDistribution

__all__ = [
    "QueueState",
    "route",
    "chi",
    "chi_derivative",
    "workload_roots",
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


_ZERO = np.array(0.0)  # a 0-d operand: numpy dispatches it faster than 0.0


def _band_chi(bands: RoutingBands, tdist: TypeDistribution, w) -> np.ndarray:
    """Venue routing fractions max(F(w a_plus) - F(w a_minus), 0).

    `w` may be a scalar or an array of workloads; the result has one row of
    N venue fractions per workload.  One `cdf` call covers both edges
    (`bands.edges`); the infinite upper edge contributes F = 1, written into
    its slot, and empty bands collapse to 0 via the max.  No fraction
    exceeds 1, as F takes values in [0, 1].
    """
    w = np.asarray(w, dtype=float)
    f = tdist.cdf(w[..., None] * bands.edges)
    f[..., bands.top] = 1.0
    n = len(bands.a_minus)
    chi = f[..., n:] - f[..., :n]
    return np.maximum(chi, _ZERO, out=chi)


def chi(cfg: ModelConfig, w: float) -> np.ndarray:
    """Routing fractions (chi_0, chi_1, ..., chi_N) at workload w > 0, index 0
    first.  Components lie in [0, 1] and sum to 1.
    """
    if not w > 0:
        raise ValueError("chi is undefined at zero workload")
    venues = _band_chi(cfg.bands, cfg.type_dist, w)
    chi0 = min(max(1.0 - float(venues.sum()), 0.0), 1.0)
    return np.concatenate(([chi0], venues))


def chi_derivative(cfg: ModelConfig, w: float) -> np.ndarray:
    """d chi_i / dW at workload w: a_plus f(w a_plus) - a_minus f(w a_minus).

    Infinite upper edges contribute 0 (the density vanishes at infinity for
    any finite-mean type distribution) and empty bands contribute 0 outright.
    """
    if not w > 0:
        raise ValueError("w must be positive")
    bands = cfg.bands
    f = cfg.type_dist.pdf
    lo = bands.a_minus * np.asarray(f(w * bands.a_minus), dtype=float)
    ap = bands.edges[cfg.n_exchanges:]
    hi = np.where(bands.finite, ap * np.asarray(f(w * ap), dtype=float), 0.0)
    out = hi - lo
    out[bands.empty_band] = 0.0
    return out


def _stationarity_gap(cfg: ModelConfig, w):
    """Inflow minus service at workload w; the equilibrium workload is its root.

    `w` may be a scalar (returns a float) or a 1-d array of workloads (returns
    one gap per workload, bit-identical to the scalar values).
    """
    total_chi = _band_chi(cfg.bands, cfg.type_dist, w).sum(axis=-1)
    gap = (
        cfg.b_dedicated @ cfg.lam
        + cfg.b_optimized * cfg.big_lambda * total_chi
        - cfg.v * cfg.mu
    )
    return float(gap) if np.ndim(w) == 0 else gap


def _throughput_sides(cfg: ModelConfig) -> tuple[float, float, float]:
    """The three sides of the throughput condition lam_eff < v mu < lam_eff + b_o Lambda."""
    lam_eff = float(cfg.b_dedicated @ cfg.lam)
    return lam_eff, cfg.v * cfg.mu, lam_eff + cfg.b_optimized * cfg.big_lambda


def _require_throughput(cfg: ModelConfig) -> None:
    lam_eff, v_mu, total = _throughput_sides(cfg)
    if not lam_eff < v_mu:
        raise AssumptionError(
            f"dedicated inflow {lam_eff} must stay below service capacity {v_mu}"
        )
    if not v_mu < total:
        raise AssumptionError(f"service capacity must stay below the total inflow {total}")


def workload_roots(cfg: ModelConfig) -> list[float]:
    """All roots of the stationarity gap found by geometric scan plus bisection.

    Scans [1e-6, 1e6] * (v mu / Lambda); each sign change is bisected to
    relative width 1e-13.  Raises BracketError when no sign change exists and
    warns when more than one root is found (multiplicity is surfaced, never
    silently resolved).
    """
    _require_throughput(cfg)
    anchor = cfg.v * cfg.mu / cfg.big_lambda
    grid = np.geomspace(1e-6 * anchor, 1e6 * anchor, 301)
    vals = _stationarity_gap(cfg, grid).tolist()

    roots: list[float] = []
    for k in range(len(grid) - 1):
        lo, hi = grid[k], grid[k + 1]
        flo, fhi = vals[k], vals[k + 1]
        if flo == 0.0:
            if not roots or abs(roots[-1] - lo) > 1e-12 * lo:
                roots.append(float(lo))
            continue
        if flo * fhi < 0:
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if hi - lo <= 1e-13 * mid:
                    break
                fm = _stationarity_gap(cfg, mid)
                if fm == 0.0:
                    lo = hi = mid
                    break
                if (fm > 0) == (flo > 0):
                    lo, flo = mid, fm
                else:
                    hi = mid
            roots.append(0.5 * (lo + hi))
    if vals[-1] == 0.0:
        roots.append(float(grid[-1]))
    if not roots:
        raise BracketError(
            "no sign change of the stationarity gap on the scan grid; "
            "the configuration violates the existence conditions"
        )
    if len(roots) > 1:
        warnings.warn(
            f"multiple stationary workload roots found: {roots}; returning the smallest",
            stacklevel=2,
        )
    return roots


def solve_workload_star(cfg: ModelConfig) -> float:
    """Equilibrium workload (the smallest root when several exist)."""
    return min(workload_roots(cfg))
