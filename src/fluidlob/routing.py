"""Pure functions of the queue state: market-order splitting rates, expected
delays, the routing argmax, routing fractions and their derivative.

Everything here is stateless and safe for unrestricted concurrent use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ModelConfig, RoutingBands, TypeDistribution, compute_bands

__all__ = [
    "QueueState",
    "market_rates",
    "expected_delays",
    "route",
    "chi",
    "chi_derivative",
    "mu_gradient",
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


def market_rates(cfg: ModelConfig, state: QueueState, epsilon: float = 0.0) -> np.ndarray:
    """Per-venue market-order rates mu * beta_i q_i / (beta . q).

    With epsilon > 0 the denominator is clipped from below at epsilon; with
    epsilon = 0 an all-empty state yields the zero vector (service suspended).
    Components sum to mu whenever the denominator is not clipped.
    """
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    num = cfg.mu * cfg.beta * state.q
    if epsilon > 0:
        return num / max(state.workload, epsilon)
    if state.workload <= 0:
        return np.zeros(cfg.n_exchanges)
    return num / state.workload


def expected_delays(cfg: ModelConfig, state: QueueState) -> np.ndarray:
    """Expected delay per venue: W / (mu beta_i v) for nonempty queues, else 0.

    The immediate-execution option (index 0) always has zero delay and is
    handled by the caller.
    """
    base = state.workload / (cfg.mu * cfg.beta * cfg.v)
    return np.where(state.q > 0, base, 0.0)


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


def chi(cfg: ModelConfig, w: float, epsilon: float = 0.0) -> np.ndarray:
    """Routing fractions (chi_0, chi_1, ..., chi_N) at workload w, index 0 first.

    With epsilon > 0 the workload is clipped from below at epsilon before the
    band formula is applied; epsilon = 0 requires w > 0.  Components lie in
    [0, 1] and sum to 1.
    """
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    if epsilon > 0:
        if w < 0:
            raise ValueError("w must be nonnegative")
        w_eff = max(w, epsilon)
    else:
        if not w > 0:
            raise ValueError("chi is undefined at zero workload without truncation")
        w_eff = w
    venues = _band_chi(compute_bands(cfg), cfg.type_dist, w_eff)
    chi0 = min(max(1.0 - float(venues.sum()), 0.0), 1.0)
    return np.concatenate(([chi0], venues))


def chi_derivative(cfg: ModelConfig, w: float) -> np.ndarray:
    """d chi_i / dW at workload w: a_plus f(w a_plus) - a_minus f(w a_minus).

    Infinite upper edges contribute 0 (the density vanishes at infinity for
    any finite-mean type distribution) and empty bands contribute 0 outright.
    """
    if not w > 0:
        raise ValueError("w must be positive")
    bands = compute_bands(cfg)
    f = cfg.type_dist.pdf
    lo = bands.a_minus * np.asarray(f(w * bands.a_minus), dtype=float)
    ap = bands.edges[cfg.n_exchanges:]
    hi = np.where(bands.finite, ap * np.asarray(f(w * ap), dtype=float), 0.0)
    out = hi - lo
    out[bands.empty_band] = 0.0
    return out


def mu_gradient(cfg: ModelConfig, state: QueueState) -> np.ndarray:
    """Jacobian of the market-rate map: row i is mu beta_i [W e_i - q_i beta] / W^2."""
    w = state.workload
    if not w > 0:
        raise ValueError("gradient is undefined at zero workload")
    grad = -np.outer(cfg.beta * state.q, cfg.beta) * (cfg.mu / w**2)
    grad[np.diag_indices_from(grad)] += cfg.mu * cfg.beta / w
    return grad
