"""Shared test utilities: config builders, randomized generators, and the
independent oracles (brute-force routing, finite differences) that the
package implementations are checked against.
"""

from __future__ import annotations

import hashlib
import math
import warnings
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

from fluidlob import (
    ExponentialType,
    HalfNormalType,
    ModelConfig,
    QueueState,
    RoutingBands,
    chi_derivative,
    compute_bands,
    config_from_dict,
    fluid_rhs,
    jacobian,
    solve_workload_star,
)
from fluidlob.errors import AssumptionError, IntegrationError, SingularityError
from fluidlob.fluid import _CLIP_TOL, _FLOOR_FACTOR, _BatchResult
from fluidlob.routing import _router
from fluidlob.sim import _sample_grid, _stream_generator
from fluidlob.stability import (
    STABILITY_TOL,
    AssumptionReport,
    Equilibrium,
    GlobalStabilityReport,
    LocalStabilityReport,
    SpectrumReport,
    _rank1_parts,
)

REPO = Path(__file__).resolve().parents[1]
FIXTURES = REPO / "fixtures"


def ref1_dict() -> dict:
    return {
        "n_exchanges": 2,
        "beta": [2.0, 1.0],
        "lambda": [0.3, 0.2],
        "big_lambda": 1.0,
        "mu": 1.0,
        "rebate0": -1.0,
        "rebates": [1.0, 2.0],
        "v": 1.0,
        "b_dedicated": [1.0, 1.0],
        "b_optimized": 1.0,
        "type_dist": {"kind": "exponential", "rate": 1.0},
        "size_dists": {
            "market": {"kind": "deterministic", "value": 1},
            "dedicated": {"kind": "deterministic", "value": 1},
            "optimized": {"kind": "deterministic", "value": 1},
        },
    }


def make_config(**overrides) -> ModelConfig:
    d = ref1_dict()
    d.update(overrides)
    return config_from_dict(d)


def strict_config() -> ModelConfig:
    """REF1 geometry with big_lambda = 5: the tail-monotonicity condition on
    gamma*f(gamma) genuinely holds (checked in test_model), so per-venue chi
    monotonicity applies on [kappa, 10 kappa]."""
    return make_config(big_lambda=5.0)


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------

def brute_force_route(cfg: ModelConfig, gamma: float, q) -> int:
    """Literal payoff argmax, written independently of the package routing.

    Option 0 pays gamma*rebate0 with no delay; venue i pays gamma*r_i minus
    q_i / (v * mu_i(q)) when its queue is nonempty (zero delay otherwise).
    Ties go to the higher rebate.
    """
    q = np.asarray(q, dtype=float)
    w = float(np.dot(cfg.beta, q))
    best = (gamma * cfg.rebate0, cfg.rebate0, 0)
    for i in range(cfg.n_exchanges):
        if q[i] > 0:
            mu_i = cfg.mu * cfg.beta[i] * q[i] / w
            delay = q[i] / (cfg.v * mu_i)
        else:
            delay = 0.0
        cand = (gamma * cfg.rebates[i] - delay, cfg.rebates[i], i + 1)
        if cand[:2] > best[:2]:
            best = cand
    return best[2]


def band_route(cfg: ModelConfig, gamma: float, w: float) -> int:
    """Route by band membership: the venue whose interval W*[a-, a+] holds gamma."""
    bands = compute_bands(cfg)
    for i in range(cfg.n_exchanges):
        if bands.empty_band[i]:
            continue
        if w * bands.a_minus[i] <= gamma <= w * bands.a_plus[i]:
            return i + 1
    return 0


def numpy_route(cfg: ModelConfig, gamma: float, state: QueueState) -> int:
    """The routing argmax on numpy arrays, as `route` computed it before the
    plain-float rule: payoff vector, exact ties to the highest rebate."""
    delays = np.where(state.q > 0, state.workload / (cfg.mu * cfg.beta * cfg.v), 0.0)
    payoffs = np.concatenate(([gamma * cfg.rebate0], gamma * cfg.rebates - delays))
    ties = np.flatnonzero(payoffs == payoffs.max())
    all_rebates = np.concatenate(([cfg.rebate0], cfg.rebates))
    return int(ties[np.argmax(all_rebates[ties])])


def two_cdf_band_chi(bands, tdist, w) -> np.ndarray:
    """The band formula with one `cdf` call per edge and `np.clip`, as the
    routing fractions were computed before the fused edge vector."""
    w = np.asarray(w, dtype=float)
    lo = tdist.cdf(w[..., None] * bands.a_minus)
    finite = np.isfinite(bands.a_plus)
    ap = np.where(finite, bands.a_plus, 0.0)
    hi = np.where(finite, tdist.cdf(w[..., None] * ap), 1.0)
    return np.clip(hi - lo, 0.0, 1.0)


def two_cdf_rhs(cfg: ModelConfig, q: np.ndarray) -> np.ndarray:
    """The batched drift as the expression b_d lam + b_o Lambda chi(W) -
    v mu beta q / W, term by term with the two-cdf band formula: the
    operation order of the field before it became one matrix product."""
    w = q @ cfg.beta
    chi_v = two_cdf_band_chi(cfg.bands, cfg.type_dist, w)
    service = (cfg.v * cfg.mu) * (cfg.beta * q) / w[:, None]
    return cfg.b_dedicated * cfg.lam + (cfg.b_optimized * cfg.big_lambda) * chi_v - service


def loop_field_operands(cfg: ModelConfig) -> tuple[np.ndarray, np.ndarray]:
    """The field's operands one band edge at a time: the edges other than
    +inf, in the order of `bands.edges`, and the matrix M of
    `fluid._field_matrix`, padded to two columns."""
    n, sign = cfg.n_exchanges, cfg.type_dist.cdf_sign
    edges = [e for e in cfg.bands.edges.tolist() if e != math.inf]
    const, n2 = len(edges), max(n, 2)
    matrix = np.zeros((const + 1 + n2, n2))
    row = 0
    for j, e in enumerate(cfg.bands.edges.tolist()):
        venue, side = (j, -sign) if j < n else (j - n, sign)  # a_minus, then a_plus
        at = const if e == math.inf else row
        row += e != math.inf
        matrix[at, venue] += side * (cfg.b_optimized * cfg.big_lambda)
    for i in range(n):
        matrix[const, i] += sign * (cfg.b_dedicated[i] * cfg.lam[i])
        matrix[const + 1 + i, i] = -(cfg.v * cfg.mu) * cfg.beta[i]
    return np.array(edges), matrix


def _padded(x: np.ndarray) -> np.ndarray:
    """The (B, N) `x` in the corner of a (max(B, 2), max(N, 2)) array of
    ones: numpy hands a product with a single row or column to gemv, whose
    bits depend on the batch, and the kernel pads its products so."""
    rows, n = x.shape
    out = np.ones((max(rows, 2), max(n, 2)))
    out[:rows, :n] = x
    return out


def unhoisted_rhs(cfg: ModelConfig, q: np.ndarray, w=None) -> np.ndarray:
    """The batched drift in the integrator's operation order, every operand
    formed per call from `loop_field_operands`: one product
    [S(W e), S(inf), q / W] @ M, S the type's `signed_cdf`, at the
    workloads `w` (q @ beta by default)."""
    q = np.asarray(q, dtype=float)
    rows, n = q.shape
    w = q @ cfg.beta if w is None else w
    edges, matrix = loop_field_operands(cfg)
    w_row = _padded(np.asarray(w)[None, :])[0]
    lhs = np.concatenate((
        cfg.type_dist.signed_cdf(edges[:, None] * w_row),
        np.full((1, len(w_row)), float(cfg.type_dist.cdf_sign)),
        _padded(q).T / w_row,
    ))
    return np.dot(lhs.T, matrix)[:rows, :n]


def old_order_rk4_step(cfg, qc, h, *, in_s=False):
    """One classical RK4 step of size h from the (B, N) states qc in the
    operation order of the kernel before its stages became stage products:
    the field as one product (`unhoisted_rhs`), times W in s (`in_s`), stage
    j the sum qc + a k_(j-1), its workloads one product with beta, and the
    node qc plus one product of (k1, ..., k4) with (h/6) (1, 2, 2, 1), each
    product padded as the kernel's are.  Returns the new states."""
    rows, n = qc.shape
    beta = np.zeros((2, max(n, 2)))
    beta[:, :n] = cfg.beta

    def field(q, w):
        f = unhoisted_rhs(cfg, q, w)
        return f * w[:, None] if in_s else f

    def workload(q):
        return np.dot(beta, _padded(q).T)[0, :rows]

    k1 = field(qc, qc @ cfg.beta)
    q2 = qc + 0.5 * h * k1
    k2 = field(q2, workload(q2))
    q3 = qc + 0.5 * h * k2
    k3 = field(q3, workload(q3))
    q4 = qc + h * k3
    k4 = field(q4, workload(q4))
    weights = np.tile((h / 6.0) * np.array([1.0, 2.0, 2.0, 1.0]), (2, 1))
    ks = np.stack([_padded(k) for k in (k1, k2, k3, k4)])
    node = np.dot(weights, ks.reshape(4, -1))[0].reshape(ks.shape[1:])[:rows, :n]
    return qc + node


def loop_stage_operands(cfg: ModelConfig) -> tuple[np.ndarray, np.ndarray]:
    """The RK4 kernel's unit stage matrix, one entry at a time: rows
    [c W e; q; W, ..., W] from a state q with n2 = max(N, 2) rows, c the
    type's `cdf_scale` and e the edges of `loop_field_operands`; and the
    transpose of that field matrix with its constant row first."""
    edges, matrix = loop_field_operands(cfg)
    n2, m = matrix.shape[1], len(edges)
    beta = list(cfg.beta) + [0.0] * (n2 - cfg.n_exchanges)
    unit = np.zeros((m + 2 * n2, n2))
    for i in range(n2):
        for r, e in enumerate(edges.tolist()):
            unit[r, i] = (e * cfg.type_dist.cdf_scale) * beta[i]
        unit[m + i, i] = 1.0
        unit[m + n2:, i] = beta[i]
    field = np.concatenate((matrix[m:m + 1], matrix[:m], matrix[m + 1:])).T
    return unit, np.ascontiguousarray(field)


def _feature_major(q: np.ndarray) -> np.ndarray:
    """The (B, N) `q` transposed into the corner of a (max(N, 2), 8k) array
    of ones, k the fewest whole groups of 8 columns that hold B: the RK4
    kernel's padding (`fluid._COLUMNS`)."""
    rows, n = q.shape
    out = np.ones((max(n, 2), -(-rows // 8) * 8))
    out[:n, :rows] = q.T
    return out


def _stage_product(cfg, blocks, a):
    """Stage product of the RK4 kernel: [unit, 0, ..., a unit] times the
    stacked (n2, max(B, 2)) blocks [qc; h k1; ...], or unit times qc alone."""
    unit, _ = loop_stage_operands(cfg)
    if len(blocks) > 1:
        unit = np.hstack([unit] + [np.zeros_like(unit)] * (len(blocks) - 2) + [a * unit])
    return np.dot(unit, np.concatenate(blocks))


def oracle_workload(cfg, q: np.ndarray) -> np.ndarray:
    """The workloads of (B, N) states as the RK4 kernel forms them: the last
    row of the stage-1 product."""
    return _stage_product(cfg, [_feature_major(q)], None)[-1, :len(q)]


def oracle_rk4_step(cfg, qc, h, *, in_s=False):
    """One classical RK4 step of size h from the (B, N) states qc in the
    kernel's operation order, every operand formed anew from
    `loop_stage_operands`, on states padded as the kernel's
    (`_feature_major`): stage j's product gives its rows [c W e; q; W, ...],
    the type's `scaled_cdf` and q / W complete [S(inf); S(W e); q / W], the
    product with h M' gives h k_j, times W in s (`in_s`), and the node is
    [I, I/6, I/3, I/3, I/6] times [qc; h k1; ...; h k4].  Returns the new
    states and the (4, B) stage workloads, the first
    `oracle_workload(cfg, qc)`."""
    rows, n = qc.shape
    _, field = loop_stage_operands(cfg)
    n2 = len(field)
    m = field.shape[1] - 1 - n2
    blocks, stage_w = [_feature_major(qc)], []
    for a in (None, 0.5, 0.5, 1.0):
        y = _stage_product(cfg, blocks, a)
        z, q, w = y[:m], y[m:m + n2], y[m + n2:]
        stage_w.append(w[-1, :rows])
        sign = np.full((1, q.shape[1]), float(cfg.type_dist.cdf_sign))
        hk = np.dot(field * h, np.concatenate((sign, cfg.type_dist.scaled_cdf(z), q / w)))
        blocks.append(hk * w if in_s else hk)
    eye = np.eye(n2)
    node = np.dot(np.hstack((eye, eye / 6.0, eye / 3.0, eye / 3.0, eye / 6.0)), np.concatenate(blocks))
    return node[:n, :rows].T, np.array(stage_w)


def oracle_integrate_batch(
    cfg, q0s, horizon, dt, kappas, *, store_states=False, on_error="raise"
):
    """Classical RK4 over a batch, step for step as `_integrate_batch` runs
    it, without its buffers: each node's workload formed anew
    (`oracle_workload`), per-trajectory masks for every check, `np.clip` for
    the undershoot, and each step formed anew (`oracle_rk4_step`).  The grid
    has the fewest uniform steps no longer than `dt`; with on_error="raise"
    the first failure raises."""
    q0s = np.asarray(q0s, dtype=float)
    n_traj, _ = q0s.shape
    n_steps = max(1, math.ceil(horizon / dt - 1e-12))
    dt = horizon / n_steps
    floor = _FLOOR_FACTOR * np.asarray(kappas, dtype=float)

    q = q0s.copy()
    w = oracle_workload(cfg, q)
    if np.any(w <= 0):
        raise ValueError("every initial state needs positive workload")

    alive = np.ones(n_traj, dtype=bool)
    all_alive = True
    reasons: list = [None] * n_traj
    fail_time = np.full(n_traj, np.nan)
    min_w = w.copy()
    times = np.arange(n_steps + 1) * dt
    times[-1] = horizon
    w_hist = np.empty((n_steps + 1, n_traj))
    w_hist[0] = w
    q_hist = None
    if store_states:
        q_hist = np.empty((n_steps + 1, n_traj, q.shape[1]))
        q_hist[0] = q

    def fail(mask, message):
        nonlocal alive, all_alive
        if on_error == "raise":
            idx = int(np.flatnonzero(mask)[0])
            raise_map = {"floor": SingularityError, "negative": IntegrationError}
            raise raise_map[message](f"trajectory {idx}: {message} at t={times[step]:.6g}")
        for idx in np.flatnonzero(mask):
            reasons[idx] = message
            fail_time[idx] = times[step]
        alive = alive & ~mask
        all_alive = False

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for step in range(1, n_steps + 1):
            q_new, _ = oracle_rk4_step(cfg, q, dt)
            low = np.min(q_new, axis=1)
            bad = alive & ~(low >= -_CLIP_TOL)
            if bad.any():
                fail(bad, "negative")
            np.clip(q_new, 0.0, None, out=q_new)

            w_new = oracle_workload(cfg, q_new)
            bad = alive & ~(w_new >= floor)
            if bad.any():
                fail(bad, "floor")

            if all_alive:
                q, w = q_new, w_new
                min_w = np.minimum(min_w, w)
            else:
                q = np.where(alive[:, None], q_new, q)
                w = np.where(alive, w_new, w)
                min_w = np.where(alive, np.minimum(min_w, w), min_w)
            w_hist[step] = w
            if store_states:
                q_hist[step] = q

    return _BatchResult(
        times=np.broadcast_to(times[:, None], (n_steps + 1, n_traj)),
        workload=w_hist,
        states=q_hist,
        terminal=q,
        min_workload=min_w,
        failed=~alive,
        fail_reason=reasons,
        fail_time=fail_time,
        steps=n_steps,
        pilot_steps=0,
        max_gap=0.0,
    )


class _OracleStream:
    """Block-buffered draws from one named substream; counts logical draws.

    A stream of event times at rate 0 is absent: its `draw` is None and it
    never draws.
    """

    def __init__(self, seed: int, name: str, draw):
        self.name = name
        self._gen = _stream_generator(seed, name)
        self._draw = draw
        self._buf = []
        self._pos = 0
        self.count = 0

    def take(self):
        if self._pos >= len(self._buf):
            self._buf = self._draw(self._gen, 4096).tolist()
            self._pos = 0
        value = self._buf[self._pos]
        self._pos += 1
        self.count += 1
        return value

    def first(self) -> float:
        return self.take() if self._draw is not None else math.inf


def _oracle_exp_draw(rate: float):
    if rate == 0:
        return None
    scale = 1.0 / rate
    return lambda gen, size: gen.exponential(scale, size)


def _oracle_unif_draw(gen, size):
    return gen.random(size)


def oracle_simulate(cfg: ModelConfig, sim) -> dict:
    """The simulator as one event loop, step for step as `simulate` ran it
    before the precomputed schedule: each step scans the heads of the time
    streams for the earliest (ties to the market candidate, then the lowest
    dedicated venue, then the optimized stream), draws one value at a time
    and recomputes the workload after every event.

    Returns the `SimPath` fields except `counters`, and under "counts" the
    number of draws taken from each named stream.
    """
    n = sim.n
    n_venues = cfg.n_exchanges
    beta = [float(b) for b in cfg.beta]
    horizon = float(sim.horizon)
    grid = _sample_grid(horizon, float(sim.sample_dt))
    n_grid = len(grid)
    eps = float(sim.epsilon)
    seed = sim.seed

    queues = [int(x) for x in np.rint(np.asarray(sim.q0_scaled) * n)]
    arr_ded = [0] * n_venues
    arr_opt = [0] * n_venues
    served = [0] * n_venues
    routed_zero = 0

    out_q = np.empty((n_grid, n_venues))
    out_ad = np.empty((n_grid, n_venues))
    out_ao = np.empty((n_grid, n_venues))
    out_d = np.empty((n_grid, n_venues))
    out_r0 = np.empty(n_grid)

    stream = _OracleStream
    ded_times = [stream(seed, f"ded-times-{i}", _oracle_exp_draw(n * cfg.lam[i])) for i in range(n_venues)]
    ded_sizes = [stream(seed, f"ded-sizes-{i}", cfg.dedicated_sizes[i].sample) for i in range(n_venues)]
    opt_times = stream(seed, "opt-times", _oracle_exp_draw(n * cfg.big_lambda))
    opt_types = stream(seed, "opt-types", cfg.type_dist.sample)
    opt_sizes = stream(seed, "opt-sizes", cfg.optimized_size.sample)
    mkt_times = stream(seed, "mkt-times", _oracle_exp_draw(n * cfg.mu))
    mkt_accept = stream(seed, "mkt-accept", _oracle_unif_draw)
    mkt_venue = stream(seed, "mkt-venue", _oracle_unif_draw)
    mkt_sizes = [stream(seed, f"mkt-sizes-{i}", cfg.market_sizes[i].sample) for i in range(n_venues)]

    next_ded = [s.first() for s in ded_times]
    next_opt = opt_times.first()
    next_mkt = mkt_times.take()
    pick_venue = _router(cfg)

    def workload_int() -> float:
        total = 0.0
        for i in range(n_venues):
            total += beta[i] * queues[i]
        return total

    w_int = workload_int()
    min_w = w_int / n
    grid_pos = 0

    def emit_until(limit: float):
        nonlocal grid_pos
        while grid_pos < n_grid and grid[grid_pos] < limit:
            for i in range(n_venues):
                out_q[grid_pos, i] = queues[i] / n
                out_ad[grid_pos, i] = arr_ded[i] / n
                out_ao[grid_pos, i] = arr_opt[i] / n
                out_d[grid_pos, i] = served[i] / n
            out_r0[grid_pos] = routed_zero / n
            grid_pos += 1

    while True:
        tau = next_mkt
        kind = -1  # market
        for i in range(n_venues):
            if next_ded[i] < tau:
                tau = next_ded[i]
                kind = i
        if next_opt < tau:
            tau = next_opt
            kind = -2  # optimized
        if tau > horizon:
            break
        emit_until(tau)

        if kind >= 0:
            i = kind
            size = ded_sizes[i].take()
            queues[i] += size
            arr_ded[i] += size
            next_ded[i] = tau + ded_times[i].take()
        elif kind == -2:
            gamma = opt_types.take()
            if gamma <= 0.0:
                gamma = 5e-324
            size = opt_sizes.take()
            target = pick_venue(gamma, queues, w_int / n)
            if target == 0:
                routed_zero += 1
            else:
                queues[target - 1] += size
                arr_opt[target - 1] += size
            next_opt = tau + opt_times.take()
        else:
            u = mkt_accept.take()
            if eps > 0:
                accept_p = min(1.0, (w_int / n) / eps)
            else:
                accept_p = 1.0 if w_int > 0 else 0.0
            if u < accept_p:
                pick = mkt_venue.take() * w_int
                acc = 0.0
                i = n_venues - 1
                for j in range(n_venues):
                    acc += beta[j] * queues[j]
                    if pick < acc:
                        i = j
                        break
                size = mkt_sizes[i].take()
                delivered = size if size <= queues[i] else queues[i]
                queues[i] -= delivered
                served[i] += delivered
            next_mkt = tau + mkt_times.take()

        w_int = workload_int()
        w_scaled = w_int / n
        if w_scaled < min_w:
            min_w = w_scaled

    emit_until(horizon + 1.0)

    streams = [*ded_times, *ded_sizes, opt_times, opt_types, opt_sizes, mkt_times, mkt_accept,
               mkt_venue, *mkt_sizes]
    counts = {s.name: s.count for s in streams}
    blob = f"seed={seed}|" + "|".join(f"{k}:{counts[k]}" for k in sorted(counts))
    return {
        "times": grid,
        "q_scaled": out_q,
        "arrivals_dedicated": out_ad,
        "arrivals_optimized": out_ao,
        "served": out_d,
        "routed_zero": out_r0,
        "min_workload": min_w,
        "rng_fingerprint": hashlib.sha256(blob.encode()).hexdigest(),
        "n": n,
        "seed": seed,
        "counts": counts,
    }


def assert_bitwise(a, b) -> None:
    """Equal shape, dtype and bytes: stricter than == (signed zeros, NaNs)."""
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


def loop_compute_bands(cfg: ModelConfig) -> RoutingBands:
    """The routing bands one venue at a time, each edge from the slopes
    against the venues above or below it: the oracle of `compute_bands`."""
    n = cfg.n_exchanges
    a_plus = np.full(n, np.inf)
    a_minus = np.empty(n)
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf is a NaN slope
        inv = 1.0 / (cfg.mu * cfg.beta * cfg.v)
        for i in range(n):
            above = cfg.rebates > cfg.rebates[i]
            if above.any():
                a_plus[i] = max(
                    0.0, np.min((inv[above] - inv[i]) / (cfg.rebates[above] - cfg.rebates[i]))
                )
            below = cfg.rebates < cfg.rebates[i]
            lo = inv[i] / (cfg.rebates[i] - cfg.rebate0)
            if below.any():
                diff = (inv[i] - inv[below]) / (cfg.rebates[i] - cfg.rebates[below])
                lo = max(lo, np.max(diff))
            a_minus[i] = lo
    empty = a_plus <= a_minus
    if empty.any():
        warnings.warn(
            f"venues {np.flatnonzero(empty).tolist()} have empty routing bands and will never "
            "receive optimized orders",
            stacklevel=2,
        )
    return RoutingBands(
        a_minus=a_minus, a_plus=a_plus, a_min_global=float(a_minus.min()), empty_band=empty
    )


def _loop_det_from_parts(d: np.ndarray, c: np.ndarray, nu: float) -> float:
    dn = d + nu
    sign = -1.0 if len(d) % 2 == 0 else 1.0
    return float(np.prod(dn) * (np.sum(c / dn) - 1.0) * sign)


def _loop_secular(d: np.ndarray, c: np.ndarray, nus: np.ndarray) -> np.ndarray:
    return (c / (d + nus[:, None])).sum(axis=1) - 1.0


def loop_det_shifted(cfg: ModelConfig, q, nu: float) -> float:
    """The closed-form det(J - nu I) at one float nu: the oracle of `det_shifted`."""
    _, _, d, c = _rank1_parts(cfg, q, "determinant")
    return _loop_det_from_parts(d, c, nu)


def loop_spectrum(cfg: ModelConfig, q) -> SpectrumReport:
    """`spectrum` with one nu, one determinant and one secular interval per
    step: the oracle of the array form."""
    w, jac, d, c = _rank1_parts(cfg, q, "spectrum")
    try:
        eigs = np.linalg.eigvals(jac).astype(complex)
    except np.linalg.LinAlgError as exc:
        raise AssumptionError(f"eigenvalue solver did not converge: {exc}") from exc
    max_real = float(np.max(eigs.real))

    mu_eff = cfg.v * cfg.mu
    nu_grid = np.linspace(0.0, 2.0, 21) * (mu_eff / w)
    max_rel = 0.0
    eye = np.eye(cfg.n_exchanges)
    for nu in nu_grid:
        direct = float(np.linalg.det(jac - nu * eye))
        closed = _loop_det_from_parts(d, c, float(nu))
        max_rel = max(max_rel, abs(closed - direct) / max(abs(direct), 1e-300))

    gaps = np.diff(np.sort(d))
    secular_checked = cfg.n_exchanges == 1 or bool(np.all(gaps > 1e-9 * d.max()))
    sec_roots = real_off_pole = None
    sec_res = None
    if secular_checked:
        poles = -d
        scale = max(1.0, float(np.abs(eigs).max()))
        real_eigs = [z.real for z in eigs if abs(z.imag) <= 1e-9 * scale]
        off_pole = [
            x for x in real_eigs if np.min(np.abs(x - poles)) > 1e-7 * max(1.0, d.max())
        ]
        real_off_pole = len(off_pole)
        sec_res = float(np.abs(_loop_secular(d, c, np.array(off_pole))).max()) if off_pole else 0.0
        radius = float(np.max(np.sum(np.abs(jac), axis=1))) + 1.0
        edges = np.concatenate(([-radius], np.sort(poles), [radius]))
        count = 0
        for a, b in zip(edges[:-1], edges[1:]):
            pad = 1e-6 * max(1.0, b - a)
            xs = np.linspace(a + pad, b - pad, 200)
            vals = _loop_secular(d, c, xs)
            count += int(np.sum(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0))
        sec_roots = count

    if max_real < -STABILITY_TOL:
        verdict = "stable"
    elif max_real > STABILITY_TOL:
        verdict = "unstable"
    else:
        verdict = "marginal"
    return SpectrumReport(
        jacobian=jac,
        eigenvalues=eigs,
        max_real_part=max_real,
        det_identity_max_rel_err=max_rel,
        verdict=verdict,
        has_complex_pair=bool(np.any(np.abs(eigs.imag) > 1e-9 * max(1.0, np.abs(eigs).max()))),
        secular_checked=secular_checked,
        secular_real_roots=sec_roots,
        real_eigs_off_pole=real_off_pole,
        secular_max_residual=sec_res,
    )


def fd_jacobian(cfg: ModelConfig, q, h: float = 1e-5) -> np.ndarray:
    """Centered finite differences of the fluid drift."""
    q = np.asarray(q, dtype=float)
    n = len(q)
    out = np.empty((n, n))
    for j in range(n):
        step = h * max(1.0, abs(q[j]))
        hi = q.copy()
        hi[j] += step
        lo = q.copy()
        lo[j] -= step
        out[:, j] = (
            fluid_rhs(cfg, QueueState.of(cfg, hi)) - fluid_rhs(cfg, QueueState.of(cfg, lo))
        ) / (2 * step)
    return out


def scan_grid(cfg: ModelConfig) -> np.ndarray:
    """The 301-point geometric grid of the equilibrium root scan."""
    anchor = cfg.v * cfg.mu / cfg.big_lambda
    return np.geomspace(1e-6 * anchor, 1e6 * anchor, 301)


def loop_stationarity_gap(cfg: ModelConfig, bands, w: float) -> float:
    """Inflow minus service at one workload, from the band fractions."""
    total_chi = float(two_cdf_band_chi(bands, cfg.type_dist, w).sum())
    return float(
        cfg.b_dedicated @ cfg.lam
        + cfg.b_optimized * cfg.big_lambda * total_chi
        - cfg.v * cfg.mu
    )


def loop_scan(cfg: ModelConfig) -> np.ndarray:
    """Stationarity gap on the scan grid, one workload per call."""
    bands = compute_bands(cfg)
    return np.array([loop_stationarity_gap(cfg, bands, w) for w in scan_grid(cfg)])


def loop_workload_roots(cfg: ModelConfig) -> list[float]:
    """Workload roots from the one-point-per-call scan and the scalar bisection:
    the oracle of the closed-form `solve_workload_star`.

    Scans [1e-6, 1e6] * (v mu / Lambda); each sign change is bisected to
    relative width 1e-13."""
    bands = compute_bands(cfg)
    grid = scan_grid(cfg)
    vals = loop_scan(cfg).tolist()
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
                fm = loop_stationarity_gap(cfg, bands, mid)
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
    return roots


def loop_secular_real_roots(cfg: ModelConfig, q) -> int:
    """Real roots of the secular function sum_i c_i/(d_i + nu) - 1, counted by
    sign changes on 200 points per pole interval, one nu per call."""
    q = np.asarray(q, dtype=float)
    w = float(cfg.beta @ q)
    lam_o = cfg.b_optimized * cfg.big_lambda
    mu_eff = cfg.v * cfg.mu
    d = cfg.beta * mu_eff / w
    c = cfg.beta**2 * q * mu_eff / w**2 + lam_o * cfg.beta * chi_derivative(cfg, w)

    def phi(nu):
        return float(np.sum(c / (d + nu)) - 1.0)

    radius = float(np.max(np.sum(np.abs(jacobian(cfg, q)), axis=1))) + 1.0
    edges = np.concatenate(([-radius], np.sort(-d), [radius]))
    count = 0
    for a, b in zip(edges[:-1], edges[1:]):
        pad = 1e-6 * max(1.0, b - a)
        vals = np.array([phi(x) for x in np.linspace(a + pad, b - pad, 200)])
        count += int(np.sum(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0))
    return count


# ---------------------------------------------------------------------------
# Randomized configurations
# ---------------------------------------------------------------------------

def _size_with_mean(rng: np.random.Generator, mean: int):
    if mean == 1:
        return {"kind": "deterministic", "value": 1}
    choice = rng.integers(0, 3)
    if choice == 0:
        return {"kind": "deterministic", "value": int(mean)}
    if choice == 1:
        return {"kind": "geometric", "p": 1.0 / mean}
    return {"kind": "tabulated", "values": [1, 2 * int(mean) - 1], "probs": [0.5, 0.5]}


def random_valid_config(
    rng: np.random.Generator,
    *,
    n_max: int = 5,
    n: int | None = None,
    kinds=("exponential", "half-normal"),
) -> ModelConfig:
    """A random configuration satisfying the throughput condition, with
    distinct rebates and mixed size distributions; `n` venues, or 1 to
    `n_max` when `n` is None.  A tabulated type law has 2 to 8 segments on a
    grid up to about 3, of which some may be flat."""
    if n is None:
        n = int(rng.integers(1, n_max + 1))
    beta = rng.uniform(0.6, 1.8, n)
    rebates = np.sort(rng.uniform(0.2, 3.0, n))
    while n > 1 and np.any(np.diff(rebates) < 0.15):
        rebates = np.sort(rng.uniform(0.2, 3.0, n))
    rebates = rebates[rng.permutation(n)]
    mu = float(rng.uniform(0.6, 1.6))
    v = int(rng.integers(1, 3))
    b_ded = rng.integers(1, 3, n)
    b_opt = int(rng.integers(1, 3))

    lam = rng.uniform(0.05, 0.4, n)
    v_mu = v * mu
    inflow = float(lam @ b_ded)
    if inflow >= 0.8 * v_mu:
        lam *= 0.8 * v_mu / inflow
        inflow = float(lam @ b_ded)
    big_lambda = (v_mu - inflow) * float(rng.uniform(1.5, 4.0)) / b_opt

    kind = kinds[rng.integers(0, len(kinds))]
    if kind == "exponential":
        tdist = {"kind": "exponential", "rate": float(rng.uniform(0.7, 1.5))}
    elif kind == "half-normal":
        tdist = {"kind": "half-normal", "sigma": float(rng.uniform(0.7, 1.5))}
    else:
        segments = int(rng.integers(2, 9))
        weights = rng.uniform(0.0, 1.0, segments) * (rng.random(segments) < 0.7)
        weights[rng.integers(0, segments)] += 0.1
        tdist = {
            "kind": "tabulated",
            "gamma": [0.0, *np.cumsum(rng.uniform(0.05, 0.7, segments)).tolist()],
            "cdf": [0.0, *(np.cumsum(weights) / weights.sum()).tolist()],
        }

    return config_from_dict(
        {
            "n_exchanges": n,
            "beta": beta.tolist(),
            "lambda": lam.tolist(),
            "big_lambda": big_lambda,
            "mu": mu,
            "rebate0": -float(rng.uniform(0.3, 1.5)),
            "rebates": rebates.tolist(),
            "v": float(v),
            "b_dedicated": [float(b) for b in b_ded],
            "b_optimized": float(b_opt),
            "type_dist": tdist,
            "size_dists": {
                "market": [_size_with_mean(rng, v) for _ in range(n)],
                "dedicated": [_size_with_mean(rng, int(b)) for b in b_ded],
                "optimized": _size_with_mean(rng, b_opt),
            },
        }
    )


def _gamma_f_mode(cfg: ModelConfig) -> float:
    td = cfg.type_dist
    if isinstance(td, ExponentialType):
        return 1.0 / td.rate
    if isinstance(td, HalfNormalType):
        return td.sigma
    raise ValueError("mode known only for the smooth built-ins")


def random_stable_config(
    rng: np.random.Generator,
    *,
    n_max: int = 5,
    n: int | None = None,
    kinds=("exponential", "half-normal"),
) -> ModelConfig:
    """A random configuration inside the hypotheses of the local-stability
    certificate: gamma*f(gamma) decreases beyond a_min*kappa.

    Achieved by scaling the optimized rate upward until
    a_min * (beta_min/beta_max) * W_star exceeds the mode of gamma*f(gamma)
    with margin (the ratio is invariant under rescaling the type
    distribution, so this is a pure geometry condition).  `n` and `kinds`
    go to `random_valid_config`.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cfg = random_valid_config(rng, n_max=n_max, n=n, kinds=kinds)
        mode = _gamma_f_mode(cfg)
        for _ in range(60):
            bands = compute_bands(cfg)
            w_star = solve_workload_star(cfg)
            ratio = cfg.beta.min() / cfg.beta.max()
            if bands.a_min_global * ratio * w_star >= 1.1 * mode:
                return cfg
            cfg = make_config(**{**_as_dict(cfg), "big_lambda": cfg.big_lambda * 1.8})
    raise AssertionError("could not reach the stability-regime margin")


def _as_dict(cfg: ModelConfig) -> dict:
    from fluidlob import config_to_dict

    return config_to_dict(cfg)


def random_positive_state(rng: np.random.Generator, cfg: ModelConfig) -> np.ndarray:
    return rng.uniform(0.2, 3.0, cfg.n_exchanges)


# ---------------------------------------------------------------------------
# JSON report layout: the hand-written dictionaries the reports once built
# themselves, kept as the oracle for the CLI's field-order serializer
# ---------------------------------------------------------------------------

def oracle_report_dict(report) -> dict:
    """The JSON payload of a check, equilibrium, spectrum, stability-local or
    stability-global report, with every key written out by hand."""
    r = report
    if isinstance(r, AssumptionReport):
        return {
            "cond_i_holds": r.cond_i_holds,
            "gamma_f_mode": r.gamma_f_mode,
            "cond_ii_holds": r.cond_ii_holds,
            "cond_ii_sides": list(r.cond_ii_sides),
            "cond_iii_note": r.cond_iii_note,
            "cond_iv_holds": r.cond_iv_holds,
            "empty_band_exchanges": list(r.empty_band_exchanges),
            "kappa": r.kappa,
            "complete": r.complete,
        }
    if isinstance(r, Equilibrium):
        return {
            "w_star": r.w_star,
            "q_star": r.q_star.tolist(),
            "chi_at_star": r.chi_at_star.tolist(),
            "residual": r.residual,
        }
    if isinstance(r, SpectrumReport):
        return {
            "jacobian": r.jacobian.tolist(),
            "eigenvalues": [[z.real, z.imag] for z in r.eigenvalues],
            "max_real_part": r.max_real_part,
            "det_identity_max_rel_err": r.det_identity_max_rel_err,
            "verdict": r.verdict,
            "has_complex_pair": r.has_complex_pair,
            "secular_checked": r.secular_checked,
            "secular_real_roots": r.secular_real_roots,
            "real_eigs_off_pole": r.real_eigs_off_pole,
            "secular_max_residual": r.secular_max_residual,
            "marginal_tolerance": STABILITY_TOL,
        }
    if isinstance(r, LocalStabilityReport):
        return {
            "passed": r.passed,
            "threshold": r.threshold,
            "horizon": r.horizon,
            "seed": r.seed,
            "trials": [
                {
                    "delta": t.delta,
                    "direction": t.direction,
                    "terminal_distance": t.terminal_distance,
                    "min_workload": t.min_workload,
                    "kappa": t.kappa,
                    "ok": t.ok,
                    "error": t.error,
                }
                for t in r.trials
            ],
        }
    if isinstance(r, GlobalStabilityReport):
        return {
            "passed": r.passed,
            "threshold": r.threshold,
            "tube_radius": r.tube_radius,
            "horizon": r.horizon,
            "seed": r.seed,
            "trials": [
                {
                    "init": list(t.init),
                    "terminal_distance": t.terminal_distance,
                    "workload_monotone": t.workload_monotone,
                    "tube_entry_time": t.tube_entry_time,
                    "min_workload": t.min_workload,
                    "kappa": t.kappa,
                    "ok": t.ok,
                    "error": t.error,
                }
                for t in r.trials
            ],
        }
    raise TypeError(f"no oracle layout for {type(r).__name__}")


def _size_law(mean: int):
    """Each size kind, with the given integer mean."""
    return st.one_of(
        st.just({"kind": "deterministic", "value": mean}),
        st.just({"kind": "geometric", "p": 1.0 / mean}),
        st.tuples(st.integers(1, mean), st.floats(0.0, 0.5)).map(
            lambda a: {
                "kind": "tabulated",
                "values": [a[0], mean, 2 * mean - a[0]],
                "probs": [a[1], 1.0 - 2.0 * a[1], a[1]],
            }
        ),
    )


@st.composite
def _tabulated_type(draw):
    steps = draw(st.lists(st.floats(0.01, 5.0), min_size=1, max_size=6))
    weights = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=len(steps), max_size=len(steps))))
    weights[-1] += 0.1
    return {
        "kind": "tabulated",
        "gamma": [0.0, *np.cumsum(steps).tolist()],
        "cdf": [0.0, *(np.cumsum(weights) / weights.sum()).tolist()],
    }


@st.composite
def config_dicts(draw, n_max: int = 4):
    """A Hypothesis strategy: a config dict of 1 to `n_max` venues, of every
    type kind and size kind, with the market and dedicated size laws given
    in the broadcast or the list form."""
    n = draw(st.integers(1, n_max))

    def floats(lo, hi):
        return draw(st.lists(st.floats(lo, hi), min_size=n, max_size=n))

    v = draw(st.integers(1, 3))
    b_dedicated = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    b_optimized = draw(st.integers(1, 3))
    if draw(st.booleans()):
        market = draw(_size_law(v))
    else:
        market = [draw(_size_law(v)) for _ in range(n)]
    if draw(st.booleans()):
        b_dedicated = [b_dedicated[0]] * n
        dedicated = draw(_size_law(b_dedicated[0]))
    else:
        dedicated = [draw(_size_law(b)) for b in b_dedicated]
    type_dist = draw(st.one_of(
        st.floats(0.1, 10.0).map(lambda r: {"kind": "exponential", "rate": r}),
        st.floats(0.1, 10.0).map(lambda s: {"kind": "half-normal", "sigma": s}),
        _tabulated_type(),
    ))
    return {
        "n_exchanges": n,
        "beta": floats(0.1, 10.0),
        "lambda": floats(0.0, 5.0),
        "big_lambda": draw(st.floats(0.0, 5.0)),
        "mu": draw(st.floats(0.1, 5.0)),
        "rebate0": draw(st.floats(-5.0, -0.01)),
        "rebates": draw(st.lists(st.floats(0.0, 5.0), min_size=n, max_size=n, unique=True)),
        "v": float(v),
        "b_dedicated": [float(b) for b in b_dedicated],
        "b_optimized": float(b_optimized),
        "type_dist": type_dist,
        "size_dists": {
            "market": market,
            "dedicated": dedicated,
            "optimized": draw(_size_law(b_optimized)),
        },
    }
