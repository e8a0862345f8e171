"""Fluid vector field and RK4 integration of the coupled ODE system.

The field f(q) = b_d lam + b_o Lambda chi(W) - v mu beta q / W is singular
where the workload W vanishes.  Without a given step, a run therefore steps
RK4 in the time s with dt/ds = W (Sundman, *Acta Math.* 1912; Hairer,
Lubich & Wanner, *Geometric Numerical Integration*, section VIII.2), where
the field W f has no singularity: the term that relaxes the venue split at
rate v mu beta_i / W becomes a linear decay.  Step doubling (Richardson;
Hairer, Norsett & Wanner, *Solving ODEs I*, section II.4) picks each s step,
so a slow start near the origin takes small steps only while it lasts; the
nodes are non-uniform in t, and the last step is one step in t that ends at
the horizon.  A given step `dt` runs uniform RK4 steps in t, and step
doubling over the whole run checks it on request.  One driver
(`_integrate_batch`) serves both rules, for one trajectory (`integrate`) or
the stability experiments' batch, whose rows share the s step; every step
is the same in-place RK4 step (`_rk4`), and each stage evaluates the field
as one matrix product (`_rhs_batch`), times W in s.

Integration aborts a trajectory whose workload falls below a fraction of
the proven lower bound kappa (a bug or a violated assumption, not physics),
recording its reason and time; only `integrate` raises it.  Routing
fractions use the workload-only band form, which removes the ambiguity of
the per-venue delay at empty queues.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IntegrationError, ParameterError, SingularityError, StepInstabilityError
from .model import ModelConfig, compute_kappa
from .routing import QueueState, _fractions, solve_workload_star

__all__ = [
    "FluidTrajectory",
    "fluid_rhs",
    "integrate",
]

# Negative components beyond this are an integration error, not roundoff.
_CLIP_TOL = 1e-12
# The abort floor as a fraction of kappa.  kappa is a strict lower bound for
# the exact flow, so a workload below half of it signals malfunction.
_FLOOR_FACTOR = 0.5
# Most points of a time grid: a uniform RK4 grid here, checked before it is
# allocated, an s grid, checked as it grows, and the simulator's sample grid.
_MAX_GRID = 10**7
# The accuracy contract: a run without a step is within this factor times
# max(1, max|q|) of the exact flow at every node, and a given step checked
# with `refine` agrees with the run at twice its step count within it.
_SELECT_TOL = 1e-10
# Each s step's estimated local error in (q, t) is at most this factor
# times max(1, max|q|); over 30 random near-origin starts the global error
# stayed within 2.6e-11 of that scale, inside `_SELECT_TOL`.
_LOCAL_TOL = 1e-12
# The exception `integrate` raises for each recorded failure reason.
_FAILURES = {"floor": SingularityError, "negative": IntegrationError}


def _step_count(horizon: float, dt: float | None) -> int | None:
    """The fewest uniform steps over the horizon no longer than `dt`, or None
    without `dt`, for steps in s; a ParameterError names a bad horizon or dt."""
    if not 0 < horizon < math.inf:
        raise ParameterError("horizon: must be positive and finite")
    if dt is None:
        return None
    if not 0 < dt < math.inf:
        raise ParameterError("dt: must be positive and finite")
    if not horizon / dt < _MAX_GRID:
        raise ParameterError(f"dt: the horizon would take more than {_MAX_GRID} steps")
    return max(1, math.ceil(horizon / dt - 1e-12))


@dataclass(frozen=True)
class FluidTrajectory:
    """A fluid solution sampled on the integrator grid.

    `steps` counts the RK4 steps between the nodes and `dt` is their mean
    t step, horizon / steps: the uniform step of an explicit `dt`, and a
    summary of the s steps, whose nodes are non-uniform in t.
    `pilot_steps` counts the RK4 steps that ran off the returned path: each
    s trial's full step and all three steps of a rejected trial, the 2K
    steps of the check run of an explicit step with `refine`, and 0 for an
    unchecked one.
    `max_refine_error` is the largest step-doubling gap that accepted a
    step: of an s trial's full step to its two halves, or of an explicit
    step with `refine` to the run at half it, and 0.0 for an unchecked one.
    `drift` is dq/dt at each node.
    """

    times: np.ndarray      # (K+1,)
    states: np.ndarray     # (K+1, N)
    drift: np.ndarray      # (K+1, N) the fluid field at each node
    workload: np.ndarray   # (K+1,)
    min_workload: float
    kappa: float
    steps: int
    dt: float
    pilot_steps: int
    max_refine_error: float

    def at(self, times) -> np.ndarray:
        """The (M, N) states at the (M,) `times` in [0, horizon], exact at the
        nodes; between two, the cubic matching their states and drift, whose
        error is fourth order (*Solving ODEs I*, section II.6)."""
        t, nodes = np.asarray(times, dtype=float), self.times
        if not (np.all(t >= 0.0) and np.all(t <= nodes[-1])):
            raise ValueError(f"times: must lie in [0, {nodes[-1]:g}]")
        j = np.minimum(np.searchsorted(nodes, t, side="right"), len(nodes) - 1) - 1
        h = (nodes[j + 1] - nodes[j])[:, None]
        s = (t - nodes[j])[:, None] / h
        r = 1.0 - s
        y0, y1, f0, f1 = self.states[j], self.states[j + 1], self.drift[j], self.drift[j + 1]
        cubic = (1.0 + 2.0 * s) * r * r * y0 + s * s * (3.0 - 2.0 * s) * y1
        return cubic + h * s * r * (r * f0 - s * f1)


def fluid_rhs(cfg: ModelConfig, state: QueueState) -> np.ndarray:
    """Drift of venue i: b_d_i lam_i + b_o Lambda chi_i(W) - v mu_i(q)."""
    if not state.workload > 0:
        raise ValueError("fluid field is singular at zero workload")
    return _rhs_batch(cfg)(state.q[None, :])[0]


def _field_matrix(cfg: ModelConfig) -> tuple[np.ndarray, np.ndarray]:
    """The band edges e of `routing._fractions` and M, with f(q) = [S(W e),
    S(inf), q / W] @ M: b_o Lambda D, whose constant row also takes cdf_sign
    b_d lam, over -diag(v mu beta), zero-padded to max(N, 2) columns."""
    edges, signs = cfg.kept(_fractions)
    n, c = cfg.n_exchanges, len(signs)
    matrix = np.zeros((c + max(n, 2), max(n, 2)))
    np.multiply(signs, cfg.b_optimized * cfg.big_lambda, matrix[:c, :n])
    matrix[c - 1, :n] += cfg.type_dist.cdf_sign * (cfg.b_dedicated * cfg.lam)
    np.fill_diagonal(matrix[c:c + n, :n], -(cfg.v * cfg.mu) * cfg.beta)
    return edges, matrix


def _rhs_batch(cfg: ModelConfig, rows: int | None = None):
    """Vectorised drift q -> b_d lam + b_o Lambda chi(W) - v mu beta q / W of
    (B, N) states with workloads W = q @ beta > 0, as one product with the
    kept `_field_matrix`.

    Numpy hands a product with a single row or column to gemv, whose bits for
    a row depend on the batch; gemm's do not.  So products here have at least
    b2 = max(B, 2) rows and n2 = max(N, 2) columns, padded with finite values.
    With `rows`, `rhs(q, w, out)` is prepared for B = rows: it writes S(W e)
    and q / W into a scratch array made here, the product's left operand,
    and the (b2, n2) field into `out`, for (b2, n2) states (or (B, N) ones
    when none is padded) and (b2,) workloads, times the (b2, 1) `scale` if
    given (W in s, dq/ds for dt/ds = W).  Without, `rhs(q, w=None)`
    returns the (B, N) field in a new array, from the (B,) workloads if given.
    """
    if rows is None:
        def rhs_new(q: np.ndarray, w: np.ndarray | None = None) -> np.ndarray:
            rows, n = q.shape
            states, w_row = np.ones((max(rows, 2), max(n, 2))), np.ones(max(rows, 2))
            states[:rows, :n], w_row[:rows] = q, np.dot(q, cfg.beta) if w is None else w
            return _rhs_batch(cfg, rows)(states, w_row, np.empty_like(states))[:rows, :n]

        return rhs_new

    edges, matrix = cfg.kept(_field_matrix)
    edge_col, n_edges = edges[:, None], len(edges)
    scratch = np.empty((len(matrix), max(rows, 2)))
    scratch[n_edges] = cfg.type_dist.cdf_sign
    head, tail, lhs = scratch[:n_edges], scratch[n_edges + 1:], scratch.T
    multiply, divide, dot, signed_cdf = np.multiply, np.divide, np.dot, cfg.type_dist.signed_cdf

    def rhs(q: np.ndarray, w: np.ndarray, out: np.ndarray, scale=None) -> np.ndarray:
        multiply(edge_col, w, head)
        signed_cdf(head, head)
        divide(q.T, w, tail)
        dot(lhs, matrix, out)
        if scale is not None:
            multiply(out, scale, out)
        return out

    return rhs


def _rk4(cfg: ModelConfig, rows: int, h: float, in_s: bool = False):
    """Classical RK4 steps of size h for a (rows, N) batch of states, every
    stage computed in place in buffers made here once.

    `step(qc, out)` writes qc + (h/6) (k1 + 2 k2 + 2 k3 + k4) into `out` for
    states qc whose workloads the caller has written into row 0 of
    `stage_w`, returned with it; rows 1-3 receive the other stages'
    workloads.  With `in_s` each stage takes W times the field, dq/ds for
    dt/ds = W.  `resize(h)` sets the size of the steps that follow,
    returned third.  Stage j is qc + a k_(j-1), a = h/2, h/2, h, with its
    workloads one product with beta, and the node qc plus one product of
    (k1, ..., k4) with (h/6) (1, 2, 2, 1).  Padded like the field's
    (`_rhs_batch`), the products give a row the same bits in every batch.
    """
    rhs, n = _rhs_batch(cfg, rows), cfg.n_exchanges
    b2, n2 = max(rows, 2), max(n, 2)
    padded = (b2, n2) != (rows, n)
    k, stages = np.ones((2, 4, b2, n2))
    (k1, k2, k3, k4), (q1, q2, q3, q4) = k, stages  # q1 holds qc when padded
    (kc1, kc2, kc3, _), (s1, s2, s3, s4) = k[:, :rows, :n], stages[:, :rows, :n]
    beta = np.zeros((2, n2))
    beta[:, :n] = cfg.beta
    stage_ws = np.ones((4, 2, b2))  # row 0 of each: its stage's workloads
    (_, o2, o3, o4), (w1, w2, w3, w4) = stage_ws, stage_ws[:, 0]
    c1, c2, c3, c4 = stage_ws[:, 0, :, None] if in_s else [None] * 4  # the factor W in s
    flat, node = k.reshape(4, -1), np.empty((2, b2 * n2))
    node_q = node[0].reshape(b2, n2)[:rows, :n]
    sizes = np.empty(10)  # h/2, h and twice (h/6) (1, 2, 2, 1), set in one call
    half, full, weights = sizes[:1].reshape(()), sizes[1:2].reshape(()), sizes[2:].reshape(2, 4)
    add, multiply, dot, copyto = np.add, np.multiply, np.dot, np.copyto

    def resize(h):
        sixth, third = h / 6.0, h / 6.0 * 2.0
        sizes[:] = (0.5 * h, h, sixth, third, third, sixth, sixth, third, third, sixth)

    resize(h)

    def step(qc, out):
        if padded:
            copyto(s1, qc)
        rhs(q1 if padded else qc, w1, k1, c1)
        add(multiply(kc1, half, s2), qc, s2)
        dot(beta, q2.T, o2)
        rhs(q2, w2, k2, c2)
        add(multiply(kc2, half, s3), qc, s3)
        dot(beta, q3.T, o3)
        rhs(q3, w3, k3, c3)
        add(multiply(kc3, full, s4), qc, s4)
        dot(beta, q4.T, o4)
        rhs(q4, w4, k4, c4)
        dot(weights, flat, node)
        add(node_q, qc, out)

    return step, stage_ws[:, 0, :rows], resize


@dataclass
class _BatchResult:
    times: np.ndarray             # (K+1, B) node times, one column per row
    workload: np.ndarray          # (K+1, B)
    states: np.ndarray | None     # (K+1, B, N) when stored
    terminal: np.ndarray          # (B, N)
    min_workload: np.ndarray      # (B,)
    failed: np.ndarray            # (B,) bool
    fail_reason: list             # "floor", "negative" or None
    fail_time: np.ndarray         # (B,) time of the failed node; NaN if none
    steps: int
    pilot_steps: int              # RK4 steps taken beyond `steps`; 0 in t
    max_gap: float                # largest gap that accepted an s step; 0.0 in t


def _integrate_batch(
    cfg: ModelConfig,
    q0s: np.ndarray,
    horizon: float,
    n_steps: int | None,
    kappas: np.ndarray,
    *,
    store_states: bool = False,
) -> _BatchResult:
    """Classical RK4 over a batch of trajectories up to t = horizon, in
    `n_steps` uniform steps in t or, with `n_steps=None`, in steps of s.

    In s (dq/ds = W f(q), dt/ds = W) the batch shares one step h.  A trial
    takes one step h and two of h/2 from the nodes; a row's max-norm gap in
    (q, t) between the two, over 15, estimates the local error of the halves
    (step doubling), and the trial is accepted, with both half-step nodes,
    when that is at most `_LOCAL_TOL` times max(1, max|q|) on every running
    row.  The next h is h min(4, max(0.2, 0.9 r^(1/5))), r the least tol /
    err of a running row, at most h_max = 1 / (v mu max(beta)), the first h.
    Each row carries its t as tau = t / horizon, which neither a tiny horizon
    nor a tiny h loses; a node that would reach the horizon is replaced by
    one RK4 step in t from the node before, and the row is done.  `_MAX_GRID`
    RK4 steps raise IntegrationError.

    A row that fails (floor breach, negative undershoot, or in s a node that
    does not advance t) is frozen at its last good state, with its reason
    and time recorded; done and failed rows repeat their last node (in s its
    time too).  Frozen rows stay in the batch: a matmul over a subset of
    rows can differ from the full product in its last bits.  Buffers are
    made once per call; only `terminal` aliases one.
    """
    q0s = np.asarray(q0s, dtype=float)
    n_traj, n = q0s.shape
    floor = _FLOOR_FACTOR * np.asarray(kappas, dtype=float)
    floor_max, beta, in_s = floor.max(), cfg.beta, n_steps is None
    # h_max, the s time of the fastest linear decay -v mu beta_i q_i, keeps RK4
    # inside its real stability interval, where the error estimate is blind.
    h = 1.0 / (cfg.v * cfg.mu * beta.max()) if in_s else horizon / n_steps
    q = q0s.copy()
    w = np.dot(q, beta)
    if np.any(w <= 0):
        raise ValueError("every initial state needs positive workload")
    # W relaxes toward W*, so an s step advances t by at most about
    # h_max max(W0, W*).
    if in_s and not horizon / (h * max(w.max(), solve_workload_star(cfg))) < _MAX_GRID:
        raise IntegrationError(f"horizon: the run would take {_MAX_GRID} steps or more")
    rk4, stage_w, resize = _rk4(cfg, n_traj, h, in_s)

    alive = np.ones(n_traj, dtype=bool)
    all_alive = True  # until a trajectory fails, the freezes below are no-ops
    reasons: list = [None] * n_traj
    fail_time = np.full(n_traj, np.nan)
    dot, minimum, maximum, copyto = np.dot, np.minimum.reduce, np.maximum.reduce, np.copyto
    all_of = np.logical_and.reduce

    def fail(mask, message, when):
        nonlocal alive, all_alive
        if mask.any():
            for idx in np.flatnonzero(mask):
                reasons[idx] = message
            copyto(fail_time, when, where=mask)
            alive, all_alive = alive & ~mask, False

    if in_s:
        h_max, ran, finish, running, all_running = h, 0, None, alive.copy(), True
        # Rows of ws and taus: the nodes', then the half-step candidates';
        # taus ends in ones, the horizon, so one comparison checks that the
        # candidates advance t short of it.  `peaks` holds each row's gaps in
        # (q, t) and its node beside a 1.0, so one reduction gives the gap
        # and max(1, max|q|).
        peaks, qs, full = np.ones((2, n_traj, n + 1)), np.empty((2, n_traj, n)), np.empty_like(q)
        ws, dts, lows, tops, taus = *np.empty((4, 3, n_traj)), np.zeros((4, n_traj))
        (spread, node), (mid, end), (gap, q_top, err) = peaks, qs, tops
        node, spread_q, spread_t, top2 = node[:, :n], spread[:, :n], spread[:, n], tops[:2]
        node[:], ws[0], taus[3], mean = q, w, 1.0, np.array([1.0, 2.0, 2.0, 1.0]) / 6.0
        (w_node, w_mid, w_end), (tau, tau_mid, tau_end, _), w1 = ws, taus, stage_w[0]
        (dt_full, dt_mid, dt_end), new_dts, new_ws, new_taus = dts, dts[1:], ws[1:], taus[1:3]
        ordered, worst = np.empty((5, n_traj), dtype=bool), np.zeros(n_traj)
        advancing, kept, before, after = ordered[:3], ordered[3:], taus[:-1], taus[1:]
        # As 0-d arrays, these spare numpy a scalar conversion in each call.
        local_tol, fifteen, span = np.array(_LOCAL_TOL), np.array(15.0), np.array(horizon)
        parts = [(taus[:1].copy(), ws[:1].copy(), node[None].copy())]

        def record(t, w, q):  # nodes' taus, workloads and states
            parts.append((t.copy(), w.copy(), q.copy() if store_states else None))

        def advance(h, start, out, dt_out, low):
            """One s step h (set by `resize`) into `out`, its t advance into `dt_out`;
            return out's lowest entry, then floor out at 0, first writing each row's
            lowest into `low` if that entry is not positive."""
            rk4(start, out)
            np.multiply(dot(mean, stage_w, dt_out), h, dt_out)
            lowest = minimum(out, None)
            if not lowest > 0.0:
                minimum(out, 1, None, low)
                np.maximum(out, 0.0, out=out)
            return lowest

        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            while all_running or running.any():
                if not ran < _MAX_GRID:
                    raise IntegrationError(f"no s step meets the local tolerance {_LOCAL_TOL:g} "
                                           f"in fewer than {_MAX_GRID} steps")
                copyto(w1, w_node)
                resize(h)
                advance(h, node, full, dts[0], lows[0])
                resize(0.5 * h)
                low_mid = advance(0.5 * h, node, mid, dts[1], lows[1])
                copyto(w_mid, dot(mid, beta, w1))
                low_end = advance(0.5 * h, mid, end, dts[2], lows[2])
                dot(end, beta, w_end)
                ran += 3
                np.subtract(full, end, spread_q)
                np.subtract(np.subtract(dt_full, dt_mid, spread_t), dt_end, spread_t)
                np.abs(spread, spread)
                maximum(peaks, 2, None, top2)
                if not all_running:  # a done or failed row neither limits nor accepts
                    copyto(gap, 0.0, where=~running)
                # err <= tol exactly when tol / err >= 1 (tol is a normal
                # number), and a NaN estimate is rejected.
                np.divide(np.multiply(local_tol, q_top, q_top), np.divide(gap, fifteen, err), q_top)
                least = float(minimum(q_top))
                accept, h = least >= 1.0, min(h_max, h * min(4.0, max(0.2, 0.9 * least**0.2)))
                if not accept:
                    continue
                np.fmax(worst, gap, worst)  # an accepted gap is finite
                np.divide(new_dts, span, new_dts)
                np.add(tau, dt_mid, tau_mid)
                np.add(tau_mid, dt_end, tau_end)
                np.less(before, after, advancing)
                np.less_equal(floor, new_ws, kept)
                if all_running and min(low_mid, low_end) >= -_CLIP_TOL and all_of(ordered, None):
                    record(new_taus, new_ws, qs)
                    node[:], w_node[:], tau[:] = end, w_end, tau_end
                    continue
                candidates = zip(qs, new_ws, new_taus, lows[1:], (low_mid, low_end))
                for x, w_x, tau_x, low, lowest in candidates:
                    negative = running & (not lowest >= -_CLIP_TOL) & ~(low >= -_CLIP_TOL)
                    for r in np.flatnonzero(running & ~(tau_x < 1.0)):
                        # One RK4 step in t to the horizon instead.
                        last, last_w, last_resize = finish = finish or _rk4(cfg, 1, horizon)
                        last_resize(horizon * (1.0 - tau[r]))
                        last_w[0], row = w_node[r], slice(r, r + 1)
                        last(node[row], x[row])
                        negative[r] = not minimum(x[row], None) >= -_CLIP_TOL
                        dot(np.maximum(x[row], 0.0, out=x[row]), beta, w_x[row])
                        tau_x[r], ran = 1.0, ran + 1
                    fail(negative, "negative", horizon * tau_x)
                    bad = running & alive & ~((w_x >= floor) & (tau_x > tau))
                    fail(bad, "floor", horizon * tau_x)
                    took = running & alive
                    copyto(node, x, where=took[:, None])
                    copyto(w_node, w_x, where=took)
                    copyto(tau, tau_x, where=took)
                    if took.any():
                        record(tau[None], w_node[None], node[None])
                    running = took & (tau < 1.0)
                    if not running.any():
                        break
                all_running = bool(running.all())

        t_parts, w_parts, q_parts = zip(*parts)
        times, w_hist = horizon * np.concatenate(t_parts), np.concatenate(w_parts)
        q_hist = np.concatenate(q_parts) if store_states else None
        steps, q, worst = len(times) - 1, node, float(maximum(worst))
    else:
        stage_w[0], w = w, stage_w[0]  # the step reads q's workload there
        grid = np.append(np.arange(n_steps) * h, horizon)
        times = np.broadcast_to(grid[:, None], (n_steps + 1, n_traj))
        w_hist, q_hist = np.empty((n_steps + 1, n_traj)), None
        w_hist[0] = w
        if store_states:
            q_hist = np.empty((n_steps + 1, *q.shape))
            q_hist[0] = q
        q_new, w_new = np.empty_like(q), np.empty_like(w)
        steps, ran, worst = n_steps, n_steps, 0.0

        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for step in range(1, n_steps + 1):
                rk4(q, q_new)
                # Each check is one reduction over the batch; the per-trajectory
                # masks run only when it finds an entry that may fail (NaN too).
                # A strictly positive state is its own floor at 0.
                low = minimum(q_new, None)
                if not low > 0.0:
                    if not low >= -_CLIP_TOL:
                        fail(alive & ~(np.min(q_new, axis=1) >= -_CLIP_TOL), "negative", grid[step])
                    np.maximum(q_new, 0.0, out=q_new)  # what np.clip(q_new, 0.0, None) runs

                dot(q_new, beta, w_new)
                if not minimum(w_new) >= floor_max:
                    fail(alive & ~(w_new >= floor), "floor", grid[step])

                if all_alive:
                    copyto(w, w_new)
                else:  # failed rows keep their last good state
                    copyto(q_new, q, where=~alive[:, None])
                    copyto(w, w_new, where=alive)
                q, q_new = q_new, q
                w_hist[step] = w
                if store_states:
                    q_hist[step] = q
                if not all_alive and not alive.any():
                    w_hist[step + 1:] = w
                    if store_states:
                        q_hist[step + 1:] = q
                    break

    return _BatchResult(
        times=times, workload=w_hist, states=q_hist, terminal=q,
        min_workload=w_hist.min(axis=0),  # frozen rows repeat a kept value
        failed=~alive, fail_reason=reasons, fail_time=fail_time,
        steps=steps, pilot_steps=ran - steps, max_gap=worst,
    )


def _failure(res: _BatchResult, row: int) -> IntegrationError:
    """The exception for the recorded failure of trajectory `row`."""
    reason = res.fail_reason[row]
    return _FAILURES[reason](f"trajectory {row}: {reason} at t={res.fail_time[row]:.6g}")


def _initial_state(cfg: ModelConfig, q0) -> tuple[np.ndarray, float]:
    """`q0` as a float vector and its workload; a ParameterError names `q0:`
    unless it holds N nonnegative queue lengths with positive, finite workload."""
    q0 = np.asarray(q0, dtype=float)
    if q0.shape != (cfg.n_exchanges,):
        raise ParameterError(f"q0: expected {cfg.n_exchanges} initial queue lengths")
    if not np.all(np.isfinite(q0)):
        raise ParameterError("q0: initial queue lengths must be finite")
    if np.any(q0 < 0):
        raise ParameterError("q0: initial queue lengths must be nonnegative")
    with np.errstate(over="ignore"):  # an overflowing workload is refused below
        w0 = float(cfg.beta @ q0)
    if not 0 < w0 < math.inf:
        raise ParameterError("q0: initial workload must be positive and finite")
    return q0, w0


def _doubling_gap(coarse: _BatchResult, fine: _BatchResult) -> tuple[float, float | None]:
    """Step doubling's error estimate for trajectory 0 of a run on a uniform
    t grid from the run at half its step: the max-norm gap between node j of
    the coarse run and node 2j of the fine one, and the first node time where
    it exceeds `_SELECT_TOL` times max(1, max|q|) (None if there is none).
    """
    gaps = np.max(np.abs(coarse.states[:, 0] - fine.states[::2, 0]), axis=1)
    tol = _SELECT_TOL * max(1.0, float(np.max(np.abs(fine.states))))
    bad = np.flatnonzero(~(gaps <= tol))  # a NaN gap is bad too
    return float(np.max(gaps)), float(coarse.times[bad[0], 0]) if bad.size else None


def integrate(
    cfg: ModelConfig,
    q0,
    horizon: float,
    *,
    dt: float | None = None,
    refine: bool = False,
) -> FluidTrajectory:
    """Integrate the fluid system from q0 over [0, horizon].

    Without `dt` the run steps in s, dt/ds = W, and each step is picked by
    step doubling (`_integrate_batch` with no step count), starting from and
    bounded by h_max = 1 / (v mu max(beta)); every step has already been
    checked against two of half its size, so `refine` adds nothing.  `dt`
    fixes a uniform step in t: the horizon is divided into the fewest steps
    no longer than it.  With `refine` that run is checked against a run at
    twice its step count and returned unchanged.

    Raises SingularityError if the workload drops below half of kappa,
    StepInstabilityError if a checked run is off its doubled run by more
    than `_SELECT_TOL` times max(1, max|q|), and IntegrationError on
    negative component undershoot beyond roundoff or when a run in s would
    take `_MAX_GRID` steps or more.
    """
    q0, w0 = _initial_state(cfg, q0)
    n_steps = _step_count(horizon, dt)
    if n_steps is not None and refine and not 2 * n_steps < _MAX_GRID:
        raise ParameterError(f"dt: the refine check would take {_MAX_GRID} steps or more")
    kappa = compute_kappa(cfg, w0, solve_workload_star(cfg))

    def run(steps):
        res = _integrate_batch(cfg, q0[None, :], horizon, steps, [kappa], store_states=True)
        if res.failed[0]:
            raise _failure(res, 0)
        return res

    res = run(n_steps)
    pilot_steps, gap = res.pilot_steps, res.max_gap
    if n_steps is not None and refine:
        pilot_steps = 2 * n_steps
        gap, unstable_at = _doubling_gap(res, run(pilot_steps))
        if unstable_at is not None:
            raise StepInstabilityError(f"trajectory 0: unstable at t={unstable_at:.6g}")
    return FluidTrajectory(
        times=res.times[:, 0],
        states=res.states[:, 0, :],
        drift=_rhs_batch(cfg)(res.states[:, 0, :], res.workload[:, 0]),
        workload=res.workload[:, 0],
        min_workload=float(res.min_workload[0]),
        kappa=kappa,
        steps=res.steps,
        dt=horizon / res.steps,
        pilot_steps=pilot_steps,
        max_refine_error=gap,
    )
