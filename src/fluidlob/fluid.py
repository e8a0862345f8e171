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
the stability experiments' batch, whose rows share the s step.  Every step
is the same RK4 kernel (`_rk4`) on states stored one column per row, which
keeps each stage's field operand instead of its field: a stage is one
matrix product, of the operands before it and the start, for its scaled
band edges, state and workload, then the type's CDF and one divide by W
(in t) or one multiply by W (in s); one more product forms the node.
`_rhs_batch` evaluates the field of given states, for `fluid_rhs` and a
trajectory's drift.

Integration aborts a trajectory whose workload falls below a fraction of
the proven lower bound kappa (a bug or a violated assumption, not physics),
recording its reason and time; only `integrate` raises it.  Routing
fractions use the workload-only band form, which removes the ambiguity of
the per-venue delay at empty queues.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

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
# The RK4 kernel pads its batch to a multiple of this many columns.  The
# OpenBLAS dgemm kernel (Haswell) takes a product's columns in groups of 8,
# and a last group of 1 to 4 takes another path whose bits differ once
# N >= 4; whole groups give a column the same bits in every batch.
_COLUMNS = 8
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
    return _rhs_batch(cfg, state.q[None, :])[0]


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


def _rhs_batch(cfg: ModelConfig, q: np.ndarray, w: np.ndarray | None = None) -> np.ndarray:
    """The drift b_d lam + b_o Lambda chi(W) - v mu beta q / W of (B, N)
    states at their (B,) workloads `w` (q @ beta by default), as one product
    [S(W e), S(inf), q / W] @ M with the kept `_field_matrix`.

    Numpy hands a product with a single row or column to gemv, whose bits for
    a row depend on the batch; gemm's do not.  So the product has at least
    two rows and two columns, padded with ones.
    """
    edges, matrix = cfg.kept(_field_matrix)
    (rows, n), n_edges = q.shape, len(edges)
    states, w_row = np.ones((max(rows, 2), max(n, 2))), np.ones(max(rows, 2))
    states[:rows, :n], w_row[:rows] = q, np.dot(q, cfg.beta) if w is None else w
    lhs = np.empty((len(matrix), len(w_row)))
    lhs[n_edges] = cfg.type_dist.cdf_sign
    cfg.type_dist.signed_cdf(np.multiply(edges[:, None], w_row, lhs[:n_edges]), lhs[:n_edges])
    np.divide(states.T, w_row, lhs[n_edges + 1:])
    return np.dot(lhs.T, matrix)[:rows, :n]


def _stage_operands(cfg: ModelConfig) -> tuple:
    """The RK4 kernel's constant operands, kept per config: one set for
    steps in t and one for steps in s, indexed by `in_s`.  States have
    n2 = max(N, 2) rows (padding rows get zero weight), and M' is the
    transpose of `_field_matrix` with its constant row first, so that
    f = M' [S(inf); S(W e); q / W].

    A stage's field operand G holds, in t, [c0; S(W e); q / W; W, ..., W]
    and, in s, [c0 W; W S(W e); q; W, ..., W], c0 = S(inf) = `cdf_sign` and
    W repeated to the shape that it divides (q, n2 rows) or multiplies
    (S(W e), one row per edge).  With L = [M' | 0] (zero on the W rows),
    f = L G in t and W f = L G in s.  The unit block U maps a state q to the
    rows of G that a stage product writes, before the CDF: [c W e; q; W, ...]
    (c the type's `cdf_scale`), with c0 W first in s; in t the constant row
    is written once.  Each set is (stages, node, n_edges):

    - `stages`: the stage matrices before h, one slot per stage j = 2, 3,
      4, each stored transposed, so that `stages[j - 2, :width].T` is the
      F-ordered [a_j U L | 0 | U] over [G_(j-1); ...; G_1; qc]
      (a_j = 1/2, 1/2, 1; U L is one product).  The entries that scale with
      h are `stages[:, :rows of G]`, and the next n2 rows of `stages[0]`
      are U, stage 1's matrix;
    - `node`: [L/6 | L/3 | L/3 | L/6 | I] over [G_4; G_3; G_2; G_1; qc],
      transposed, so that every entry that scales with h is in the rows
      before the last n2.

    Stored so, every matrix is contiguous (on x86-64 with OpenBLAS 0.3.31,
    a product with a strided 9 x 20 matrix took 0.58 us against 0.32 us),
    and two calls rescale every entry that scales with h: one on the three
    stage blocks, a strided view, and one on the node's block.
    """
    edges, matrix = cfg.kept(_field_matrix)
    n2, n_edges = len(matrix[0]), len(edges)
    field = matrix[np.r_[n_edges, :n_edges, n_edges + 1:len(matrix)]].T
    beta = np.zeros(n2)
    beta[:cfg.n_exchanges] = cfg.beta
    edge_rows, eye = np.multiply.outer(edges * cfg.type_dist.cdf_scale, beta), np.eye(n2)
    sets = []
    for in_s in (False, True):
        repeat = max(n_edges, 1) if in_s else n2
        head = [cfg.type_dist.cdf_sign * beta[None]] if in_s else []
        unit = np.concatenate(head + [edge_rows, eye, np.tile(beta, (repeat, 1))])
        lifted = np.hstack((field, np.zeros((n2, repeat))))
        f, field_u = len(lifted[0]), np.dot(unit, lifted)
        stages = np.zeros((3, 3 * f + n2, len(unit)))
        for j, a in enumerate((0.5, 0.5, 1.0)):
            stages[j, :f] = (a * field_u).T
            stages[j, (j + 1) * f:(j + 1) * f + n2] = unit.T
        node = np.hstack((lifted / 6.0, lifted / 3.0, lifted / 3.0, lifted / 6.0, eye)).T
        sets.append((stages, np.ascontiguousarray(node), n_edges))
    return tuple(sets)


class _Kernel(NamedTuple):
    load: Callable     # load(q): make the (N, rows) states q the start of the next step
    step: Callable     # step(): the node of one step from the start, an (N, rows) view
    weigh: Callable    # weigh(): the node's stage-1 product, as `load` would form it
    accept: Callable   # accept(): make the weighed node the start of the next step
    resize: Callable   # resize(h): set the size of the steps that follow
    state: np.ndarray  # (N, rows) the start of the next step
    fields: np.ndarray  # (4, ., rows) each stage's field operand G (`_stage_operands`), stage 1 first


def _rk4(cfg: ModelConfig, rows: int, h: float, in_s: bool = False) -> _Kernel:
    """Classical RK4 steps of size h for a batch of `rows` states, stored
    feature-major (one column per state), every stage in buffers made here
    once.

    The state buffer is Y = [G_4; G_3; G_2; G_1; qc]: each stage's field
    operand G_j (`_stage_operands`) in place of h k_j = h L G_j, and the
    start qc last.  Stage j's state qc + a_j h k_(j-1) enters its product
    only through U, so one product, [a_j U (h L) | 0 | U] times the tail
    [G_(j-1); ...; G_1; qc] of Y, writes G_j's rows before the CDF.  The
    type's `scaled_cdf` then writes S(W e) in place, and one divide (q / W,
    in t) or one multiply (W S(W e), in s) completes G_j; no stage forms
    h k_j.  The node is [hL/6 | hL/3 | hL/3 | hL/6 | I] Y.  A stage whose
    workload is not positive gets S = F(0), through the clamp in
    `scaled_cdf`.

    qc comes last in each product's inner dimension, which gemm sums in
    order: the small stage terms add up among themselves and the start's
    scale rounds their sum once.  With qc first every term rounds at that
    scale, and ref1 at dt = 0.005 was 6.4e-14 from dt = 1e-4 at the nodes
    instead of 2.3e-14, below fourth order.  `resize` rescales the entries
    that scale with h in two calls (`_stage_operands`).  Per-row step sizes
    would not fit into these matrices, which treat every column alike: a
    (1, rows) row of step sizes would scale each G_j's columns instead, so
    that Y held h G_j, with h-free matrices and no `resize`.

    `load` runs stage 1's product for the start and `weigh` runs it for the
    node, so a node's workload (`fields[0, -1]` after `weigh`) is bit for bit
    the next step's stage-1 workload; `step` leaves each stage's workload in
    `fields[:, -1]`.  Every product has at least two rows, and its columns
    are padded with states of ones to a multiple of `_COLUMNS`, so gemm
    gives a column the same bits in every batch.
    """
    kept_stages, kept_node, n_edges = cfg.kept(_stage_operands)[in_s]
    stages, node_t = kept_stages.copy(), kept_node.copy()
    n, n2, b2 = cfg.n_exchanges, len(node_t[0]), -(-rows // _COLUMNS) * _COLUMNS
    f = (len(node_t) - n2) // 4  # the rows of one field operand
    y = np.ones((4 * f + n2, b2))  # [G4; G3; G2; G1; qc]
    y[:4 * f:f] = cfg.type_dist.cdf_sign  # G's constant row; each product rewrites it in s
    node = np.empty((n2, b2))
    e, q, w = 1, 1 + n_edges, 1 + n_edges + n2  # the first rows of S(W e), q and W in G
    plan = []
    for j in range(4):  # stage j + 1: matrix, operand, output, S(W e), and the completing operands
        g = y[(3 - j) * f:(4 - j) * f]
        matrix = stages[j - 1, :j * f + n2].T if j else stages[0, f:f + n2].T
        completing = (g[e:q], g[w:w + n_edges]) if in_s else (g[q:w], g[w:])
        plan.append((matrix, y[(4 - j) * f:], g[0 if in_s else 1:], g[e:q], *completing))
    first, start, primed = plan[0][:3]
    state, node_q, node_matrix = y[4 * f:4 * f + n, :rows], node[:n, :rows], node_t.T
    hs = ((kept_stages[:, :f], stages[:, :f]), (kept_node[:4 * f], node_t[:4 * f]))
    copyto, dot, multiply = np.copyto, np.dot, np.multiply
    complete = multiply if in_s else np.divide
    scaled_cdf = cfg.type_dist.scaled_cdf

    def load(states):
        copyto(state, states)
        dot(first, start, primed)

    def step():
        for j, (matrix, operand, out, edge, a, b) in enumerate(plan):
            if j:
                dot(matrix, operand, out)
            scaled_cdf(edge, edge)
            complete(a, b, a)
        dot(node_matrix, y, node)
        return node_q

    def weigh():
        dot(first, node, primed)

    def accept():
        copyto(state, node_q)

    def resize(h):
        for kept, scaled in hs:
            multiply(kept, h, scaled)

    resize(h)
    return _Kernel(load, step, weigh, accept, resize, state, y[:4 * f].reshape(4, f, b2)[::-1, :, :rows])


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
    rows can differ from the full product in its last bits.  Each node's
    workload is its `_rk4` stage-1 workload.  The kernel's buffers are made
    once per call, and the states are kept feature-major, (N, B), inside.
    """
    q0s = np.asarray(q0s, dtype=float)
    n_traj, n = q0s.shape
    floor = _FLOOR_FACTOR * np.asarray(kappas, dtype=float)
    floor_max, beta, in_s = floor.max(), cfg.beta, n_steps is None
    # h_max, the s time of the fastest linear decay -v mu beta_i q_i, keeps RK4
    # inside its real stability interval, where the error estimate is blind.
    h = 1.0 / (cfg.v * cfg.mu * beta.max()) if in_s else horizon / n_steps
    load, step, weigh, accept, resize, state, fields = _rk4(cfg, n_traj, h, in_s)
    # The stage workloads in memory order, stage 4 first, which the
    # symmetric RK4 mean reads as they are; w: the weighed or loaded state's.
    stage_w, w = fields[::-1, -1], fields[0, -1]
    load(q0s.T)
    if np.any(w <= 0):
        raise ValueError("every initial state needs positive workload")
    # W relaxes toward W*, so an s step advances t by at most about
    # h_max max(W0, W*).
    if in_s and not horizon / (h * max(w.max(), solve_workload_star(cfg))) < _MAX_GRID:
        raise IntegrationError(f"horizon: the run would take {_MAX_GRID} steps or more")

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
        # (q, t) and its node above a 1.0, so one reduction gives the gap
        # and max(1, max|q|).
        peaks, qs, full = np.ones((2, n + 1, n_traj)), np.empty((2, n, n_traj)), np.empty((n, n_traj))
        ws, dts, lows, tops, taus = *np.empty((4, 3, n_traj)), np.zeros((4, n_traj))
        (spread, node), (mid, end), (gap, q_top, err) = peaks, qs, tops
        node, spread_q, spread_t, top2 = node[:n], spread[:n], spread[n], tops[:2]
        node[:], ws[0], taus[3], mean = state, w, 1.0, np.array([1.0, 2.0, 2.0, 1.0]) / 6.0
        (w_node, w_mid, w_end), (tau, tau_mid, tau_end, _) = ws, taus
        (dt_full, dt_mid, dt_end), new_dts, new_ws, new_taus = dts, dts[1:], ws[1:], taus[1:3]
        ordered, worst, loaded = np.empty((5, n_traj), dtype=bool), np.zeros(n_traj), True
        advancing, kept, before, after = ordered[:3], ordered[3:], taus[:-1], taus[1:]
        # As 0-d arrays, these spare numpy a scalar conversion in each call.
        local_tol, fifteen, span = np.array(_LOCAL_TOL), np.array(15.0), np.array(horizon)
        parts = [(taus[:1].copy(), ws[:1].copy(), node[None].copy())]

        def record(t, w, q):  # nodes' taus, workloads and states
            parts.append((t.copy(), w.copy(), q.copy() if store_states else None))

        def advance(h, out, dt_out, low, w_out=None):
            """One s step h (set by `resize`) from the loaded state into `out`, its
            t advance into `dt_out`; return out's lowest entry, then floor out at 0,
            first writing each row's lowest into `low` if that entry is not positive.
            With `w_out`, weigh out into it and load out for the next step."""
            x = step()
            np.multiply(dot(mean, stage_w, dt_out), h, dt_out)
            lowest = minimum(x, None)
            if not lowest > 0.0:
                minimum(x, 0, None, low)
                np.maximum(x, 0.0, out=x)
            copyto(out, x)
            if w_out is not None:
                weigh()
                accept()
                copyto(w_out, w)
            return lowest

        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            while all_running or running.any():
                if not ran < _MAX_GRID:
                    raise IntegrationError(f"no s step meets the local tolerance {_LOCAL_TOL:g} "
                                           f"in fewer than {_MAX_GRID} steps")
                if not loaded:
                    load(node)
                resize(h)
                advance(h, full, dts[0], lows[0])
                load(node)
                resize(0.5 * h)
                low_mid = advance(0.5 * h, mid, dts[1], lows[1], w_mid)
                low_end = advance(0.5 * h, end, dts[2], lows[2], w_end)
                ran, loaded = ran + 3, False
                np.subtract(full, end, spread_q)
                np.subtract(np.subtract(dt_full, dt_mid, spread_t), dt_end, spread_t)
                np.abs(spread, spread)
                maximum(peaks, 1, None, top2)
                if not all_running:  # a done or failed row neither limits nor accepts
                    copyto(gap, 0.0, where=~running)
                # err <= tol exactly when tol / err >= 1 (tol is a normal
                # number), and a NaN estimate is rejected.
                np.divide(np.multiply(local_tol, q_top, q_top), np.divide(gap, fifteen, err), q_top)
                least = float(minimum(q_top))
                accept_trial, h = least >= 1.0, min(h_max, h * min(4.0, max(0.2, 0.9 * least**0.2)))
                if not accept_trial:
                    continue
                np.fmax(worst, gap, worst)  # an accepted gap is finite
                np.divide(new_dts, span, new_dts)
                np.add(tau, dt_mid, tau_mid)
                np.add(tau_mid, dt_end, tau_end)
                np.less(before, after, advancing)
                np.less_equal(floor, new_ws, kept)
                if all_running and min(low_mid, low_end) >= -_CLIP_TOL and all_of(ordered, None):
                    record(new_taus, new_ws, qs)
                    node[:], w_node[:], tau[:], loaded = end, w_end, tau_end, True
                    continue
                candidates = zip(qs, new_ws, new_taus, lows[1:], (low_mid, low_end))
                for x, w_x, tau_x, low, lowest in candidates:
                    negative = running & (not lowest >= -_CLIP_TOL) & ~(low >= -_CLIP_TOL)
                    for r in np.flatnonzero(running & ~(tau_x < 1.0)):
                        # One RK4 step in t to the horizon instead.
                        finish = finish or _rk4(cfg, 1, horizon)
                        finish.resize(horizon * (1.0 - tau[r]))
                        finish.load(node[:, r:r + 1])
                        last = finish.step()
                        negative[r] = not minimum(last, None) >= -_CLIP_TOL
                        np.maximum(last, 0.0, out=last)
                        finish.weigh()
                        copyto(x[:, r:r + 1], last)
                        w_x[r], tau_x[r], ran = finish.fields[0, -1, 0], 1.0, ran + 1
                    fail(negative, "negative", horizon * tau_x)
                    bad = running & alive & ~((w_x >= floor) & (tau_x > tau))
                    fail(bad, "floor", horizon * tau_x)
                    took = running & alive
                    copyto(node, x, where=took)
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
        q_hist = np.concatenate(q_parts).transpose(0, 2, 1) if store_states else None
        steps, q, worst = len(times) - 1, node, float(maximum(worst))
    else:
        grid = np.append(np.arange(n_steps) * h, horizon)
        times = np.broadcast_to(grid[:, None], (n_steps + 1, n_traj))
        w_hist, q_hist = np.empty((n_steps + 1, n_traj)), None
        w_hist[0] = w
        if store_states:
            q_hist = np.empty((n_steps + 1, n_traj, n))
            q_hist[0] = q0s
        steps, ran, worst = n_steps, n_steps, 0.0

        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for i in range(1, n_steps + 1):
                q = step()
                # Each check is one reduction over the batch; the per-trajectory
                # masks run only when it finds an entry that may fail (NaN too).
                # A strictly positive state is its own floor at 0.
                low = minimum(q, None)
                if not low > 0.0:
                    if not low >= -_CLIP_TOL:
                        fail(alive & ~(np.min(q, axis=0) >= -_CLIP_TOL), "negative", grid[i])
                    np.maximum(q, 0.0, out=q)  # what np.clip(q, 0.0, None) runs
                if not all_alive:  # failed rows keep their last good state
                    copyto(q, state, where=~alive)
                weigh()
                if not minimum(w) >= floor_max:
                    fail(alive & ~(w >= floor), "floor", grid[i])
                    copyto(q, state, where=~alive)
                    weigh()
                accept()
                w_hist[i] = w
                if store_states:
                    q_hist[i] = state.T
                if not all_alive and not alive.any():
                    w_hist[i + 1:] = w
                    if store_states:
                        q_hist[i + 1:] = state.T
                    break
        q = state

    return _BatchResult(
        times=times, workload=w_hist, states=q_hist, terminal=q.T.copy(),
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
        drift=_rhs_batch(cfg, res.states[:, 0, :], res.workload[:, 0]),
        workload=res.workload[:, 0],
        min_workload=float(res.min_workload[0]),
        kappa=kappa,
        steps=res.steps,
        dt=horizon / res.steps,
        pilot_steps=pilot_steps,
        max_refine_error=gap,
    )
