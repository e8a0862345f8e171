"""Fluid vector field and RK4 integration of the coupled ODE system.

The field f(q) = b_d lam + b_o Lambda chi(W) - v mu beta q / W is singular
where the workload W vanishes.  Without a given step, `integrate` therefore
runs RK4 in uniform steps of the time s with dt/ds = W (Sundman, *Acta
Math.* 1912; Hairer, Lubich & Wanner, *Geometric Numerical Integration*,
section VIII.2), where the field W f has no singularity: the term that
relaxes the venue split at rate v mu beta_i / W becomes a linear decay.
Its nodes are non-uniform in t, and the last step is cut to end at the
horizon.  A given step `dt` runs uniform RK4 steps in t, one trajectory or
the stability experiments' batch.  Both take the same in-place RK4 step
(`_rk4`), which in s multiplies each stage's field by its workload.

Integration runs with a safety floor at a fraction of the proven workload
lower bound kappa and aborts if the floor is ever breached (which signals a
bug or a violated assumption, not physics).  A failed trajectory is
recorded with its reason and time, and only `integrate` turns it into an
exception.  The one error estimate is step doubling (Richardson; Hairer,
Norsett & Wanner, *Solving ODEs I*, section II.4): it picks the s step
unless a t step is given, and checks a given step on request.  Routing
fractions use the workload-only band form throughout, which is what removes
the ambiguity of the per-venue delay at empty queues.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IntegrationError, ParameterError, SingularityError, StepInstabilityError
from .model import ModelConfig, compute_kappa
from .routing import QueueState, _band_chi, solve_workload_star

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
# Step doubling accepts a run once it agrees with the run at twice its step
# count within this factor times max(1, max|q|) at every node it has.
_SELECT_TOL = 1e-10
# The selector's first pilot takes s steps of 1/8 of horizon / w_ref (see
# `_integrate_s`).
_FIRST_PILOT = 8
# Most pilot pairs the selector runs before it gives up.
_MAX_PASSES = 10
# The exception `integrate` raises for each recorded failure reason.
_FAILURES = {"floor": SingularityError, "negative": IntegrationError}


def _step_count(horizon: float, dt: float) -> int:
    """The fewest uniform steps over the horizon no longer than `dt`."""
    if not 0 < dt < math.inf:
        raise ParameterError("dt: must be positive and finite")
    if not horizon / dt < _MAX_GRID:
        raise ParameterError(f"dt: the horizon would take more than {_MAX_GRID} steps")
    return max(1, math.ceil(horizon / dt - 1e-12))


@dataclass(frozen=True)
class FluidTrajectory:
    """A fluid solution sampled on the integrator grid.

    `steps` counts the steps that ran and `dt` is their mean t step,
    horizon / steps: the uniform step of an explicit `dt`, and for a
    selected step, whose nodes are uniform in s and not in t, a summary.
    `pilot_steps` counts the steps of the other runs: the selector's
    pilots, the 2K steps of the check run of an explicit step with `refine`,
    and 0 for an unchecked one.
    `max_refine_error` is the step-doubling gap that accepted the run: to the
    run at twice its step for a selected step, to the run at half it for an
    explicit step with `refine`, and 0.0 for an unchecked one.
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


def _rhs_batch(cfg: ModelConfig, rows: int | None = None):
    """Vectorised drift q -> b_d lam + b_o Lambda chi(W) - v mu beta q / W for
    a (B, N) matrix of states with positive workloads; constants hoisted.

    `rhs(q, w, out)` takes the workloads `w = q @ beta` when the caller has
    them.  The field is built in place in the array `_band_chi` returns, in
    the operation order of the expression above.

    Buffers: without `rows`, each call allocates its result and scratch, and
    the constants are (1, N) rows that broadcast over any B.  With `rows`,
    the constants are tiled to (rows, N) (`bands.edges` to (rows, 2N)) and
    the scratch arrays, the edge products and the service term, are made
    here once and overwritten by every call; each call then takes a
    (rows, N) `out` that receives the field, and writes into no other
    array.  Both give the same bits.
    """
    beta, tdist, bands = cfg.beta, cfg.type_dist, cfg.bands
    # Arrays of the batch's shape, and 0-d arrays in place of Python floats,
    # give the same bits as broadcasting (N,) vectors and floats, and numpy
    # dispatches them faster on small batches.
    shape = (1 if rows is None else rows, 1)
    beta_rows = np.tile(beta, shape)
    inflow = np.tile(cfg.b_dedicated * cfg.lam, shape)
    edges = np.tile(bands.edges, shape)
    lam_o = np.array(cfg.b_optimized * cfg.big_lambda)
    v_mu = np.array(cfg.v * cfg.mu)
    products = service = None
    if rows is not None:
        products, service = np.empty_like(edges), np.empty_like(beta_rows)

    def rhs(q: np.ndarray, w: np.ndarray | None = None, out: np.ndarray | None = None):
        if w is None:
            w = q @ beta
        drift = _band_chi(bands, tdist, w, out, edges=edges, products=products)
        drift *= lam_o
        drift += inflow
        term = np.multiply(beta_rows, q, out=service)
        term *= v_mu
        term /= w[:, None]
        drift -= term
        return drift

    return rhs


def _rk4(cfg: ModelConfig, rows: int, h: float, in_s: bool = False):
    """Classical RK4 steps of size h for a (rows, N) batch of states, every
    stage computed in place in buffers made here once.

    `step(qc, wc, out)` writes qc + (h/6) (k1 + 2 k2 + 2 k3 + k4) into `out`,
    in the operation order of that expression, for states qc with workloads
    wc.  With `in_s` each stage takes W times the field, dq/ds for
    dt/ds = W.  Also returned is `stage_w`, whose rows 1-3 receive the
    stages' workloads; row 0 is the caller's, to hold wc.
    """
    rhs, beta = _rhs_batch(cfg, rows), cfg.beta
    k1, k2, k3, k4, stage = (np.empty((rows, len(beta))) for _ in range(5))
    stage_w = np.empty((4, rows))
    _, w2, w3, w4 = stage_w
    half, full, sixth, two = np.array(0.5 * h), np.array(h), np.array(h / 6.0), np.array(2.0)
    add, multiply, matmul = np.add, np.multiply, np.matmul

    def field(qs, ws, out):
        rhs(qs, ws, out)
        if in_s:
            out *= ws[:, None]

    def step(qc, wc, out):
        field(qc, wc, k1)
        field(add(multiply(k1, half, out=stage), qc, out=stage), matmul(stage, beta, out=w2), k2)
        field(add(multiply(k2, half, out=stage), qc, out=stage), matmul(stage, beta, out=w3), k3)
        field(add(multiply(k3, full, out=stage), qc, out=stage), matmul(stage, beta, out=w4), k4)
        add(multiply(k2, two, out=k2), k1, out=k2)
        add(k2, multiply(k3, two, out=k3), out=k2)
        add(k2, k4, out=k2)
        add(multiply(k2, sixth, out=k2), qc, out=out)

    return step, stage_w


@dataclass
class _BatchResult:
    times: np.ndarray             # (K+1,)
    workload: np.ndarray          # (K+1, B)
    states: np.ndarray | None     # (K+1, B, N) when stored
    terminal: np.ndarray          # (B, N)
    min_workload: np.ndarray      # (B,)
    failed: np.ndarray            # (B,) bool
    fail_reason: list             # "floor", "negative" or None
    fail_time: np.ndarray         # (B,) grid time of the failed step; NaN if none
    steps: int


def _integrate_batch(
    cfg: ModelConfig,
    q0s: np.ndarray,
    horizon: float,
    n_steps: int,
    kappas: np.ndarray,
    *,
    store_states: bool = False,
) -> _BatchResult:
    """Classical RK4 over a batch of trajectories sharing one grid of
    `n_steps` uniform steps.

    A trajectory that fails (floor breach or negative undershoot) is frozen
    at its last good state, and the result records the reason and the time;
    once every trajectory has failed, the frozen states fill the rest of the
    history.  Failed rows stay in the batch: a matmul over a subset of rows
    can differ from the full product in its last bits.

    Buffers: everything batch-shaped is made once per call, and the steps
    compute in place.  k1-k4, the stage and its workload, and the field's
    scratch (`_rhs_batch` with `rows`) are overwritten by every stage.  The
    state and its workload live in two pairs of arrays that swap roles each
    step: the step writes the new pair, and the old one becomes the next
    step's output.  Nothing returned aliases them except `terminal`, the
    last state, taken when the steps end; the histories and `min_workload`
    are fresh arrays, each row a copy.
    """
    q0s = np.asarray(q0s, dtype=float)
    n_traj, _ = q0s.shape
    dt = horizon / n_steps
    floor = _FLOOR_FACTOR * np.asarray(kappas, dtype=float)
    floor_max = floor.max()
    beta = cfg.beta

    q = q0s.copy()
    w = q @ beta
    if np.any(w <= 0):
        raise ValueError("every initial state needs positive workload")

    alive = np.ones(n_traj, dtype=bool)
    all_alive = True  # until a trajectory fails, the freezes below are no-ops
    reasons: list = [None] * n_traj
    fail_time = np.full(n_traj, np.nan)
    times = np.arange(n_steps + 1) * dt
    times[-1] = horizon
    w_hist = np.empty((n_steps + 1, n_traj))
    w_hist[0] = w
    q_hist = None
    if store_states:
        q_hist = np.empty((n_steps + 1, n_traj, q.shape[1]))
        q_hist[0] = q
    rk4, _ = _rk4(cfg, n_traj, dt)
    q_new, w_new = np.empty_like(q), np.empty_like(w)
    matmul, minimum = np.matmul, np.minimum.reduce

    def fail(mask, message):
        nonlocal alive, all_alive
        for idx in np.flatnonzero(mask):
            reasons[idx] = message
        fail_time[mask] = times[step]
        alive = alive & ~mask
        all_alive = False

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for step in range(1, n_steps + 1):
            # w is q @ beta from the end of the previous step (or the start)
            rk4(q, w, q_new)
            # Each check is one reduction over the batch; the per-trajectory
            # masks run only when it finds an entry that may fail (NaN too).
            # A strictly positive state is its own floor at 0.
            low = minimum(q_new, axis=None)
            if not low > 0.0:
                if not low >= -_CLIP_TOL:
                    bad = alive & ~(np.min(q_new, axis=1) >= -_CLIP_TOL)
                    if bad.any():
                        fail(bad, "negative")
                np.maximum(q_new, 0.0, out=q_new)  # what np.clip(q_new, 0.0, None) runs

            matmul(q_new, beta, out=w_new)
            if not minimum(w_new) >= floor_max:
                bad = alive & ~(w_new >= floor)
                if bad.any():
                    fail(bad, "floor")

            if not all_alive:  # failed rows keep their last good state
                frozen = ~alive
                np.copyto(q_new, q, where=frozen[:, None])
                np.copyto(w_new, w, where=frozen)
            q, q_new = q_new, q
            w, w_new = w_new, w
            w_hist[step] = w
            if store_states:
                q_hist[step] = q
            if not all_alive and not alive.any():
                w_hist[step + 1:] = w
                if store_states:
                    q_hist[step + 1:] = q
                break

    return _BatchResult(
        times=times,
        workload=w_hist,
        states=q_hist,
        terminal=q,
        min_workload=w_hist.min(axis=0),  # frozen rows repeat a kept value
        failed=~alive,
        fail_reason=reasons,
        fail_time=fail_time,
        steps=n_steps,
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


def _integrate_s(
    cfg: ModelConfig, q0: np.ndarray, horizon: float, w_ref: float, k: int, floor: float
) -> _BatchResult:
    """Classical RK4 for one trajectory in uniform steps of s, with
    dq/ds = W f(q) and dt/ds = W, f the fluid field `_rhs_batch`, up to
    t = horizon.

    The step is ds = horizon / (w_ref k), so a run that keeps W near w_ref
    takes about k steps.  t is carried as tau = t / horizon, which each step
    advances by its RK4 mean of W over w_ref k, so that neither a tiny
    horizon nor a tiny ds loses it.  The step that would reach the horizon is
    replaced by one RK4 step in t from the last node to it, so the run ends
    at `times[-1] == horizon`.

    The result is a one-row `_BatchResult` whose nodes are non-uniform in t.
    A failure (floor breach, negative undershoot, or a step that does not
    advance t) ends the run at the last good state.  A run that needs more
    than `_MAX_GRID` steps raises IntegrationError.
    """
    beta, per_tau = cfg.beta, w_ref * k
    rk4, w = _rk4(cfg, 1, horizon / per_tau, in_s=True)
    w1 = w[0]  # the workload of the step's start state
    q, q_new = np.empty((1, len(q0))), np.empty((1, len(q0)))
    weights = np.array([1.0, 2.0, 2.0, 1.0]) / 6.0
    matmul, minimum = np.matmul, np.minimum.reduce
    q[0] = q0
    matmul(q, beta, out=w1)
    tau, reason = 0.0, None
    taus, states, workloads = [tau], [q0], [float(w1[0])]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while tau < 1.0:
            if not len(taus) <= _MAX_GRID:
                raise IntegrationError(
                    f"no step meets the tolerance {_SELECT_TOL:g} in fewer than {_MAX_GRID} steps"
                )
            rk4(q, w1, q_new)
            tau_new = tau + float(w[:, 0] @ weights) / per_tau
            if not tau_new < 1.0:
                _rk4(cfg, 1, horizon * (1.0 - tau))[0](q, w1, q_new)
                tau_new = 1.0
            low = minimum(q_new, axis=None)
            if not low > 0.0:
                if not low >= -_CLIP_TOL:
                    reason = "negative"
                    break
                np.maximum(q_new, 0.0, out=q_new)
            w_new = float(matmul(q_new, beta, out=w1)[0])  # the next step's w1
            if not (w_new >= floor and tau_new > tau):
                reason = "floor"
                break
            q, q_new, tau = q_new, q, tau_new
            taus.append(tau)
            states.append(q[0].copy())
            workloads.append(w_new)

    return _BatchResult(
        times=horizon * np.array(taus),
        workload=np.array(workloads)[:, None],
        states=np.array(states)[:, None, :],
        terminal=q,
        min_workload=np.array([min(workloads)]),
        failed=np.array([reason is not None]),
        fail_reason=[reason],
        fail_time=np.array([np.nan if reason is None else horizon * tau_new]),
        steps=len(taus) - 1,
    )


def _doubling_gap(coarse: _BatchResult, fine: _BatchResult) -> tuple[float, float, float | None]:
    """Step doubling's error estimate for trajectory 0 of a run from the run
    at half its step: the max-norm gap in (q, t) between them at the coarse
    run's nodes, the tolerance `_SELECT_TOL` times max(1, max|q|), and the
    first node time where the gap exceeds it (None if there is none).

    Node j of the coarse run meets node 2j of the fine one, the last node
    the last; on a uniform t grid that is every node and the times agree.
    """
    last, fine_last = len(coarse.times) - 1, len(fine.times) - 1
    rows = np.append(np.arange(min(last, (fine_last + 1) // 2)), last)
    fine_rows = np.append(2 * rows[:-1], fine_last)

    def nodes(run, at):
        return np.column_stack([run.states[at, 0], run.times[at]])

    gaps = np.max(np.abs(nodes(coarse, rows) - nodes(fine, fine_rows)), axis=1)
    tol = _SELECT_TOL * max(1.0, float(np.max(np.abs(fine.states))))
    bad = np.flatnonzero(~(gaps <= tol))  # a NaN gap is bad too
    return float(np.max(gaps)), tol, float(coarse.times[rows[bad[0]]]) if bad.size else None


def _select_s(
    cfg: ModelConfig, q0: np.ndarray, horizon: float, w_ref: float, floor: float
) -> tuple[_BatchResult, int, float]:
    """Pick the s step of `_integrate_s` by step doubling; return its run,
    the steps of the pilot runs and the gap that accepted it.

    Each pass runs pilots at k and 2k steps per horizon / w_ref and returns
    the finer run once the two agree within `_SELECT_TOL` times
    max(1, max|q|) at every node of the coarser.  Otherwise the
    fourth-order error rule, gap ~ k^-4, predicts the k that meets the
    tolerance, rounded up to k times a power of two; a pilot that fails
    doubles k.
    """
    k, ran, fine, fine_k = _FIRST_PILOT, 0, None, 0

    def pilot(j):
        nonlocal ran
        run = _integrate_s(cfg, q0, horizon, w_ref, j, floor)
        ran += run.steps
        return run

    for _ in range(_MAX_PASSES):
        # k grows by a power of two >= 2, so the last fine pilot is the only
        # one a later pass can reuse.
        coarse = fine if fine_k == k else pilot(k)
        fine, fine_k = pilot(2 * k), 2 * k
        grow = 2
        if not (coarse.failed[0] or fine.failed[0]):  # a failed pilot doubles k
            gap, tol, _ = _doubling_gap(coarse, fine)
            if gap <= tol:
                return fine, ran - fine.steps, gap
            if gap / tol < math.inf:  # so does a non-finite gap
                grow = 2 ** max(1, math.ceil(math.log2(gap / tol) / 4))
        k *= grow
    raise IntegrationError(
        f"no step meets the tolerance {_SELECT_TOL:g} within {_MAX_PASSES} passes"
    )


def integrate(
    cfg: ModelConfig,
    q0,
    horizon: float,
    *,
    dt: float | None = None,
    refine: bool = False,
) -> FluidTrajectory:
    """Integrate the fluid system from q0 over [0, horizon].

    Without `dt` the run steps uniformly in s, dt/ds = W, and the step is
    picked by step doubling (`_select_s`); the run already agrees with the
    run at twice its step, so `refine` adds nothing.  `dt` fixes a uniform
    step in t: the horizon is divided into the fewest steps no longer than
    it.  With `refine` that run is checked the same way, against a run at
    twice its step count, and returned unchanged.

    Raises SingularityError if the workload drops below half of kappa,
    StepInstabilityError if a checked run is off its doubled run by more
    than `_SELECT_TOL` times max(1, max|q|), and IntegrationError on
    negative component undershoot beyond roundoff or when no step meets the
    tolerance.
    """
    q0, w0 = _initial_state(cfg, q0)
    if not 0 < horizon < math.inf:
        raise ParameterError("horizon: must be positive and finite")
    n_steps = None if dt is None else _step_count(horizon, dt)
    if n_steps is not None and refine and not 2 * n_steps < _MAX_GRID:
        raise ParameterError(f"dt: the refine check would take {_MAX_GRID} steps or more")

    w_star = solve_workload_star(cfg)
    kappa = compute_kappa(cfg, w0, w_star)
    kappas = np.array([kappa])

    def run(steps):
        res = _integrate_batch(cfg, q0[None, :], horizon, steps, kappas, store_states=True)
        if res.failed[0]:
            raise _failure(res, 0)
        return res

    pilot_steps, gap = 0, 0.0
    if n_steps is None:
        # W relaxes toward W*, and it grows no faster than
        # beta . b_d lam + max(beta) b_o Lambda, as chi >= 0 sums to at most 1;
        # so W stays below about w_ref over the horizon.
        inflow = cfg.b_dedicated * cfg.lam
        growth = cfg.beta @ inflow + cfg.beta.max() * cfg.b_optimized * cfg.big_lambda
        w_ref = max(w0, min(w_star, w0 + horizon * growth))
        res, pilot_steps, gap = _select_s(cfg, q0, horizon, w_ref, _FLOOR_FACTOR * kappa)
    else:
        res = run(n_steps)
        if refine:
            pilot_steps = 2 * n_steps
            gap, _, unstable_at = _doubling_gap(res, run(pilot_steps))
            if unstable_at is not None:
                raise StepInstabilityError(f"trajectory 0: unstable at t={unstable_at:.6g}")
    return FluidTrajectory(
        times=res.times,
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
