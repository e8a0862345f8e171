"""Fluid vector field and uniform-step RK4 integration of the coupled ODE system.

The field is singular where the workload vanishes; integration therefore runs
with a safety floor at a fraction of the proven workload lower bound kappa and
aborts if the floor is ever breached (which signals a bug or a violated
assumption, not physics).  A failed trajectory is recorded with its reason
and time, and only `integrate` turns it into an exception.  Its one error
estimate is step doubling (Richardson; Hairer, Norsett & Wanner, *Solving
ODEs I*, section II.4): it picks the uniform step unless one is given, and
checks a given step on request.  Routing fractions use the workload-only band form
throughout, which is what removes the ambiguity of the per-venue delay at
empty queues.
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
# Most points of a time grid, checked before it is allocated: the RK4 grid
# here and the simulator's sample grid.
_MAX_GRID = 10**7
# Step doubling accepts a run once it agrees with the run at twice its step
# count within this factor times max(1, max|q|) at every node it has.
_SELECT_TOL = 1e-10
# The fewest steps of a selected grid; its first pilot has half as many.
_MIN_SELECTED = 200
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

    `dt` is the uniform step that ran and `steps` its count; `pilot_steps`
    counts the steps of the selector's pilot grids (0 for an explicit step).
    `max_refine_error` is the step-doubling gap that accepted the run: to the
    run at half its step count for a selected step, to the run at twice it
    for an explicit step with `refine`, and 0.0 for an unchecked one.
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


def _rhs_batch(cfg: ModelConfig):
    """Vectorised drift q -> b_d lam + b_o Lambda chi(W) - v mu beta q / W for
    a (B, N) matrix of states with positive workloads; constants hoisted.

    `rhs(q, w)` takes the workloads `w = q @ beta` when the caller has them.
    The field is built in place in the array `_band_chi` returns, in the
    operation order of the expression above.
    """
    beta, tdist, bands = cfg.beta, cfg.type_dist, cfg.bands
    # (1, N) rows and 0-d arrays give the same bits as (N,) vectors and
    # Python floats, and numpy dispatches them faster on small batches.
    beta_row = beta[None, :]
    inflow = (cfg.b_dedicated * cfg.lam)[None, :]
    lam_o = np.array(cfg.b_optimized * cfg.big_lambda)
    v_mu = np.array(cfg.v * cfg.mu)

    def rhs(q: np.ndarray, w: np.ndarray | None = None) -> np.ndarray:
        if w is None:
            w = q @ beta
        drift = _band_chi(bands, tdist, w)
        drift *= lam_o
        drift += inflow
        service = beta_row * q
        service *= v_mu
        service /= w[:, None]
        drift -= service
        return drift

    return rhs


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
    history.
    """
    q0s = np.asarray(q0s, dtype=float)
    n_traj, _ = q0s.shape
    rhs = _rhs_batch(cfg)
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
    half, full, sixth, two = np.array(0.5 * dt), np.array(dt), np.array(dt / 6.0), np.array(2.0)

    def rk4(qc, wc):
        # One step qc + (dt/6) (k1 + 2 k2 + 2 k3 + k4), every stage and the
        # sum formed in place, in the operation order of that expression.
        k1 = rhs(qc, wc)
        stage = k1 * half
        stage += qc
        k2 = rhs(stage)
        np.multiply(k2, half, out=stage)
        stage += qc
        k3 = rhs(stage)
        np.multiply(k3, full, out=stage)
        stage += qc
        k4 = rhs(stage)
        k2 *= two
        k2 += k1
        k3 *= two
        k2 += k3
        k2 += k4
        k2 *= sixth
        k2 += qc
        return k2

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
            q_new = rk4(q, w)
            # Each check is one reduction over the batch; the per-trajectory
            # masks run only when it finds an entry that may fail (NaN too).
            # A strictly positive state is its own floor at 0.
            low = q_new.min()
            if not low > 0.0:
                if not low >= -_CLIP_TOL:
                    bad = alive & ~(np.min(q_new, axis=1) >= -_CLIP_TOL)
                    if bad.any():
                        fail(bad, "negative")
                np.maximum(q_new, 0.0, out=q_new)  # what np.clip(q_new, 0.0, None) runs

            w_new = q_new @ beta
            if not w_new.min() >= floor_max:
                bad = alive & ~(w_new >= floor)
                if bad.any():
                    fail(bad, "floor")

            if all_alive:
                q, w = q_new, w_new
            else:
                q = np.where(alive[:, None], q_new, q)
                w = np.where(alive, w_new, w)
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
    unless it holds N nonnegative queue lengths with positive workload."""
    q0 = np.asarray(q0, dtype=float)
    if q0.shape != (cfg.n_exchanges,):
        raise ParameterError(f"q0: expected {cfg.n_exchanges} initial queue lengths")
    if not np.all(np.isfinite(q0)):
        raise ParameterError("q0: initial queue lengths must be finite")
    if np.any(q0 < 0):
        raise ParameterError("q0: initial queue lengths must be nonnegative")
    w0 = float(cfg.beta @ q0)
    if not w0 > 0:
        raise ParameterError("q0: initial workload must be positive")
    return q0, w0


def _doubling_gap(coarse: _BatchResult, fine: _BatchResult) -> tuple[float, float, float | None]:
    """Step doubling's error estimate for trajectory 0 of a K-step run from
    the run at 2K steps: the max-norm gap between them at the K run's nodes,
    the tolerance `_SELECT_TOL` times max(1, max|q|), and the first node time
    where the gap exceeds it (None if there is none)."""
    states = fine.states[:, 0]
    gaps = np.max(np.abs(coarse.states[:, 0] - states[::2]), axis=1)
    tol = _SELECT_TOL * max(1.0, float(np.max(np.abs(states))))
    bad = np.flatnonzero(~(gaps <= tol))  # a NaN gap is bad too
    return float(np.max(gaps)), tol, float(coarse.times[bad[0]]) if bad.size else None


def _select_grid(
    cfg: ModelConfig, q0: np.ndarray, horizon: float, kappas: np.ndarray
) -> tuple[_BatchResult, int, float]:
    """Pick a uniform RK4 grid by step doubling; return its run, the steps of
    the pilot grids and the gap that accepted it.

    Each pass runs pilots at K and 2K steps and returns the 2K run once the
    two agree within `_SELECT_TOL` times max(1, max|q|) at every node of the
    K run.  Otherwise the fourth-order error rule, gap(K) ~ K^-4, predicts
    the K that meets the tolerance, rounded up to K times a power of two; a
    pilot that breaches the floor or goes negative doubles K.
    """
    k, ran, fine = _MIN_SELECTED // 2, 0, None

    def pilot(steps):
        nonlocal ran
        ran += steps
        return _integrate_batch(cfg, q0[None, :], horizon, steps, kappas, store_states=True)

    for _ in range(_MAX_PASSES):
        if not 2 * k < _MAX_GRID:
            raise IntegrationError(
                f"no uniform step meets the tolerance {_SELECT_TOL:g} "
                f"in fewer than {_MAX_GRID} steps"
            )
        # K grows by a power of two >= 2, so the last fine pilot is the only
        # one a later pass can reuse.
        coarse = fine if fine is not None and fine.steps == k else pilot(k)
        fine = pilot(2 * k)
        grow = 2
        if not (coarse.failed[0] or fine.failed[0]):  # a failed pilot doubles K
            gap, tol, _ = _doubling_gap(coarse, fine)
            if gap <= tol:
                return fine, ran - 2 * k, gap
            if gap / tol < math.inf:  # so does a non-finite gap
                grow = 2 ** max(1, math.ceil(math.log2(gap / tol) / 4))
        k *= grow
    raise IntegrationError(
        f"no uniform step meets the tolerance {_SELECT_TOL:g} within {_MAX_PASSES} passes"
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

    Without `dt` the step is picked by step doubling (`_select_grid`), at
    least 200 steps; the run already agrees with the run at half its step
    count, so `refine` adds nothing.  `dt` fixes the uniform step: the
    horizon is divided into the fewest steps no longer than it.  With
    `refine` that run is checked the same way, against a run at twice its
    step count, and returned unchanged.

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

    kappa = compute_kappa(cfg, w0, solve_workload_star(cfg))
    kappas = np.array([kappa])

    def run(steps):
        res = _integrate_batch(cfg, q0[None, :], horizon, steps, kappas, store_states=True)
        if res.failed[0]:
            raise _failure(res, 0)
        return res

    pilot_steps, gap = 0, 0.0
    if n_steps is None:
        res, pilot_steps, gap = _select_grid(cfg, q0, horizon, kappas)
    else:
        res = run(n_steps)
        if refine:
            gap, _, unstable_at = _doubling_gap(res, run(2 * n_steps))
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
