"""Fluid vector field and uniform-step RK4 integration of the coupled ODE system.

The field is singular where the workload vanishes; integration therefore runs
with a safety floor at a fraction of the proven workload lower bound kappa and
aborts if the floor is ever breached (which signals a bug or a violated
assumption, not physics).  A failed trajectory is recorded with its reason
and time, and only `integrate` turns it into an exception.  Without an
explicit step, `integrate` picks its uniform step by step doubling with
Richardson error estimation (Hairer, Norsett & Wanner, *Solving ODEs I*,
section II.4).  Routing fractions use the workload-only band form
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

# Accepted full steps may differ from two verification half-steps by at most
# this factor times the state scale.
_REFINE_TOL = 1e-6
# Negative components beyond this are an integration error, not roundoff.
_CLIP_TOL = 1e-12
# The abort floor as a fraction of kappa.  kappa is a strict lower bound for
# the exact flow, so a workload below half of it signals malfunction.
_FLOOR_FACTOR = 0.5
# Most points of a time grid, checked before it is allocated: the RK4 grid
# here and the simulator's sample grid.
_MAX_GRID = 10**7
# The step selector returns a grid once it agrees with a pilot at half its
# step count within this factor times max(1, max|q|) at every common node.
_SELECT_TOL = 1e-10
# The fewest steps of a selected grid; its first pilot has half as many.
_MIN_SELECTED = 200
# Most pilot pairs the selector runs before it gives up.
_MAX_PASSES = 10
# The exception `integrate` raises for each recorded failure reason.
_FAILURES = {
    "floor": SingularityError,
    "negative": IntegrationError,
    "unstable": StepInstabilityError,
}


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
    """

    times: np.ndarray      # (K+1,)
    states: np.ndarray     # (K+1, N)
    workload: np.ndarray   # (K+1,)
    min_workload: float
    kappa: float
    steps: int
    dt: float
    pilot_steps: int
    max_refine_error: float


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
    fail_reason: list             # "floor", "negative", "unstable" or None
    fail_time: np.ndarray         # (B,) grid time of the failed step; NaN if none
    steps: int
    max_refine_error: float


def _integrate_batch(
    cfg: ModelConfig,
    q0s: np.ndarray,
    horizon: float,
    n_steps: int,
    kappas: np.ndarray,
    *,
    refine: bool = False,
    store_states: bool = False,
) -> _BatchResult:
    """Classical RK4 over a batch of trajectories sharing one grid of
    `n_steps` uniform steps; with `refine` each step is also checked against
    two half-steps.

    A trajectory that fails (floor breach, negative undershoot, unstable
    step) is frozen at its last good state, and the result records the
    reason and the time; once every trajectory has failed, the frozen states
    fill the rest of the history.
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
    max_refine = 0.0

    def rk4_of(h):
        # One step qc + (h/6) (k1 + 2 k2 + 2 k3 + k4), every stage and the sum
        # formed in place, in the operation order of that expression.
        half, full, sixth, two = np.array(0.5 * h), np.array(h), np.array(h / 6.0), np.array(2.0)

        def rk4(qc, wc=None):
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

        return rk4

    rk4, rk4_half = rk4_of(dt), rk4_of(0.5 * dt)

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
            if refine:
                q_half = rk4_half(rk4_half(q, w))
                disc = np.max(np.abs(q_new - q_half), axis=1)
                scale = np.maximum(1.0, np.max(np.abs(q_new), axis=1))
                bad = alive & ~np.isnan(disc) & (disc > _REFINE_TOL * scale)
                bad |= alive & np.isnan(disc)
                if bad.any():
                    fail(bad, "unstable")
                live_disc = disc[alive]
                if live_disc.size:
                    max_refine = max(max_refine, float(np.nanmax(live_disc)))

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
        max_refine_error=max_refine,
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
    if np.any(q0 < 0):
        raise ParameterError("q0: initial queue lengths must be nonnegative")
    w0 = float(cfg.beta @ q0)
    if not w0 > 0:
        raise ParameterError("q0: initial workload must be positive")
    return q0, w0


def _select_grid(
    cfg: ModelConfig, q0: np.ndarray, horizon: float, kappas: np.ndarray, grain: int
) -> tuple[_BatchResult, int]:
    """Pick a uniform RK4 grid by step doubling; return its run and the steps
    of the pilot grids.

    Each pass runs pilots at K and 2K steps and returns the 2K run once the
    two agree within `_SELECT_TOL` times max(1, max|q|) at every node of the
    K run.  Otherwise the fourth-order error rule, gap(K) ~ K^-4, predicts
    the K that meets the tolerance, rounded up to K times a power of two; a
    pilot that breaches the floor or goes negative doubles K.  The returned
    step count is `grain` times a power of two, so the nodes of `grain`
    uniform intervals over the horizon are among its nodes.
    """
    k = grain
    while k < _MIN_SELECTED or k % 2:
        k *= 2
    k //= 2
    runs: dict[int, _BatchResult | None] = {}  # pilots by step count; None if one failed
    ran = 0

    def pilot(steps):
        nonlocal ran
        if steps not in runs:
            ran += steps
            res = _integrate_batch(cfg, q0[None, :], horizon, steps, kappas, store_states=True)
            runs[steps] = None if res.failed[0] else res  # a floor breach or a negative undershoot
        return runs[steps]

    for _ in range(_MAX_PASSES):
        if not 2 * k < _MAX_GRID:
            raise IntegrationError(
                f"no uniform step meets the tolerance {_SELECT_TOL:g} "
                f"in fewer than {_MAX_GRID} steps"
            )
        coarse, fine = pilot(k), pilot(2 * k)
        grow = 2
        if coarse is not None and fine is not None:
            states = fine.states[:, 0]
            gap = float(np.max(np.abs(coarse.states[:, 0] - states[::2])))
            tol = _SELECT_TOL * max(1.0, float(np.max(np.abs(states))))
            if gap <= tol:
                return fine, ran - 2 * k
            if gap / tol < math.inf:  # a non-finite gap doubles K like a failed pilot
                grow = 2 ** max(1, math.ceil(math.log2(gap / tol) / 4))
        k *= grow
        for stale in [steps for steps in runs if steps < k]:
            del runs[stale]
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
    grain: int = _MIN_SELECTED,
) -> FluidTrajectory:
    """Integrate the fluid system from q0 over [0, horizon].

    `dt` fixes the uniform step: the horizon is divided into the fewest
    steps no longer than it.  Without it the step is picked by step doubling
    (`_select_grid`) on a grid of `grain` times a power of two steps, at
    least 200.  With `refine` the step that runs is checked against two
    half-steps.

    Raises SingularityError if the workload drops below half of kappa,
    StepInstabilityError if the optional half-step verification disagrees
    with an accepted step, and IntegrationError on negative component
    undershoot beyond roundoff or when no step meets the tolerance.
    """
    q0, w0 = _initial_state(cfg, q0)
    if not 0 < horizon < math.inf:
        raise ParameterError("horizon: must be positive and finite")
    if not (int(grain) == grain and grain >= 1):
        raise ParameterError("grain: must be a positive integer")
    n_steps = None if dt is None else _step_count(horizon, dt)

    kappa = compute_kappa(cfg, w0, solve_workload_star(cfg))
    kappas = np.array([kappa])
    pilot_steps = 0
    if n_steps is None:
        res, pilot_steps = _select_grid(cfg, q0, horizon, kappas, int(grain))
        n_steps = res.steps
    # The half-step check leaves the accepted steps as they are, so a
    # selected grid runs again with it and gives the same states.
    if dt is not None or refine:
        res = _integrate_batch(
            cfg, q0[None, :], horizon, n_steps, kappas, refine=refine, store_states=True
        )
    if res.failed[0]:
        raise _failure(res, 0)
    return FluidTrajectory(
        times=res.times,
        states=res.states[:, 0, :],
        workload=res.workload[:, 0],
        min_workload=float(res.min_workload[0]),
        kappa=kappa,
        steps=res.steps,
        dt=horizon / res.steps,
        pilot_steps=pilot_steps,
        max_refine_error=res.max_refine_error,
    )

