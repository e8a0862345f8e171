"""Checks of the standing assumptions, stationary equilibrium, Jacobian
spectrum, and trajectory-based stability experiments.

The equilibrium reduces to a scalar equation in the workload W: total
limit-order inflow matches total service exactly when
sum_i b_d_i lam_i + b_o Lambda sum_i chi_i(W) = v mu, and since
sum_i chi_i(W) = 1 - F(W a_min) its root is the closed form of
`routing.solve_workload_star`.  The venue composition then follows from the
per-venue balance.  Local stability is certified by the
eigenvalues of the drift Jacobian, cross-checked against a closed-form
determinant built from its rank-1-plus-diagonal structure.  The trajectory
experiments integrate all their trials as one batch on a uniform grid, `dt`
or 1e-2/mu, and report each failed trial with its reason.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AssumptionError, ParameterError
from .fluid import _initial_state, _integrate_batch, _step_count, fluid_rhs
from .model import ModelConfig, _positive_int, compute_kappa
from .routing import QueueState, _throughput_sides, chi, chi_derivative, solve_workload_star

__all__ = [
    "AssumptionReport",
    "Equilibrium",
    "SpectrumReport",
    "LocalTrial",
    "LocalStabilityReport",
    "GlobalTrial",
    "GlobalStabilityReport",
    "check_assumptions",
    "solve_equilibrium",
    "jacobian",
    "det_shifted",
    "spectrum",
    "local_stability_experiment",
    "global_stability_experiment",
]

# Verdict thresholds on the largest eigenvalue real part.
STABILITY_TOL = 1e-10
# Pass thresholds on the terminal distance to the stationary point, and the
# roundoff allowed in the monotone workload gap.
_LOCAL_THRESHOLD = 1e-6
_GLOBAL_THRESHOLD = 1e-4
_MONOTONE_TOL = 1e-9


# ---------------------------------------------------------------------------
# Assumption checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AssumptionReport:
    """Outcome of the standing-assumption checks for one configuration.

    `cond_i_holds` reports whether gamma * f(gamma) is nonincreasing on
    [a_min kappa, inf), that is whether a_min kappa is at or past
    `gamma_f_mode`, the point from which gamma * f(gamma) falls; it is None
    when the equilibrium workload could not be solved.  `cond_ii_sides` holds
    the three terms of the throughput inequality lhs < v*mu < rhs.  Condition
    (iii) concerns how simulations are initialised and is enforced by
    construction.
    """

    cond_i_holds: bool | None
    gamma_f_mode: float
    cond_ii_holds: bool
    cond_ii_sides: tuple[float, float, float]
    cond_iii_note: str
    cond_iv_holds: bool
    empty_band_exchanges: tuple[int, ...]
    kappa: float | None
    complete: bool


def check_assumptions(cfg: ModelConfig, q0) -> AssumptionReport:
    """Evaluate the standing assumptions for `cfg` started from queue vector `q0`.

    The tail-monotonicity condition (i) and the throughput condition (ii)
    are checked exactly, (i) against the type's `gamma_f_mode`; (iv) via the
    routing bands.  kappa combines the initial workload with the solved
    equilibrium workload; if that solve fails the report is marked
    incomplete.  `q0` is validated as `fluid.integrate` validates it.
    """
    _, w0 = _initial_state(cfg, q0)
    sides = _throughput_sides(cfg)
    empty = tuple(int(i) for i in np.flatnonzero(cfg.bands.empty_band))
    mode = cfg.type_dist.gamma_f_mode
    kappa = cond_i = None
    complete = True
    try:
        w_star = solve_workload_star(cfg)
    except AssumptionError:
        complete = False
    else:
        kappa = compute_kappa(cfg, w0, w_star)
        cond_i = cfg.bands.a_min_global * kappa >= mode

    return AssumptionReport(
        cond_i_holds=cond_i,
        gamma_f_mode=mode,
        cond_ii_holds=sides[0] < sides[1] < sides[2],
        cond_ii_sides=sides,
        cond_iii_note="initial queue lengths are set to round(n * q0_scaled) by the simulator",
        cond_iv_holds=not empty,
        empty_band_exchanges=empty,
        kappa=kappa,
        complete=complete,
    )


# ---------------------------------------------------------------------------
# Equilibrium
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Equilibrium:
    w_star: float
    q_star: np.ndarray
    chi_at_star: np.ndarray      # (N+1,), index 0 first
    residual: float              # max-norm of the drift at q_star


def solve_equilibrium(cfg: ModelConfig) -> Equilibrium:
    """Solve for the stationary point: workload root, then per-venue balance."""
    w_star = solve_workload_star(cfg)
    chi_star = chi(cfg, w_star)
    q_star = (
        w_star
        * (cfg.b_dedicated * cfg.lam + cfg.b_optimized * cfg.big_lambda * chi_star[1:])
        / (cfg.v * cfg.mu * cfg.beta)
    )
    residual = float(np.max(np.abs(fluid_rhs(cfg, QueueState.of(cfg, q_star)))))
    return Equilibrium(
        w_star=float(w_star),
        q_star=q_star,
        chi_at_star=chi_star,
        residual=residual,
    )


# ---------------------------------------------------------------------------
# Jacobian and closed-form determinant
# ---------------------------------------------------------------------------

def _rank1_parts(cfg: ModelConfig, q, what: str):
    """Workload W, the Jacobian J = y beta^T - diag(d) and the rank-1 parts d, c
    of `det_shifted` at q, all from one chi'(W)."""
    q = np.asarray(q, dtype=float)
    w = float(cfg.beta @ q)
    if not w > 0:
        raise ValueError(f"{what} is undefined at zero workload")
    lam_o = cfg.b_optimized * cfg.big_lambda
    mu_eff = cfg.v * cfg.mu
    dchi = chi_derivative(cfg, w)
    d = cfg.beta * mu_eff / w
    c = cfg.beta**2 * q * mu_eff / w**2 + lam_o * cfg.beta * dchi
    jac = np.outer(lam_o * dchi + (mu_eff / w**2) * (cfg.beta * q), cfg.beta)
    jac[np.diag_indices_from(jac)] -= d
    return w, jac, d, c


def jacobian(cfg: ModelConfig, q) -> np.ndarray:
    """Jacobian of the fluid drift at q.

    Rank-1-plus-diagonal structure: J = y beta^T - (v mu / W) diag(beta) with
    y = b_o Lambda chi'(W) + (v mu / W^2) u and u_i = beta_i q_i.  Matches
    centered finite differences of the drift.
    """
    return _rank1_parts(cfg, q, "Jacobian")[1]


def _det_from_parts(d: np.ndarray, c: np.ndarray, nu: float) -> float:
    dn = d + nu
    sign = -1.0 if len(d) % 2 == 0 else 1.0
    return float(np.prod(dn) * (np.sum(c / dn) - 1.0) * sign)


def det_shifted(cfg: ModelConfig, q, nu: float) -> float:
    """Closed-form det(J - nu I) from the rank-1 structure.

    Equals prod_i(beta_i mu_eff/W + nu) * (sum_i c_i/(beta_i mu_eff/W + nu) - 1)
    * (-1)^(N-1) with c_i = beta_i^2 q_i mu_eff / W^2 + Lambda_eff beta_i chi_i'(W);
    valid for nu >= 0 where the shifted diagonal is invertible.
    """
    _, _, d, c = _rank1_parts(cfg, q, "determinant")
    if not 0 <= nu < math.inf:
        raise ValueError("nu must be nonnegative and finite")
    return _det_from_parts(d, c, nu)


@dataclass(frozen=True)
class SpectrumReport:
    """Spectrum of the drift Jacobian plus the determinant cross-checks.

    `eigenvalues` is complex even when all are real; `marginal_tolerance` is
    the fixed bound on |max_real_part| within which the verdict is "marginal".
    """

    jacobian: np.ndarray
    eigenvalues: np.ndarray
    max_real_part: float
    det_identity_max_rel_err: float
    verdict: str                      # "stable" | "unstable" | "marginal"
    has_complex_pair: bool
    secular_checked: bool
    secular_real_roots: int | None
    real_eigs_off_pole: int | None
    secular_max_residual: float | None
    marginal_tolerance: float = field(default=STABILITY_TOL, init=False)


def _secular(d: np.ndarray, c: np.ndarray, nus: np.ndarray) -> np.ndarray:
    """Secular function sum_i c_i / (d_i + nu) - 1 at each nu of a 1-d array."""
    return (c / (d + nus[:, None])).sum(axis=1) - 1.0


def spectrum(cfg: ModelConfig, q) -> SpectrumReport:
    """Dense eigenvalue computation with determinant and secular cross-checks.

    The eigensolver is authoritative for the verdict; the closed-form
    determinant is compared against direct determinants on a nu grid, and for
    configurations with distinct diagonal entries the real eigenvalues away
    from the diagonal poles are counted against the real roots of the secular
    function.
    """
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
        closed = _det_from_parts(d, c, float(nu))
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
        sec_res = float(np.abs(_secular(d, c, np.array(off_pole))).max()) if off_pole else 0.0
        # Count real secular roots by sign changes between consecutive poles
        # (plus the two outer intervals, bounded by the Gershgorin radius).
        radius = float(np.max(np.sum(np.abs(jac), axis=1))) + 1.0
        edges = np.concatenate(([-radius], np.sort(poles), [radius]))
        count = 0
        for a, b in zip(edges[:-1], edges[1:]):
            pad = 1e-6 * max(1.0, b - a)
            xs = np.linspace(a + pad, b - pad, 200)
            vals = _secular(d, c, xs)
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


# ---------------------------------------------------------------------------
# Trajectory experiments
# ---------------------------------------------------------------------------

def _experiment_steps(cfg: ModelConfig, horizon: float, dt: float | None) -> int:
    """Validate the horizon and return the experiment's step count.

    Without `dt` the step is 1e-2/mu: RK4 there keeps the global error
    orders of magnitude below the experiment thresholds while fitting the
    experiment runtime budgets.
    """
    if not 0 < horizon < math.inf:
        raise ParameterError("horizon: must be positive and finite")
    return _step_count(horizon, 1e-2 / cfg.mu if dt is None else dt)


def _experiment_rng(seed: int) -> np.random.Generator:
    if not _positive_int(seed, low=0):
        raise ParameterError("seed: must be a nonnegative integer")
    return np.random.default_rng(int(seed))


def _run_batch(cfg: ModelConfig, eq: Equilibrium, q0s: np.ndarray, horizon: float, n_steps: int):
    """Integrate one trial per row of `q0s`, recording per-trial failures.

    Returns the batch result, the kappas and the terminal max-norm distances
    to the stationary point.
    """
    kappas = np.array([compute_kappa(cfg, w0, eq.w_star) for w0 in q0s @ cfg.beta])
    res = _integrate_batch(cfg, q0s, horizon, n_steps, kappas)
    return res, kappas, np.max(np.abs(res.terminal - eq.q_star), axis=1)


@dataclass(frozen=True)
class LocalTrial:
    delta: float
    direction: int
    terminal_distance: float
    min_workload: float
    kappa: float
    ok: bool
    error: str | None = None


@dataclass(frozen=True)
class LocalStabilityReport:
    passed: bool
    threshold: float
    horizon: float
    seed: int
    trials: tuple[LocalTrial, ...]


def local_stability_experiment(
    cfg: ModelConfig,
    eq: Equilibrium,
    deltas,
    horizon: float,
    directions: int,
    *,
    seed: int = 0,
    dt: float | None = None,
) -> LocalStabilityReport:
    """Perturb the equilibrium by each delta along random unit directions and
    integrate; the experiment passes when every trajectory returns to within
    1e-6 of the stationary point by the horizon.

    Per-trial failures (nonpositive perturbed state, integration abort) are
    itemized in the report, not raised.
    """
    deltas = [float(d) for d in deltas]
    if not all(0 <= d < math.inf for d in deltas):
        raise ParameterError("deltas: must be nonnegative and finite")
    if not _positive_int(directions):
        raise ParameterError("directions: must be a positive integer")
    directions = int(directions)
    n_steps = _experiment_steps(cfg, horizon, dt)
    gen = _experiment_rng(seed)
    dirs = gen.normal(size=(directions, cfg.n_exchanges))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)

    starts = []
    labels = []
    skipped = []
    for d in deltas:
        for j in range(directions):
            q0 = eq.q_star + d * dirs[j]
            if np.any(q0 <= 0):
                skipped.append(
                    LocalTrial(d, j, math.inf, math.nan, math.nan, False, "nonpositive start")
                )
                continue
            starts.append(q0)
            labels.append((d, j))

    trials = list(skipped)
    if starts:
        res, kappas, dist = _run_batch(cfg, eq, np.asarray(starts), horizon, n_steps)
        for k, (d, j) in enumerate(labels):
            err = res.fail_reason[k]
            ok = err is None and dist[k] < _LOCAL_THRESHOLD
            trials.append(
                LocalTrial(
                    delta=d,
                    direction=j,
                    terminal_distance=float(dist[k]),
                    min_workload=float(res.min_workload[k]),
                    kappa=float(kappas[k]),
                    ok=bool(ok),
                    error=err,
                )
            )
    passed = bool(trials) and all(t.ok for t in trials)
    return LocalStabilityReport(
        trials=tuple(trials),
        passed=passed,
        threshold=_LOCAL_THRESHOLD,
        horizon=horizon,
        seed=int(seed),
    )


@dataclass(frozen=True)
class GlobalTrial:
    init: tuple[float, ...]
    terminal_distance: float
    workload_monotone: bool
    tube_entry_time: float | None
    min_workload: float
    kappa: float
    ok: bool
    error: str | None = None


@dataclass(frozen=True)
class GlobalStabilityReport:
    passed: bool
    threshold: float
    tube_radius: float
    horizon: float
    seed: int
    trials: tuple[GlobalTrial, ...]


def global_stability_experiment(
    cfg: ModelConfig,
    n_inits: int,
    box: float,
    horizon: float,
    seed: int,
    *,
    dt: float | None = None,
) -> GlobalStabilityReport:
    """Integrate from random initial states in (0, box]^N (equal beta only).

    Records per trajectory the terminal distance to the stationary point,
    whether |W_t - W*| is nonincreasing along the grid, and the first grid
    time inside the tube |W - W*| <= 0.01 W*.  Passes when every trajectory
    converges below 1e-4 with a monotone workload gap.
    """
    if np.any(cfg.beta != cfg.beta[0]):
        raise ParameterError("beta: the global stability experiment requires equal beta weights")
    if not _positive_int(n_inits):
        raise ParameterError("n_inits: must be a positive integer")
    n_inits = int(n_inits)
    if not 0 < box < math.inf:
        raise ParameterError("box: must be positive and finite")
    n_steps = _experiment_steps(cfg, horizon, dt)
    gen = _experiment_rng(seed)
    eq = solve_equilibrium(cfg)
    w_star = eq.w_star
    tube = 0.01 * w_star

    q0s = gen.uniform(0.0, box, size=(n_inits, cfg.n_exchanges))
    for k in range(n_inits):
        while not float(cfg.beta @ q0s[k]) > 0:
            q0s[k] = gen.uniform(0.0, box, size=cfg.n_exchanges)

    res, kappas, dist = _run_batch(cfg, eq, q0s, horizon, n_steps)
    gap = np.abs(res.workload - w_star)          # (K+1, B)
    monotone = np.all(np.diff(gap, axis=0) <= _MONOTONE_TOL, axis=0)
    inside = gap <= tube
    trials = []
    for k in range(n_inits):
        entry = None
        hit = np.flatnonzero(inside[:, k])
        if hit.size:
            entry = float(res.times[hit[0]])
        err = res.fail_reason[k]
        ok = err is None and dist[k] < _GLOBAL_THRESHOLD and bool(monotone[k])
        trials.append(
            GlobalTrial(
                init=tuple(float(x) for x in q0s[k]),
                terminal_distance=float(dist[k]),
                workload_monotone=bool(monotone[k]),
                tube_entry_time=entry,
                min_workload=float(res.min_workload[k]),
                kappa=float(kappas[k]),
                ok=bool(ok),
                error=err,
            )
        )
    passed = all(t.ok for t in trials)
    return GlobalStabilityReport(
        trials=tuple(trials),
        passed=passed,
        threshold=_GLOBAL_THRESHOLD,
        tube_radius=tube,
        horizon=horizon,
        seed=int(seed),
    )
