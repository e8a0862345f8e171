"""Exact event-driven simulation of the n-th rescaled queueing system.

Event scheme
------------
Dedicated and optimized arrivals are Poisson streams with constant rates
n*lam_i and n*Lambda, so their event times come straight from exponential
inter-arrival draws.  The state-dependent market-order stream is realized by
thinning a candidate stream at the envelope rate n*mu: each candidate is
accepted with probability (current total market rate) / (n*mu) and, when
accepted, assigned to venue i with probability beta_i Q_i / (beta . Q).  A
market order of size V against queue Q_i serves min(V, Q_i); the residue is
discarded, and the served counter records delivered volume so the bookkeeping
identity Q = Q_0 + A_d + A_o - D holds exactly.

The acceptance uniform is consumed at every candidate regardless of state.
Two runs sharing a seed therefore consume identical randomness for as long as
their states agree, which makes the epsilon-truncation coupling exact: if the
untruncated workload never falls below epsilon, the truncated twin accepts the
same candidates and the paths are bit-identical.

RNG streams
-----------
One master seed; every named substream (ded-times-i, ded-sizes-i, opt-times,
opt-types, opt-sizes, mkt-times, mkt-accept, mkt-venue, mkt-sizes-i) owns an
independent PCG64 generator seeded by SeedSequence((seed, sha256(name))).
Adding venues or changing the draw order inside one stream never perturbs
another.  Queue lengths and counters are integers internally, so counters
cannot overflow and the bookkeeping identity is exact.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ParameterError
from .fluid import _MAX_GRID, FluidTrajectory, integrate
from .model import ModelConfig
from .routing import _router

__all__ = [
    "SimConfig",
    "SimPath",
    "ConvergenceTable",
    "simulate",
    "sup_distance",
    "replicate",
]

_BLOCK = 4096


def _stream_generator(seed: int, name: str) -> np.random.Generator:
    key = int.from_bytes(hashlib.sha256(name.encode("ascii")).digest()[:8], "little")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed & (2**64 - 1), key))))


class _Stream:
    """Block-buffered draws from one named substream; counts logical draws.

    A stream of event times at rate 0 is absent: its `draw` is None and it
    never draws.
    """

    __slots__ = ("name", "_gen", "_draw", "_buf", "_pos", "count")

    def __init__(self, seed: int, name: str, draw):
        self.name = name
        self._gen = _stream_generator(seed, name)
        self._draw = draw
        self._buf = []
        self._pos = 0
        self.count = 0

    def take(self):
        if self._pos >= len(self._buf):
            # tolist() is exact for float64 and int64 draws and makes the
            # per-draw reads plain Python numbers.
            self._buf = self._draw(self._gen, _BLOCK).tolist()
            self._pos = 0
        value = self._buf[self._pos]
        self._pos += 1
        self.count += 1
        return value

    def first(self) -> float:
        """The first event time; inf for an absent stream."""
        return self.take() if self._draw is not None else math.inf


def _exp_draw(rate: float):
    """Exponential inter-arrival draws at `rate`; None (absent) at rate 0."""
    if rate == 0:
        return None
    scale = 1.0 / rate
    return lambda gen, size: gen.exponential(scale, size)


def _unif_draw(gen, size):
    return gen.random(size)


@dataclass(frozen=True)
class SimConfig:
    """Run parameters for one simulation of the n-th rescaled system."""

    n: int
    horizon: float
    sample_dt: float
    seed: int
    q0_scaled: np.ndarray
    epsilon: float = 0.0

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 1:
            raise ParameterError("n: must be a positive integer")
        object.__setattr__(self, "n", int(self.n))
        if not 0 <= self.horizon < math.inf:
            raise ParameterError("horizon: must be nonnegative and finite")
        if not self.sample_dt > 0:
            raise ParameterError("sample_dt: must be positive")
        if self.horizon > 0 and self.sample_dt > self.horizon + 1e-12:
            raise ParameterError("sample_dt: must not exceed the horizon")
        if not self.horizon / self.sample_dt < _MAX_GRID:
            raise ParameterError(f"sample_dt: the sample grid would exceed {_MAX_GRID} points")
        if not 0 <= self.epsilon < math.inf:
            raise ParameterError("epsilon: must be nonnegative and finite")
        q0 = np.array(self.q0_scaled, dtype=float)
        if np.any(q0 < 0):
            raise ParameterError("q0_scaled: entries must be nonnegative")
        if not np.any(q0 > 0):
            raise ParameterError("q0_scaled: needs a positive entry (positive initial workload)")
        q0.setflags(write=False)
        object.__setattr__(self, "q0_scaled", q0)


@dataclass(frozen=True)
class SimPath:
    """A sampled trajectory of the rescaled system with event accounting.

    All series are scaled by 1/n and sampled right-continuously on the grid;
    `q_scaled = q0 + arrivals_dedicated + arrivals_optimized - served` holds
    exactly after multiplying back by n (all underlying quantities are
    integers).  `routed_zero` counts optimized orders sent to the immediate
    execution option, scaled by 1/n like the other counters.
    """

    times: np.ndarray                 # (G,)
    q_scaled: np.ndarray              # (G, N)
    arrivals_dedicated: np.ndarray    # (G, N) cumulative
    arrivals_optimized: np.ndarray    # (G, N) cumulative
    served: np.ndarray                # (G, N) cumulative delivered volume
    routed_zero: np.ndarray           # (G,)  cumulative
    min_workload: float               # min of beta . Qbar over the event path
    rng_fingerprint: str
    n: int
    seed: int


def _sample_grid(horizon: float, dt: float) -> np.ndarray:
    if horizon == 0:
        return np.array([0.0])
    k = int(math.floor(horizon / dt + 1e-9))
    grid = np.arange(k + 1) * dt
    if grid[-1] < horizon - 1e-9 * max(1.0, horizon):
        grid = np.append(grid, horizon)
    else:
        grid[-1] = min(grid[-1], horizon)
    return grid


def simulate(cfg: ModelConfig, sim: SimConfig) -> SimPath:
    """Run the continuous-time Markov chain and sample it on the grid.

    Deterministic given (cfg, sim) including the seed.  An optimized arrival
    routed to the immediate-execution option changes no queue but increments
    the routed-to-zero counter; with all queues empty the market clock is
    effectively suspended (every candidate is rejected) and optimized orders
    fall to the venue with the top rebate, whose delay penalty is zero.
    """
    n = sim.n
    n_venues = cfg.n_exchanges
    if sim.q0_scaled.shape != (n_venues,):
        raise ParameterError(f"q0_scaled: expected {n_venues} entries, got {sim.q0_scaled.size}")
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

    ded_times = [_Stream(seed, f"ded-times-{i}", _exp_draw(n * cfg.lam[i])) for i in range(n_venues)]
    ded_sizes = [
        _Stream(seed, f"ded-sizes-{i}", cfg.dedicated_sizes[i].sample) for i in range(n_venues)
    ]
    opt_times = _Stream(seed, "opt-times", _exp_draw(n * cfg.big_lambda))
    opt_types = _Stream(seed, "opt-types", cfg.type_dist.sample)
    opt_sizes = _Stream(seed, "opt-sizes", cfg.optimized_size.sample)
    mkt_times = _Stream(seed, "mkt-times", _exp_draw(n * cfg.mu))
    mkt_accept = _Stream(seed, "mkt-accept", _unif_draw)
    mkt_venue = _Stream(seed, "mkt-venue", _unif_draw)
    mkt_sizes = [_Stream(seed, f"mkt-sizes-{i}", cfg.market_sizes[i].sample) for i in range(n_venues)]

    next_ded = [s.first() for s in ded_times]
    next_opt = opt_times.first()
    next_mkt = mkt_times.take()
    pick_venue = _router(cfg)

    def workload_int() -> float:
        total = 0.0
        for i in range(n_venues):
            total += beta[i] * queues[i]
        return total

    # Workload beta . Q of the current state, recomputed at the end of every event.
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
                gamma = 5e-324  # types are positive; a drawn 0.0 is a float artifact
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

    emit_until(horizon + 1.0)  # flush the remaining grid points with the final state

    streams = [*ded_times, *ded_sizes, opt_times, opt_types, opt_sizes, mkt_times, mkt_accept,
               mkt_venue, *mkt_sizes]
    counts = {s.name: s.count for s in streams}
    blob = f"seed={seed}|" + "|".join(f"{k}:{counts[k]}" for k in sorted(counts))
    fingerprint = hashlib.sha256(blob.encode()).hexdigest()

    return SimPath(
        times=grid,
        q_scaled=out_q,
        arrivals_dedicated=out_ad,
        arrivals_optimized=out_ao,
        served=out_d,
        routed_zero=out_r0,
        min_workload=min_w,
        rng_fingerprint=fingerprint,
        n=n,
        seed=seed,
    )


def sup_distance(path: SimPath, traj: FluidTrajectory) -> float:
    """Max over sample times of the max-norm gap between the sampled discrete
    path and the fluid trajectory (interpolated linearly at the sample times)."""
    if abs(path.times[-1] - traj.times[-1]) > 1e-9 * max(1.0, path.times[-1]):
        raise ValueError("path and trajectory horizons differ")
    fluid_at = np.column_stack(
        [np.interp(path.times, traj.times, traj.states[:, j]) for j in range(traj.states.shape[1])]
    )
    return float(np.max(np.abs(path.q_scaled - fluid_at)))


@dataclass(frozen=True)
class ConvergenceTable:
    """Per-replication distances plus per-n medians and 90th percentiles."""

    rows: tuple[tuple[int, int, float], ...]   # (n, replicate, sup_distance)
    summary: tuple[tuple[int, float, float], ...]  # (n, median, p90)
    seed_base: int

    def median(self, n: int) -> float:
        for m, med, _ in self.summary:
            if m == n:
                return med
        raise KeyError(n)


def replicate(cfg: ModelConfig, sim_template: SimConfig, n_values, reps: int) -> ConvergenceTable:
    """Run `reps` seeded replications per scaling level and compare each to the
    fluid limit.

    The fluid limit is integrated once, at the step `integrate` picks, on a
    grid never coarser than the sample grid: its step count is the sample
    interval count times a power of two.  When the sample step divides the
    horizon, as the CLI's default horizon/200 does, every sample time is a
    node of the fluid grid and `sup_distance` interpolates nothing.

    Replicate r uses seed `sim_template.seed + r`; the same seed set is reused
    across scaling levels, which keeps rows comparable and regenerable.
    """
    if reps < 1:
        raise ParameterError("reps: must be at least 1")
    n_values = [int(n) for n in n_values]
    if not n_values or min(n_values) < 1:
        raise ParameterError("n: scaling levels must be positive integers")
    intervals = len(_sample_grid(sim_template.horizon, sim_template.sample_dt)) - 1
    traj = integrate(cfg, sim_template.q0_scaled, sim_template.horizon, grain=intervals)

    rows = []
    for n in n_values:
        for rep in range(reps):
            run = replace(sim_template, n=n, seed=sim_template.seed + rep)
            rows.append((n, rep, sup_distance(simulate(cfg, run), traj)))

    summary = []
    for n in n_values:
        vals = np.array([d for (m, _, d) in rows if m == n])
        summary.append((n, float(np.median(vals)), float(np.percentile(vals, 90))))
    return ConvergenceTable(rows=tuple(rows), summary=tuple(summary), seed_base=sim_template.seed)
