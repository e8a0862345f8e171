"""Exact event-driven simulation of the n-th rescaled queueing system.

Event scheme
------------
Dedicated and optimized arrivals are Poisson streams with constant rates
n*lam_i and n*Lambda.  The state-dependent market-order stream is realized by
thinning a candidate stream at the envelope rate n*mu: each candidate is
accepted with probability (current total market rate) / (n*mu) and, when
accepted, assigned to venue i with probability beta_i Q_i / (beta . Q).  A
market order of size V against queue Q_i serves min(V, Q_i); the residue is
discarded, and the served counter records delivered volume so the bookkeeping
identity Q = Q_0 + A_d + A_o - D holds exactly.

None of the event times depends on the state, so the schedule is built ahead
of it.  Each time stream's event times are the running sums (`np.cumsum`,
which adds in sequence) of its exponential draws, a block of draws at a time.
The streams are merged one window at a time.  A window ends at the earliest
last drawn time L among the streams that have not yet passed the horizon: it
holds every drawn event before L, and the events at exactly L of the stream
that set L and of the streams before it in the tie order.  Every event left
for later windows sorts after every event taken, so memory stays at a block
per stream whatever the horizon.  Inside a window one stable `np.lexsort`
orders the events by time and, at equal times, puts the market candidate
first, then dedicated arrivals by venue index, then optimized arrivals.

Marks that belong to an event's index are drawn with the window: dedicated
sizes, optimized types and sizes, and the acceptance uniform of every market
candidate.  Only state-dependent work runs event by event: routing, the
acceptance test, the venue pick and service.  The venue uniform and the
market size are drawn by accepted candidates only, so they are consumed by
counters.  Each sample time takes the state after the events at or before
it.

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
from itertools import islice

import numpy as np

from .errors import ParameterError
from .fluid import _MAX_GRID, FluidTrajectory, integrate
from .model import ModelConfig, _positive_int
from .routing import _router

__all__ = [
    "SimConfig",
    "SimCounters",
    "SimPath",
    "ConvergenceTable",
    "simulate",
    "sup_distance",
    "replicate",
]

_BLOCK = 4096


def _first_block(mean: float) -> int:
    """Draws in a stream's first block when it expects `mean` draws over the
    run: the mean plus six Poisson standard deviations and 16, at most
    `_BLOCK`.  Later blocks hold `_BLOCK`.  Samplers give the same values
    whatever the block split, so the size changes only the cost."""
    return int(min(_BLOCK, mean + 6.0 * math.sqrt(mean) + 16.0))


def _stream_generator(seed: int, name: str) -> np.random.Generator:
    key = int.from_bytes(hashlib.sha256(name.encode("ascii")).digest()[:8], "little")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed & (2**64 - 1), key))))


class _Draws:
    """Draws from one named substream, fetched a block at a time, `first`
    values first and `_BLOCK` after; `count` is the number consumed."""

    __slots__ = ("name", "_gen", "_draw", "_buf", "_block", "count")

    def __init__(self, seed: int, name: str, draw, first: int):
        self.name = name
        self._gen = _stream_generator(seed, name)
        self._draw = draw
        self._buf = np.empty(0)
        self._block = first
        self.count = 0

    def peek(self, m: int) -> np.ndarray:
        """The next `m` draws, not consumed."""
        buf = self._buf
        while len(buf) < m:
            block = self._draw(self._gen, self._block)
            self._block = _BLOCK
            buf = np.concatenate((buf, block)) if len(buf) else block
        self._buf = buf
        return buf[:m]

    def skip(self, m: int) -> None:
        self._buf = self._buf[m:]
        self.count += m

    def take(self, m: int) -> np.ndarray:
        out = self.peek(m)
        self.skip(m)
        return out


def _uniform(gen, size):
    return gen.random(size)


class _Clock:
    """The event times of one Poisson stream and the marks drawn with them.

    The times are running sums of exponential draws, a block at a time
    (`first` draws first and `_BLOCK` after): `pending` holds the drawn times
    not yet scheduled and `last` the latest drawn.  `code` is the stream's
    place in the tie order and `marks(m)` the float and integer marks of its
    next m events.  A stream at rate 0 is absent: it never draws and `last`
    is inf.
    """

    __slots__ = ("name", "code", "marks", "_gen", "_scale", "_block", "pending", "last", "events")

    def __init__(self, seed: int, name: str, rate: float, code: int, marks, first: int):
        self.name = name
        self.code = code
        self.marks = marks
        self._gen = _stream_generator(seed, name) if rate > 0 else None
        # Python float division: a subnormal rate gives an infinite scale, and
        # so no events, without numpy's overflow warning.
        self._scale = 1.0 / float(rate) if rate > 0 else None
        self._block = first
        self.pending = np.empty(0)
        self.last = 0.0 if rate > 0 else math.inf
        self.events = 0

    @property
    def present(self) -> bool:
        return self._gen is not None

    def refill(self) -> None:
        draws = self._gen.exponential(self._scale, self._block)
        self._block = _BLOCK
        draws[0] += self.last
        self.pending = np.cumsum(draws)
        self.last = float(self.pending[-1])

    def take(self, limit: float, inclusive: bool) -> np.ndarray:
        """Schedule the pending times before `limit`, or at most `limit`."""
        k = int(np.searchsorted(self.pending, limit, side="right" if inclusive else "left"))
        taken, self.pending = self.pending[:k], self.pending[k:]
        self.events += k
        return taken


def _schedule(clocks: list[_Clock], horizon: float):
    """The merged event schedule up to `horizon`, one window at a time.

    `clocks` are given in tie order.  Yields (times, codes, floats, ints,
    limit): a window's event times in order, with the code of each event's
    stream and its marks, and a time that no later event precedes (inf for
    the last window), so the state at a sample time before it is final.
    """
    clocks = [c for c in clocks if c.present]
    while True:
        for c in clocks:
            if not len(c.pending) and c.last <= horizon:
                c.refill()
        running = [c for c in clocks if c.last <= horizon]
        if running:
            head = min(running, key=lambda c: (c.last, c.code))
            limit = head.last
            parts = [c.take(limit, c.code <= head.code) for c in clocks]
        else:
            limit = math.inf
            parts = [c.take(horizon, True) for c in clocks]
        sizes = [len(p) for p in parts]
        marks = [c.marks(m) for c, m in zip(clocks, sizes)]
        times = np.concatenate(parts)
        codes = np.repeat([c.code for c in clocks], sizes)
        order = np.lexsort((codes, times))
        floats = np.concatenate([f for f, _ in marks])[order]
        ints = np.concatenate([i for _, i in marks])[order]
        yield times[order], codes[order], floats, ints, limit
        if not running:
            return


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
        if not _positive_int(self.n):
            raise ParameterError("n: must be a positive integer")
        if not _positive_int(self.seed, low=-math.inf):
            raise ParameterError("seed: must be an integer")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "seed", int(self.seed))
        if not 0 <= self.horizon < math.inf:
            raise ParameterError("horizon: must be nonnegative and finite")
        if not self.sample_dt > 0:
            raise ParameterError("sample_dt: must be positive")
        if self.horizon > 0 and self.sample_dt > self.horizon * (1 + 1e-12):
            raise ParameterError("sample_dt: must not exceed the horizon")
        if not self.horizon / self.sample_dt < _MAX_GRID:
            raise ParameterError(f"sample_dt: the sample grid would exceed {_MAX_GRID} points")
        if not 0 <= self.epsilon < math.inf:
            raise ParameterError("epsilon: must be nonnegative and finite")
        q0 = np.array(self.q0_scaled, dtype=float)
        if not np.all(np.isfinite(q0)):
            raise ParameterError("q0_scaled: entries must be finite")
        if np.any(q0 < 0):
            raise ParameterError("q0_scaled: entries must be nonnegative")
        if not np.any(q0 > 0):
            raise ParameterError("q0_scaled: needs a positive entry (positive initial workload)")
        with np.errstate(over="ignore"):  # an overflow is inf, past the bound
            if np.any(q0 * float(self.n) >= 2.0**53):
                raise ParameterError("q0_scaled: n * q0_scaled must be below 2**53 to count exactly")
        q0.setflags(write=False)
        object.__setattr__(self, "q0_scaled", q0)


@dataclass(frozen=True)
class SimCounters:
    """Event counts of one run up to the horizon, deterministic given the seed.

    `dedicated[i]` counts dedicated arrivals at venue i+1 and `optimized`
    the optimized arrivals.  `candidates` counts market candidates and
    `accepted` those the thinning kept; `truncated` counts the candidates met
    with epsilon > 0 and an acceptance probability below 1.  `routed[i]`
    counts optimized orders sent to venue i+1, `routed_zero` those sent to
    immediate execution.
    """

    dedicated: tuple[int, ...]
    optimized: int
    candidates: int
    accepted: int
    truncated: int
    routed: tuple[int, ...]
    routed_zero: int


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
    counters: SimCounters


def _sample_grid(horizon: float, dt: float) -> np.ndarray:
    if horizon == 0:
        return np.array([0.0])
    k = int(math.floor(horizon / dt + 1e-9))
    grid = np.arange(k + 1) * dt
    if grid[-1] < horizon * (1 - 1e-9):
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
    eps = float(sim.epsilon)
    seed = sim.seed

    # First blocks sized from the events expected by the horizon; every
    # market stream draws at most one value per market candidate.
    mkt_rate, opt_rate = n * cfg.mu, n * cfg.big_lambda
    ded_rates = [n * lam for lam in cfg.lam]
    mkt_first, opt_first = _first_block(mkt_rate * horizon), _first_block(opt_rate * horizon)
    ded_first = [_first_block(rate * horizon) for rate in ded_rates]
    ded_sizes = [
        _Draws(seed, f"ded-sizes-{i}", cfg.dedicated_sizes[i].sample, ded_first[i])
        for i in range(n_venues)
    ]
    opt_types = _Draws(seed, "opt-types", cfg.type_dist.sample, opt_first)
    opt_sizes = _Draws(seed, "opt-sizes", cfg.optimized_size.sample, opt_first)
    mkt_accept = _Draws(seed, "mkt-accept", _uniform, mkt_first)
    mkt_venue = _Draws(seed, "mkt-venue", _uniform, mkt_first)
    mkt_sizes = [
        _Draws(seed, f"mkt-sizes-{i}", cfg.market_sizes[i].sample, mkt_first)
        for i in range(n_venues)
    ]

    def market_marks(m):
        return mkt_accept.take(m), np.zeros(m, dtype=np.int64)

    def dedicated_marks(sizes):
        return lambda m: (np.zeros(m), sizes.take(m))

    def optimized_marks(m):
        gamma = opt_types.take(m)
        # Types are positive; a drawn 0.0 is a float artifact.
        return np.where(gamma <= 0.0, 5e-324, gamma), opt_sizes.take(m)

    # Codes in tie order: market 0, dedicated at venue i+1 is i+1, optimized N+1.
    opt_code = n_venues + 1
    clocks = [
        _Clock(seed, "mkt-times", mkt_rate, 0, market_marks, mkt_first),
        *(
            _Clock(seed, f"ded-times-{i}", rate, i + 1, dedicated_marks(sizes), first)
            for i, (rate, sizes, first) in enumerate(zip(ded_rates, ded_sizes, ded_first))
        ),
        _Clock(seed, "opt-times", opt_rate, opt_code, optimized_marks, opt_first),
    ]
    pick_venue = _router(cfg)

    queues = [int(x) for x in np.rint(np.asarray(sim.q0_scaled) * n)]
    arr_ded = [0] * n_venues
    arr_opt = [0] * n_venues
    served = [0] * n_venues
    routed = [0] * n_venues
    routed_zero = 0
    truncated = 0
    # Integer counts at each sample time: Q, A_d, A_o, D by venue, then routed-to-zero.
    samples = np.empty((len(grid), 4 * n_venues + 1), dtype=np.int64)
    row = 0

    # The workload beta . Q and its scaled value, refreshed whenever a queue
    # changes.  Arrivals cannot lower a float sum of nonnegative terms, so a
    # new minimum can only follow service.
    venue_idx = range(n_venues)
    w_int = 0.0
    for j in venue_idx:
        w_int += beta[j] * queues[j]
    w_scaled = min_w = w_int / n
    truncating = eps > 0

    for times, codes, floats, ints, limit in _schedule(clocks, horizon):
        n_candidates = int(np.count_nonzero(codes == 0))
        venue_u = mkt_venue.peek(n_candidates).tolist()
        market_v = [s.peek(n_candidates).tolist() for s in mkt_sizes]
        used_v = [0] * n_venues
        accepted = 0
        events = zip(codes.tolist(), floats.tolist(), ints.tolist())
        last_row = int(np.searchsorted(grid, limit, side="left"))
        cuts = np.searchsorted(times, grid[row:last_row], side="right").tolist()
        done = 0
        for cut in [*cuts, len(times)]:
            for code, x, size in islice(events, cut - done):
                if code == 0:
                    # Accept with probability min(1, W/epsilon), or 1 when
                    # W > 0 and epsilon = 0; the uniform x lies in [0, 1), so
                    # it decides only when that probability is below 1.
                    if truncating:
                        accept_p = min(1.0, w_scaled / eps)
                        if accept_p < 1.0:
                            truncated += 1
                            if not x < accept_p:
                                continue
                    elif not w_int > 0:
                        continue
                    pick = venue_u[accepted] * w_int
                    accepted += 1
                    acc = 0.0
                    i = n_venues - 1
                    for j in venue_idx:
                        acc += beta[j] * queues[j]
                        if pick < acc:
                            i = j
                            break
                    size = market_v[i][used_v[i]]
                    used_v[i] += 1
                    delivered = size if size <= queues[i] else queues[i]
                    queues[i] -= delivered
                    served[i] += delivered
                elif code == opt_code:
                    target = pick_venue(x, queues, w_scaled)
                    if target == 0:
                        routed_zero += 1
                        continue
                    queues[target - 1] += size
                    arr_opt[target - 1] += size
                    routed[target - 1] += 1
                else:
                    queues[code - 1] += size
                    arr_ded[code - 1] += size
                w_int = 0.0
                for j in venue_idx:
                    w_int += beta[j] * queues[j]
                w_scaled = w_int / n
                if w_scaled < min_w:
                    min_w = w_scaled
            done = cut
            if row < last_row:
                samples[row] = (*queues, *arr_ded, *arr_opt, *served, routed_zero)
                row += 1
        mkt_venue.skip(accepted)
        for s, used in zip(mkt_sizes, used_v):
            s.skip(used)

    # A present time stream drew one time past the horizon.
    counts = {c.name: c.events + 1 if c.present else 0 for c in clocks}
    for d in (*ded_sizes, opt_types, opt_sizes, mkt_accept, mkt_venue, *mkt_sizes):
        counts[d.name] = d.count
    blob = f"seed={seed}|" + "|".join(f"{k}:{counts[k]}" for k in sorted(counts))
    fingerprint = hashlib.sha256(blob.encode()).hexdigest()

    scaled = samples / n
    q_s, ad_s, ao_s, d_s = (
        np.ascontiguousarray(scaled[:, k * n_venues : (k + 1) * n_venues]) for k in range(4)
    )
    return SimPath(
        times=grid,
        q_scaled=q_s,
        arrivals_dedicated=ad_s,
        arrivals_optimized=ao_s,
        served=d_s,
        routed_zero=np.ascontiguousarray(scaled[:, -1]),
        min_workload=min_w,
        rng_fingerprint=fingerprint,
        n=n,
        seed=seed,
        counters=SimCounters(
            dedicated=tuple(c.events for c in clocks[1:-1]),
            optimized=clocks[-1].events,
            candidates=clocks[0].events,
            accepted=mkt_venue.count,
            truncated=truncated,
            routed=tuple(routed),
            routed_zero=routed_zero,
        ),
    )


def sup_distance(path: SimPath, traj: FluidTrajectory) -> float:
    """Max over sample times of the max-norm gap between the sampled discrete
    path and the fluid trajectory, read at the sample times by `traj.at`."""
    if not abs(path.times[-1] - traj.times[-1]) <= 1e-9 * traj.times[-1]:
        raise ValueError("path and trajectory horizons differ")
    return float(np.max(np.abs(path.q_scaled - traj.at(path.times))))


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
    fluid limit, integrated once at the step `integrate` picks.

    Replicate r uses seed `sim_template.seed + r`; the same seed set is reused
    across scaling levels, which keeps rows comparable and regenerable.  The
    levels must increase strictly, so that the medians of the summary fall
    with n when the paths converge.
    """
    if not _positive_int(reps):
        raise ParameterError("reps: must be a positive integer")
    n_values = list(n_values)
    if not n_values or not all(map(_positive_int, n_values)):
        raise ParameterError("n: scaling levels must be positive integers")
    n_values, reps = [int(n) for n in n_values], int(reps)
    if any(a >= b for a, b in zip(n_values, n_values[1:])):
        raise ParameterError("n: scaling levels must increase strictly")
    traj = integrate(cfg, sim_template.q0_scaled, sim_template.horizon)

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
