"""Span tracing from outside the program, and the per-layer metrics it yields.

`install` wraps named functions of the `fluidlob` modules: each module whose
global namespace binds a name to the original function gets the wrapper in
its place, so calls between modules and within one module both pass through
it (module code looks the name up at call time).  `Installation.restore` puts
the originals back, so untraced passes run the unmodified program.

A span is (name, start, end, parent), kept in memory in flat arrays and
written out once when the run ends.  A layer is the module that defines the
function; self time is a span's duration minus the part of it that its child
spans cover.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path

# Functions the traced run wraps, by name.  A name missing from the program
# is reported absent; its metrics read 0.
TARGETS = (
    "load_config",
    "check_assumptions",
    "compute_bands",
    "route",
    "_band_chi",
    "chi",
    "chi_derivative",
    "fluid_rhs",
    "integrate",
    "_integrate_batch",
    "simulate",
    "sup_distance",
    "replicate",
    "workload_roots",
    "solve_workload_star",
    "solve_equilibrium",
    "spectrum",
    "local_stability_experiment",
    "global_stability_experiment",
    "emit_plotdata",
    "_write_json",
)

LAYERS = ("model", "routing", "sim", "fluid", "stability", "cli")


class Tracer:
    """In-memory span recorder for one single-threaded pass."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self._stack: list[int] = []
        self.counters: dict[str, float] = {}
        self.fingerprints: list[str] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, on_result=None):
        """Return `fn` recording one span per call under `name`."""
        nid = self.name_id(name)
        clock = self.clock
        stack = self._stack
        name_ids, starts, ends, parents = self.name_ids, self.starts, self.ends, self.parents

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(self, result)
            return result

        return traced

    def call(self, name: str, fn, *args):
        """Call `fn` inside a span opened by the benchmark itself."""
        return self.wrap(name, fn)(*args)

    def count(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def spans(self):
        """(name, start, end, parent) tuples in start order."""
        return [
            (self.names[n], s, e, p)
            for n, s, e, p in zip(self.name_ids, self.starts, self.ends, self.parents)
        ]

    def dump(self, path: Path, extra: dict) -> None:
        t0 = self.starts[0] if self.starts else 0
        payload = {
            **extra,
            "clock": "ns since the first span",
            "names": self.names,
            "spans": [
                [n, s - t0, e - t0, p]
                for n, s, e, p in zip(self.name_ids, self.starts, self.ends, self.parents)
            ],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, separators=(",", ":")) + "\n")


def self_times(starts, ends, parents) -> list[int]:
    """Duration of each span minus the union of its children's intervals,
    clipped to the span.  Spans may be given in any order."""
    n = len(starts)
    cover = [0] * n
    covered_to: dict[int, int] = {}
    for i in sorted(range(n), key=starts.__getitem__):
        p = parents[i]
        if p < 0:
            continue
        lo = max(starts[i], starts[p], covered_to.get(p, starts[p]))
        hi = min(ends[i], ends[p])
        if hi > lo:
            cover[p] += hi - lo
            covered_to[p] = hi
    return [ends[i] - starts[i] - cover[i] for i in range(n)]


@dataclass
class Installation:
    absent: list[str]
    _undo: list = field(default_factory=list)

    def restore(self) -> None:
        for module, name, original in reversed(self._undo):
            setattr(module, name, original)
        self._undo.clear()


def _defining_module(modules, name):
    for module in modules:
        obj = module.__dict__.get(name)
        if callable(obj) and getattr(obj, "__module__", None) == module.__name__:
            return module, obj
    return None, None


def install(tracer: Tracer, modules, targets=TARGETS) -> Installation:
    """Rebind every target name in `modules` to a tracing wrapper.

    The span name is `<layer>.<function>`, the layer being the last part of
    the defining module's name.  A function named in `HOOKS` also passes each
    result to its callback `(tracer, result)`, for counts read off results.
    """
    inst = Installation(absent=[])
    for name in targets:
        home, original = _defining_module(modules, name)
        if original is None:
            inst.absent.append(name)
            continue
        layer = home.__name__.rsplit(".", 1)[-1]
        wrapper = tracer.wrap(f"{layer}.{name}", original, HOOKS.get(name))
        for module in modules:
            if module.__dict__.get(name) is original:
                inst._undo.append((module, name, original))
                setattr(module, name, wrapper)
    return inst


def _simulated(tracer: Tracer, path) -> None:
    tracer.fingerprints.append(getattr(path, "rng_fingerprint", None))
    # Orders handled by one simulation: limit-order arrivals (dedicated,
    # optimized, and sent to immediate execution) plus delivered market
    # volume, from the final cumulative counters.  With unit order sizes, as
    # in the fixtures, this is the exact count of order events that moved
    # state.
    try:
        total = (
            path.arrivals_dedicated[-1].sum()
            + path.arrivals_optimized[-1].sum()
            + path.served[-1].sum()
            + path.routed_zero[-1]
        )
        tracer.count("sim.orders", round(float(total) * path.n))
    except (AttributeError, IndexError, TypeError):
        pass


def _steps(tracer: Tracer, traj) -> None:
    steps = getattr(traj, "steps", None)
    if steps is not None:
        tracer.count("fluid.steps", int(steps))


def _batch_steps(tracer: Tracer, res) -> None:
    try:
        tracer.count("fluid.batch_traj_steps", int(res.steps) * int(res.terminal.shape[0]))
    except (AttributeError, IndexError, TypeError):
        pass


HOOKS = {"simulate": _simulated, "integrate": _steps, "_integrate_batch": _batch_steps}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass (times in s or us, counts)."""
    selfs = self_times(tracer.starts, tracer.ends, tracer.parents)
    total: dict[str, int] = {}
    own: dict[str, int] = {}
    calls: dict[str, int] = {}
    layer_self = dict.fromkeys(LAYERS, 0)
    for k, nid in enumerate(tracer.name_ids):
        name = tracer.names[nid]
        total[name] = total.get(name, 0) + tracer.ends[k] - tracer.starts[k]
        own[name] = own.get(name, 0) + selfs[k]
        calls[name] = calls.get(name, 0) + 1
        layer = name.split(".", 1)[0]
        if layer in layer_self:
            layer_self[layer] += selfs[k]

    def s(name, table=total):
        return table.get(name, 0) / 1e9

    def per_call_us(name):
        return s(name) * 1e6 / calls[name] if calls.get(name) else 0.0

    def rate(num, den):
        return num / den if den else 0.0

    counters = tracer.counters
    orders = counters.get("sim.orders", 0)
    steps = counters.get("fluid.steps", 0)
    traj_steps = counters.get("fluid.batch_traj_steps", 0)
    metrics = {
        "routing.route.calls": calls.get("routing.route", 0),
        "routing.route_us": per_call_us("routing.route"),
        "sim.simulate_s": s("sim.simulate", own),
        "sim.orders": orders,
        "sim.orders_per_s": rate(orders, s("sim.simulate")),
        "sim.sup_distance_s": s("sim.sup_distance"),
        "sim.replicate_self_s": s("sim.replicate", own),
        "fluid.integrate_s": s("fluid.integrate"),
        "fluid.steps": steps,
        "fluid.step_us": rate(s("fluid.integrate") * 1e6, steps),
        "fluid.batch_s": s("fluid._integrate_batch"),
        "fluid.batch_traj_steps": traj_steps,
        "fluid.traj_step_us": rate(s("fluid._integrate_batch") * 1e6, traj_steps),
        "routing.band_chi.calls": calls.get("routing._band_chi", 0),
        "routing.band_chi_us": per_call_us("routing._band_chi"),
        "model.compute_bands.calls": calls.get("model.compute_bands", 0),
        "stability.workload_roots.calls": calls.get("stability.workload_roots", 0),
        "stability.workload_roots_s": s("stability.workload_roots"),
        "stability.spectrum_s": s("stability.spectrum"),
        "routing.chi_derivative.calls": calls.get("routing.chi_derivative", 0),
        "fluid.rhs.calls": calls.get("fluid.fluid_rhs", 0),
        "model.load_config_s": s("model.load_config"),
        "model.check_assumptions_s": s("model.check_assumptions"),
        "stability.experiment_self_s": s("stability.local_stability_experiment", own)
        + s("stability.global_stability_experiment", own),
        "cli.emit_s": s("cli.emit_plotdata") + s("cli._write_json"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = layer_self[layer] / 1e9
    return metrics
