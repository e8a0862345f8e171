"""The tracer: self-time arithmetic, rebinding across modules, absent names."""

import types

import spans


def _module(name, **attrs):
    module = types.ModuleType(name)
    for key, value in attrs.items():
        if callable(value):
            value.__module__ = name
        setattr(module, key, value)
    return module


def test_self_time_subtracts_nested_children():
    # root [0, 100] has children [10, 30] and [40, 90]; the second has a
    # child [50, 60] of its own.
    starts = [0, 10, 40, 50]
    ends = [100, 30, 90, 60]
    parents = [-1, 0, 0, 2]
    assert spans.self_times(starts, ends, parents) == [30, 20, 40, 10]


def test_self_time_counts_overlapping_children_once():
    # Children [10, 50] and [30, 70] overlap and [80, 120] leaves the parent:
    # coverage is [10, 70] plus [80, 100].
    starts = [0, 10, 30, 80]
    ends = [100, 50, 70, 120]
    parents = [-1, 0, 0, 0]
    assert spans.self_times(starts, ends, parents)[0] == 100 - 60 - 20


def test_self_time_accepts_spans_out_of_order():
    starts = [10, 0]
    ends = [30, 100]
    parents = [1, -1]
    assert spans.self_times(starts, ends, parents) == [20, 80]


def _fake_package():
    def leaf(x):
        return x + 1

    lower = _module("pkg.lower", leaf=leaf)

    def outer(x):
        return upper.leaf(x) * 2  # looked up in the calling module at call time

    upper = _module("pkg.upper", outer=outer)
    upper.leaf = leaf  # imported name, as `from .lower import leaf` binds it
    return lower, upper, leaf, outer


def test_install_rebinds_in_every_calling_module_and_restores():
    lower, upper, leaf, outer = _fake_package()
    ticks = iter(range(0, 1000, 10))
    tracer = spans.Tracer(clock=lambda: next(ticks))
    inst = spans.install(tracer, [lower, upper], targets=("leaf", "outer"))
    assert inst.absent == []
    assert upper.outer(1) == 4
    assert [(name, parent) for name, _, _, parent in tracer.spans()] == [
        ("upper.outer", -1),
        ("lower.leaf", 0),
    ]
    inst.restore()
    assert lower.leaf is leaf and upper.leaf is leaf and upper.outer is outer


def test_absent_names_are_reported_not_fatal():
    lower, upper, _, _ = _fake_package()
    tracer = spans.Tracer()
    inst = spans.install(tracer, [lower, upper], targets=("leaf", "renamed_away"))
    assert inst.absent == ["renamed_away"]
    assert upper.outer(1) == 4
    metrics = spans.layer_metrics(tracer)
    assert metrics["routing.route.calls"] == 0 and metrics["fluid.step_us"] == 0.0
    inst.restore()


def test_layer_metrics_from_a_traced_call_tree():
    ticks = iter([0, 10, 40, 100])
    tracer = spans.Tracer(clock=lambda: next(ticks) * 1000)

    def route():
        return 1

    def simulate():
        return traced_route()

    traced_route = tracer.wrap("routing.route", route)
    tracer.wrap("sim.simulate", simulate)()
    m = spans.layer_metrics(tracer)
    assert m["routing.route.calls"] == 1
    assert m["routing.route_us"] == 30.0
    assert m["sim.simulate_s"] == 70e-6  # self time: 100 us minus the 30 us child
    assert m["routing.self_s"] == 30e-6


def test_simulate_hook_records_each_fingerprint():
    def simulate(seed):
        return types.SimpleNamespace(rng_fingerprint=f"fp{seed}")

    sim = _module("pkg.sim", simulate=simulate)
    tracer = spans.Tracer()
    inst = spans.install(tracer, [sim], targets=("simulate",))
    sim.simulate(1)
    sim.simulate(2)
    inst.restore()
    assert tracer.fingerprints == ["fp1", "fp2"]
