"""The runner: failure counting, output checks, determinism and BENCHMARK.json."""

import json
import math
from pathlib import Path

import pytest

import gen
import reference
import run
import workloads

FIXTURES = run.ROOT / "fixtures"


@pytest.fixture(scope="module")
def fl():
    return run.import_package()


def test_failure_counter_on_a_broken_input(fl, tmp_path):
    broken = tmp_path / "broken.json"
    data = json.loads((FIXTURES / "ref1.json").read_text())
    del data["mu"]
    broken.write_text(json.dumps(data))
    ops = [
        workloads.Op("equilibrium", broken, (), workloads.check_equilibrium),
        workloads.Op("equilibrium", FIXTURES / "ref1.json", (), workloads.check_equilibrium),
        workloads.Op("equilibrium", FIXTURES / "ref1.json", ("--bogus",), workloads.check_equilibrium),
    ]
    p = run.run_pass(fl.cli, ops, tmp_path / "out")
    assert p.failures[1] is None
    assert "exit code 1" in p.failures[0] and "mu" in p.failures[0]
    assert "exit code 2" in p.failures[2]
    assert len(p.op_times) == 3
    assert len(p.ref_times) == len(reference.slots(3)) == 3


def test_equilibrium_check_rejects_a_wrong_fixture_value(tmp_path):
    (tmp_path / "equilibrium_ref1.json").write_text(
        json.dumps({"w_star": 4 * math.log(2.0) * (1 + 1e-6), "residual": 0.0})
    )
    assert "w_star" in workloads.check_equilibrium(tmp_path, "")


def test_simulate_check_rejects_broken_bookkeeping(tmp_path):
    csv = "# n=10\n# seed=0\nt,q1,ad1,ao1,d1,routed0\n0,1,0,0,0,0\n1,1.2,0.1,0.2,0.1,0\n"
    (tmp_path / "sim_x.csv").write_text(csv)
    assert workloads.check_simulate(tmp_path, "") is None
    (tmp_path / "sim_x.csv").write_text(csv.replace("1.2,", "1.3,"))
    assert "bookkeeping" in workloads.check_simulate(tmp_path, "")


def test_converge_check_requires_decreasing_medians(tmp_path):
    rows = "".join(f"{n},{r},{d}\n" for n, d in ((20, 0.3), (200, 0.05)) for r in range(3))
    (tmp_path / "converge_x.csv").write_text("# seed_base=0\nn,rep,sup_distance\n" + rows)
    assert workloads.check_converge([20, 200], 3)(tmp_path, "") is None
    assert "not decreasing" in workloads.check_converge([200, 20], 3)(tmp_path, "")


def test_dynamics_seeds_follow_the_workload_seed_and_keep_replications_apart():
    def seeds(seed, command):
        ops = workloads.dynamics(FIXTURES, seed).ops
        return [int(op.args[op.args.index("--seed") + 1]) for op in ops if op.command == command]

    assert seeds(2, "converge") == seeds(2, "converge")
    assert seeds(2, "simulate") != seeds(3, "simulate")
    converge = seeds(2, "converge")
    reps = set()
    for base in converge:
        reps |= {base + r for r in range(6)}
    assert len(reps) == 6 * len(converge)


def test_changed_artifacts_fail_the_operation():
    first = run.Pass(False, [1.0], [None], {"000-check-a/x.json": "aa"}, 1, [0.1])
    second = run.Pass(False, [1.0], [None], {"000-check-a/x.json": "bb"}, 1, [0.1])
    run.mark_nondeterminism([first, second], 1)
    assert first.failures == [None] and second.failures[0] is not None


def test_generator_is_seeded_and_stable(fl, tmp_path):
    a = gen.generate(fl, 7, 13, tmp_path / "a")
    b = gen.generate(fl, 7, 13, tmp_path / "b")
    assert [p.read_bytes() for p in a] == [p.read_bytes() for p in b]
    sizes = [json.loads(p.read_text())["n_exchanges"] for p in a]
    assert sizes == [*range(1, gen.N_MAX + 1), 1]


def test_benchmark_json_matches_the_runner():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert spec["paths"] == [Path(run.HERE).name]
