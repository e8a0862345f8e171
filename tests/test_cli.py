import json
import math

import numpy as np
import pytest

from fluidlob import (
    SimConfig,
    check_assumptions,
    global_stability_experiment,
    integrate,
    local_stability_experiment,
    simulate,
    solve_equilibrium,
    spectrum,
)
from fluidlob import cli
from fluidlob.cli import emit_plotdata, main, run
from fluidlob.errors import ConfigError

from helpers import FIXTURES, oracle_report_dict, random_stable_config

REF1 = str(FIXTURES / "ref1.json")
REF2 = str(FIXTURES / "ref2.json")


def _read_csv(path):
    meta, header, rows = {}, None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            meta[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append([float(x) for x in line.split(",")])
    return meta, header, np.array(rows)


def test_check_command(tmp_path, capsys):
    status = main(["check", REF1, "-o", str(tmp_path)])
    assert status == 0
    report = json.loads((tmp_path / "check_ref1.json").read_text())
    assert report["cond_ii_holds"] is True
    assert report["cond_iv_holds"] is True
    assert report["kappa"] == pytest.approx(2 * math.log(2), rel=1e-9)
    assert "check ref1" in capsys.readouterr().out


def test_equilibrium_command(tmp_path):
    assert main(["equilibrium", REF1, "-o", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "equilibrium_ref1.json").read_text())
    assert payload["w_star"] == pytest.approx(2.77259, abs=1e-5)
    assert payload["residual"] < 1e-10


def test_spectrum_command(tmp_path):
    assert main(["spectrum", REF2, "-o", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "spectrum_ref2.json").read_text())
    assert payload["verdict"] == "stable"
    assert payload["max_real_part"] < 0


@pytest.mark.parametrize(
    "name, overrides",
    [
        ("ref1", {"rebates": [0.0, 5e-324]}),
        ("ref2", {"beta": [2.0, 1.0, 1.0], "rebates": [0.0, 5e-324, 1.0]}),
    ],
)
def test_certify_commands_take_a_band_at_infinity(tmp_path, name, overrides):
    # Rebates a subnormal apart: the venue at 5e-324 never wins and its
    # lower edge overflows to +inf.  Every numpy warning is an error here.
    config = tmp_path / f"{name}.json"
    config.write_text(json.dumps({**json.loads((FIXTURES / f"{name}.json").read_text()), **overrides}))
    for command in ("check", "equilibrium", "spectrum"):
        assert main([command, str(config), "-o", str(tmp_path)]) == 0
    check = json.loads((tmp_path / f"check_{name}.json").read_text())
    assert check["complete"] and 1 in check["empty_band_exchanges"]


def test_fluid_command_csv(tmp_path):
    assert main(["fluid", REF1, "--q0", "1,1", "--T", "5", "--dt", "0.01", "-o", str(tmp_path)]) == 0
    out = tmp_path / "fluid_ref1.csv"
    _, header, rows = _read_csv(out)
    assert header == ["t", "q1", "q2", "W"]
    # workload column is the beta-weighted queue sum, rowwise
    assert np.abs(rows[:, 3] - (2 * rows[:, 1] + rows[:, 2])).max() < 1e-9
    first = out.read_bytes()
    assert main(["fluid", REF1, "--q0", "1,1", "--T", "5", "--dt", "0.01", "-o", str(tmp_path)]) == 0
    assert out.read_bytes() == first


def test_refine_rejects_a_fixed_step_too_coarse_near_the_origin(tmp_path, capsys):
    # At a workload of 1.5e-3 the venue split relaxes at a rate of about 1.3e3,
    # so the step 1e-3 is off the run at twice its step count; unchecked, it runs.
    argv = ["fluid", REF1, "--q0", "5e-4,5e-4", "--T", "1", "--dt", "0.001", "-o", str(tmp_path)]
    assert main(argv) == 0
    assert main(argv + ["--refine"]) == 2
    assert "unstable at t=0.001" in capsys.readouterr().err


def test_selected_step_near_the_origin_passes_refine(tmp_path, capsys):
    # Without --dt the run steps uniformly in s, where the fast relaxation
    # is a linear decay; dt is the mean t step of its 615 steps.
    argv = ["fluid", REF1, "--q0", "5e-4,5e-4", "--T", "0.1", "-o", str(tmp_path)]
    assert main(argv) == 0
    assert main(argv + ["--refine"]) == 0
    out = capsys.readouterr().out
    assert out.count("dt=0.000162602 steps=615 pilot_steps=462 ") == 2


def test_fluid_line_stays_short_for_a_huge_start(tmp_path, capsys):
    # min_W and kappa print with six significant digits, however large.
    argv = ["fluid", REF1, "--q0", "1e300,1", "--T", "1", "-o", str(tmp_path)]
    assert main(argv) == 0
    line = capsys.readouterr().out
    assert "min_W=2e+300 (kappa=1.38629) " in line and " err=" in line
    assert len(line) < 200


def test_hopeless_start_names_the_tolerance(tmp_path, capsys):
    # At W0 = 1e-323 no step advances t (see test_fluid).
    argv = ["fluid", REF1, "--q0", "5e-324,0", "--T", "1", "-o", str(tmp_path)]
    assert main(argv) == 2
    assert "no step meets the tolerance 1e-10 within 10 passes" in capsys.readouterr().err


@pytest.mark.parametrize("horizon", ["1e-300", "1e-12", "5e-324", "0"])
def test_default_sample_step_follows_a_tiny_horizon(tmp_path, horizon):
    # Without --sample-dt the grid has 200 intervals (one where horizon/200
    # underflows, none at T = 0), however small the horizon.
    argv = ["simulate", REF1, "--n", "5", "--T", horizon, "-o", str(tmp_path)]
    assert main(argv) == 0
    _, _, rows = _read_csv(tmp_path / "sim_ref1_n5_seed0.csv")
    t = float(horizon)
    want = 201 if t / 200 > 0 else (2 if t > 0 else 1)
    assert len(rows) == want
    assert rows[0, 0] == 0.0 and rows[-1, 0] == t

def test_simulate_command_csv(tmp_path):
    assert (
        main(
            [
                "simulate", REF1, "--q0", "1,1", "--T", "4", "--n", "50",
                "--seed", "11", "--sample-dt", "0.2", "-o", str(tmp_path),
            ]
        )
        == 0
    )
    meta, header, rows = _read_csv(tmp_path / "sim_ref1_n50_seed11.csv")
    assert meta["seed"] == "11" and meta["n"] == "50"
    assert header[:3] == ["t", "q1", "q2"] and header[-1] == "routed0"
    n = 50
    q = rows[:, 1:3]
    ad = rows[:, 3:5]
    ao = rows[:, 5:7]
    served = rows[:, 7:9]
    identity = np.rint(q * n) - (
        np.rint(np.array([1.0, 1.0]) * n)
        + np.rint(ad * n)
        + np.rint(ao * n)
        - np.rint(served * n)
    )
    assert np.abs(identity).max() == 0


def test_converge_command(tmp_path):
    status = main(
        [
            "converge", REF1, "--q0", "1,1", "--T", "3", "--n", "20,400",
            "--reps", "4", "--seed", "100", "--sample-dt", "0.1", "-o", str(tmp_path),
        ]
    )
    assert status == 0
    meta, header, rows = _read_csv(tmp_path / "converge_ref1.csv")
    assert header == ["n", "rep", "sup_distance"]
    assert meta["seed_base"] == "100"
    assert rows.shape == (8, 3)
    med20 = np.median(rows[rows[:, 0] == 20][:, 2])
    med400 = np.median(rows[rows[:, 0] == 400][:, 2])
    assert med20 > med400


def test_stability_local_command(tmp_path):
    status = main(
        [
            "stability-local", REF1, "--deltas", "0.01", "--T", "50",
            "--directions", "4", "--seed", "3", "-o", str(tmp_path),
        ]
    )
    assert status == 0
    payload = json.loads((tmp_path / "stability_local_ref1.json").read_text())
    assert payload["passed"] is True
    _, header, rows = _read_csv(tmp_path / "stability_local_ref1.csv")
    assert header[0] == "delta" and len(rows) == 4


def test_stability_global_command(tmp_path):
    status = main(
        [
            "stability-global", REF2, "--inits", "5", "--box", "4",
            "--T", "200", "--seed", "8", "-o", str(tmp_path),
        ]
    )
    assert status == 0
    payload = json.loads((tmp_path / "stability_global_ref2.json").read_text())
    assert payload["passed"] is True
    assert len(payload["trials"]) == 5


def test_reports_are_written_from_their_fields(tmp_path, ref1, ref2):
    # The field-order serializer writes the same text as the hand-written
    # layouts the reports once carried (`oracle_report_dict`).
    rng = np.random.default_rng(5)
    configs = [ref1, ref2] + [random_stable_config(rng, n_max=12) for _ in range(30)]
    reports = []
    for cfg in configs:
        eq = solve_equilibrium(cfg)
        reports += [check_assumptions(cfg, np.ones(cfg.n_exchanges)), eq, spectrum(cfg, eq.q_star)]
    local = local_stability_experiment(ref1, solve_equilibrium(ref1), [0.1, 3.0], 1.0, 4, dt=0.1)
    glob = global_stability_experiment(ref2, 3, 5.0, 0.5, 0, dt=0.1)
    reports += [local, glob]

    complex_pairs = [r.has_complex_pair for r in reports if hasattr(r, "has_complex_pair")]
    assert any(complex_pairs) and not all(complex_pairs)
    assert sum(t.error == "nonpositive start" for t in local.trials) == 2
    assert any(t.tube_entry_time is None for t in glob.trials)
    for report in reports:
        path = tmp_path / "report.json"
        cli._write_json(path, report)
        assert path.read_text() == json.dumps(oracle_report_dict(report), indent=2) + "\n"


def test_emit_plotdata_deterministic(tmp_path, ref1):
    traj = integrate(ref1, [1.0, 1.0], 2.0, dt=0.05)
    a = emit_plotdata(traj, tmp_path / "a.csv").read_bytes()
    b = emit_plotdata(traj, tmp_path / "b.csv").read_bytes()
    assert a == b
    path = simulate(
        ref1, SimConfig(n=20, horizon=1.0, sample_dt=0.5, seed=4, q0_scaled=np.array([1.0, 1.0]))
    )
    c = emit_plotdata(path, tmp_path / "c.csv").read_bytes()
    d = emit_plotdata(path, tmp_path / "d.csv").read_bytes()
    assert c == d


def test_single_row_trajectory_emission(tmp_path, ref1):
    from fluidlob import FluidTrajectory

    traj = FluidTrajectory(
        times=np.array([0.0]),
        states=np.array([[1.0, 2.0]]),
        drift=np.zeros((1, 2)),
        workload=np.array([4.0]),
        min_workload=4.0,
        kappa=1.0,
        steps=0,
        dt=0.0,
        pilot_steps=0,
        max_refine_error=0.0,
    )
    out = emit_plotdata(traj, tmp_path / "one.csv")
    lines = out.read_text().splitlines()
    assert lines == ["t,q1,q2,W", "0,1,2,4"]


def test_missing_config_gives_validation_error(tmp_path, capsys):
    assert main(["equilibrium", str(tmp_path / "nope.json")]) == 1
    assert "no such file" in capsys.readouterr().err


def test_bad_config_names_failing_key(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n_exchanges": 2}))
    assert main(["equilibrium", str(bad)]) == 1
    assert "beta" in capsys.readouterr().err


@pytest.mark.parametrize(
    "change, named",
    [
        ({"beta": ["a", 1.0]}, "beta"),
        ({"mu": "x"}, "mu"),
        (
            {
                "size_dists": {
                    "market": [
                        {"kind": "deterministic", "value": 1},
                        {"kind": "deterministic", "value": 0},
                    ],
                    "dedicated": {"kind": "deterministic", "value": 1},
                    "optimized": {"kind": "deterministic", "value": 1},
                }
            },
            "size_dists.market[1].value",
        ),
    ],
)
def test_bad_config_value_is_validation_error_naming_key(tmp_path, capsys, change, named):
    cfg = json.loads((FIXTURES / "ref1.json").read_text())
    cfg.update(change)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert main(["equilibrium", str(path), "-o", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {named}:")


def test_run_rejects_unknown_command(tmp_path):
    with pytest.raises(ConfigError, match="^command: unknown 'nope'$"):
        run("nope", REF1, {"outdir": str(tmp_path)})


def test_parameter_range_is_validation_error(tmp_path, capsys):
    status = main(
        ["converge", REF1, "--T", "2", "--n", "20,0", "--reps", "3", "-o", str(tmp_path)]
    )
    assert status == 1
    assert "positive integers" in capsys.readouterr().err
    status = main(
        ["stability-local", REF1, "--deltas", "-0.1", "--T", "5", "-o", str(tmp_path)]
    )
    assert status == 1


@pytest.mark.parametrize(
    "argv, named",
    [
        (["simulate", REF1, "--n", "10", "--T", "1", "--sample-dt", "5"], "sample_dt"),
        (["simulate", REF1, "--n", "10", "--T", "1", "--q0", "0,0"], "q0_scaled"),
        (["converge", REF1, "--n", "10", "--reps", "1", "--T", "0"], "horizon"),
        (["stability-global", REF1, "--T", "1", "--inits", "1"], "beta"),
        (["converge", REF1, "--n", "10", "--reps", "0", "--T", "1"], "reps"),
        (["stability-local", REF1, "--deltas", "0.1", "--T", "1", "--directions", "0"], "directions"),
        (["stability-local", REF1, "--deltas", "0.1", "--T", "0"], "horizon"),
        (["stability-global", REF2, "--T", "1", "--inits", "0"], "n_inits"),
        (["stability-global", REF2, "--T", "1", "--box", "0"], "box"),
        (["converge", REF1, "--n", "20,x", "--reps", "1", "--T", "1"], "n"),
        (["stability-local", REF1, "--deltas", "a", "--T", "1"], "deltas"),
        (["fluid", REF1, "--q0", "1,x", "--T", "1"], "q0"),
        (["fluid", REF1, "--T", "inf"], "horizon"),
        (["simulate", REF1, "--n", "10", "--T", "inf"], "horizon"),
        (["converge", REF1, "--n", "10", "--reps", "1", "--T", "inf"], "horizon"),
        (["stability-local", REF1, "--deltas", "0.1", "--T", "inf"], "horizon"),
        (["stability-global", REF2, "--T", "inf", "--inits", "1"], "horizon"),
        (["stability-global", REF2, "--T", "1", "--inits", "1", "--box", "inf"], "box"),
        (["simulate", REF1, "--n", "10", "--T", "1", "--epsilon", "nan"], "epsilon"),
        (["simulate", REF1, "--n", "10", "--T", "1", "--epsilon", "inf"], "epsilon"),
        (["stability-local", REF1, "--deltas", "nan", "--T", "1"], "deltas"),
        (["stability-local", REF1, "--deltas", "inf", "--T", "1"], "deltas"),
        (["check", REF1, "--q0=-1,3"], "q0"),
        (["check", REF1, "--q0", "0,0"], "q0"),
        (["fluid", REF1, "--T", "1", "--dt", "inf"], "dt"),
        (["stability-local", REF1, "--deltas", "0.1", "--T", "1", "--dt", "inf"], "dt"),
        (["stability-global", REF2, "--T", "1", "--inits", "1", "--dt", "inf"], "dt"),
        (["simulate", REF1, "--n", "10", "--T", "1", "--sample-dt", "1e-300"], "sample_dt"),
        (["converge", REF1, "--n", "10", "--reps", "1", "--T", "1", "--sample-dt", "1e-300"],
         "sample_dt"),
        (["fluid", REF1, "--T", "1", "--dt", "1e-300"], "dt"),
        (["stability-local", REF1, "--deltas", "0.1", "--T", "1", "--dt", "1e-300"], "dt"),
        (["stability-global", REF2, "--T", "1", "--inits", "1", "--dt", "1e-300"], "dt"),
        (["check", REF1, "--q0", "1,1,1"], "q0"),
        (["fluid", REF1, "--q0", "1", "--T", "1"], "q0"),
        (["simulate", REF1, "--n", "10", "--T", "1", "--q0", "1,1,1"], "q0_scaled"),
        (["simulate", REF1, "--n", "5", "--T", "1e-300", "--sample-dt", "1e-13"], "sample_dt"),
        (["stability-local", REF1, "--deltas", "0.1", "--T", "1", "--seed", "-1"], "seed"),
        (["stability-global", REF2, "--inits", "2", "--T", "1", "--seed", "-1"], "seed"),
        (["fluid", REF1, "--q0", "inf,1", "--T", "1"], "q0"),
        (["check", REF1, "--q0", "inf,1"], "q0"),
        (["simulate", REF1, "--n", "10", "--T", "1", "--q0", "inf,1"], "q0_scaled"),
        (["simulate", REF1, "--n", "10", "--T", "1", "--q0", "1e300,1"], "q0_scaled"),
        (["simulate", REF1, "--n", "10", "--T", "1", "--q0", "nan,1"], "q0_scaled"),
        (["converge", REF1, "--n", "2000,200", "--reps", "2", "--T", "1"], "n"),
        (["converge", REF1, "--n", "200,200", "--reps", "2", "--T", "1"], "n"),
        (["fluid", REF1, "--T", "1", "--dt", "1.5e-7", "--refine"], "dt"),
    ],
)
def test_library_parameter_error_is_validation_error(tmp_path, capsys, argv, named):
    assert main(argv + ["-o", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {named}:")


@pytest.mark.parametrize("sample_dt", ["1e-300", "4e-301"])
def test_tiny_horizon_samples_both_ends(tmp_path, sample_dt):
    # The sample grid keeps the horizon however small it is: a step equal
    # to it, or one that leaves a last interval of half a step.
    argv = ["simulate", REF1, "--n", "5", "--T", "1e-300", "--sample-dt", sample_dt]
    assert main(argv + ["-o", str(tmp_path)]) == 0
    _, _, rows = _read_csv(tmp_path / "sim_ref1_n5_seed0.csv")
    assert rows[0, 0] == 0.0 and rows[-1, 0] == 1e-300
    assert len(rows) == (2 if sample_dt == "1e-300" else 4)


def test_cached_parser_carries_no_state_between_commands(tmp_path):
    commands = [
        ["fluid", REF1, "--q0", "0.5,0.5", "--T", "1", "--dt", "0.01"],
        ["check", REF1],
        ["equilibrium", REF2],
    ]
    together = tmp_path / "together"
    for argv in commands:
        assert main(argv + ["-o", str(together)]) == 0
    for k, argv in enumerate(commands):
        alone = tmp_path / f"alone{k}"
        cli._build_parser.cache_clear()
        assert main(argv + ["-o", str(alone)]) == 0
        for path in alone.iterdir():
            assert path.read_bytes() == (together / path.name).read_bytes()


def test_overloaded_config_is_experiment_failure(tmp_path, capsys):
    cfg = json.loads((FIXTURES / "ref1.json").read_text())
    cfg["lambda"] = [0.7, 0.5]
    path = tmp_path / "over.json"
    path.write_text(json.dumps(cfg))
    assert main(["equilibrium", str(path), "-o", str(tmp_path)]) == 2
    assert "experiment failed" in capsys.readouterr().err
