"""Command-line front door: config ingestion, experiment orchestration, and
deterministic CSV/JSON emission.

Exit status: 0 on pass, 1 on validation errors (bad config or parameters,
with a pointer to the failing schema key), 2 on experiment failure such as
non-convergence.  All files are written atomically (temp file + rename); a
JSON report holds its dataclass's fields in order and CSV floats have 12
significant digits, so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from .errors import AssumptionError, ConfigError, IntegrationError, ParameterError
from .fluid import FluidTrajectory, integrate
from .model import ModelConfig, load_config
from .sim import ConvergenceTable, SimConfig, SimPath, replicate, simulate
from .stability import (
    check_assumptions,
    global_stability_experiment,
    local_stability_experiment,
    solve_equilibrium,
    spectrum,
)

__all__ = ["run", "emit_plotdata", "main"]


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.12g}"


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _plain(value):
    """JSON values of a report: a dataclass becomes its fields in declaration
    order, a real array its nested lists, a tuple or list a list and a complex
    number [re, im]."""
    if dataclasses.is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, np.ndarray) and not np.iscomplexobj(value):
        return value.tolist()
    if isinstance(value, (tuple, list, np.ndarray)):
        return [_plain(x) for x in value]
    if isinstance(value, complex):
        return [value.real, value.imag]
    return value


def _write_json(path: Path, report) -> None:
    _atomic_write(path, json.dumps(_plain(report), indent=2) + "\n")


def _csv_text(header: list[str], rows, meta: dict | None = None) -> str:
    lines = []
    if meta:
        for key in sorted(meta):
            lines.append(f"# {key}={_fmt(meta[key])}")
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    return "\n".join(lines) + "\n"


def emit_plotdata(obj, out) -> Path:
    """Write a trajectory, simulated path, or convergence table as CSV.

    Column layouts: trajectory t,q1..qN,W; simulated path
    t,q1..qN,ad1..adN,ao1..aoN,d1..dN,routed0 (seed and n recorded as '# key=value'
    metadata lines); convergence table n,rep,sup_distance.  Formatting is fixed
    at 12 significant digits, so identical inputs produce byte-identical files.
    """
    out = Path(out)
    if isinstance(obj, FluidTrajectory):
        n = obj.states.shape[1]
        header = ["t"] + [f"q{i + 1}" for i in range(n)] + ["W"]
        rows = (
            [obj.times[k], *obj.states[k], obj.workload[k]] for k in range(len(obj.times))
        )
        _atomic_write(out, _csv_text(header, rows))
    elif isinstance(obj, SimPath):
        n = obj.q_scaled.shape[1]
        header = (
            ["t"]
            + [f"q{i + 1}" for i in range(n)]
            + [f"ad{i + 1}" for i in range(n)]
            + [f"ao{i + 1}" for i in range(n)]
            + [f"d{i + 1}" for i in range(n)]
            + ["routed0"]
        )
        rows = (
            [
                obj.times[k],
                *obj.q_scaled[k],
                *obj.arrivals_dedicated[k],
                *obj.arrivals_optimized[k],
                *obj.served[k],
                obj.routed_zero[k],
            ]
            for k in range(len(obj.times))
        )
        _atomic_write(out, _csv_text(header, rows, meta={"seed": obj.seed, "n": obj.n}))
    elif isinstance(obj, ConvergenceTable):
        _atomic_write(
            out,
            _csv_text(["n", "rep", "sup_distance"], obj.rows, meta={"seed_base": obj.seed_base}),
        )
    else:
        raise TypeError(f"cannot emit plot data for {type(obj).__name__}")
    return out


def _parse_list(text, convert, key: str) -> list:
    try:
        return [convert(x) for x in str(text).split(",")]
    except ValueError:
        raise ParameterError(
            f"{key}: cannot parse '{text}' as comma-separated {convert.__name__} values"
        ) from None


def _q0(cfg: ModelConfig, params: dict) -> np.ndarray:
    # The library checks the length and the entries.
    if params.get("q0") is None:
        return np.ones(cfg.n_exchanges)
    return np.array(_parse_list(params["q0"], float, "q0"))


def _sim_config(cfg: ModelConfig, params: dict, n: int) -> SimConfig:
    horizon = float(params["horizon"])
    # 200 sample intervals by default, or one where horizon/200 underflows;
    # at T = 0 the grid is the one point 0 and any positive step does.
    default_dt = horizon / 200 or horizon or 1.0
    return SimConfig(
        n=n,
        horizon=horizon,
        sample_dt=float(params.get("sample_dt", default_dt)),
        seed=int(params.get("seed", 0)),
        q0_scaled=_q0(cfg, params),
        epsilon=float(params.get("epsilon", 0.0)),
    )


def _emit_trials(command: str, name: str, outdir: Path, report, header, rows) -> int:
    """Write a stability report as JSON and its trials as CSV, print the
    summary line, and return the exit status."""
    stem = f"{command.replace('-', '_')}_{name}"
    _write_json(outdir / f"{stem}.json", report)
    csv_path = outdir / f"{stem}.csv"
    _atomic_write(csv_path, _csv_text(header, rows, meta={"seed": report.seed}))
    worst = max((t.terminal_distance for t in report.trials), default=float("nan"))
    print(f"{command} {name}: passed={report.passed} worst={worst:.3e} -> {csv_path}")
    return 0 if report.passed else 2


def run(command: str, config_path, params: dict) -> int:
    """Execute one experiment, write its artifacts, and print a summary line.

    `command` is one of the CLI's subcommands and `params` holds its options
    by destination name; an option left out takes its default here, and
    without `dt` the library picks the fluid step.
    Parameter ranges are checked by the library (SimConfig, integrate,
    replicate and the stability experiments raise ParameterError); an unknown
    command raises ConfigError.
    """
    cfg = load_config(config_path)
    outdir = Path(params.get("outdir", "out"))
    name = Path(config_path).stem
    dt = None if params.get("dt") is None else float(params["dt"])

    if command == "check":
        report = check_assumptions(cfg, _q0(cfg, params))
        path = outdir / f"check_{name}.json"
        _write_json(path, report)
        print(
            f"check {name}: cond_i={report.cond_i_holds} cond_ii={report.cond_ii_holds} "
            f"cond_iv={report.cond_iv_holds} kappa={report.kappa} -> {path}"
        )
        return 0

    if command == "equilibrium":
        eq = solve_equilibrium(cfg)
        path = outdir / f"equilibrium_{name}.json"
        _write_json(path, eq)
        print(f"equilibrium {name}: w_star={eq.w_star:.6f} residual={eq.residual:.2e} -> {path}")
        return 0

    if command == "spectrum":
        eq = solve_equilibrium(cfg)
        rep = spectrum(cfg, eq.q_star)
        path = outdir / f"spectrum_{name}.json"
        _write_json(path, rep)
        print(
            f"spectrum {name}: verdict={rep.verdict} max_real={rep.max_real_part:.3e} "
            f"det_err={rep.det_identity_max_rel_err:.2e} -> {path}"
        )
        return 0 if rep.verdict == "stable" else 2

    if command == "fluid":
        refine = bool(params.get("refine", False))
        traj = integrate(cfg, _q0(cfg, params), float(params["horizon"]), dt=dt, refine=refine)
        path = emit_plotdata(traj, outdir / f"fluid_{name}.csv")
        print(
            f"fluid {name}: T={params['horizon']} terminal={np.round(traj.states[-1], 6).tolist()} "
            f"min_W={traj.min_workload:.6g} (kappa={traj.kappa:.6g}) dt={traj.dt:.6g} "
            f"steps={traj.steps} pilot_steps={traj.pilot_steps} "
            f"err={traj.max_refine_error:.3g} -> {path}"
        )
        return 0

    if command == "simulate":
        sim = _sim_config(cfg, params, int(params["n"]))
        path_obj = simulate(cfg, sim)
        path = emit_plotdata(path_obj, outdir / f"sim_{name}_n{sim.n}_seed{sim.seed}.csv")
        print(
            f"simulate {name}: n={sim.n} T={sim.horizon} seed={sim.seed} "
            f"terminal={np.round(path_obj.q_scaled[-1], 6).tolist()} -> {path}"
        )
        return 0

    if command == "converge":
        n_values = _parse_list(params["n_values"], int, "n")
        sim = _sim_config(cfg, params, n_values[0])
        table = replicate(cfg, sim, n_values, int(params["reps"]))
        path = emit_plotdata(table, outdir / f"converge_{name}.csv")
        medians = [med for (_, med, _) in table.summary]
        decreasing = all(a > b for a, b in zip(medians, medians[1:]))
        print(
            f"converge {name}: n={n_values} medians={[round(m, 5) for m in medians]} "
            f"decreasing={decreasing} -> {path}"
        )
        return 0 if decreasing else 2

    if command == "stability-local":
        eq = solve_equilibrium(cfg)
        report = local_stability_experiment(
            cfg,
            eq,
            deltas=_parse_list(params["deltas"], float, "deltas"),
            horizon=float(params["horizon"]),
            directions=int(params.get("directions", 16)),
            seed=int(params.get("seed", 0)),
            dt=dt,
        )
        return _emit_trials(
            command,
            name,
            outdir,
            report,
            ["delta", "direction", "terminal_distance", "min_workload", "kappa", "ok"],
            (
                [t.delta, t.direction, t.terminal_distance, t.min_workload, t.kappa, int(t.ok)]
                for t in report.trials
            ),
        )

    if command == "stability-global":
        report = global_stability_experiment(
            cfg,
            n_inits=int(params.get("n_inits", 50)),
            box=float(params.get("box", 5.0)),
            horizon=float(params["horizon"]),
            seed=int(params.get("seed", 0)),
            dt=dt,
        )
        return _emit_trials(
            command,
            name,
            outdir,
            report,
            ["trial", "terminal_distance", "workload_monotone", "tube_entry_time", "ok"],
            (
                [
                    k,
                    t.terminal_distance,
                    int(t.workload_monotone),
                    t.tube_entry_time if t.tube_entry_time is not None else float("nan"),
                    int(t.ok),
                ]
                for k, t in enumerate(report.trials)
            ),
        )

    raise ConfigError(f"command: unknown '{command}'")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process and never mutated: parse_args keeps no state.
    parser = argparse.ArgumentParser(
        prog="fluidlob",
        description="Order-routing queueing model: simulation, fluid limit, and stability studies",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, **flags):
        p = sub.add_parser(name)
        p.add_argument("config", help="model config JSON file")
        p.add_argument("-o", "--outdir", help="output directory (default: out)")
        for flag, kw in flags.items():
            p.add_argument(flag, **kw)
        return p

    add("check", **{"--q0": dict(help="initial queues, comma separated")})
    add("equilibrium")
    add("spectrum")
    add(
        "fluid",
        **{
            "--q0": dict(),
            "--T": dict(dest="horizon", required=True, type=float),
            "--dt": dict(type=float),
            "--refine": dict(action="store_true"),
        },
    )
    add(
        "simulate",
        **{
            "--q0": dict(),
            "--T": dict(dest="horizon", required=True, type=float),
            "--n": dict(required=True, type=int),
            "--seed": dict(type=int),
            "--sample-dt": dict(dest="sample_dt", type=float),
            "--epsilon": dict(type=float),
        },
    )
    add(
        "converge",
        **{
            "--q0": dict(),
            "--T": dict(dest="horizon", required=True, type=float),
            "--n": dict(dest="n_values", required=True, help="comma-separated scaling levels"),
            "--reps": dict(required=True, type=int),
            "--seed": dict(type=int),
            "--sample-dt": dict(dest="sample_dt", type=float),
        },
    )
    add(
        "stability-local",
        **{
            "--deltas": dict(required=True, help="comma-separated perturbation radii"),
            "--T": dict(dest="horizon", required=True, type=float),
            "--directions": dict(type=int),
            "--seed": dict(type=int),
            "--dt": dict(type=float),
        },
    )
    add(
        "stability-global",
        **{
            "--inits": dict(dest="n_inits", type=int),
            "--box": dict(type=float),
            "--T": dict(dest="horizon", required=True, type=float),
            "--seed": dict(type=int),
            "--dt": dict(type=float),
        },
    )
    return parser


def main(argv=None) -> int:
    args = vars(_build_parser().parse_args(argv))
    command = args.pop("command")
    config = args.pop("config")
    params = {k: v for k, v in args.items() if v is not None}
    try:
        return run(command, config, params)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (AssumptionError, IntegrationError, ValueError) as exc:
        print(f"experiment failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
