"""Benchmark runner for fluidlob.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the repository root is the parent of this file's
directory, and `fluidlob` is imported from its `src/`.  Each run builds the
workload's inputs from the seed, then repeats the workload's CLI command
list in-process for about S seconds, timing set-up in a fresh interpreter
between the first passes.  The first pass also records the simulator's
rng_fingerprints.  The untraced passes, the first included, give each
command's fastest time, and the fastest time of a reference loop run between
the commands (`reference.py`).  Every command's output is checked.

With `--trace 0` the last stdout line carries the end-to-end metrics.  With
`--trace 1` untraced and traced passes alternate: the traced passes give the
per-layer metrics, the untraced ones the per-command times and the tracing
overhead.  The line before it lists the sha256 of every artifact and the
simulator's rng_fingerprint, which are not metrics.  Outputs go to
`perfbench/_work/`.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

SETUP_REPEATS = 9
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
COMMANDS = (
    "simulate",
    "converge",
    "fluid",
    "stability-local",
    "stability-global",
    "check",
    "equilibrium",
    "spectrum",
)

END_TO_END = {
    "setup_s": "s",
    "wall_rel": "ratio",
    "peak_rss_mb": "MB",
    "ok_share": "ratio",
}
PER_LAYER = {
    "wall_s": "s",
    "ref_s": "s",
    "routing.route.calls": "count",
    "routing.route_us": "us",
    "sim.simulate_s": "s",
    "sim.orders": "count",
    "sim.orders_per_s": "1/s",
    "sim.sup_distance_s": "s",
    "sim.replicate_self_s": "s",
    "fluid.integrate_s": "s",
    "fluid.steps": "count",
    "fluid.step_us": "us",
    "fluid.batch_s": "s",
    "fluid.batch_traj_steps": "count",
    "fluid.traj_step_us": "us",
    "routing.band_chi.calls": "count",
    "routing.band_chi_us": "us",
    "model.compute_bands.calls": "count",
    "stability.workload_roots.calls": "count",
    "stability.workload_roots_s": "s",
    "stability.spectrum_s": "s",
    "routing.chi_derivative.calls": "count",
    "fluid.rhs.calls": "count",
    "model.load_config_s": "s",
    "model.check_assumptions_s": "s",
    "stability.experiment_self_s": "s",
    "cli.emit_s": "s",
    "cli.bytes_written": "bytes",
    "model.self_s": "s",
    "routing.self_s": "s",
    "sim.self_s": "s",
    "fluid.self_s": "s",
    "stability.self_s": "s",
    "cli.self_s": "s",
    "trace.overhead_share": "ratio",
    **{f"cmd.{c}_s": "s" for c in COMMANDS},
}

SETUP_CODE = (
    "import sys, fluidlob\n"
    "for p in sys.argv[1:]:\n"
    "    fluidlob.load_config(p)\n"
    "print(fluidlob.__file__)\n"
)


class BenchError(Exception):
    """The benchmark cannot run here (missing sources or a broken set-up)."""


def pin_threads(env) -> None:
    """Single-process, single-threaded numerics: the CLI's serial default."""
    for var in THREAD_VARS:
        env[var] = "1"
    env.pop("FLUIDLOB_THREADS", None)


def import_package():
    if not (SRC / "fluidlob" / "__init__.py").is_file():
        raise BenchError(f"no fluidlob sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import fluidlob
    import fluidlob.cli

    if not Path(fluidlob.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"fluidlob was imported from {fluidlob.__file__}, not {SRC}")
    return fluidlob


def setup_time(configs) -> float:
    """Wall time of one fresh interpreter importing fluidlob and loading every
    config of the workload."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, *map(str, configs)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        cwd=ROOT,
    )
    dt = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"set-up interpreter failed: {proc.stderr.strip()[-500:]}")
    if not Path(proc.stdout.strip()).resolve().is_relative_to(SRC):
        raise BenchError(f"set-up imported fluidlob from {proc.stdout.strip()}")
    return dt


def peak_rss_mb() -> float:
    """Peak resident set of this process or of its largest child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def run_op(cli, op, outdir: Path, tracer=None) -> tuple[float, str | None]:
    """One CLI call; returns its duration and None or the reason it failed."""
    out, err = io.StringIO(), io.StringIO()
    argv = op.argv(outdir)
    with redirect_stdout(out), redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            if tracer is None:
                code = cli.main(argv)
            else:
                code = tracer.call("cli.main", cli.main, argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
        except Exception as exc:  # an operation that raises counts as failed
            dt = time.perf_counter() - t0
            return dt, f"{op.label}: {type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
    if code != 0:
        tail = err.getvalue().strip().splitlines()[-1:] or [""]
        return dt, f"{op.label}: exit code {code} {tail[0]}"
    try:
        reason = op.check(outdir, out.getvalue())
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        reason = f"{type(exc).__name__}: {exc}"
    return dt, None if reason is None else f"{op.label}: {reason}"


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass
class Pass:
    traced: bool
    op_times: list[float]
    failures: list[str | None]
    artifacts: dict[str, str]          # "<op dir>/<file>" -> sha256
    bytes_written: int
    ref_times: list[float]             # the reference loop, slot by slot

    @property
    def wall(self) -> float:
        return sum(self.op_times)


def fastest_op_times(passes: list[Pass]) -> list[float]:
    """Each operation's shortest time over the passes.

    The work is deterministic, and outside load on a shared machine changes
    the CPU's speed by tens of percent over seconds to minutes, which only
    ever slows an operation down.  Taking each operation's best time finds
    the machine's unloaded speed for short operations as well as long ones.
    """
    return [min(times) for times in zip(*(p.op_times for p in passes))]


def run_pass(cli, ops, outroot: Path, tracer=None) -> Pass:
    shutil.rmtree(outroot, ignore_errors=True)
    outroot.mkdir(parents=True)
    import reference  # imports numpy, so only after pin_threads

    slots = reference.slots(len(ops))
    times, failures, ref_times = [], [], []
    for k, op in enumerate(ops):
        if k in slots:
            ref_times.append(reference.timed())
        dt, reason = run_op(cli, op, outroot / f"{k:03d}-{op.command}-{op.config.stem}", tracer)
        times.append(dt)
        failures.append(reason)
    files = sorted(p for p in outroot.rglob("*") if p.is_file())
    artifacts = {p.relative_to(outroot).as_posix(): sha256(p) for p in files}
    return Pass(
        tracer is not None,
        times,
        failures,
        artifacts,
        sum(p.stat().st_size for p in files),
        ref_times,
    )


def _op_artifacts(artifacts: dict[str, str], k: int) -> dict[str, str]:
    prefix = f"{k:03d}-"
    return {name: digest for name, digest in artifacts.items() if name.startswith(prefix)}


def mark_nondeterminism(passes: list[Pass], n_ops: int) -> None:
    """An operation whose artifacts differ from the first pass's fails."""
    first = passes[0].artifacts
    for p in passes[1:]:
        for k in range(n_ops):
            if p.failures[k] is None and _op_artifacts(p.artifacts, k) != _op_artifacts(first, k):
                p.failures[k] = f"operation {k}: artifacts differ from the first pass with the same seed"


def measure(fl, wl, seconds: float, trace: bool, outroot: Path):
    """Repeat the workload's command list for about `seconds`.

    The first pass wraps only `simulate`, to record the rng_fingerprint of
    every simulation; its times count like those of any untraced pass.
    After it, with `trace`, every second pass is traced.  One set-up time is taken
    before the first pass and one after each pass until there are
    SETUP_REPEATS, so that they sample the machine's speed over the run
    rather than in one burst; they count against the deadline.
    Returns the set-up times, the passes, the fingerprints, the tracer of the
    fastest traced pass, and the traced names absent from the program."""
    deadline = time.perf_counter() + seconds
    setups = [setup_time(wl.configs)]
    modules = [m for name, m in sorted(sys.modules.items()) if name.startswith("fluidlob.")]
    passes, durations, best_tracer, absent = [], [], None, []
    while True:
        first = not passes
        traced = trace and not first and len(passes) % 2 == 0
        start = time.perf_counter()
        if first or traced:
            tracer = spans.Tracer()
            inst = spans.install(tracer, modules, ("simulate",) if first else spans.TARGETS)
            try:
                p = run_pass(fl.cli, wl.ops, outroot, tracer if traced else None)
            finally:
                inst.restore()
            if first:
                fingerprints = tracer.fingerprints
            else:
                absent = inst.absent
                if best_tracer is None or p.wall < min(q.wall for q in passes if q.traced):
                    best_tracer = tracer
        else:
            p = run_pass(fl.cli, wl.ops, outroot)
        passes.append(p)
        durations.append(time.perf_counter() - start)
        failed = sum(f is not None for f in p.failures)
        kind = "first" if first else "traced" if traced else "untraced"
        print(f"pass {len(passes)} {kind}: wall {p.wall:.3f}s, {failed} failed", file=sys.stderr)
        if len(setups) < SETUP_REPEATS:
            setups.append(setup_time(wl.configs))
        enough = len(passes) >= (3 if trace else 2)
        if enough and time.perf_counter() + max(durations[-2:]) > deadline:
            break
    while len(setups) < SETUP_REPEATS:
        setups.append(setup_time(wl.configs))
    mark_nondeterminism(passes, len(wl.ops))
    return setups, passes, fingerprints, best_tracer, absent


def build_workload(fl, name: str, seed: int):
    import gen  # imports numpy, so only after pin_threads

    fixtures = ROOT / "fixtures"
    for fixture in ("ref1.json", "ref2.json"):
        if not (fixtures / fixture).is_file():
            raise BenchError(f"missing fixture {fixtures / fixture}")
    if name == "dynamics":
        return workloads.dynamics(fixtures, seed)
    generated = gen.generate(
        fl, seed, workloads.CERTIFY_GENERATED, WORK / "inputs" / f"certify-seed{seed}"
    )
    return workloads.certify(fixtures, generated)


def metrics_line(values: dict[str, float], units: dict[str, str]) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be nonnegative and --seconds positive")

    # Pinned before numpy is first imported, so BLAS starts single-threaded.
    pin_threads(os.environ)
    tag = f"{args.workload}-seed{args.seed}"
    try:
        fl = import_package()
        wl = build_workload(fl, args.workload, args.seed)
        setups, passes, fingerprints, tracer, absent = measure(
            fl, wl, args.seconds, bool(args.trace), WORK / "out" / tag
        )
    except BenchError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2

    attempted = sum(len(p.failures) for p in passes)
    reasons = [f for p in passes for f in p.failures if f is not None]
    for reason in dict.fromkeys(reasons):
        print(f"failed: {reason}", file=sys.stderr)
    if absent:
        print(f"absent from the program, not traced: {', '.join(absent)}", file=sys.stderr)

    untraced = [p for p in passes if not p.traced]
    op_times = fastest_op_times(untraced)
    ref_s = sum(min(times) for times in zip(*(p.ref_times for p in untraced)))
    if args.trace:
        # Layer metrics all come from the fastest traced pass, so they add up.
        best_traced = min((p for p in passes if p.traced), key=lambda p: p.wall)
        best = min(untraced, key=lambda p: p.wall)
        values = {
            "wall_s": sum(op_times),
            "ref_s": ref_s,
            **spans.layer_metrics(tracer),
            "cli.bytes_written": best_traced.bytes_written,
            "trace.overhead_share": best_traced.wall / best.wall - 1.0,
            **{
                f"cmd.{c}_s": sum((t for t, op in zip(op_times, wl.ops) if op.command == c), 0.0)
                for c in COMMANDS
            },
        }
        metrics = metrics_line(values, PER_LAYER)
        tracer.dump(
            WORK / f"trace-{tag}.json",
            {"workload": args.workload, "seed": args.seed, "absent": absent},
        )
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_rel": sum(op_times) / ref_s,
            "peak_rss_mb": peak_rss_mb(),
            "ok_share": 1.0 - len(reasons) / attempted,
        }
        metrics = metrics_line(values, END_TO_END)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "rng_fingerprints": fingerprints,
        "artifacts": passes[0].artifacts,
    }
    WORK.mkdir(parents=True, exist_ok=True)
    (WORK / f"digests-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record, separators=(",", ":")))
    print(
        json.dumps(
            {
                "correct": not reasons,
                "attempted": attempted,
                "failed": len(reasons),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
