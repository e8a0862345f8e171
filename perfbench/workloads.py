"""The benchmark's workloads: CLI command lists built from a seed, and the
checks that decide whether each command's output is correct.

A workload is a list of operations; one operation is one `fluidlob.cli.main`
call with its own output directory.  A check returns None when the output is
correct and otherwise a one-line reason.
"""

from __future__ import annotations

import csv
import json
import math
import re
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# Certify runs on the two fixtures plus this many generated configs.
CERTIFY_GENERATED = 60

# Closed-form equilibrium workloads of the fixtures.
W_STAR = {"ref1": 4 * math.log(2.0), "ref2": 4 * math.log(2.5)}


@dataclass(frozen=True)
class Op:
    command: str
    config: Path
    args: tuple[str, ...]
    check: Callable[[Path, str], str | None]

    @property
    def label(self) -> str:
        return f"{self.command} {self.config.stem}"

    def argv(self, outdir: Path) -> list[str]:
        return [self.command, str(self.config), *self.args, "-o", str(outdir)]


def _csv_rows(path: Path) -> tuple[dict, list[str], list[list[str]]]:
    meta, body = {}, []
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            meta[key] = value
        else:
            body.append(line)
    header, *rows = csv.reader(body)
    return meta, header, rows


def _one(outdir: Path, pattern: str) -> Path:
    found = sorted(outdir.glob(pattern))
    if len(found) != 1:
        raise FileNotFoundError(f"expected one {pattern} in the output, found {len(found)}")
    return found[0]


def _scaled_int(x: str, n: int) -> int:
    value = float(x) * n
    k = round(value)
    if abs(value - k) > 1e-6 * max(1.0, abs(value)):
        raise ValueError(f"{x} * n = {value} is not an integer count")
    return k


def check_simulate(outdir: Path, _stdout: str) -> str | None:
    """Q = Q0 + A_d + A_o - D on every row and venue, in integer counts; the
    CLI starts each queue at Q0/n = 1."""
    meta, header, rows = _csv_rows(_one(outdir, "sim_*.csv"))
    n = int(meta["n"])
    venues = sum(1 for h in header if re.fullmatch(r"q\d+", h))
    if not rows:
        return "simulate: empty path"
    for row in rows:
        counts = [_scaled_int(x, n) for x in row[1 : 1 + 4 * venues]]
        q, ad, ao, d = (counts[k * venues : (k + 1) * venues] for k in range(4))
        for i in range(venues):
            if q[i] != n + ad[i] + ao[i] - d[i]:
                return f"simulate: bookkeeping broken at t={row[0]} venue {i + 1}"
    return None


def check_converge(n_values: list[int], reps: int):
    """Medians of the sup distance decrease in n; the largest n is below 0.1."""

    def check(outdir: Path, _stdout: str) -> str | None:
        _, _, rows = _csv_rows(_one(outdir, "converge_*.csv"))
        by_n = {n: [] for n in n_values}
        for n, _rep, dist in rows:
            by_n[int(n)].append(float(dist))
        if any(len(v) != reps for v in by_n.values()):
            return "converge: wrong number of replications"
        medians = [statistics.median(by_n[n]) for n in n_values]
        if not all(a > b for a, b in zip(medians, medians[1:])):
            return f"converge: medians not decreasing {medians}"
        if not medians[-1] < 0.1:
            return f"converge: median at n={n_values[-1]} is {medians[-1]} >= 0.1"
        return None

    return check


_MIN_W = re.compile(r"min_W=(\S+) \(kappa=([^)]+)\)")


def check_fluid(outdir: Path, stdout: str) -> str | None:
    """The trajectory's minimum workload stays at or above kappa."""
    _one(outdir, "fluid_*.csv")
    m = _MIN_W.search(stdout)
    if not m:
        return "fluid: no min_W in the summary line"
    min_w, kappa = float(m.group(1)), float(m.group(2))
    if not min_w >= kappa:
        return f"fluid: min_W {min_w} below kappa {kappa}"
    return None


def check_experiment(outdir: Path, _stdout: str) -> str | None:
    report = json.loads(_one(outdir, "stability_*.json").read_text())
    if report.get("passed") is not True:
        return "stability experiment did not pass"
    return None


def check_check(outdir: Path, _stdout: str) -> str | None:
    report = json.loads(_one(outdir, "check_*.json").read_text())
    if report.get("complete") is not True:
        return "check: assumption report incomplete (equilibrium solve failed)"
    return None


def check_equilibrium(outdir: Path, _stdout: str) -> str | None:
    path = _one(outdir, "equilibrium_*.json")
    eq = json.loads(path.read_text())
    if not eq["residual"] < 1e-10:
        return f"equilibrium: residual {eq['residual']} >= 1e-10"
    name = path.stem.removeprefix("equilibrium_")
    if name in W_STAR and not abs(eq["w_star"] - W_STAR[name]) <= 1e-9 * W_STAR[name]:
        return f"equilibrium: w_star {eq['w_star']} differs from {W_STAR[name]}"
    return None


def check_spectrum(outdir: Path, _stdout: str) -> str | None:
    rep = json.loads(_one(outdir, "spectrum_*.json").read_text())
    if rep["verdict"] != "stable":
        return f"spectrum: verdict {rep['verdict']}"
    if not rep["det_identity_max_rel_err"] < 1e-8:
        return f"spectrum: determinant identity error {rep['det_identity_max_rel_err']}"
    return None


@dataclass(frozen=True)
class Workload:
    ops: list[Op]
    configs: list[Path]        # loaded by the set-up measurement


# Each command is kept under about half a second, and the workload repeats it
# with a few seeds instead of running one long command.  On a shared host the
# CPU's speed changes from second to second; the fastest of a run's repeats of
# a short command finds the host's unloaded speed, and that of a long command
# mostly does not.
SIMULATIONS = 3
CONVERGENCE_EXPERIMENTS = 4
STABILITY_EXPERIMENTS = 3


def _seeds(seed: int, count: int, stride: int = 1) -> list[str]:
    """`count` seeds derived from the workload seed; `stride` keeps the
    replication seeds of `converge` (seed + rep) apart."""
    return [str(1000 * seed + stride * i) for i in range(count)]


def dynamics(fixtures: Path, seed: int) -> Workload:
    """Simulation, the fluid limit and both stability experiments."""
    ref1, ref2 = fixtures / "ref1.json", fixtures / "ref2.json"
    ops = [
        Op("simulate", ref2, ("--n", "2000", "--T", "2", "--seed", s), check_simulate)
        for s in _seeds(seed, SIMULATIONS)
    ]
    ops += [
        Op(
            "converge",
            ref1,
            ("--n", "200,2000", "--reps", "6", "--T", "1", "--seed", s),
            check_converge([200, 2000], 6),
        )
        for s in _seeds(seed, CONVERGENCE_EXPERIMENTS, stride=6)
    ]
    ops += [Op("fluid", cfg, ("--T", "2"), check_fluid) for cfg in (ref1, ref2)]
    for s in _seeds(seed, STABILITY_EXPERIMENTS):
        ops.append(
            Op(
                "stability-local",
                ref1,
                ("--deltas", "0.01,0.1", "--T", "100", "--dt", "0.1", "--seed", s),
                check_experiment,
            )
        )
        # T=150 is needed: at T=100 the worst distance misses the 1e-4 threshold.
        ops.append(
            Op(
                "stability-global",
                ref2,
                ("--inits", "50", "--T", "150", "--dt", "0.1", "--seed", s),
                check_experiment,
            )
        )
    return Workload(ops, [ref1, ref2])


def certify(fixtures: Path, generated: list[Path]) -> Workload:
    configs = [fixtures / "ref1.json", fixtures / "ref2.json", *generated]
    ops = []
    for cfg in configs:
        ops.append(Op("check", cfg, (), check_check))
        ops.append(Op("equilibrium", cfg, (), check_equilibrium))
        ops.append(Op("spectrum", cfg, (), check_spectrum))
    return Workload(ops, configs)


NAMES = ("dynamics", "certify")
