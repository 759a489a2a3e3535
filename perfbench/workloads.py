"""The three workloads: one pass each, its output checks and its digest.

A pass drives the program the way a user does and returns
:class:`PassOutput`: how many cells it attempted, which of them failed
the checks, a digest of its deterministic outputs and the size of its
load.  A cell fails when it raises, when a value is non-finite or out of
range, or (decided by the caller, who holds the references) when the
pass's digest differs from the reference for its seed.

``repro`` modules are imported inside the pass functions, never at the
top of this module, so that an untraced pass pays exactly the imports a
user of the CLI pays, and a traced pass calls whatever the probes bound.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Sequence, Tuple

WORKLOADS = ("table2-accuracy", "figure5-scalability", "sweep-quick")

#: ``repro table2`` over the full grid, at one run per cell and a size cap.
TABLE2_CAP = 100
TABLE2_ARGV = ("table2", "--runs", "1", "--max-objects", str(TABLE2_CAP))

#: ``repro figure5`` at a reduced base size: m = 42, k = 23, normal family.
FIGURE5_BASE = 400
FIGURE5_RUNS = 2
FIGURE5_ARGV = (
    "figure5", "--base-size", str(FIGURE5_BASE), "--runs", str(FIGURE5_RUNS)
)

#: ``repro sweep --quick`` grid (the CLI caps its runs at 2).
SWEEP_ARGV = ("sweep", "--quick")

#: Significant digits kept in digests: ulp noise never reaches them.
DIGITS = 8


@dataclass
class PassOutput:
    cells: int
    failures: List[str] = field(default_factory=list)
    digest: str = ""
    load: Dict[str, object] = field(default_factory=dict)


def number(value: float) -> str:
    return format(float(value), f".{DIGITS}g")


def digest(rows: Sequence[Tuple]) -> str:
    """Order-independent sha256 of ``(key, values...)`` rows."""
    text = json.dumps(sorted([list(map(str, row)) for row in rows]))
    return hashlib.sha256(text.encode()).hexdigest()


def finite(*values: float) -> bool:
    return all(math.isfinite(v) for v in values)


@contextlib.contextmanager
def capture(owner, attr: str) -> Iterator[list]:
    """Collect the return values of ``owner.attr`` while the body runs."""
    original = getattr(owner, attr)
    returned: list = []

    def keep(*args, **kwargs):
        result = original(*args, **kwargs)
        returned.append(result)
        return result

    setattr(owner, attr, keep)
    try:
        yield returned
    finally:
        setattr(owner, attr, original)


def cli(argv: Sequence[str]) -> Tuple[int, str]:
    """``repro.cli.main(argv)`` with its printed output captured."""
    import repro.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = repro.cli.main(list(argv))
    return code, out.getvalue()


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def table2_failures(cells: Dict[Tuple, Tuple[float, float]]) -> List[str]:
    """Cells whose Θ is outside [-1, 1] or whose Θ or Q is non-finite."""
    return [
        "/".join(map(str, key))
        for key, (theta, quality) in cells.items()
        if not (finite(theta, quality) and -1.0 <= theta <= 1.0)
    ]


def partition_failures(results, k: int) -> List[str]:
    """Problems of a partitional fit series: labels, k, objective."""
    import numpy as np

    problems = []
    for run, result in enumerate(results):
        labels = np.asarray(result.labels)
        if labels.size and (labels.min() < 0 or labels.max() >= k):
            problems.append(f"run {run}: labels outside [0, {k})")
        elif np.unique(labels).size != k:
            problems.append(f"run {run}: {np.unique(labels).size} clusters, not {k}")
        if not finite(result.objective):
            problems.append(f"run {run}: objective {result.objective}")
    return problems


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------
def table2_grid() -> Tuple[Sequence[str], Sequence[str], Sequence[str]]:
    from repro.datagen.uncertainty_gen import PDF_FAMILIES
    from repro.experiments.config import ACCURACY_ROSTER
    from repro.experiments.table2 import TABLE2_DATASETS

    return TABLE2_DATASETS, PDF_FAMILIES, ACCURACY_ROSTER


def table2_pass(seed: int, workdir: Path) -> PassOutput:
    import repro.cli

    datasets, families, algorithms = table2_grid()
    out = PassOutput(cells=len(datasets) * len(families) * len(algorithms))
    with capture(repro.cli, "run_table2") as reports:
        code, _ = cli([*TABLE2_ARGV, "--seed", str(seed)])
    if code != 0 or not reports:
        out.failures = [f"repro table2 exited {code}"] * out.cells
        return out
    report = reports[0]
    cells = {
        key: (cell.theta, cell.quality) for key, cell in report.cells.items()
    }
    out.failures = table2_failures(cells)
    out.failures += ["missing cell"] * (out.cells - len(cells))
    out.digest = digest(
        [(*key, number(t), number(q)) for key, (t, q) in cells.items()]
    )
    out.load = {"cells": out.cells, "runs": 1, "n_x_m": table2_sizes(datasets)}
    return out


def table2_sizes(datasets: Sequence[str]) -> Dict[str, List[int]]:
    """Objects x attributes of each dataset under the pass's size cap."""
    from repro.datagen.benchmarks import BENCHMARK_SPECS

    return {
        name: [min(BENCHMARK_SPECS[name].n_objects, TABLE2_CAP),
               BENCHMARK_SPECS[name].n_attributes]
        for name in datasets
    }


def figure5_pass(seed: int, workdir: Path) -> PassOutput:
    import repro.cli
    from repro.experiments import figure5
    from repro.experiments.config import SCALABILITY_ROSTER

    fractions, roster = figure5.FIGURE5_FRACTIONS, SCALABILITY_ROSTER
    out = PassOutput(cells=len(fractions) * len(roster))
    with capture(repro.cli, "run_figure5") as reports, \
            capture(figure5, "prepare_figure5_fraction") as subsets, \
            capture(figure5, "fit_runs") as series:
        code, _ = cli([*FIGURE5_ARGV, "--seed", str(seed)])
    if code != 0 or not reports:
        out.failures = [f"repro figure5 exited {code}"] * out.cells
        return out
    # run_figure5 fits the roster fraction by fraction, in this order.
    cells = [(frac, alg) for frac in fractions for alg in roster]
    out.failures = ["missing cell"] * (out.cells - len(series))
    rows = []
    for (frac, alg), results in zip(cells, series):
        k = min(figure5.FIGURE5_K, len(results[0].labels) - 1)
        problems = partition_failures(results, k)
        if problems:
            out.failures.append(f"{frac}/{alg}: {problems[0]}")
        rows += [
            (frac, alg, run, number(result.objective),
             hashlib.sha256(result.labels.tobytes()).hexdigest())
            for run, result in enumerate(results)
        ]
    out.failures += [
        f"{frac}/{alg}: runtime {ms} ms"
        for (frac, alg), ms in reports[0].runtimes_ms.items()
        if not (finite(ms) and ms >= 0.0)
    ]
    out.digest = digest(rows)
    out.load = {
        "cells": out.cells,
        "runs": FIGURE5_RUNS,
        "base_size": FIGURE5_BASE,
        "n_x_m": {str(f): [len(s), s.dim] for f, s in zip(fractions, subsets)},
    }
    return out


def sweep_value_ok(key: Tuple, value: float) -> bool:
    """Θ within [-1, 1], runtimes non-negative, everything finite."""
    if not finite(value):
        return False
    if key[0] == "table2" and key[-1] == "theta":
        return -1.0 <= value <= 1.0
    if key[0] in ("figure4", "figure5"):
        return value >= 0.0
    return True


def sweep_pass(seed: int, workdir: Path) -> PassOutput:
    import repro.engine.sweep

    store = workdir / "store"
    argv = [*SWEEP_ARGV, "--store", str(store), "--seed", str(seed)]
    out = PassOutput(cells=0)
    with capture(repro.engine.sweep, "run_sweep") as outcomes:
        first_code, _ = cli(argv)
        resume_code, _ = cli([*argv, "--resume"])
        summary_code, summary = cli(["store", "summary", str(store)])
    if first_code != 0 or len(outcomes) != 2:
        out.cells = 1
        out.failures = [f"repro sweep exited {first_code}"]
        return out
    first, resumed = outcomes
    # Units: every grid cell, the resume and the store summary.
    out.cells = len(first.executed) + 2
    values = _sweep_values(first)
    out.failures = [
        "/".join(map(str, key))
        for key, value in values.items()
        if not sweep_value_ok(key, value)
    ]
    deterministic = {k: v for k, v in values.items() if k[0] in ("table2", "table3")}
    if (
        resume_code != 0
        or resumed.executed
        or len(resumed.reused) != len(first.executed)
    ):
        out.failures.append(
            f"resume: exit {resume_code}, {len(resumed.executed)} run, "
            f"{len(resumed.reused)} reused of {len(first.executed)}"
        )
    reread = _sweep_values(resumed)
    if any(number(reread.get(k, math.nan)) != number(v) for k, v in deterministic.items()):
        out.failures.append("resume: values read back from the store differ")
    if summary_code != 0 or "table2" not in summary:
        out.failures.append(f"store summary exited {summary_code}")
    out.digest = digest(
        [(*k, number(v)) for k, v in deterministic.items()]
        + [("resume", len(resumed.executed), len(resumed.reused))]
    )
    out.load = {
        "cells": len(first.executed),
        "store_bytes": sum(
            p.stat().st_size for p in store.rglob("*") if p.is_file()
        ),
    }
    return out


def _sweep_values(outcome) -> Dict[Tuple, float]:
    values: Dict[Tuple, float] = {}
    if outcome.table2 is not None:
        for key, cell in outcome.table2.cells.items():
            values[("table2", *key, "theta")] = cell.theta
            values[("table2", *key, "quality")] = cell.quality
    if outcome.table3 is not None:
        for key, value in outcome.table3.quality.items():
            values[("table3", *key)] = value
    for surface in ("figure4", "figure5"):
        report = getattr(outcome, surface)
        if report is not None:
            for key, value in report.runtimes_ms.items():
                values[(surface, *key)] = value
    return values


PASSES = {
    "table2-accuracy": table2_pass,
    "figure5-scalability": figure5_pass,
    "sweep-quick": sweep_pass,
}


def run_pass(workload: str, seed: int, workdir: Path) -> PassOutput:
    """One pass of ``workload``; a pass that raises fails every cell."""
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return PASSES[workload](seed, workdir)
    except Exception as error:  # counted, not propagated: see module doc
        return PassOutput(cells=1, failures=[f"raised {error!r}"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
