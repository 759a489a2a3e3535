"""Figure 5 — scalability on the KDD Cup '99 workload (E4).

The paper varies the KDD Cup '99 dataset size from 5% to 100% (4M
objects, 42 attributes, k fixed at 23 — every class kept represented in
each subset) and times the fast algorithms.  Expected shape: all
algorithms linear in n, MMVar scaling best, UCPC tracking UK-means.

This runner synthesizes the KDD-shaped dataset once at a base size, then
takes stratified fractions exactly as the paper does.  A linearity
diagnostic (R^2 of the least-squares line through each algorithm's
(n, time) series) quantifies the "linear trend" claim.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.datagen.benchmarks import make_benchmark
from repro.datagen.uncertainty_gen import UncertaintyGenerator
from repro.engine import fit_runs
from repro.exceptions import InvalidParameterError
from repro.experiments.config import (
    SCALABILITY_ROSTER,
    ExperimentConfig,
    build_algorithm,
)
from repro.utils.rng import spawn_rngs
from repro.utils.tables import format_table

#: Dataset fractions of Figure 5.
FIGURE5_FRACTIONS = (0.05, 0.25, 0.5, 0.75, 1.0)

#: Cluster count fixed by the paper (the 23 KDD Cup classes).
FIGURE5_K = 23


@dataclass
class Figure5Report:
    """Runtimes (ms) per (fraction, algorithm) plus linearity diagnostics."""

    fractions: Tuple[float, ...]
    algorithms: Tuple[str, ...]
    sizes: Dict[float, int] = field(default_factory=dict)
    runtimes_ms: Dict[Tuple[float, str], float] = field(default_factory=dict)

    def linearity_r2(self, algorithm: str) -> float:
        """R^2 of the least-squares line through (n, runtime)."""
        x = np.array([self.sizes[f] for f in self.fractions], dtype=np.float64)
        y = np.array(
            [self.runtimes_ms[(f, algorithm)] for f in self.fractions]
        )
        if x.size < 2:
            return 1.0
        slope, intercept = np.polyfit(x, y, 1)
        predicted = slope * x + intercept
        ss_res = float(((y - predicted) ** 2).sum())
        ss_tot = float(((y - y.mean()) ** 2).sum())
        if ss_tot == 0.0:
            return 1.0
        return 1.0 - ss_res / ss_tot

    def render(self) -> str:
        """Monospace table of the scalability series."""
        rows: List[Sequence[object]] = []
        for frac in self.fractions:
            row: List[object] = [f"{frac:.0%}", self.sizes[frac]]
            row.extend(self.runtimes_ms[(frac, alg)] for alg in self.algorithms)
            rows.append(row)
        rows.append(
            ["linearity R^2", ""]
            + [self.linearity_r2(alg) for alg in self.algorithms]
        )
        headers = ["fraction", "n"] + list(self.algorithms)
        return format_table(
            rows,
            headers=headers,
            float_fmt=".2f",
            title="Figure 5 — scalability on KDD Cup '99 workload [ms]",
        )


# ----------------------------------------------------------------------
# Group / cell executors (shared with the sweep orchestrator)
# ----------------------------------------------------------------------
def prepare_figure5_base(config: ExperimentConfig, base_size: int, rng_data):
    """The full KDD-shaped dataset of ``base_size`` objects.

    Figure 5 runs on two master streams, ``spawn_rngs(config.seed, 2)``:
    ``rng_data`` is consumed here and further by each fraction's
    stratified subset draw, ``rng_runs`` by each cell — both statefully,
    so the sweep replays this sequence in full whenever any Figure 5
    cell is pending.
    """
    if base_size < 1:
        raise InvalidParameterError(f"base_size must be >= 1, got {base_size}")
    scale = min(1.0, base_size / 4_000_000)
    points, labels = make_benchmark("kddcup99", scale=scale, seed=rng_data)
    generator = UncertaintyGenerator(
        family="normal", spread=config.spread, mass=config.mass
    )
    return generator.uncertain_dataset(points, labels, seed=rng_data)


def prepare_figure5_fraction(full, frac: float, rng_data):
    """One fraction's stratified subset (consumes ``rng_data``)."""
    return full.sample_fraction(frac, seed=rng_data, stratified=True)


def run_figure5_cell(
    alg_name: str, subset, k: int, rng_runs, config: ExperimentConfig
) -> float:
    """Mean on-line runtime (ms) of one (fraction, algorithm) cell."""
    algorithm = build_algorithm(
        alg_name, n_clusters=k, n_samples=config.n_samples
    )
    # n_runs + 1 streams: the last seeds the shared tensor (when
    # applicable), keeping rng_runs consumption independent of the
    # algorithm type.
    streams = spawn_rngs(rng_runs, config.n_runs + 1)
    results = fit_runs(
        algorithm,
        subset,
        streams[:-1],
        sample_seed=streams[-1],
        backend=config.backend,
        n_jobs=config.n_jobs,
        batch_size=config.batch_size,
    )
    times = np.array([result.runtime_seconds for result in results])
    return float(times.mean() * 1e3)


def skip_figure5_cell(rng_runs, config: ExperimentConfig) -> None:
    """Replay one cell's ``rng_runs`` consumption without running fits."""
    spawn_rngs(rng_runs, config.n_runs + 1)


def run_figure5(
    config: Optional[ExperimentConfig] = None,
    fractions: Sequence[float] = FIGURE5_FRACTIONS,
    algorithms: Sequence[str] = SCALABILITY_ROSTER,
    base_size: int = 20000,
) -> Figure5Report:
    """Regenerate Figure 5 at a configurable base size.

    Parameters
    ----------
    base_size:
        Object count of the 100% fraction (paper: 4,000,000; default
        20,000 keeps the sweep under a minute — linearity and algorithm
        ordering are visible at any scale).
    """
    config = config or ExperimentConfig(n_runs=3)
    report = Figure5Report(
        fractions=tuple(fractions), algorithms=tuple(algorithms)
    )
    rng_data, rng_runs = spawn_rngs(config.seed, 2)
    full = prepare_figure5_base(config, base_size, rng_data)

    for frac in fractions:
        subset = prepare_figure5_fraction(full, frac, rng_data)
        report.sizes[frac] = len(subset)
        k = min(FIGURE5_K, len(subset) - 1)
        for alg_name in algorithms:
            report.runtimes_ms[(frac, alg_name)] = run_figure5_cell(
                alg_name, subset, k, rng_runs, config
            )
    return report
