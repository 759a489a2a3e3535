"""The relocation kernel's non-mover screen, counters and finite contract.

Bit-identity of screened fits is pinned by the golden fixtures
(``tests/test_relocation_golden.py``); these tests show that the screen
really skips objects and really falls back to the literal step, that
the per-sweep counters do not depend on it, and that overflow-scale
input raises instead of returning a NaN objective.
"""

from __future__ import annotations

import dataclasses
import warnings

import numpy as np
import pytest

import repro.clustering._relocation as relocation
from repro.clustering import MMVar, UCPC
from repro.clustering._relocation import (
    MMVAR_OBJECTIVE,
    UCPC_OBJECTIVE,
    relocate,
)
from repro.datagen import UncertaintyGenerator
from repro.datagen.benchmarks import make_benchmark
from repro.exceptions import ConvergenceWarning, NumericalError
from repro.objects import UncertainDataset

OBJECTIVES = {"UCPC": UCPC_OBJECTIVE, "MMVar": MMVAR_OBJECTIVE}


@pytest.fixture(scope="module")
def kdd():
    points, labels = make_benchmark("kddcup99", scale=400 / 4_000_000, seed=2)
    generator = UncertaintyGenerator("normal")
    return generator.uncertain_dataset(points, labels, seed=2)


def _screen(monkeypatch, on: bool) -> None:
    """Force the screen onto every sweep after the first, or off."""
    monkeypatch.setattr(relocation, "SCREEN_MAX_MOVER_FRACTION", 1.0)
    monkeypatch.setattr(relocation, "SCREEN_MIN_OBJECTS", 1 if on else 10**9)
    monkeypatch.setattr(relocation, "SCREEN_BLOCK_ROWS", 7)


def _run(data, objective, seed, k=23, max_iter=100):
    rng = np.random.default_rng(seed)
    assignment = rng.integers(0, k, len(data))
    assignment[:k] = np.arange(k)
    return relocate(data, assignment, k, rng, objective, max_iter, 1e-12)


@pytest.fixture(scope="module")
def ties():
    """The integers -10..10 on a line: some relocation deltas are exactly
    zero, i.e. on the threshold when ``min_improvement=0``."""
    line = np.arange(-10, 11, dtype=float)[:, None]
    return UncertainDataset.from_points(line)


@pytest.mark.parametrize("name", sorted(OBJECTIVES))
def test_screen_skips_and_falls_back(monkeypatch, ties, name):
    """With the screen forced on, certified objects are skipped and the
    others run the literal step: the movers, and also non-movers whose
    deltas tie with the threshold.  A spy on the objective counts literal
    steps, the only callers of ``cluster_j`` on Python floats."""
    literal_steps = []
    objective = OBJECTIVES[name]

    def spy(psi, phi, ups, n):
        if isinstance(psi, float):
            literal_steps.append(1)
        return objective.cluster_j(psi, phi, ups, n)

    def run(max_iter):
        rng = np.random.default_rng(0)
        assignment = rng.integers(0, 7, len(ties))
        assignment[:7] = np.arange(7)
        spied = dataclasses.replace(objective, cluster_j=spy)
        return relocate(ties, assignment, 7, rng, spied, max_iter, 0.0)

    _screen(monkeypatch, on=True)
    run(max_iter=1)
    first_sweep = len(literal_steps)  # sweep 1 is never screened
    literal_steps.clear()
    screened = run(max_iter=100)
    fallbacks = len(literal_steps) - first_sweep
    later_moves = sum(screened.moves_per_sweep[1:])
    assert screened.sweeps > 1
    assert screened.skipped > 0
    assert fallbacks > later_moves  # some non-movers fell back too

    _screen(monkeypatch, on=False)
    plain = run(max_iter=100)
    assert screened.labels.tolist() == plain.labels.tolist()
    assert [v.hex() for v in screened.history] == [
        v.hex() for v in plain.history
    ]


@pytest.mark.parametrize("name", sorted(OBJECTIVES))
def test_counters_do_not_depend_on_the_screen(monkeypatch, kdd, name):
    _screen(monkeypatch, on=True)
    screened = _run(kdd, OBJECTIVES[name], 1)
    _screen(monkeypatch, on=False)
    plain = _run(kdd, OBJECTIVES[name], 1)
    assert screened.moves_per_sweep == plain.moves_per_sweep
    assert len(plain.moves_per_sweep) == plain.sweeps
    assert plain.moves_per_sweep[-1] == 0 and plain.converged
    assert screened.skipped > 0
    assert plain.skipped == 0


@pytest.mark.parametrize("algorithm", [UCPC, MMVar])
def test_fit_extras_carry_the_counters(kdd, algorithm):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        result = algorithm(23).fit(kdd, seed=4)
    moves = result.extras["moves_per_sweep"]
    assert len(moves) == result.n_iterations
    assert all(isinstance(m, int) and m >= 0 for m in moves)
    assert isinstance(result.extras["relocation_skipped"], int)
    assert result.extras["relocation_skipped"] >= 0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("algorithm", [UCPC, MMVar])
def test_overflow_scale_input_raises(algorithm):
    """Points of order 1e154 overflow the cluster statistics; the fit
    raises instead of returning a NaN objective after one sweep."""
    points = np.random.default_rng(0).normal(size=(30, 3)) * 1e154
    data = UncertainDataset.from_points(points)
    with pytest.raises(NumericalError, match="not finite"):
        algorithm(3).fit(data, seed=0)


@pytest.mark.parametrize("algorithm", [UCPC, MMVar])
def test_large_but_finite_scale_still_fits(algorithm):
    """Well inside the range the fit is finite; the screen's overflow
    guard only decides whether objects are skipped, never the result."""
    points = np.random.default_rng(0).normal(size=(90, 3)) * 1e100
    data = UncertainDataset.from_points(points)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        result = algorithm(3).fit(data, seed=0)
    assert np.isfinite(result.objective)
    assert len(np.unique(result.labels)) == 3
