"""Golden-fixture regression for the pruned UK-means variants.

MinMax-BB and VDBiP (with and without cluster-shift) prune expected-
distance integrals with cheap geometric masks.  Any change to how a
mask is computed must keep the fits *bit-identical* — and not only the
assignments: ``ed_evaluations`` and ``ed_pruned`` count the surviving
and pruned (object, centroid) pairs of every iteration, so they pin the
masks themselves.  ``pruning_golden.json`` holds, for every case, a
SHA-256 digest of the labels, the ``float.hex`` of the objective,
``n_iterations`` and both counters.  The test compares exactly — no
tolerance.

Cases: {MinMax-BB, VDBiP} × cluster-shift {on, off} × {uniform, normal,
exponential} × 10 seeds at n=80, k=4; an adversarial k = n - 1 case;
and a Figure 5-shaped KDD subset (n=400, m=42, k=23, 3 seeds).

Re-record (only after a deliberate, reviewed change of results) with::

    PYTHONPATH=src python tests/test_pruning_golden.py
"""

from __future__ import annotations

import hashlib
import json
import warnings
from pathlib import Path

import pytest

from repro.clustering import MinMaxBB, VDBiP
from repro.datagen import UncertaintyGenerator
from repro.datagen.benchmarks import make_benchmark, make_classification_like
from repro.exceptions import ConvergenceWarning

FIXTURE = Path(__file__).with_name("pruning_golden.json")
FAMILIES = ("uniform", "normal", "exponential")
SEEDS = range(10)
ALGORITHMS = {
    f"{cls.name}-shift={shift}": (cls, shift)
    for cls in (MinMaxBB, VDBiP)
    for shift in (True, False)
}


def _dataset(family: str, n: int):
    points, labels = make_classification_like(
        n_objects=n, n_attributes=3, n_classes=4, seed=101
    )
    return UncertaintyGenerator(family).uncertain_dataset(points, labels, seed=7)


def _kdd_dataset():
    """Figure 5's KDD-shaped data at its 400-object base (m=42, k=23)."""
    points, labels = make_benchmark("kddcup99", scale=400 / 4_000_000, seed=5)
    return UncertaintyGenerator(family="normal", mass=0.95).uncertain_dataset(
        points, labels, seed=5
    )


def _cases():
    """Yield ``(case_id, algorithm, dataset, seed)`` for every golden fit."""
    for family in FAMILIES:
        data = _dataset(family, 80)
        for name, (cls, shift) in ALGORITHMS.items():
            for seed in SEEDS:
                yield f"{family}/{name}/{seed}", cls(4, cluster_shift=shift), data, seed
    tight = _dataset("normal", 12)
    for name, (cls, shift) in ALGORITHMS.items():
        for seed in range(5):
            yield f"k=n-1/{name}/{seed}", cls(11, cluster_shift=shift), tight, seed
    kdd = _kdd_dataset()
    for name, (cls, shift) in ALGORITHMS.items():
        for seed in range(3):
            algorithm = cls(23, n_samples=32, cluster_shift=shift)
            yield f"kdd/{name}/{seed}", algorithm, kdd, seed


def _record(algorithm, data, seed) -> dict:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        result = algorithm.fit(data, seed=seed)
    return {
        "labels": hashlib.sha256(
            result.labels.astype("<i8").tobytes()
        ).hexdigest()[:16],
        "objective": float(result.objective).hex(),
        "n_iterations": int(result.n_iterations),
        "ed_evaluations": int(result.extras["ed_evaluations"]),
        "ed_pruned": int(result.extras["ed_pruned"]),
    }


def _snapshot() -> dict:
    return {case: _record(a, d, s) for case, a, d, s in _cases()}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case(golden):
    assert sorted(golden) == sorted(case for case, *_ in _cases())


@pytest.mark.parametrize("family", FAMILIES + ("k=n-1", "kdd"))
def test_bit_identical_to_golden(golden, family):
    observed = {
        case: _record(a, d, s)
        for case, a, d, s in _cases()
        if case.startswith(family + "/")
    }
    assert observed
    mismatched = [case for case in observed if observed[case] != golden[case]]
    assert not mismatched, f"{len(mismatched)} fits drifted, e.g. {mismatched[:3]}"


if __name__ == "__main__":
    FIXTURE.write_text(
        json.dumps(_snapshot(), sort_keys=True, separators=(",", ":")) + "\n"
    )
    print(f"wrote {FIXTURE}")
