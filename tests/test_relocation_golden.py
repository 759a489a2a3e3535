"""Golden-fixture regression for the shared relocation kernel.

UCPC (every ``init`` mode) and MMVar run the same relocation sweep
(:mod:`repro.clustering._relocation`).  Any change to that sweep must
keep their fits *bit-identical*: ``relocation_golden.json`` holds, for
every case, the ``float.hex`` of each ``objective_history`` entry, a
SHA-256 digest of the labels, ``n_iterations`` and ``converged``.  The
test compares exactly — no tolerance.

Cases: 20 seeds × {uniform, normal, exponential} at n=60, k=4; an
adversarial k = n - 1 case where almost every cluster is a singleton
and the last-member guard decides most of the scan; and a
``max_iter=2`` cap that stops fits before convergence.

``relocation_screen_golden.json`` holds larger cases, sized so that the
kernel's non-mover screen engages at its default settings: KDD-shaped
data (n=500, m=42, k=23; UCPC random and kmeans++, MMVar; 3 seeds
each), and adversarial near ties with ``min_improvement=0`` —
duplicated objects on an integer lattice, and the integers -10..10 on
a line, where some relocation deltas are exactly zero (on the
threshold).

Re-record (only after a deliberate, reviewed change of results) with::

    PYTHONPATH=src python tests/test_relocation_golden.py
"""

from __future__ import annotations

import hashlib
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.clustering import MMVar, UCPC
from repro.datagen import UncertaintyGenerator
from repro.datagen.benchmarks import make_benchmark, make_classification_like
from repro.exceptions import ConvergenceWarning
from repro.objects import UncertainDataset, UncertainObject

FIXTURE = Path(__file__).with_name("relocation_golden.json")
SCREEN_FIXTURE = Path(__file__).with_name("relocation_screen_golden.json")
FAMILIES = ("uniform", "normal", "exponential")
SEEDS = range(20)
ALGORITHMS = {
    "UCPC-random": lambda k, **kw: UCPC(k, init="random", **kw),
    "UCPC-seeds": lambda k, **kw: UCPC(k, init="seeds", **kw),
    "UCPC-kmeans++": lambda k, **kw: UCPC(k, init="kmeans++", **kw),
    "MMV": lambda k, **kw: MMVar(k, **kw),
}


def _dataset(family: str, n: int):
    points, labels = make_classification_like(
        n_objects=n, n_attributes=3, n_classes=4, seed=101
    )
    return UncertaintyGenerator(family).uncertain_dataset(points, labels, seed=7)


def _cases():
    """Yield ``(case_id, algorithm, dataset, seed)`` for every golden fit."""
    for family in FAMILIES:
        data = _dataset(family, 60)
        for name, build in ALGORITHMS.items():
            for seed in SEEDS:
                yield f"{family}/{name}/{seed}", build(4), data, seed
    tight = _dataset("normal", 12)
    for name, build in ALGORITHMS.items():
        for seed in range(5):
            yield f"k=n-1/{name}/{seed}", build(11), tight, seed
    capped = _dataset("uniform", 120)
    for name, build in ALGORITHMS.items():
        for seed in range(5):
            yield f"max_iter=2/{name}/{seed}", build(6, max_iter=2), capped, seed


def _kdd_dataset(n: int, seed: int = 0):
    """KDD Cup '99-shaped data (m=42, 23 classes), the Figure 5 shape."""
    points, labels = make_benchmark("kddcup99", scale=n / 4_000_000, seed=seed)
    return UncertaintyGenerator("normal").uncertain_dataset(
        points, labels, seed=seed
    )


def _tie_datasets():
    """Duplicated objects on an integer lattice, and the integers -10..10
    on a line: exact moment sums, so many deltas are exactly equal across
    clusters or exactly zero (a tie with the threshold)."""
    lattice = np.array([(x, y) for x in range(5) for y in range(5)], float)
    points = np.repeat(lattice, 4, axis=0)
    boxes = UncertainDataset(
        [UncertainObject.uniform_box(p, [0.5, 0.5]) for p in points]
    )
    line = np.arange(-10, 11, dtype=float)[:, None]
    return {
        "points": UncertainDataset.from_points(points),
        "boxes": boxes,
        "line": UncertainDataset.from_points(line),
    }


SCREEN_ALGORITHMS = {
    "UCPC-random": ALGORITHMS["UCPC-random"],
    "UCPC-kmeans++": ALGORITHMS["UCPC-kmeans++"],
    "MMV": ALGORITHMS["MMV"],
}


def _screen_cases():
    """Yield the cases of ``relocation_screen_golden.json``."""
    kdd = _kdd_dataset(500)
    for name, build in SCREEN_ALGORITHMS.items():
        for seed in range(3):
            yield f"kdd500/{name}/{seed}", build(23), kdd, seed
    for label, data in _tie_datasets().items():
        for k in (4, 7):
            for name, build in SCREEN_ALGORITHMS.items():
                for seed in range(3):
                    yield (
                        f"ties-{label}/k={k}/{name}/{seed}",
                        build(k, min_improvement=0.0),
                        data,
                        seed,
                    )


def _fit(algorithm, data, seed):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        return algorithm.fit(data, seed=seed)


def _record(algorithm, data, seed) -> dict:
    return _summary(_fit(algorithm, data, seed))


def _summary(result) -> dict:
    return {
        "history": [float(v).hex() for v in result.objective_history],
        "labels": hashlib.sha256(
            result.labels.astype("<i8").tobytes()
        ).hexdigest()[:16],
        "n_iterations": int(result.n_iterations),
        "converged": bool(result.converged),
    }


def _snapshot(cases=_cases) -> dict:
    return {case: _record(a, d, s) for case, a, d, s in cases()}


def _dump(snapshot: dict) -> str:
    return json.dumps(snapshot, sort_keys=True, separators=(",", ":")) + "\n"


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case(golden):
    assert sorted(golden) == sorted(case for case, *_ in _cases())


@pytest.mark.parametrize("family", FAMILIES + ("k=n-1", "max_iter=2"))
def test_bit_identical_to_golden(golden, family):
    observed = {
        case: _record(a, d, s)
        for case, a, d, s in _cases()
        if case.startswith(family + "/")
    }
    assert observed
    mismatched = [case for case in observed if observed[case] != golden[case]]
    assert not mismatched, f"{len(mismatched)} fits drifted, e.g. {mismatched[:3]}"


@pytest.fixture(scope="module")
def screen_golden() -> dict:
    return json.loads(SCREEN_FIXTURE.read_text())


def test_screen_fixture_covers_every_case(screen_golden):
    assert sorted(screen_golden) == sorted(case for case, *_ in _screen_cases())


@pytest.mark.parametrize(
    "family", ("kdd500", "ties-points", "ties-boxes", "ties-line")
)
def test_screen_cases_bit_identical_to_golden(screen_golden, family):
    results = {
        case: _fit(a, d, s)
        for case, a, d, s in _screen_cases()
        if case.startswith(family + "/")
    }
    assert results
    mismatched = [
        c for c, result in results.items() if _summary(result) != screen_golden[c]
    ]
    assert not mismatched, f"{len(mismatched)} fits drifted, e.g. {mismatched[:3]}"
    # The screen engages at its default settings on these cases.
    assert sum(r.extras["relocation_skipped"] for r in results.values()) > 0


@pytest.fixture
def screen_forced(monkeypatch):
    """Screen every sweep after the first, in blocks of 7 objects."""
    import repro.clustering._relocation as relocation

    monkeypatch.setattr(relocation, "SCREEN_MAX_MOVER_FRACTION", 1.0)
    monkeypatch.setattr(relocation, "SCREEN_MIN_OBJECTS", 1)
    monkeypatch.setattr(relocation, "SCREEN_BLOCK_ROWS", 7)


@pytest.mark.parametrize("fixture_cases", ["relocation", "screen"])
def test_screen_forced_on_is_bit_identical(
    golden, screen_golden, screen_forced, fixture_cases
):
    cases, expected = (
        (_cases, golden) if fixture_cases == "relocation"
        else (_screen_cases, screen_golden)
    )
    skipped = 0
    mismatched = []
    for case, algorithm, data, seed in cases():
        result = _fit(algorithm, data, seed)
        skipped += result.extras["relocation_skipped"]
        if _summary(result) != expected[case]:
            mismatched.append(case)
    assert not mismatched, f"{len(mismatched)} fits drifted, e.g. {mismatched[:3]}"
    assert skipped > 0


if __name__ == "__main__":
    FIXTURE.write_text(_dump(_snapshot()))
    SCREEN_FIXTURE.write_text(_dump(_snapshot(_screen_cases)))
    print(f"wrote {FIXTURE} and {SCREEN_FIXTURE}")
