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

Re-record (only after a deliberate, reviewed change of results) with::

    PYTHONPATH=src python tests/test_relocation_golden.py
"""

from __future__ import annotations

import hashlib
import json
import warnings
from pathlib import Path

import pytest

from repro.clustering import MMVar, UCPC
from repro.datagen import UncertaintyGenerator
from repro.datagen.benchmarks import make_classification_like
from repro.exceptions import ConvergenceWarning

FIXTURE = Path(__file__).with_name("relocation_golden.json")
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


def _record(algorithm, data, seed) -> dict:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        result = algorithm.fit(data, seed=seed)
    return {
        "history": [float(v).hex() for v in result.objective_history],
        "labels": hashlib.sha256(
            result.labels.astype("<i8").tobytes()
        ).hexdigest()[:16],
        "n_iterations": int(result.n_iterations),
        "converged": bool(result.converged),
    }


def _snapshot() -> dict:
    return {case: _record(a, d, s) for case, a, d, s in _cases()}


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


if __name__ == "__main__":
    FIXTURE.write_text(
        json.dumps(_snapshot(), sort_keys=True, separators=(",", ":")) + "\n"
    )
    print(f"wrote {FIXTURE}")
