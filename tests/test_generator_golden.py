"""Golden-fixture regression for the uncertainty generators.

``UncertaintyGenerator.generate`` and ``make_microarray`` feed every
experiment, and the RNG state they leave behind feeds the sweep's cell
fingerprints.  Any rewrite of them must stay *bit-identical* and consume
the random stream draw for draw.  ``generator_golden.json`` holds, per
case, SHA-256 digest prefixes of:

* the moment matrices ``mu``/``mu2``/``sigma2`` of the uncertain dataset;
* its support bounds (the box regions, stacked);
* the moment matrices of the perturbed dataset (Case 1);
* ``sample_tensor(16, seed)`` of the uncertain dataset;
* the generator's ``bit_generator.state`` after the call;
* every constructor slot of the marginals of objects ``0`` and ``n-1``,
  with their labels, moments and regions.

The test compares exactly — no tolerance.

Cases: 3 families × mass {1.0, 0.95} × 20 seeds of Monte-Carlo
perturbation (n=200, m=7); MCMC perturbation at 3 seeds per family; and
``make_microarray`` at 2 seeds.

Re-record (only after a deliberate, reviewed change of results) with::

    PYTHONPATH=src python tests/test_generator_golden.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.datagen import UncertaintyGenerator, make_microarray
from repro.datagen.benchmarks import make_classification_like

FIXTURE = Path(__file__).with_name("generator_golden.json")
FAMILIES = ("uniform", "normal", "exponential")
MASSES = (1.0, 0.95)
SEEDS = range(20)
MCMC_SEEDS = range(3)
MICROARRAYS = ((0, "neuroblastoma"), (1, "leukaemia"))


def _digest(*parts) -> str:
    """SHA-256 prefix of arrays (raw little-endian bytes) or JSON values."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part, dtype="<f8").tobytes())
        else:
            h.update(json.dumps(part, sort_keys=True).encode())
    return h.hexdigest()[:16]


def _hex(values) -> list:
    return [float(v).hex() for v in np.ravel(values)]


def _describe(obj) -> list:
    """Every constructor slot of an object's marginals, plus its moments."""
    dist = obj.distribution
    parts = [type(dist).__name__, repr(obj.label)]
    for marginal in getattr(dist, "marginals", ()):
        parts.append(type(marginal).__name__)
        parts.extend(
            float(getattr(marginal, slot)).hex()
            for slot in type(marginal).__slots__
        )
    for values in (dist.mean_vector, obj.mu, obj.mu2, obj.sigma2,
                   obj.region.lower, obj.region.upper):
        parts.append(_hex(values))
    return parts


def _support(data) -> tuple:
    return data.support_lower, data.support_upper


def _moments(data) -> str:
    return _digest(data.mu_matrix, data.mu2_matrix, data.sigma2_matrix)


def _record_uncertain(data, rng, seed) -> dict:
    return {
        "moments": _moments(data),
        "support": _digest(*_support(data)),
        "samples": _digest(data.sample_tensor(16, seed)),
        "rng": _digest(rng.bit_generator.state),
        "objects": _digest(_describe(data[0]), _describe(data[len(data) - 1])),
        "labels": _digest(None if data.labels is None else data.labels.tolist()),
    }


def _points(seed: int, n: int):
    return make_classification_like(
        n_objects=n, n_attributes=7, n_classes=3, seed=1000 + seed
    )


def _generate_case(family, mass, seed, n=200, use_mcmc=False) -> dict:
    points, labels = _points(seed, n)
    rng = np.random.default_rng(seed)
    generator = UncertaintyGenerator(family, mass=mass, use_mcmc=use_mcmc)
    pair = generator.generate(points, labels, seed=rng)
    record = _record_uncertain(pair.uncertain, rng, seed)
    perturbed = pair.perturbed
    record["perturbed"] = _moments(perturbed)
    record["perturbed_support"] = _digest(*_support(perturbed))
    record["perturbed_objects"] = _digest(
        _describe(perturbed[0]), _describe(perturbed[n - 1])
    )
    return record


def _cases():
    """Yield ``(case_id, thunk)`` for every golden case."""
    for family in FAMILIES:
        for mass in MASSES:
            for seed in SEEDS:
                yield (f"mc/{family}/{mass}/{seed}",
                       lambda f=family, q=mass, s=seed: _generate_case(f, q, s))
        for seed in MCMC_SEEDS:
            yield (f"mcmc/{family}/{seed}",
                   lambda f=family, s=seed: _generate_case(
                       f, 0.95, s, n=30, use_mcmc=True))
    for seed, name in MICROARRAYS:
        def microarray(s=seed, name=name):
            rng = np.random.default_rng(s)
            data = make_microarray(name, scale=0.01, seed=rng)
            return _record_uncertain(data, rng, s)
        yield f"microarray/{name}/{seed}", microarray


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case(golden):
    assert sorted(golden) == sorted(case for case, _ in _cases())


@pytest.mark.parametrize("group", [f"mc/{f}" for f in FAMILIES] + ["mcmc", "microarray"])
def test_bit_identical_to_golden(golden, group):
    observed = {
        case: thunk() for case, thunk in _cases() if case.startswith(group + "/")
    }
    assert observed
    drifted = {
        case: sorted(k for k in record if record[k] != golden[case][k])
        for case, record in observed.items()
        if record != golden[case]
    }
    assert not drifted, f"{len(drifted)} cases drifted, e.g. {list(drifted.items())[:3]}"


if __name__ == "__main__":
    FIXTURE.write_text(
        json.dumps({case: thunk() for case, thunk in _cases()},
                   sort_keys=True, separators=(",", ":")) + "\n"
    )
    print(f"wrote {FIXTURE}")
