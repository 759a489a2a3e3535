"""Columnar product-family datasets (:mod:`repro.uncertainty.columns`).

A columnar dataset must be indistinguishable from the same dataset built
object by object — moments, supports, sampling plan and subsets equal
bit for bit — while building no objects until something indexes it.
"""

from __future__ import annotations

import json
import pickle

import numpy as np
import pytest

from repro.clustering import MMVar, MinMaxBB, UKMeans
from repro.datagen import UncertaintyGenerator
from repro.engine import fit_runs
from repro.exceptions import EmptyDatasetError, InvalidParameterError
from repro.objects import UncertainDataset, UncertainObject
from repro.uncertainty import (
    IndependentProduct,
    MultivariatePointMass,
    TruncatedExponentialDistribution,
    TruncatedNormalDistribution,
    UniformDistribution,
)
from repro.uncertainty.columns import (
    PointColumns,
    ProductColumns,
    TruncatedExponentialColumns,
    TruncatedNormalColumns,
    UniformColumns,
)
from tests import test_generator_golden as golden_module


def _random_columns(family: str, rng, n: int = 30, m: int = 4) -> ProductColumns:
    loc = rng.normal(0.0, 50.0, size=(n, m))
    scale = rng.uniform(0.01, 5.0, size=(n, m))
    if family == "uniform":
        return UniformColumns.build(loc - scale, loc + scale)
    if family == "normal":
        # Two-sided, one-sided and untruncated cells side by side.
        lower = np.where(rng.random((n, m)) < 0.3, -np.inf, loc - scale)
        upper = np.where(rng.random((n, m)) < 0.3, np.inf, loc + 2 * scale)
        return TruncatedNormalColumns.build(loc, scale, lower, upper)
    if family == "exponential":
        cutoff = np.where(rng.random((n, m)) < 0.3, np.inf, scale * 3.0)
        direction = np.where(rng.random((n, m)) < 0.5, 1.0, -1.0)
        return TruncatedExponentialColumns.build(loc, 1.0 / scale, cutoff, direction)
    return PointColumns.build(loc)


def _objects_of(columns: ProductColumns, labels) -> UncertainDataset:
    """The reference: the same dataset through the object path."""
    return UncertainDataset([
        UncertainObject(columns.materialize(i), label=int(labels[i]))
        for i in range(columns.shape[0])
    ])


def _assert_same(a: UncertainDataset, b: UncertainDataset) -> None:
    for name in ("mu_matrix", "mu2_matrix", "sigma2_matrix", "total_variances",
                 "support_lower", "support_upper", "labels"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert np.array_equal(a.sample_tensor(6, 3), b.sample_tensor(6, 3))


FAMILIES = ("uniform", "normal", "exponential", "point")


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("seed", range(5))
class TestEquivalence:
    def test_columnar_equals_object_path(self, family, seed):
        rng = np.random.default_rng(seed)
        columns = _random_columns(family, rng)
        labels = rng.integers(0, 3, size=columns.shape[0])
        _assert_same(
            UncertainDataset._from_columns(columns, labels),
            _objects_of(columns, labels),
        )

    def test_subsets_stay_columnar_and_equal(self, family, seed):
        rng = np.random.default_rng(seed)
        columns = _random_columns(family, rng)
        labels = rng.integers(0, 3, size=columns.shape[0])
        data = UncertainDataset._from_columns(columns, labels)
        reference = _objects_of(columns, labels)
        rows = [5, 0, -1, 7, 5]
        for part, expected in (
            (data.subset(rows), reference.subset(rows)),
            (data[3:17:2], reference[3:17:2]),
            (data.sample_fraction(0.4, seed=seed),
             reference.sample_fraction(0.4, seed=seed)),
        ):
            assert part._columns is not None
            _assert_same(part, expected)

    def test_pickled_columns_rebuild_the_dataset(self, family, seed):
        rng = np.random.default_rng(seed)
        data = UncertainDataset._from_columns(_random_columns(family, rng))
        source, labels = pickle.loads(pickle.dumps(data._moment_free_state()))
        assert isinstance(source, ProductColumns)
        rebuilt = UncertainDataset._from_shared_moments(
            source, labels, data.mu_matrix, data.mu2_matrix, data.sigma2_matrix
        )
        assert rebuilt._objects == [None] * len(data)
        _assert_same(rebuilt, data)


class TestDatasetProtocol:
    def test_objects_materialize_once_and_lazily(self):
        rng = np.random.default_rng(0)
        data = UncertainDataset._from_columns(_random_columns("normal", rng))
        first = data[-1]
        assert data[len(data) - 1] is first
        assert data._objects.count(None) == len(data) - 1
        assert list(data) == list(data.objects)
        assert data.objects[-1] is first
        with pytest.raises(IndexError):
            data[len(data)]

    def test_from_points_is_columnar_and_draws_nothing(self):
        points = np.arange(12.0).reshape(4, 3)
        data = UncertainDataset.from_points(points, [0, 1, 1, 0])
        assert isinstance(data._columns, PointColumns)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        tensor = data.sample_tensor(5, rng)
        assert rng.bit_generator.state == state
        assert np.array_equal(tensor, np.repeat(points[:, None, :], 5, axis=1))
        assert isinstance(data[2].distribution, MultivariatePointMass)
        with pytest.raises(InvalidParameterError, match="finite"):
            UncertainDataset.from_points(np.array([[0.0, np.nan]]))
        with pytest.raises(InvalidParameterError, match="integral"):
            UncertainDataset.from_points(points, [0, 0.5, 1, 1])
        with pytest.raises(EmptyDatasetError):
            UncertainDataset.from_points(np.empty((0, 3)))


# Each row: a columnar `build` call, then the scalar constructor given the
# same (first offending) cell — both must raise the same message.
INVALID = [
    (lambda: UniformColumns.build([[0.0, np.inf]], [[1.0, 1.0]]),
     lambda: UniformDistribution(np.inf, 1.0)),
    (lambda: UniformColumns.build([[0.0, 2.0]], [[1.0, 1.0]]),
     lambda: UniformDistribution(2.0, 1.0)),
    (lambda: TruncatedNormalColumns.build([[np.nan]], [[1.0]]),
     lambda: TruncatedNormalDistribution(np.nan, 1.0)),
    (lambda: TruncatedNormalColumns.build([[0.0, 0.0]], [[1.0, -2.0]]),
     lambda: TruncatedNormalDistribution(0.0, -2.0)),
    (lambda: TruncatedNormalColumns.build([[0.0]], [[1.0]], [[1.0]], [[1.0]]),
     lambda: TruncatedNormalDistribution(0.0, 1.0, 1.0, 1.0)),
    (lambda: TruncatedNormalColumns.build([[0.0]], [[1.0]], [[60.0]], [[61.0]]),
     lambda: TruncatedNormalDistribution(0.0, 1.0, 60.0, 61.0)),
    (lambda: TruncatedExponentialColumns.build([[np.inf]], [[1.0]]),
     lambda: TruncatedExponentialDistribution(np.inf, 1.0)),
    (lambda: TruncatedExponentialColumns.build([[0.0]], [[0.0]]),
     lambda: TruncatedExponentialDistribution(0.0, 0.0)),
    (lambda: TruncatedExponentialColumns.build([[0.0]], [[1.0]], [[-1.0]]),
     lambda: TruncatedExponentialDistribution(0.0, 1.0, -1.0)),
    (lambda: TruncatedExponentialColumns.build([[0.0]], [[1.0]], np.inf, [[2.0]]),
     lambda: TruncatedExponentialDistribution(0.0, 1.0, np.inf, 2.0)),
]


@pytest.mark.parametrize("columnar, scalar", INVALID, ids=[
    "uniform-infinite", "uniform-inverted", "normal-loc", "normal-scale",
    "normal-empty", "normal-zero-mass", "exponential-origin",
    "exponential-rate", "exponential-cutoff", "exponential-direction",
])
def test_validation_mirrors_scalar_constructors(columnar, scalar):
    with pytest.raises(InvalidParameterError) as expected:
        scalar()
    with pytest.raises(InvalidParameterError) as observed:
        columnar()
    assert str(observed.value) == str(expected.value)


def test_generated_pipeline_builds_no_objects(monkeypatch):
    """Laziness guard: a generated dataset runs sampling, the ÊD plane,
    moment- and sample-based fits and the engine without building a
    single distribution object; indexing still returns the objects the
    golden fixture recorded."""
    counts = {}
    for cls in (UncertainObject, IndependentProduct, MultivariatePointMass,
                TruncatedNormalDistribution):
        counts[cls.__name__] = 0

        def counting(self, *args, _cls=cls, _init=cls.__init__, **kwargs):
            counts[_cls.__name__] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)

    points, labels = golden_module._points(0, 200)
    pair = UncertaintyGenerator("normal", mass=0.95).generate(
        points, labels, seed=np.random.default_rng(0)
    )
    data = pair.uncertain
    part = data.sample_fraction(0.5, seed=1)
    data.sample_tensor(8, seed=2)
    part.sample_tensor(8, seed=2)
    data.pairwise_ed()
    UKMeans(3).fit(data, seed=0)
    UKMeans(3).fit(pair.perturbed, seed=0)
    MMVar(3).fit(part, seed=0)
    MinMaxBB(3, n_samples=8).fit(data, seed=0)
    fit_runs(UKMeans(3), part, [0, 1], backend="serial")
    assert counts == dict.fromkeys(counts, 0)

    golden = json.loads(golden_module.FIXTURE.read_text())["mc/normal/0.95/0"]
    describe = golden_module._describe
    assert golden_module._digest(
        describe(data[0]), describe(data[len(data) - 1])
    ) == golden["objects"]
    assert golden_module._digest(
        describe(pair.perturbed[0]), describe(pair.perturbed[len(data) - 1])
    ) == golden["perturbed_objects"]
    assert counts["UncertainObject"] == 4
