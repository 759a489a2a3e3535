"""Tests for the million-object scale path.

Three families of claims are pinned here:

* :class:`BoundedUKMeans` (Elkan/Hamerly bounds) is **lossless**: it
  must reproduce :class:`BasicUKMeans` assignments exactly, seed for
  seed, including through empty-cluster repairs, while provably
  skipping a large fraction of ED evaluations (counter-asserted).
* :class:`MiniBatchUKMeans` is **lossy** but must recover well-separated
  structure and land near the full UK-means objective.
* The capped density paths: radius-prefiltered FDBSCAN is exact (same
  labels as the dense path), FOPTICS with ``knn_cap = n - 1`` is
  bitwise the dense ordering, and smaller caps degrade gracefully.

Also covers the once-per-fit convergence-warning semantics and the
engine's parent-side non-convergence aggregate.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.clustering import (
    FDBSCAN,
    FOPTICS,
    UCPC,
    BasicUKMeans,
    BoundedUKMeans,
    MiniBatchUKMeans,
    MMVar,
    UCPCLloyd,
    UKMeans,
    UKMedoids,
    VarianceOnlyClustering,
)
from repro.clustering._density import (
    eps_candidate_pairs,
    expected_distance_matrix,
    gathered_pair_expected_distances,
    gathered_pair_probabilities,
    knn_candidate_indices,
    sample_radii,
    scattered_row_sums,
    symmetric_adjacency,
)
from repro.datagen import make_blobs_uncertain
from repro.evaluation import f_measure
from repro.exceptions import ConvergenceWarning, InvalidParameterError
from repro.objects import UncertainDataset, UncertainObject

BOUNDS = ["elkan", "hamerly"]


@pytest.fixture(scope="module")
def overlap_data():
    """Moderately overlapping blobs: enough iterations for bounds to pay."""
    return make_blobs_uncertain(
        n_objects=80, n_clusters=4, separation=2.0, seed=23
    )


@pytest.fixture(scope="module")
def separated_data():
    return make_blobs_uncertain(
        n_objects=150, n_clusters=3, separation=7.0, seed=11
    )


class TestBoundedLossless:
    """Bounds-accelerated UK-means must match BasicUKMeans *exactly*.

    The pruning tests are strict-inequality-only on exact plane
    distances and every compared ED uses the literal Basic kernel, so
    the argmin — including tie resolution — is bitwise reproducible.
    """

    @pytest.mark.parametrize("bounds", BOUNDS)
    def test_exact_assignment_match_across_seeds(self, overlap_data, bounds):
        for seed in range(20):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ConvergenceWarning)
                basic = BasicUKMeans(n_clusters=4, n_samples=24).fit(
                    overlap_data, seed=seed
                )
                fast = BoundedUKMeans(
                    n_clusters=4, n_samples=24, bounds=bounds
                ).fit(overlap_data, seed=seed)
            np.testing.assert_array_equal(
                basic.labels,
                fast.labels,
                err_msg=f"bounds={bounds} diverged from bUKM at seed {seed}",
            )
            assert fast.objective == pytest.approx(basic.objective)

    @pytest.mark.parametrize("bounds", BOUNDS)
    def test_skip_counters_account_for_all_rows(self, overlap_data, bounds):
        result = BoundedUKMeans(
            n_clusters=4, n_samples=24, bounds=bounds
        ).fit(overlap_data, seed=0)
        extras = result.extras
        n, k = len(overlap_data), 4
        total = result.n_iterations * n * k
        assert extras["ed_evaluations"] + extras["ed_skipped"] == total
        assert extras["skip_rate"] == pytest.approx(
            extras["ed_skipped"] / total
        )
        # The whole point of the variant: most ED evaluations skipped.
        assert extras["skip_rate"] >= 0.5, extras
        assert 0 < extras["rows_skipped"]
        assert extras["bounds"] == bounds

    @pytest.mark.parametrize("bounds", BOUNDS)
    def test_repair_regression_bounds_stay_valid(self, bounds):
        """Empty-cluster reseeds must invalidate stale bounds.

        Tight groups of near-duplicate objects with k close to n force
        repeated empty-cluster repairs; a repair moves an object whose
        upper bound may have justified skipping its row the same
        iteration.  If the repaired object's bounds were left stale the
        next assignment would diverge from BasicUKMeans.
        """
        rng = np.random.default_rng(5)
        base = rng.normal(0.0, 0.05, size=(12, 2))
        points = np.vstack([base, base[:3]])
        objects = [
            UncertainObject.uniform_box(p, [0.01, 0.01], label=0)
            for p in points
        ]
        data = UncertainDataset(objects)
        k = len(data) - 1
        for seed in range(6):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ConvergenceWarning)
                basic = BasicUKMeans(
                    n_clusters=k, n_samples=8, max_iter=30
                ).fit(data, seed=seed)
                fast = BoundedUKMeans(
                    n_clusters=k, n_samples=8, max_iter=30, bounds=bounds
                ).fit(data, seed=seed)
            np.testing.assert_array_equal(
                basic.labels,
                fast.labels,
                err_msg=f"bounds={bounds} diverged through repairs "
                f"at seed {seed}",
            )

    def test_full_cap_names(self):
        assert BoundedUKMeans(3).name == "bUKM-EH"
        assert BoundedUKMeans(3, bounds="hamerly").name == "bUKM-H"

    def test_does_not_want_pairwise_ed(self):
        # The engine must never hand the bounded variant the O(n^2)
        # shared ED plane — that would defeat the whole scale path.
        assert BoundedUKMeans(3).wants_pairwise_ed is False

    def test_parameter_validation(self):
        with pytest.raises(InvalidParameterError):
            BoundedUKMeans(3, bounds="lloyd")
        # n_clusters is validated at fit time, matching BasicUKMeans.
        data = make_blobs_uncertain(n_objects=10, n_clusters=2, seed=0)
        with pytest.raises(InvalidParameterError):
            BoundedUKMeans(0).fit(data)
        with pytest.raises(InvalidParameterError):
            BoundedUKMeans(3, n_samples=0)
        with pytest.raises(InvalidParameterError):
            BoundedUKMeans(3, max_iter=0)


class TestMiniBatchUKMeans:
    def test_recovers_separated_blobs(self, separated_data):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConvergenceWarning)
            result = MiniBatchUKMeans(n_clusters=3, batch_size=64).fit(
                separated_data, seed=0
            )
        assert f_measure(result.labels, separated_data.labels) > 0.9
        assert len(np.unique(result.labels)) == 3

    def test_objective_near_full_ukmeans(self, separated_data):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConvergenceWarning)
            mini = MiniBatchUKMeans(n_clusters=3, batch_size=64).fit(
                separated_data, seed=0
            )
            full = UKMeans(n_clusters=3).fit(separated_data, seed=0)
        # Lossy by design, but on well-separated blobs both land in the
        # same basin; document the accuracy envelope.
        assert mini.objective <= 1.25 * full.objective

    def test_extras(self, separated_data):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConvergenceWarning)
            result = MiniBatchUKMeans(
                n_clusters=3, batch_size=32, over_cluster=4
            ).fit(separated_data, seed=1)
        extras = result.extras
        assert extras["batch_size"] == 32
        assert extras["k_over"] == 12
        assert extras["objects_seen"] > 0
        assert extras["n_merges"] >= 0

    def test_parameter_validation(self):
        data = make_blobs_uncertain(n_objects=10, n_clusters=2, seed=0)
        with pytest.raises(InvalidParameterError):
            MiniBatchUKMeans(0).fit(data)
        with pytest.raises(InvalidParameterError):
            MiniBatchUKMeans(3, batch_size=0)
        with pytest.raises(InvalidParameterError):
            MiniBatchUKMeans(3, over_cluster=0)
        with pytest.raises(InvalidParameterError):
            MiniBatchUKMeans(3, tol=-1.0)
        with pytest.raises(InvalidParameterError):
            MiniBatchUKMeans(3, max_iter=0)


class TestPrefilteredFDBSCAN:
    """The radius prefilter must be *exact*: identical labels to dense.

    Any pair pruned by the triangle-inequality test has matching
    probability exactly zero, and the surviving pairs run through
    kernels that reduce in the same order as the dense path.
    """

    def test_matches_dense_across_seeds(self):
        for seed in range(8):
            data = make_blobs_uncertain(
                n_objects=70, n_clusters=3, separation=4.0, seed=seed
            )
            dense = FDBSCAN(n_samples=24).fit(data, seed=seed)
            fast = FDBSCAN(n_samples=24, prefilter=True).fit(data, seed=seed)
            np.testing.assert_array_equal(
                dense.labels,
                fast.labels,
                err_msg=f"prefiltered FDBSCAN diverged at seed {seed}",
            )
            assert fast.extras["n_core"] == dense.extras["n_core"]
            assert fast.extras["n_noise"] == dense.extras["n_noise"]

    def test_prefilter_actually_prunes(self):
        data = make_blobs_uncertain(
            n_objects=80, n_clusters=4, separation=6.0, seed=2
        )
        result = FDBSCAN(n_samples=16, prefilter=True).fit(data, seed=2)
        n = len(data)
        assert result.extras["n_candidate_pairs"] < n * (n - 1) // 2
        assert result.extras["pair_prune_rate"] > 0.0


class TestCappedFOPTICS:
    def test_full_cap_is_bitwise_dense(self):
        for seed in range(4):
            data = make_blobs_uncertain(
                n_objects=60, n_clusters=3, separation=4.0, seed=seed
            )
            n = len(data)
            dense = FOPTICS(n_samples=16, n_clusters=3).fit(data, seed=seed)
            capped = FOPTICS(
                n_samples=16, n_clusters=3, knn_cap=n - 1
            ).fit(data, seed=seed)
            assert capped.extras["ordering"] == dense.extras["ordering"]
            assert capped.extras["reachability"] == dense.extras["reachability"]
            np.testing.assert_array_equal(dense.labels, capped.labels)

    def test_small_cap_is_sane(self):
        data = make_blobs_uncertain(
            n_objects=80, n_clusters=3, separation=6.0, seed=7
        )
        result = FOPTICS(n_samples=16, n_clusters=3, knn_cap=10).fit(
            data, seed=7
        )
        assert result.labels.shape == (80,)
        assert result.extras["knn_cap"] == 10
        # Union-symmetrized 10-NN graph: far fewer than dense pairs.
        assert result.extras["n_graph_edges"] < 80 * 79 // 2
        # Lossy cap still recovers the well-separated structure.
        assert f_measure(result.labels, data.labels) > 0.9

    def test_cap_validation(self):
        with pytest.raises(InvalidParameterError):
            FOPTICS(min_pts=4, knn_cap=3)
        with pytest.raises(InvalidParameterError):
            FOPTICS(knn_cap=0)


class TestDensityHelpers:
    @pytest.fixture(scope="class")
    def samples(self):
        rng = np.random.default_rng(0)
        return rng.normal(size=(40, 12, 3))

    def test_prefilter_never_prunes_nonzero_pairs(self, samples):
        n = samples.shape[0]
        means = samples.mean(axis=1)
        radii = sample_radii(samples)
        eps = 1.0
        ii, jj = eps_candidate_pairs(means, radii, eps)
        kept = set(zip(ii.tolist(), jj.tolist()))
        tri = np.triu_indices(n, k=1)
        all_probs = gathered_pair_probabilities(samples, eps, tri[0], tri[1])
        for a, b, p in zip(tri[0], tri[1], all_probs):
            if (int(a), int(b)) not in kept:
                assert p == 0.0, f"pruned pair ({a},{b}) has p={p}"

    def test_gathered_eds_match_dense_bitwise(self, samples):
        dense = expected_distance_matrix(samples)
        n = samples.shape[0]
        tri = np.triu_indices(n, k=1)
        gathered = gathered_pair_expected_distances(samples, tri[0], tri[1])
        assert np.array_equal(gathered, dense[tri])

    def test_scattered_row_sums_match_dense_bitwise(self, samples):
        n = samples.shape[0]
        tri = np.triu_indices(n, k=1)
        probs = gathered_pair_probabilities(samples, 1.5, tri[0], tri[1])
        dense = np.zeros((n, n))
        dense[tri] = probs
        dense = dense + dense.T
        np.fill_diagonal(dense, 1.0)
        expected = dense.sum(axis=1)
        # Exercise the blocked path too: tiny blocks must still match.
        for block in (None, 7):
            got = scattered_row_sums(n, tri[0], tri[1], probs, block=block)
            assert np.array_equal(got, expected)

    def test_knn_candidate_indices(self, samples):
        means = samples.mean(axis=1)
        n = means.shape[0]
        idx = knn_candidate_indices(means, 5)
        assert idx.shape == (n, 5)
        # No self-neighbors, and each row holds the 5 plane-nearest.
        d = np.linalg.norm(means[:, None] - means[None, :], axis=2)
        np.fill_diagonal(d, np.inf)
        for i in range(n):
            assert i not in idx[i]
            expected = set(np.argsort(d[i])[:5].tolist())
            assert set(idx[i].tolist()) == expected
        with pytest.raises(InvalidParameterError):
            knn_candidate_indices(means, 0)
        with pytest.raises(InvalidParameterError):
            knn_candidate_indices(means, n)

    def test_symmetric_adjacency_sorted_rows(self):
        ii = np.array([0, 2, 1], dtype=np.int64)
        jj = np.array([3, 4, 2], dtype=np.int64)
        offsets, neighbors = symmetric_adjacency(5, ii, jj)
        rows = [
            neighbors[offsets[i]: offsets[i + 1]].tolist() for i in range(5)
        ]
        assert rows == [[3], [2], [1, 4], [0], [2]]


#: One iteration is too few for any of these to converge on overlap_data.
ONE_SWEEP = {
    "BasicUKMeans": lambda: BasicUKMeans(n_clusters=4, n_samples=8, max_iter=1),
    "UCPC": lambda: UCPC(n_clusters=4, max_iter=1),
    "MMVar": lambda: MMVar(n_clusters=4, max_iter=1),
    "UKMedoids": lambda: UKMedoids(n_clusters=4, max_iter=1),
    "VarianceOnly": lambda: VarianceOnlyClustering(n_clusters=4, max_iter=1),
    "UCPCLloyd": lambda: UCPCLloyd(n_clusters=4, max_iter=1),
}


class TestConvergenceWarningSemantics:
    """warn_convergence fires once per *fit*, not once per process."""

    def _unconverging_fit(self, data):
        BasicUKMeans(n_clusters=4, n_samples=8, max_iter=1).fit(data, seed=0)

    @pytest.mark.parametrize("name", sorted(ONE_SWEEP))
    def test_warns_on_every_fit(self, overlap_data, name):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            for _ in range(2):
                assert not ONE_SWEEP[name]().fit(overlap_data, seed=0).converged
        messages = [
            w for w in caught if issubclass(w.category, ConvergenceWarning)
        ]
        # The stdlib "default" filter dedups by (message, module, lineno)
        # registry; warn_convergence resets the registry so the second
        # fit is not silently swallowed.
        assert len(messages) == 2

    def test_filters_still_apply(self, overlap_data):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("ignore", ConvergenceWarning)
            self._unconverging_fit(overlap_data)
        assert not caught

    def test_runner_aggregates_unconverged(self, overlap_data):
        algorithm = BasicUKMeans(n_clusters=4, n_samples=8, max_iter=1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = algorithm.fit_best(
                overlap_data, seed=0, n_init=3, backend="serial"
            )
        assert result.extras["n_unconverged"] == 3
        aggregates = [
            w
            for w in caught
            if issubclass(w.category, ConvergenceWarning)
            and "restarts" in str(w.message)
        ]
        assert len(aggregates) == 1
        assert "3 of 3" in str(aggregates[0].message)

    def test_runner_quiet_when_converged(self, separated_data):
        algorithm = BasicUKMeans(n_clusters=3, n_samples=8, max_iter=100)
        result = algorithm.fit_best(
            separated_data, seed=0, n_init=2, backend="serial"
        )
        assert result.extras["n_unconverged"] == 0
