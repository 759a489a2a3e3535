"""Tests for MMVar and UK-medoids."""

from __future__ import annotations

import numpy as np
import pytest

from repro.clustering import MMVar, UKMedoids, j_mm
from repro.datagen import make_blobs_uncertain
from repro.evaluation import f_measure
from repro.exceptions import InvalidParameterError
from repro.objects.distance import pairwise_squared_expected_distances


@pytest.fixture(scope="module")
def data():
    return make_blobs_uncertain(
        n_objects=120, n_clusters=3, separation=7.0, seed=23
    )


class TestMMVar:
    def test_recovers_blobs(self, data):
        """Best of a few random restarts (local search can stall)."""
        best = max(
            f_measure(MMVar(n_clusters=3).fit(data, seed=s).labels, data.labels)
            for s in range(5)
        )
        assert best > 0.9

    def test_objective_matches_jmm_sum(self, data):
        result = MMVar(n_clusters=3).fit(data, seed=1)
        total = 0.0
        for c in range(3):
            members = [o for o, lab in zip(data, result.labels) if lab == c]
            total += j_mm(members)
        assert result.objective == pytest.approx(total, rel=1e-6)

    def test_objective_monotone(self, data):
        result = MMVar(n_clusters=4).fit(data, seed=2)
        history = result.objective_history
        for prev, curr in zip(history, history[1:]):
            assert curr <= prev + 1e-9 * max(1.0, abs(prev))

    def test_all_clusters_nonempty(self, data):
        result = MMVar(n_clusters=5).fit(data, seed=3)
        assert np.all(np.bincount(result.labels, minlength=5) > 0)

    def test_reproducible(self, data):
        a = MMVar(n_clusters=3).fit(data, seed=9)
        b = MMVar(n_clusters=3).fit(data, seed=9)
        assert np.array_equal(a.labels, b.labels)

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            MMVar(n_clusters=2, max_iter=0)
        with pytest.raises(InvalidParameterError):
            MMVar(n_clusters=2, min_improvement=-1.0)


class TestUKMedoids:
    def test_recovers_blobs(self, data):
        best = max(
            f_measure(
                UKMedoids(n_clusters=3).fit(data, seed=s).labels, data.labels
            )
            for s in range(5)
        )
        assert best > 0.85

    def test_medoids_are_cluster_members(self, data):
        result = UKMedoids(n_clusters=3).fit(data, seed=1)
        medoids = result.extras["medoids"]
        assert len(medoids) == 3
        for c, medoid in enumerate(medoids):
            assert result.labels[medoid] == c

    def test_objective_is_sum_of_medoid_distances(self, data):
        result = UKMedoids(n_clusters=3).fit(data, seed=2)
        distances = pairwise_squared_expected_distances(data)
        medoids = np.array(result.extras["medoids"])
        expected = float(
            distances[np.arange(len(data)), medoids[result.labels]].sum()
        )
        assert result.objective == pytest.approx(expected)

    def test_precomputed_matrix_reused(self, data):
        distances = pairwise_squared_expected_distances(data)
        result = UKMedoids(n_clusters=3, precomputed=distances).fit(data, seed=3)
        reference = UKMedoids(n_clusters=3).fit(data, seed=3)
        assert np.array_equal(result.labels, reference.labels)

    def test_precomputed_shape_checked(self, data):
        with pytest.raises(InvalidParameterError):
            UKMedoids(n_clusters=3, precomputed=np.zeros((2, 2))).fit(data, seed=0)

    def test_kmeanspp_init(self, data):
        best = max(
            f_measure(
                UKMedoids(n_clusters=3, init="kmeans++").fit(data, seed=s).labels,
                data.labels,
            )
            for s in range(5)
        )
        assert best > 0.85

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            UKMedoids(n_clusters=2, init="bogus")
        with pytest.raises(InvalidParameterError):
            UKMedoids(n_clusters=2, max_iter=0)

    def test_reproducible(self, data):
        a = UKMedoids(n_clusters=3).fit(data, seed=6)
        b = UKMedoids(n_clusters=3).fit(data, seed=6)
        assert np.array_equal(a.labels, b.labels)

    def test_empty_cluster_reseed_keeps_k_distinct_medoids(self, monkeypatch):
        """Regression: the empty-cluster reseed used to take a bare
        ``argmax(own_cost)``, which can pick an object that was just
        chosen as another cluster's new medoid — collapsing the
        clustering to k-1 distinct medoids.  This matrix forces exactly
        that trap: cluster 2 starts empty, and the worst-served object
        (4) simultaneously wins cluster 1's medoid update."""
        from repro.objects import UncertainDataset

        # Symmetric ÊD stand-in, objects 0..5: {0, 2, 3} near medoid 0
        # (objects 0 and 2 coincident), {1, 4, 5} near medoid 1, with
        # the far pair (4, 5) equidistant from it.
        d = np.zeros((6, 6))
        pairs = {
            (0, 1): 5.0, (0, 2): 0.0, (0, 3): 2.0, (0, 4): 12.0, (0, 5): 12.0,
            (1, 2): 5.0, (1, 3): 4.0, (1, 4): 10.0, (1, 5): 10.0,
            (2, 3): 2.0, (2, 4): 12.0, (2, 5): 12.0,
            (3, 4): 12.0, (3, 5): 12.0,
            (4, 5): 0.1,
        }
        for (i, j), value in pairs.items():
            d[i, j] = d[j, i] = value
        monkeypatch.setattr(
            "repro.clustering.ukmedoids.random_seed_indices",
            lambda n, k, rng: np.array([0, 1, 2]),
        )
        dataset = UncertainDataset.from_points(np.zeros((6, 1)))
        result = UKMedoids(n_clusters=3, precomputed=d).fit(dataset, seed=0)
        medoids = result.extras["medoids"]
        assert result.extras["reseeded"] >= 1
        assert len(set(medoids)) == 3
        assert result.n_clusters == 3

    def test_member_update_cannot_steal_reseed_target(self, monkeypatch):
        """The collapse hazard from the other direction: after an empty
        cluster reseeds onto object x, a *later* cluster's member-based
        medoid update must not pick x too.  Here cluster 1 (medoid 1)
        starts empty and reseeds onto object 2 — which then also wins
        cluster 2's within-sum tie between members {2, 3}."""
        from repro.objects import UncertainDataset

        d = np.zeros((5, 5))
        pairs = {
            (0, 1): 0.0, (0, 2): 100.0, (0, 3): 100.0, (0, 4): 1.0,
            (1, 2): 100.0, (1, 3): 100.0, (1, 4): 1.0,
            (2, 3): 10.0, (2, 4): 100.0,
            (3, 4): 100.0,
        }
        for (i, j), value in pairs.items():
            d[i, j] = d[j, i] = value
        monkeypatch.setattr(
            "repro.clustering.ukmedoids.random_seed_indices",
            lambda n, k, rng: np.array([0, 1, 3]),
        )
        dataset = UncertainDataset.from_points(np.zeros((5, 1)))
        result = UKMedoids(n_clusters=3, precomputed=d).fit(dataset, seed=0)
        assert result.extras["reseeded"] >= 1
        assert len(set(result.extras["medoids"])) == 3
        assert result.n_clusters == 3

    def test_reseed_with_all_objects_medoids_keeps_old_medoid(self, monkeypatch):
        """Degenerate k == n case: when every object already is a
        medoid there is no reseed candidate, so the empty cluster keeps
        its old medoid instead of duplicating another one."""
        from repro.objects import UncertainDataset

        # Objects 0 and 1 coincide, so with medoids [0, 1] object 1's
        # tie breaks to medoid 0 and cluster 1 goes empty.
        d = np.array([[0.0, 0.0], [0.0, 0.0]])
        monkeypatch.setattr(
            "repro.clustering.ukmedoids.random_seed_indices",
            lambda n, k, rng: np.array([0, 1]),
        )
        dataset = UncertainDataset.from_points(np.zeros((2, 1)))
        result = UKMedoids(n_clusters=2, precomputed=d).fit(dataset, seed=0)
        assert len(set(result.extras["medoids"])) == 2
