"""Tests for the internal validity criteria (intra / inter / Q)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datagen import make_blobs_uncertain
from repro.evaluation import internal_scores, quality_score
from repro.exceptions import InvalidParameterError
from repro.objects import UncertainDataset, UncertainObject
from repro.objects.distance import pairwise_squared_expected_distances


class TestInternalScores:
    def test_bounds(self, blob_dataset):
        labels = np.array(blob_dataset.labels)
        scores = internal_scores(blob_dataset, labels)
        assert 0.0 <= scores.intra <= 1.0
        assert 0.0 <= scores.inter <= 1.0
        assert -1.0 <= scores.quality <= 1.0

    def test_true_labels_beat_random_labels(self, blob_dataset):
        true_q = quality_score(blob_dataset, np.array(blob_dataset.labels))
        rng = np.random.default_rng(0)
        random_q = quality_score(
            blob_dataset, rng.integers(0, 3, size=len(blob_dataset))
        )
        assert true_q > random_q

    def test_good_clustering_has_positive_q(self):
        data = make_blobs_uncertain(
            n_objects=60, n_clusters=2, separation=8.0, seed=1
        )
        assert quality_score(data, np.array(data.labels)) > 0.3

    def test_precomputed_distances_match(self, blob_dataset):
        labels = np.array(blob_dataset.labels)
        distances = pairwise_squared_expected_distances(blob_dataset)
        direct = internal_scores(blob_dataset, labels)
        cached = internal_scores(blob_dataset, labels, distances)
        assert direct.intra == pytest.approx(cached.intra)
        assert direct.inter == pytest.approx(cached.inter)

    def test_noise_excluded(self, blob_dataset):
        labels = np.array(blob_dataset.labels)
        labels[:5] = -1
        scores = internal_scores(blob_dataset, labels)
        assert -1.0 <= scores.quality <= 1.0

    def test_all_noise_residual_is_single_cluster(self, blob_dataset):
        """Residual policy: all-noise degenerates to one cluster (Q < 0)."""
        labels = np.full(len(blob_dataset), -1)
        scores = internal_scores(blob_dataset, labels)
        assert scores.inter == 0.0
        assert scores.intra > 0.0
        assert scores.quality < 0.0

    def test_all_noise_excluded_gives_zero(self, blob_dataset):
        labels = np.full(len(blob_dataset), -1)
        scores = internal_scores(blob_dataset, labels, noise_policy="exclude")
        assert scores.intra == 0.0
        assert scores.inter == 0.0
        assert scores.quality == 0.0

    def test_noise_policy_changes_score(self, blob_dataset):
        """Shedding half the objects as noise must not *improve* Q under
        the residual policy."""
        labels = np.array(blob_dataset.labels)
        noisy = labels.copy()
        noisy[::2] = -1
        residual = internal_scores(blob_dataset, noisy).quality
        excluded = internal_scores(
            blob_dataset, noisy, noise_policy="exclude"
        ).quality
        assert residual <= excluded + 1e-9

    def test_invalid_noise_policy(self, blob_dataset):
        with pytest.raises(InvalidParameterError):
            internal_scores(
                blob_dataset,
                np.zeros(len(blob_dataset)),
                noise_policy="ignore",
            )

    def test_single_cluster_zero_inter(self, blob_dataset):
        labels = np.zeros(len(blob_dataset), dtype=np.int64)
        scores = internal_scores(blob_dataset, labels)
        assert scores.inter == 0.0
        assert scores.intra > 0.0

    def test_singleton_clusters_have_zero_intra(self):
        objs = [UncertainObject.from_point([float(i)]) for i in range(4)]
        data = UncertainDataset(objs)
        labels = np.arange(4)
        scores = internal_scores(data, labels)
        assert scores.intra == 0.0
        assert scores.inter > 0.0

    def test_identical_objects_zero_everything(self):
        objs = [UncertainObject.from_point([1.0]) for _ in range(4)]
        data = UncertainDataset(objs)
        scores = internal_scores(data, np.array([0, 0, 1, 1]))
        assert scores.intra == 0.0
        assert scores.inter == 0.0

    def test_label_length_mismatch(self, blob_dataset):
        with pytest.raises(InvalidParameterError):
            internal_scores(blob_dataset, np.zeros(3))

    def test_better_separation_increases_q(self):
        near = make_blobs_uncertain(
            n_objects=60, n_clusters=2, separation=2.0, seed=5
        )
        far = make_blobs_uncertain(
            n_objects=60, n_clusters=2, separation=10.0, seed=5
        )
        q_near = quality_score(near, np.array(near.labels))
        q_far = quality_score(far, np.array(far.labels))
        assert q_far > q_near


def _per_pair_reference(labels, distances, noise_policy):
    """The per-cluster-pair ``np.ix_`` loop that ``internal_scores``
    replaced, kept verbatim as the exactness reference."""
    labels = np.asarray(labels, dtype=np.int64)
    if noise_policy == "residual" and np.any(labels < 0):
        labels = labels.copy()
        labels[labels < 0] = labels.max() + 1
    max_dist = float(distances.max())
    cluster_ids = np.unique(labels[labels >= 0])
    if max_dist <= 0.0 or cluster_ids.size == 0:
        return 0.0, 0.0
    members = [np.flatnonzero(labels == c) for c in cluster_ids]
    intra_terms = []
    for idx in members:
        size = idx.size
        if size < 2:
            continue
        block = distances[np.ix_(idx, idx)]
        off_diag = block.sum() - np.trace(block)
        intra_terms.append(off_diag / (size * (size - 1)))
    intra = float(np.mean(intra_terms)) / max_dist if intra_terms else 0.0
    k = len(members)
    if k < 2:
        inter = 0.0
    else:
        total = 0.0
        for a in range(k):
            for b in range(k):
                if a != b:
                    total += distances[np.ix_(members[a], members[b])].mean()
        inter = total / (k * (k - 1)) / max_dist
    return float(np.clip(intra, 0.0, 1.0)), float(np.clip(inter, 0.0, 1.0))


class TestSortedBlocksExact:
    """``internal_scores`` sorts the labels once and reduces contiguous
    blocks; its scores must equal the per-pair gather bit for bit."""

    @pytest.fixture(scope="class")
    def plane(self):
        data = make_blobs_uncertain(n_objects=100, n_clusters=5, seed=3)
        return data, pairwise_squared_expected_distances(data)

    @pytest.mark.parametrize("noise_policy", ["residual", "exclude"])
    def test_random_labelings(self, plane, noise_policy):
        data, distances = plane
        rng = np.random.default_rng(11)
        for trial in range(60):
            k = int(rng.integers(1, 27))
            labels = rng.integers(0, k, size=len(data))
            if trial % 3 == 0:
                labels[rng.random(len(data)) < 0.15] = -1
            if trial % 4 == 0:
                labels[rng.integers(0, len(data))] = k  # a singleton
            scores = internal_scores(data, labels, distances, noise_policy)
            assert (scores.intra, scores.inter) == _per_pair_reference(
                labels, distances, noise_policy
            )

    @pytest.mark.parametrize("noise_policy", ["residual", "exclude"])
    def test_edge_labelings(self, plane, noise_policy):
        data, distances = plane
        n = len(data)
        for labels in (
            np.zeros(n, dtype=int),  # k = 1
            np.arange(n),  # all singletons
            np.where(np.arange(n) < 3, -1, 0),  # noise plus one cluster
            np.full(n, -1),  # all noise
        ):
            scores = internal_scores(data, labels, distances, noise_policy)
            assert (scores.intra, scores.inter) == _per_pair_reference(
                labels, distances, noise_policy
            )
