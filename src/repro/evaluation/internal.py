"""Internal cluster-validity criteria (S18).

Section 5.1 of the paper defines, for a clustering ``C`` of uncertain
objects, the average intra-cluster distance

    intra(C) = (1/|C|) sum_C [ 1/(|C|(|C|-1)) sum_{o != o' in C} ÊD(o, o') ]

and the average inter-cluster distance

    inter(C) = (1/(|C|(|C|-1))) sum_{C != C'} [ 1/(|C||C'|)
               sum_{o in C} sum_{o' in C'} ÊD(o, o') ],

both normalized into [0, 1] before being combined into the quality score
``Q(C) = inter(C) - intra(C) ∈ [-1, 1]`` (higher is better).

Normalization divides by the maximum pairwise ÊD over the dataset, which
maps both averages into [0, 1] while preserving their ordering across
clusterings of the same data.  Noise objects (label -1) are excluded —
they belong to no cluster.  Clusters with fewer than two members
contribute zero intra-distance (they are perfectly cohesive).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.objects.dataset import UncertainDataset
from repro.objects.distance import pairwise_squared_expected_distances


@dataclass(frozen=True)
class InternalScores:
    """Intra / inter / Q values of one clustering."""

    intra: float
    inter: float

    @property
    def quality(self) -> float:
        """``Q = inter - intra`` (Section 5.1), in [-1, 1]."""
        return self.inter - self.intra


def internal_scores(
    dataset: UncertainDataset,
    labels: np.ndarray,
    distances: Optional[np.ndarray] = None,
    noise_policy: str = "residual",
) -> InternalScores:
    """Compute the paper's normalized intra/inter criteria.

    Parameters
    ----------
    dataset:
        The clustered objects.
    labels:
        Cluster label per object; -1 marks noise.
    distances:
        Optional precomputed pairwise ``ÊD`` matrix (reused across the
        many clusterings scored in one experiment).
    noise_policy:
        ``"residual"`` (default) — noise objects form one residual
        cluster, mirroring the F-measure's treatment, so an algorithm
        cannot inflate Q by declaring awkward objects noise;
        ``"exclude"`` — noise objects are dropped from the evaluation.
    """
    if noise_policy not in ("residual", "exclude"):
        raise InvalidParameterError(
            f"noise_policy must be 'residual' or 'exclude', got {noise_policy!r}"
        )
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape[0] != len(dataset):
        raise InvalidParameterError("labels length must match dataset size")
    if noise_policy == "residual" and np.any(labels < 0):
        labels = labels.copy()
        labels[labels < 0] = labels.max() + 1
    if distances is None:
        distances = pairwise_squared_expected_distances(dataset)

    max_dist = float(distances.max())
    if max_dist <= 0.0:
        return InternalScores(intra=0.0, inter=0.0)

    # Sort the clustered objects by label once (stable, so each cluster
    # keeps ascending object order) and permute the matrix once: every
    # cluster pair is then a contiguous block.  Blocks are copied before
    # reducing, so sums see the same C-ordered data as a per-pair gather.
    order = np.argsort(labels, kind="stable")
    order = order[labels[order] >= 0]
    if order.size == 0:
        return InternalScores(intra=0.0, inter=0.0)
    _, starts, sizes = np.unique(
        labels[order], return_index=True, return_counts=True
    )
    spans = [
        slice(a, a + size) for a, size in zip(starts.tolist(), sizes.tolist())
    ]
    permuted = distances[np.ix_(order, order)]

    # intra: average over clusters of the mean pairwise ÊD inside each.
    # Singleton clusters have an undefined (0/0) term in the paper's
    # formula; they are excluded from the average rather than counted as
    # zero — counting them as zero would let a clustering inflate Q by
    # shedding singletons.
    intra_terms = []
    for span, size in zip(spans, sizes.tolist()):
        if size < 2:
            continue
        block = permuted[span, span].copy()
        off_diag = block.sum() - np.trace(block)
        intra_terms.append(off_diag / (size * (size - 1)))
    if intra_terms:
        intra = float(np.mean(intra_terms)) / max_dist
    else:
        intra = 0.0

    # inter: average over ordered cluster pairs of the mean cross ÊD.
    k = len(spans)
    if k < 2:
        inter = 0.0
    else:
        total = 0.0
        for a in range(k):
            for b in range(k):
                if a == b:
                    continue
                total += permuted[spans[a], spans[b]].copy().mean()
        inter = total / (k * (k - 1)) / max_dist

    return InternalScores(intra=float(np.clip(intra, 0.0, 1.0)),
                          inter=float(np.clip(inter, 0.0, 1.0)))


def quality_score(
    dataset: UncertainDataset,
    labels: np.ndarray,
    distances: Optional[np.ndarray] = None,
) -> float:
    """Shorthand for ``internal_scores(...).quality``."""
    return internal_scores(dataset, labels, distances).quality
