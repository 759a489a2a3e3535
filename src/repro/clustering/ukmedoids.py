"""UK-medoids — K-medoids over pairwise expected distances [7] (S12).

Gullo, Ponti & Tagarelli's UK-medoids precomputes the full matrix of
squared expected distances ``ÊD(o_i, o_j)`` (an off-line phase the paper
excludes from timing, like UK-means' distance precomputation) and then
runs a PAM-style alternation: assign every object to the nearest medoid
and recompute each cluster's medoid as the member minimizing the summed
``ÊD`` to its cluster.

The on-line loop is O(I·n^2) in the worst case — which is exactly why
Figure 4 of the paper shows UK-medoids orders of magnitude slower than
the centroid-based algorithms.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro._typing import SeedLike
from repro.clustering.base import (
    ClusteringResult,
    UncertainClusterer,
    validate_n_clusters,
)
from repro.clustering.initialization import (
    kmeanspp_seed_indices,
    random_seed_indices,
)
from repro.exceptions import InvalidParameterError, warn_convergence
from repro.objects.dataset import UncertainDataset
from repro.objects.distance import (
    pairwise_squared_expected_distances,
    validate_pairwise_ed,
)
from repro.utils.rng import ensure_rng
from repro.utils.timer import Stopwatch


class UKMedoids(UncertainClusterer):
    """UK-medoids [7]: PAM-style clustering on the ``ÊD`` matrix.

    Parameters
    ----------
    n_clusters:
        Number of output clusters ``k``.
    max_iter:
        Iteration cap.
    init:
        ``"random"`` or ``"kmeans++"`` seeding for the initial medoids.
    precomputed:
        Optional externally computed ``(n, n)`` ``ÊD`` matrix (reused
        across runs by the experiment harness to mimic the paper's
        off-line phase accounting).  Validated at construction —
        symmetry, finiteness and non-negativity — and **adopted as a
        view** when already float64 (see
        :func:`~repro.objects.distance.validate_pairwise_ed`): the
        caller's array is not copied, so later in-place mutation of it
        is visible to every subsequent :meth:`fit`.

    Notes
    -----
    ``pairwise_ed_cache`` is the engine's injection point (analogous to
    the sample-based algorithms' ``sample_cache``): the multi-restart
    runner computes :meth:`UncertainDataset.pairwise_ed` once per
    run-set and pins it here, so restarts skip the off-line phase
    entirely.  Resolution order in :meth:`fit` is ``pairwise_ed_cache``
    > ``precomputed`` > compute-from-dataset.
    """

    name = "UKmed"
    wants_pairwise_ed = True
    preferred_backend = "processes"

    def __init__(
        self,
        n_clusters: int,
        max_iter: int = 100,
        init: str = "random",
        precomputed: Optional[np.ndarray] = None,
    ):
        if init not in ("random", "kmeans++"):
            raise InvalidParameterError(
                f"init must be 'random' or 'kmeans++', got {init!r}"
            )
        if max_iter < 1:
            raise InvalidParameterError(f"max_iter must be >= 1, got {max_iter}")
        self.n_clusters = int(n_clusters)
        self.max_iter = int(max_iter)
        self.init = init
        if precomputed is not None:
            precomputed = validate_pairwise_ed(precomputed, name="precomputed")
        self.precomputed = precomputed
        #: Engine-injected shared ``ÊD`` matrix (trusted, not revalidated).
        self.pairwise_ed_cache: Optional[np.ndarray] = None

    def fit(self, dataset: UncertainDataset, seed: SeedLike = None) -> ClusteringResult:
        """Cluster ``dataset``; see class docstring."""
        n = len(dataset)
        k = validate_n_clusters(self.n_clusters, n)
        rng = ensure_rng(seed)

        # Off-line phase: the pairwise ÊD matrix (Lemma 3 closed form).
        # The engine-injected cache wins over the constructor matrix so
        # one configured instance can still ride the shared plane.
        if self.pairwise_ed_cache is not None:
            distances = np.asarray(self.pairwise_ed_cache, dtype=np.float64)
            if distances.shape != (n, n):
                raise InvalidParameterError(
                    f"pairwise_ed_cache matrix must be ({n}, {n}), "
                    f"got {distances.shape}"
                )
        elif self.precomputed is not None:
            distances = self.precomputed
            if distances.shape != (n, n):
                raise InvalidParameterError(
                    f"precomputed matrix must be ({n}, {n}), got {distances.shape}"
                )
        else:
            distances = pairwise_squared_expected_distances(dataset)

        if self.init == "kmeans++":
            medoids = kmeanspp_seed_indices(dataset, k, rng)
        else:
            medoids = random_seed_indices(n, k, rng)

        watch = Stopwatch()
        iterations = 0
        converged = False
        reseeded = 0
        with watch.running():
            assignment = np.argmin(distances[:, medoids], axis=1).astype(np.int64)
            for _ in range(self.max_iter):
                iterations += 1
                new_medoids = medoids.copy()
                reseed_taken = np.zeros(n, dtype=bool)
                for c in range(k):
                    members = np.flatnonzero(assignment == c)
                    if members.size == 0:
                        # Reseed an empty cluster with the worst-served
                        # object that is not already a medoid — picking
                        # a current (or freshly chosen) medoid would
                        # silently collapse the clustering to k-1
                        # distinct medoids.
                        own_cost = distances[
                            np.arange(n), medoids[assignment]
                        ].copy()
                        own_cost[medoids] = -np.inf
                        own_cost[new_medoids] = -np.inf
                        candidate = int(np.argmax(own_cost))
                        if own_cost[candidate] == -np.inf:
                            # Every object is already a medoid (k == n);
                            # keep the old medoid for this cluster.
                            continue
                        new_medoids[c] = candidate
                        reseed_taken[candidate] = True
                        reseeded += 1
                        continue
                    # Medoid = member minimizing summed ÊD within the
                    # cluster, skipping members an earlier empty cluster
                    # just took as its reseed target (the same collapse
                    # hazard from the other direction).
                    within = distances[np.ix_(members, members)].sum(axis=1)
                    free = ~reseed_taken[members]
                    if free.any():
                        members = members[free]
                        within = within[free]
                    new_medoids[c] = int(members[np.argmin(within)])
                new_assignment = np.argmin(
                    distances[:, new_medoids], axis=1
                ).astype(np.int64)
                if np.array_equal(new_assignment, assignment) and np.array_equal(
                    new_medoids, medoids
                ):
                    converged = True
                    break
                medoids = new_medoids
                assignment = new_assignment
        if not converged:
            warn_convergence(
                f"UK-medoids hit max_iter={self.max_iter} before convergence"
            )
        objective = float(
            distances[np.arange(n), medoids[assignment]].sum()
        )
        return ClusteringResult(
            labels=assignment,
            objective=objective,
            n_iterations=iterations,
            converged=converged,
            runtime_seconds=watch.elapsed_seconds,
            extras={"medoids": medoids.tolist(), "reseeded": reseeded},
        )
