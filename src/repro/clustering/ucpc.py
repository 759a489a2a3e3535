"""UCPC — U-Centroid-based Partitional Clustering (Algorithm 1, S7).

The paper's contribution: a local-search heuristic minimizing
``sum_C J(C)`` where ``J(C) = sum_o ÊD(o, C̄)`` is the summed squared
expected distance of the members to the cluster's U-centroid (Eq. (14)).
Theorem 3's closed form makes ``J`` computable from the Psi/Phi/Upsilon
statistics, and Corollary 1 makes each candidate relocation an O(m)
evaluation — yielding the paper's O(I·k·n·m) total complexity
(Proposition 5) with guaranteed convergence to a local minimum
(Proposition 4).

Algorithm outline (Alg. 1 of the paper):

1. Precompute every object's moment vectors (done once by
   :class:`~repro.objects.dataset.UncertainDataset`).
2. Take an initial partition.
3. Sweep the objects; for each, find the cluster whose gain
   ``[J(C_o \\ {o}) + J(C* ∪ {o})] - [J(C_o) + J(C*)]`` is minimal and
   relocate if that improves the global objective.
4. Repeat until a full sweep relocates nothing.

Steps 3–4 are the relocation kernel that UCPC shares with MMVar
(:func:`repro.clustering._relocation.relocate`); UCPC supplies its
per-cluster ``J`` as :data:`~repro.clustering._relocation.UCPC_OBJECTIVE`.
"""

from __future__ import annotations

import numpy as np

from repro._typing import IntArray, SeedLike
from repro.clustering._relocation import UCPC_OBJECTIVE, relocate
from repro.clustering.base import (
    ClusteringResult,
    UncertainClusterer,
    validate_n_clusters,
)
from repro.clustering.initialization import (
    kmeanspp_seed_indices,
    partition_from_seeds,
    random_partition,
    random_seed_indices,
)
from repro.exceptions import InvalidParameterError, warn_convergence
from repro.objects.dataset import UncertainDataset
from repro.utils.rng import ensure_rng
from repro.utils.timer import Stopwatch


class UCPC(UncertainClusterer):
    """U-Centroid-based Partitional Clustering (the paper's Algorithm 1).

    Parameters
    ----------
    n_clusters:
        Number of output clusters ``k``.
    max_iter:
        Cap on full relocation sweeps (``I`` in Proposition 5).  The
        algorithm provably converges on its own (Proposition 4); the cap
        only guards pathological inputs.
    init:
        ``"random"`` — uniformly random initial partition (the paper's
        "e.g., a random partition");
        ``"seeds"`` — partition induced by k uniformly chosen seed
        objects (still random, but the initial centroids are spread);
        ``"kmeans++"`` — partition induced by k-means++ seeds on the
        expected values.
    min_improvement:
        Relative objective decrease below which a relocation is treated
        as numerical noise and skipped.

    Examples
    --------
    >>> from repro.datagen import make_blobs_uncertain
    >>> data = make_blobs_uncertain(n_objects=60, n_clusters=3, seed=7)
    >>> result = UCPC(n_clusters=3).fit(data, seed=7)
    >>> result.n_clusters
    3
    """

    name = "UCPC"
    #: Relocation sweep is an interpreter-bound per-object loop — the
    #: auto backend routes UCPC to the process pool.
    preferred_backend = "processes"

    def __init__(
        self,
        n_clusters: int,
        max_iter: int = 100,
        init: str = "random",
        min_improvement: float = 1e-12,
    ):
        if init not in ("random", "seeds", "kmeans++"):
            raise InvalidParameterError(
                f"init must be 'random', 'seeds' or 'kmeans++', got {init!r}"
            )
        if max_iter < 1:
            raise InvalidParameterError(f"max_iter must be >= 1, got {max_iter}")
        if min_improvement < 0:
            raise InvalidParameterError(
                f"min_improvement must be >= 0, got {min_improvement}"
            )
        self.n_clusters = int(n_clusters)
        self.max_iter = int(max_iter)
        self.init = init
        self.min_improvement = float(min_improvement)

    def fit(self, dataset: UncertainDataset, seed: SeedLike = None) -> ClusteringResult:
        """Run Algorithm 1 on ``dataset``."""
        n = len(dataset)
        k = validate_n_clusters(self.n_clusters, n)
        rng = ensure_rng(seed)
        assignment = self._initial_partition(dataset, k, rng)

        watch = Stopwatch()
        with watch.running():
            run = relocate(
                dataset,
                assignment,
                k,
                rng,
                UCPC_OBJECTIVE,
                self.max_iter,
                self.min_improvement,
            )
        if not run.converged:
            warn_convergence(
                f"UCPC hit max_iter={self.max_iter} before convergence"
            )
        return ClusteringResult(
            labels=run.labels,
            objective=run.history[-1],
            n_iterations=run.sweeps,
            converged=run.converged,
            runtime_seconds=watch.elapsed_seconds,
            objective_history=run.history,
            extras={
                "moves_per_sweep": run.moves_per_sweep,
                "relocation_skipped": run.skipped,
            },
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _initial_partition(
        self, dataset: UncertainDataset, k: int, rng: np.random.Generator
    ) -> IntArray:
        if self.init == "kmeans++":
            seeds = kmeanspp_seed_indices(dataset, k, rng)
        elif self.init == "seeds":
            seeds = random_seed_indices(len(dataset), k, rng)
        else:
            return random_partition(len(dataset), k, rng)
        assignment = partition_from_seeds(dataset, seeds)
        # Guarantee non-empty clusters: pin each seed to its own cluster.
        assignment[seeds] = np.arange(k)
        return assignment
