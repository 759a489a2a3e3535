"""MMVar — Minimizing the Variance of cluster mixture models [8] (S11).

MMVar's centroid is the cluster's mixture model ``C_MM`` (Eq. (10)) and
its compactness criterion is the centroid's variance
``J_MM(C) = sigma^2(C_MM)`` (Eq. (11)).  With Lemma 2, per dimension:

    sigma^2_j(C_MM) = Phi_j/|C| - (S_j/|C|)^2,

with ``Phi_j = sum_o mu2_j(o)`` and ``S_j = sum_o mu_j(o)`` — so, like
UCPC, MMVar admits O(m) add/remove objective updates and runs the same
local-search relocation scheme at O(I·k·n·m): the shared kernel
:func:`repro.clustering._relocation.relocate`, with MMVar's per-cluster
criterion :data:`~repro.clustering._relocation.MMVAR_OBJECTIVE`.

Proposition 2 of the paper proves ``J_MM(C) = J_UK(C)/|C|``: the
*per-cluster* criteria differ only by the cardinality factor.  The summed
objectives weight clusters differently, so the two algorithms may still
produce different partitions — which the experiments confirm.
"""

from __future__ import annotations

from repro._typing import SeedLike
from repro.clustering._relocation import MMVAR_OBJECTIVE, relocate
from repro.clustering.base import (
    ClusteringResult,
    UncertainClusterer,
    validate_n_clusters,
)
from repro.clustering.initialization import random_partition
from repro.exceptions import InvalidParameterError, warn_convergence
from repro.objects.dataset import UncertainDataset
from repro.utils.rng import ensure_rng
from repro.utils.timer import Stopwatch


class MMVar(UncertainClusterer):
    """MMVar local-search clustering [8].

    Parameters
    ----------
    n_clusters:
        Number of output clusters ``k``.
    max_iter:
        Cap on relocation sweeps.
    min_improvement:
        Relative threshold below which a relocation gain is ignored.
    """

    name = "MMV"
    #: Same interpreter-bound relocation sweep as UCPC — the auto backend
    #: routes MMVar to the process pool.
    preferred_backend = "processes"

    def __init__(
        self,
        n_clusters: int,
        max_iter: int = 100,
        min_improvement: float = 1e-12,
    ):
        if max_iter < 1:
            raise InvalidParameterError(f"max_iter must be >= 1, got {max_iter}")
        if min_improvement < 0:
            raise InvalidParameterError(
                f"min_improvement must be >= 0, got {min_improvement}"
            )
        self.n_clusters = int(n_clusters)
        self.max_iter = int(max_iter)
        self.min_improvement = float(min_improvement)

    def fit(self, dataset: UncertainDataset, seed: SeedLike = None) -> ClusteringResult:
        """Cluster ``dataset`` by minimizing summed mixture-model variance."""
        n = len(dataset)
        k = validate_n_clusters(self.n_clusters, n)
        rng = ensure_rng(seed)
        assignment = random_partition(n, k, rng)

        watch = Stopwatch()
        with watch.running():
            run = relocate(
                dataset,
                assignment,
                k,
                rng,
                MMVAR_OBJECTIVE,
                self.max_iter,
                self.min_improvement,
            )
        if not run.converged:
            warn_convergence(
                f"MMVar hit max_iter={self.max_iter} before convergence"
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
