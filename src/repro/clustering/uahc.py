"""U-AHC — agglomerative hierarchical clustering of uncertain data [9] (S15).

Gullo et al.'s U-AHC merges, at every step, the pair of clusters whose
*mixture-model representatives* are closest, where each cluster is
summarized by the mixture of its members' pdfs (the MMVar centroid of
Eq. (10)) and proximity between representatives is scored with an
**information-theoretic** measure over the mixture pdfs.

Substitution note (documented in DESIGN.md): the original measure
combines entropy-based terms we cannot transcribe from [9]; our default
``linkage="jeffreys"`` scores proximity with the symmetric
Kullback-Leibler (Jeffreys) divergence between diagonal-Gaussian
approximations of the mixtures — an information-theoretic divergence
that, like the original, is sensitive to both location *and* variance
mismatch.  ``linkage="ed"`` provides the purely geometric alternative
(squared expected distance between the mixture representatives, Lemma 3
over Lemma 2 moments).

The full dendrogram is recorded; the flat clustering is obtained by
stopping at ``n_clusters`` clusters.

Under ``linkage="ed"`` the proximity between two *singleton* clusters is
exactly the squared expected distance ``ÊD`` of Lemma 3, so the initial
all-pairs structure is the dataset's pairwise ``ÊD`` matrix — the same
off-line artifact UK-medoids precomputes.  U-AHC therefore rides the
engine's pairwise-distance plane for that linkage: it declares
``wants_pairwise_ed`` and seeds the merge structure from the injected
``pairwise_ed_cache`` when one is present, computing the identical
matrix itself otherwise (bit-identical either way — both paths run
:func:`~repro.objects.distance.pairwise_squared_expected_distances`'s
kernel).  The Jeffreys linkage has no such precomputable seed and keeps
the blocked in-fit build.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro._typing import SeedLike
from repro.clustering.base import (
    ClusteringResult,
    UncertainClusterer,
    validate_n_clusters,
)
from repro.exceptions import InvalidParameterError, NumericalError
from repro.objects.dataset import UncertainDataset
from repro.objects.distance import pairwise_squared_expected_distances
from repro.utils.timer import Stopwatch

#: Variance floor for the Gaussian approximations under the Jeffreys
#: linkage, whose divergence divides by per-dimension variances (point
#: masses would divide by zero).  The "ed" linkage never divides, so it
#: floors at exactly 0 (guarding only float cancellation in
#: ``mu2 - mu^2``): its initial singleton structure is the *unfloored*
#: pairwise ``ÊD`` matrix, and merged-row refreshes must stay on the
#: same scale — a positive floor there would bias every
#: merged-vs-singleton comparison by ``~2 m * floor``.
_VAR_FLOOR = 1e-9

#: Element budget for one `(rows, n, m)` broadcast block of the initial
#: all-pairs proximity — bounds the temporaries to a few MB so the
#: vectorized kernel stays cache-resident (same idiom as
#: ``DENSITY_BLOCK_ELEMENTS`` in :mod:`repro.clustering._density`).
_PROXIMITY_BLOCK_ELEMENTS = 1 << 19


@dataclass(frozen=True)
class MergeStep:
    """One dendrogram merge: clusters ``left`` and ``right`` at ``height``."""

    left: int
    right: int
    height: float
    size: int


class UAHC(UncertainClusterer):
    """Agglomerative hierarchical clustering with mixture representatives.

    Parameters
    ----------
    n_clusters:
        Number of flat clusters to cut the dendrogram at.
    linkage:
        ``"jeffreys"`` (default) — symmetric KL divergence between
        diagonal-Gaussian approximations of the cluster mixtures
        (information-theoretic, per [9]);
        ``"ed"`` — squared expected distance between mixture
        representatives (geometric).

    Notes
    -----
    Cluster mixtures are tracked by their summed moments (Lemma 2), so a
    merge is O(m) and each proximity-row refresh is O(n·m); the overall
    scan cost is Theta(n^2) per merge in the worst case — U-AHC belongs
    to the "slower" group of the paper's Figure 4.
    """

    name = "UAHC"
    has_objective = False
    #: Merge loop is interpreter-bound — the auto backend routes UAHC
    #: to the process pool.
    preferred_backend = "processes"

    def __init__(self, n_clusters: int, linkage: str = "jeffreys"):
        if linkage not in ("jeffreys", "ed"):
            raise InvalidParameterError(
                f"linkage must be 'jeffreys' or 'ed', got {linkage!r}"
            )
        self.n_clusters = int(n_clusters)
        self.linkage = linkage
        #: Jeffreys divides by variances and needs the positive floor;
        #: "ed" only sums them and must match its unfloored ÊD seed.
        self._var_floor = _VAR_FLOOR if linkage == "jeffreys" else 0.0
        #: Engine-injected shared ``ÊD`` matrix (the distance plane's
        #: injection point, like :attr:`UKMedoids.pairwise_ed_cache`);
        #: consumed by the ``"ed"`` linkage as the initial singleton
        #: proximity structure, ignored by ``"jeffreys"``.
        self.pairwise_ed_cache: Optional[np.ndarray] = None

    @property
    def wants_pairwise_ed(self) -> bool:
        """Only the ``"ed"`` linkage consumes the shared ``ÊD`` plane."""
        return self.linkage == "ed"

    def fit(self, dataset: UncertainDataset, seed: SeedLike = None) -> ClusteringResult:
        """Cluster ``dataset`` bottom-up; ``seed`` is unused (deterministic)."""
        n = len(dataset)
        k = validate_n_clusters(self.n_clusters, n)

        watch = Stopwatch()
        with watch.running():
            labels, merges = self._agglomerate(dataset, k)
        return ClusteringResult(
            labels=labels,
            n_iterations=n - k,
            runtime_seconds=watch.elapsed_seconds,
            extras={"merges": merges, "linkage": self.linkage},
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _agglomerate(
        self, dataset: UncertainDataset, k: int
    ) -> tuple[np.ndarray, List[MergeStep]]:
        n = len(dataset)
        # Per-active-cluster summed moments (mixture moments * count).
        mu_sum = dataset.mu_matrix.copy()
        mu2_sum = dataset.mu2_matrix.copy()
        counts = np.ones(n, dtype=np.int64)
        active = np.ones(n, dtype=bool)
        membership = np.arange(n)

        # Gaussian fits of every cluster mixture, maintained
        # incrementally: a merge touches only the absorbing cluster's
        # sums, so only that one row of (mix_mu, mix_var) is refreshed
        # per step instead of refitting all n clusters.
        mix_mu, mix_var = self._gaussian_parameters(mu_sum, mu2_sum, counts)
        if self.linkage == "ed":
            prox = self._initial_ed_proximity(dataset, n)
        else:
            prox = self._full_proximity(mix_mu, mix_var)
        np.fill_diagonal(prox, np.inf)

        merges: List[MergeStep] = []
        n_active = n
        while n_active > k:
            flat = int(np.argmin(prox))
            a, b = divmod(flat, n)
            if a > b:
                a, b = b, a
            height = float(prox[a, b])
            if not np.isfinite(height):
                raise NumericalError(
                    f"{self.name}: merge height {height} at {n_active} "
                    "clusters is not finite (overflow-scale input?)"
                )
            # Merge b into a.
            mu_sum[a] += mu_sum[b]
            mu2_sum[a] += mu2_sum[b]
            counts[a] += counts[b]
            active[b] = False
            membership[membership == b] = a
            merges.append(
                MergeStep(left=a, right=b, height=height, size=int(counts[a]))
            )
            # Retire b; refit the merged cluster's Gaussian (same
            # elementwise operations as `_gaussian_parameters`, applied
            # to the one changed row) and refresh its proximities.
            prox[b, :] = np.inf
            prox[:, b] = np.inf
            inv = 1.0 / float(counts[a])
            mix_mu[a] = mu_sum[a] * inv
            mix_var[a] = np.maximum(
                mu2_sum[a] * inv - mix_mu[a] ** 2, self._var_floor
            )
            row = self._row_against(mix_mu, mix_var, a)
            row[~active] = np.inf
            row[a] = np.inf
            prox[a, :] = row
            prox[:, a] = row
            n_active -= 1

        # Compact the surviving cluster ids to 0..k-1.
        survivors = {old: new for new, old in enumerate(np.flatnonzero(active))}
        labels = np.array([survivors[int(c)] for c in membership], dtype=np.int64)
        return labels, merges

    def _initial_ed_proximity(self, dataset: UncertainDataset, n: int) -> np.ndarray:
        """Initial singleton proximities for ``linkage="ed"``.

        Between singleton clusters the ``"ed"`` proximity *is* Lemma 3's
        ``ÊD``, so the starting structure is the dataset's pairwise
        ``ÊD`` matrix: a working copy of the engine-injected
        ``pairwise_ed_cache`` when the distance plane supplied one
        (copied because the agglomeration overwrites retired rows with
        ``inf``), or the same matrix computed in place.  Both paths run
        the identical kernel, so the plane never changes the dendrogram.
        """
        if self.pairwise_ed_cache is not None:
            matrix = np.asarray(self.pairwise_ed_cache, dtype=np.float64)
            if matrix.shape != (n, n):
                raise InvalidParameterError(
                    f"pairwise_ed_cache matrix must be ({n}, {n}), "
                    f"got {matrix.shape}"
                )
            return np.array(matrix)
        return pairwise_squared_expected_distances(dataset)

    def _gaussian_parameters(
        self, mu_sum: np.ndarray, mu2_sum: np.ndarray, counts: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """(means, variances) of each cluster mixture's Gaussian fit."""
        inv = 1.0 / counts.astype(np.float64)
        mix_mu = mu_sum * inv[:, None]
        mix_mu2 = mu2_sum * inv[:, None]
        mix_var = np.maximum(mix_mu2 - mix_mu**2, self._var_floor)
        return mix_mu, mix_var

    def _full_proximity(self, mu: np.ndarray, var: np.ndarray) -> np.ndarray:
        """All-pairs Jeffreys proximity via a blocked full-matrix broadcast.

        Evaluates the same elementwise formula as :meth:`_row_against`
        over ``(rows, n, m)`` expansions — row blocks sized by
        ``_PROXIMITY_BLOCK_ELEMENTS`` so the temporaries stay
        cache-resident — and reduces the contiguous trailing axis.
        Every entry is bit-identical to the per-row loop it replaces;
        the dendrogram regression in
        ``tests/test_density_hierarchical.py`` pins this.  (The ``"ed"``
        linkage takes :meth:`_initial_ed_proximity` instead — its
        singleton structure is the precomputable ``ÊD`` matrix.)
        """
        n, m = mu.shape
        rows = max(1, _PROXIMITY_BLOCK_ELEMENTS // max(1, n * m))
        prox = np.empty((n, n))
        for start in range(0, n, rows):
            stop = min(n, start + rows)
            diff_sq = (mu[None, :, :] - mu[start:stop, None, :]) ** 2
            term = (var[None, :, :] + diff_sq) / var[
                start:stop, None, :
            ] + (var[start:stop, None, :] + diff_sq) / var[None, :, :]
            prox[start:stop] = 0.5 * (term - 2.0).sum(axis=2)
        return prox

    def _row_against(
        self, mu: np.ndarray, var: np.ndarray, target: int
    ) -> np.ndarray:
        diff_sq = (mu - mu[target]) ** 2
        if self.linkage == "jeffreys":
            # Symmetric KL between diagonal Gaussians:
            # 0.5 sum_j [ (var_i + d^2)/var_t + (var_t + d^2)/var_i - 2 ].
            term = (var + diff_sq) / var[target] + (var[target] + diff_sq) / var
            return 0.5 * (term - 2.0).sum(axis=1)
        # "ed": ÊD between the mixture representatives (Lemma 3):
        # sigma^2_i + sigma^2_t + ||mu_i - mu_t||^2.
        return var.sum(axis=1) + var[target].sum() + diff_sq.sum(axis=1)
