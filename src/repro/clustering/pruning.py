"""Pruning-based UK-means variants: MinMax-BB, VDBiP, cluster-shift (S10).

These algorithms accelerate the *basic* UK-means by avoiding expected-
distance (ED) integral evaluations:

* **MinMax-BB** (Ngai et al. [16]) — per object and candidate centroid,
  cheap ``MinDist``/``MaxDist`` bounds from the object's bounding box
  prune centroids that cannot be the closest:  if
  ``MinDist(o, c) > min_c' MaxDist(o, c')`` then ``c`` is pruned.
* **VDBiP** (Kao et al. [11]) — bisector pruning from the Voronoi
  diagram of the centroids: if the object's box lies entirely on
  centroid ``c_j``'s side of the ``(c_j, c_l)`` bisector hyperplane,
  ``c_l`` is pruned; when a single candidate survives, no ED at all is
  computed.
* **cluster-shift** (Ngai et al. [17]) — optional bound tightening
  reusing the previous iteration's exact EDs: if centroid ``c`` moved by
  ``delta`` then ``(sqrt(ED_old) - delta)^2 <= ED_new <=
  (sqrt(ED_old) + delta)^2``, sharpening both bounds.  The paper couples
  it with both pruners in the efficiency study.

All variants reproduce the basic UK-means assignment sequence exactly
(pruning is lossless); pruning effectiveness counters are reported in
``ClusteringResult.extras``.  As in the paper, time spent *building*
pruning structures is excluded from the clustering-time measurement.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro._typing import SeedLike
from repro.clustering._repair import repair_empty_clusters
from repro.clustering._sampling import SampleCacheMixin
from repro.clustering.base import (
    ClusteringResult,
    UncertainClusterer,
    validate_n_clusters,
)
from repro.clustering.initialization import random_seed_indices
from repro.clustering.ukmeans import ukmeans_objective
from repro.exceptions import InvalidParameterError, warn_convergence
from repro.objects.dataset import UncertainDataset
from repro.utils.rng import ensure_rng
from repro.utils.timer import Stopwatch


class _PruningUKMeansBase(SampleCacheMixin, UncertainClusterer):
    """Shared machinery of the pruning-based UK-means variants."""

    def __init__(
        self,
        n_clusters: int,
        n_samples: int = 64,
        max_iter: int = 100,
        cluster_shift: bool = True,
    ):
        if n_samples < 1:
            raise InvalidParameterError(f"n_samples must be >= 1, got {n_samples}")
        if max_iter < 1:
            raise InvalidParameterError(f"max_iter must be >= 1, got {max_iter}")
        self.n_clusters = int(n_clusters)
        self.n_samples = int(n_samples)
        self.max_iter = int(max_iter)
        self.cluster_shift = bool(cluster_shift)

    # -- strategy hook --------------------------------------------------
    def _candidate_mask(
        self,
        boxes_lower: np.ndarray,
        boxes_upper: np.ndarray,
        centers: np.ndarray,
    ) -> np.ndarray:
        """Boolean ``(n, k)`` mask of candidate centroids per object."""
        raise NotImplementedError

    # -- main loop -------------------------------------------------------
    def fit(self, dataset: UncertainDataset, seed: SeedLike = None) -> ClusteringResult:
        """Cluster ``dataset``; see class docstring."""
        n = len(dataset)
        k = validate_n_clusters(self.n_clusters, n)
        rng = ensure_rng(seed)

        # Off-line phase (untimed, as in the paper): samples and boxes.
        samples = self._draw_samples(dataset, rng)
        sample_means = samples.mean(axis=1)
        boxes_lower = dataset.support_lower
        boxes_upper = dataset.support_upper

        seeds = random_seed_indices(n, k, rng)
        centers = sample_means[seeds].copy()

        ed_matrix = np.full((n, k), np.nan)  # cached exact EDs (cluster-shift)
        # Iteration at which each ed_matrix entry was computed (-1 =
        # never).  The shift bound must account for the *cumulative*
        # centroid displacement since that iteration, not just the last
        # step — a cached ED can survive many iterations while its
        # centroid keeps drifting.
        ed_iteration = np.full((n, k), -1, dtype=np.int64)
        centers_log: List[np.ndarray] = []
        ed_computed = 0
        ed_pruned = 0

        watch = Stopwatch()
        iterations = 0
        converged = False
        assignment = np.full(n, -1, dtype=np.int64)
        with watch.running():
            for iteration in range(self.max_iter):
                iterations += 1
                # Pruning-structure construction (bounding-box bounds /
                # Voronoi bisectors / shift bounds) is excluded from the
                # clustering time, exactly as in Section 5.2.2 of the
                # paper ("pruning times ... were discarded").
                watch.stop()
                centers_log.append(centers.copy())
                candidates = self._candidate_mask(boxes_lower, boxes_upper, centers)
                if self.cluster_shift and iteration > 0:
                    candidates = self._tighten_with_shift(
                        candidates, ed_matrix, ed_iteration, centers, centers_log
                    )
                watch.start()
                new_assignment = np.empty(n, dtype=np.int64)
                cand_counts = candidates.sum(axis=1)
                # Fully pruned objects: assigned without any ED integral.
                single = cand_counts == 1
                if single.any():
                    new_assignment[single] = np.argmax(candidates[single], axis=1)
                    ed_pruned += int((k - 1) * single.sum())
                multi = ~single
                if multi.any():
                    # Batch the surviving ED integrals per centroid.
                    eds_multi = np.full((n, k), np.inf)
                    for j in range(k):
                        rows = np.flatnonzero(multi & candidates[:, j])
                        if rows.size == 0:
                            continue
                        diff = samples[rows] - centers[j]
                        eds = np.einsum("nsm,nsm->ns", diff, diff).mean(axis=1)
                        eds_multi[rows, j] = eds
                        ed_matrix[rows, j] = eds
                        ed_iteration[rows, j] = iteration
                        ed_computed += int(rows.size)
                    n_multi = int(multi.sum())
                    ed_pruned += int(n_multi * k - candidates[multi].sum())
                    new_assignment[multi] = np.argmin(eds_multi[multi], axis=1)
                repair_empty_clusters(new_assignment, sample_means, centers, k)
                if np.array_equal(new_assignment, assignment):
                    converged = True
                    break
                assignment = new_assignment
                for c in range(k):
                    members = assignment == c
                    if members.any():
                        centers[c] = sample_means[members].mean(axis=0)
        if not converged:
            warn_convergence(
                f"{self.name} hit max_iter={self.max_iter} before convergence"
            )
        total_pairs = ed_computed + ed_pruned
        return ClusteringResult(
            labels=assignment,
            objective=ukmeans_objective(dataset, assignment),
            n_iterations=iterations,
            converged=converged,
            runtime_seconds=watch.elapsed_seconds,
            extras={
                "ed_evaluations": ed_computed,
                "ed_pruned": ed_pruned,
                "pruning_rate": ed_pruned / total_pairs if total_pairs else 0.0,
                "cluster_shift": self.cluster_shift,
            },
        )

    # -- helpers ----------------------------------------------------------
    @staticmethod
    def _tighten_with_shift(
        candidates: np.ndarray,
        ed_matrix: np.ndarray,
        ed_iteration: np.ndarray,
        centers: np.ndarray,
        centers_log: List[np.ndarray],
    ) -> np.ndarray:
        """Cluster-shift bound tightening [17].

        With ``delta(o, c) = ||c_now - c_at_cache||`` — the displacement
        of centroid ``c`` since the iteration at which ``ED_old(o, c)``
        was cached — the squared-Euclidean ED obeys ``(sqrt(ED_old) -
        delta)^2 <= ED_new <= (sqrt(ED_old) + delta)^2`` (triangle
        inequality inside the expectation, then Jensen).  Any centroid
        whose shifted lower bound exceeds another centroid's shifted
        upper bound cannot win and is pruned.

        Cache entries may be several iterations old (an entry is only
        refreshed when the object/centroid pair survives pruning), so
        the displacement is taken against the logged centroid position
        of the entry's own iteration — using only the last step's shift
        would understate ``delta`` and make the bounds invalid.
        """
        k = centers.shape[0]
        # shift_since[t, j] = ||centers[j] - centers_log[t][j]||
        history = np.stack(centers_log)  # (T, k, m)
        shift_since = np.linalg.norm(centers[None, :, :] - history, axis=2)
        have = np.isfinite(ed_matrix) & (ed_iteration >= 0)
        delta = shift_since[np.maximum(ed_iteration, 0), np.arange(k)[None, :]]
        roots = np.sqrt(np.where(have, np.maximum(ed_matrix, 0.0), 0.0))
        upper = np.where(have, (roots + delta) ** 2, np.inf)
        lower = np.where(have, np.maximum(roots - delta, 0.0) ** 2, 0.0)
        best_upper = upper.min(axis=1)
        keep = lower <= best_upper[:, None]
        tightened = candidates & keep
        # Safety: never prune every candidate of an object.
        dead = ~tightened.any(axis=1)
        if dead.any():
            tightened[dead] = candidates[dead]
        return tightened


class MinMaxBB(_PruningUKMeansBase):
    """MinMax bounding-box pruning UK-means [16].

    For each object box and centroid: ``MinDist`` is the squared distance
    to the nearest box point, ``MaxDist`` to the farthest corner.  The
    expected distance always lies between them, so any centroid with
    ``MinDist > min_c MaxDist`` is pruned before its ED integral is ever
    evaluated.
    """

    name = "MinMax-BB"

    def _candidate_mask(
        self,
        boxes_lower: np.ndarray,
        boxes_upper: np.ndarray,
        centers: np.ndarray,
    ) -> np.ndarray:
        n = boxes_lower.shape[0]
        k = centers.shape[0]
        min_dist = np.empty((n, k))
        max_dist = np.empty((n, k))
        for j in range(k):
            c = centers[j]
            below = np.maximum(boxes_lower - c, 0.0)
            above = np.maximum(c - boxes_upper, 0.0)
            gap = below + above
            min_dist[:, j] = np.einsum("ij,ij->i", gap, gap)
            far = np.maximum(np.abs(c - boxes_lower), np.abs(c - boxes_upper))
            max_dist[:, j] = np.einsum("ij,ij->i", far, far)
        threshold = max_dist.min(axis=1)
        return min_dist <= threshold[:, None]


#: Elements per ``(rows, k*k)`` screen temporary of
#: :meth:`VDBiP._candidate_mask`; bounds the block of object rows screened
#: at once (the memory knob, like ``DENSITY_BLOCK_ELEMENTS``).
MASK_BLOCK_ELEMENTS: int = 1 << 14

_EPS = float(np.finfo(np.float64).eps)
#: Safety factor ``c`` of the screen margin ``c * (m + 2) * eps * T``.
_MARGIN_C = 2.0
#: Error-scale range inside which the screen decides; entries whose
#: ``T`` falls outside (underflow scale, overflow scale, inf, NaN) are
#: recomputed by the literal formula.
_SCREEN_TINY = float(np.finfo(np.float64).tiny) / _EPS
_SCREEN_HUGE = float(np.finfo(np.float64).max) / 256.0


def _bisector_max(
    lower: np.ndarray, upper: np.ndarray, a: np.ndarray, b
) -> np.ndarray:
    """Literal per-row maximum of ``h(x) = a·x + b`` over boxes.

    Picks the upper box corner where ``a > 0`` and the lower one
    otherwise, then sums each row.  ``a`` is one ``(m,)`` normal shared by
    every row or one ``(rows, m)`` normal per row (``b`` likewise a
    scalar or per-row).  This is the reference arithmetic of VDBiP's
    bisector test: the mask screen falls back to it, and tests and
    benchmarks use it as the baseline.
    """
    return np.where(a > 0, upper * a, lower * a).sum(axis=1) + b


class VDBiP(_PruningUKMeansBase):
    """Voronoi-diagram bisector pruning UK-means [11].

    For each ordered centroid pair ``(c_j, c_l)`` the bisector hyperplane
    is ``h(x) = ||x - c_j||^2 - ||x - c_l||^2 = -2 (c_j - c_l)·x +
    (||c_j||^2 - ||c_l||^2)``, a *linear* function whose maximum over a
    box is attained at a corner and computable per dimension.  If
    ``max_box h < 0``, the whole object lies strictly on ``c_j``'s side,
    so ``c_l`` can never be the closest centroid and is pruned.  An
    object whose box falls entirely inside one Voronoi cell is assigned
    with zero ED evaluations.

    The mask is computed by a certified GEMM screen whose result is
    bit-identical to evaluating :func:`_bisector_max` for every pair
    (see :meth:`_candidate_mask`).
    """

    name = "VDBiP"

    def _candidate_mask(
        self,
        boxes_lower: np.ndarray,
        boxes_upper: np.ndarray,
        centers: np.ndarray,
    ) -> np.ndarray:
        """Bisector mask: ``c_l`` is pruned for an object when ``max_h <
        0`` for some ``j != l``, where ``max_h`` is the literal
        :func:`_bisector_max` of pair ``(j, l)`` — decided by GEMMs over
        blocks of object rows and recomputed literally wherever they
        cannot certify its sign.

        **Screen.**  With ``A = -2 (c_j - c_l)`` and ``B = |c_j|^2 -
        |c_l|^2`` for all ``k^2`` pairs (the literal ``a`` and ``b``,
        bit for bit: the same elementwise operations), ``A+`` equal to
        ``A`` where ``A > 0`` and 0 elsewhere, and ``A- = A - A+``, GEMMs
        give an estimate of ``max_h`` and an error scale:

            S = up @ A+^T + lo @ A-^T + B
            T = |up| @ A+^T - |lo| @ A-^T + |B|.

        An entry is pruned if ``S < -margin``, kept if ``S > margin``,
        with ``margin = c (m + 2) eps T`` (``c = 2``); every other entry
        is recomputed by :func:`_bisector_max` on its row.

        **Proof that the screen equals the literal test.**  Let ``u =
        eps / 2`` be the unit roundoff and ``gamma_n = n u / (1 - n u)``.
        Fix an object and a pair; let ``p_i`` be the exact products
        ``up_i a_i`` (``a_i > 0``) or ``lo_i a_i`` (``a_i <= 0``), ``x =
        sum p_i`` and ``X = sum |p_i|``.

        1. *Both sums are within ``gamma`` of ``x``.*  The literal sum
           ``x_L`` (numpy's pairwise row sum) is a floating-point inner
           product of length ``m``, so ``|x_L - x| <= gamma_m X`` (Higham,
           Accuracy and Stability, eq. 3.5).  The screen's ``x_S`` is the
           rounded sum of two such inner products, in any BLAS order, FMA
           or not, whose terms are the ``p_i`` and exact zeros; so
           ``|x_S - x| <= gamma_m+1 X <= gamma_2m X``.
        2. *The final add keeps the sign.*  The literal value is
           ``fl(x_L + b)``.  Rounding is monotone and zero is
           representable; with gradual underflow the exact sum of two
           doubles is representable whenever it is subnormal.  So
           ``fl(x_L + b) < 0`` iff ``x_L + b < 0``, and it is zero only
           when ``x_L + b`` is exactly zero.
        3. *``c`` covers ``T`` and the ``+B`` rounding.*  ``T``'s terms
           are the ``|p_i|``, all non-negative (subtracting ``|lo| @
           A-^T <= 0`` adds magnitudes), so the computed ``T >= (1 -
           gamma_2m+1)(X + |b|) >= (1 - gamma_2m+1) X``.  ``S =
           fl(x_S + b) = (x_S + b)(1 + d)`` with ``|d| <= u``; the margin
           itself is one rounded product (``c (m + 2) eps`` is exact).
           If ``S < -margin`` then
           ``x_L + b <= S / (1 + u) + (gamma_m + gamma_2m) X
           <= -(1 - u)/(1 + u) * 4 (m + 2) u T + 3 m u (1 + O(m u)) T
           < 0``,
           and symmetrically ``S > margin`` gives ``x_L + b > 0``.  The
           slack ``(m + 8) u T`` left by ``c = 2`` also absorbs the
           ``O(m u^2)`` terms.
        4. *Underflow, overflow and non-finite values go to the
           fallback.*  A product that underflows adds an absolute error
           of at most ``2^-1075``; entries with ``T < tiny / eps`` are
           recomputed, and above that the slack ``(m + 8) u T >= (m + 8)
           2^-1023`` dwarfs the ``3 m 2^-1075`` of underflow.  Entries
           with ``T > max / 256`` (a partial sum of the literal could
           overflow) or a non-finite ``S`` or ``T`` are recomputed.  So
           is every row with a non-finite box bound, whatever BLAS makes
           of ``inf * 0``.  A pair with a non-finite ``A`` always has a
           non-finite ``B`` (an overflowing difference implies an
           overflowing squared norm), and numpy adds ``|B|`` to ``T``
           itself, so such pairs never pass the ``T`` test.

        Diagonal pairs (``j = l``) are never pruned, as in the literal
        pair loop.  ``pruned[i, l]`` is the OR over ``j``; the literal
        fallback runs on C-ordered row copies, whose row sums equal the
        per-pair loop's.  The screen's ``(rows, k^2)`` temporaries cover
        ``MASK_BLOCK_ELEMENTS // k^2`` object rows at a time.
        """
        lower = np.ascontiguousarray(boxes_lower, dtype=np.float64)
        upper = np.ascontiguousarray(boxes_upper, dtype=np.float64)
        n, m = lower.shape
        k = centers.shape[0]
        center_sq = np.einsum("cj,cj->c", centers, centers)
        a = (-2.0 * (centers[:, None, :] - centers[None, :, :])).reshape(k * k, m)
        b = (center_sq[:, None] - center_sq[None, :]).reshape(k * k)
        a_pos = np.where(a > 0, a, 0.0).T  # A+
        a_neg = np.where(a > 0, 0.0, a).T  # A-
        abs_b = np.abs(b)
        off_diagonal = ~np.eye(k, dtype=bool).reshape(k * k)
        scale = _MARGIN_C * (m + 2) * _EPS

        candidates = np.ones((n, k), dtype=bool)
        block = max(1, MASK_BLOCK_ELEMENTS // (k * k))
        for start in range(0, n, block):
            rows = slice(start, min(start + block, n))
            up, lo = upper[rows], lower[rows]
            # Non-finite S and T are routed to the fallback, not errors.
            with np.errstate(over="ignore", invalid="ignore"):
                value = np.matmul(up, a_pos)  # S
                value += np.matmul(lo, a_neg)
                value += b
                margin = np.matmul(np.abs(up), a_pos)  # T
                margin -= np.matmul(np.abs(lo), a_neg)
                margin += abs_b
                decided = (margin >= _SCREEN_TINY) & (margin <= _SCREEN_HUGE)
                margin *= scale
            decided &= (np.isfinite(up) & np.isfinite(lo)).all(axis=1)[:, None]
            pruned = value < -margin
            pruned &= decided
            unsure = (value > margin) | pruned
            unsure &= decided
            np.logical_not(unsure, out=unsure)
            unsure &= off_diagonal
            self._recompute(pruned, unsure, lo, up, a, b)
            candidates[rows] = ~pruned.reshape(-1, k, k).any(axis=1)
        # Safety net (degenerate equalities): keep at least one candidate.
        dead = ~candidates.any(axis=1)
        if dead.any():
            candidates[dead] = True
        return candidates

    @staticmethod
    def _recompute(
        pruned: np.ndarray,
        unsure: np.ndarray,
        lower: np.ndarray,
        upper: np.ndarray,
        a: np.ndarray,
        b: np.ndarray,
    ) -> None:
        """Decide the ``unsure`` entries of ``pruned`` with the literal
        :func:`_bisector_max`, ``MASK_BLOCK_ELEMENTS // m`` at a time."""
        obj, pair = np.nonzero(unsure)
        chunk = max(1, MASK_BLOCK_ELEMENTS // max(1, a.shape[1]))
        for start in range(0, obj.size, chunk):
            i = obj[start : start + chunk]
            p = pair[start : start + chunk]
            pruned[i, p] = _bisector_max(lower[i], upper[i], a[p], b[p]) < 0.0
