"""The relocation sweep shared by UCPC and MMVar (Algorithm 1, Corollary 1).

Both algorithms minimize a sum of per-cluster criteria that Theorem 3
and Lemma 2 write in terms of four per-cluster scalars: the summed
variances ``psi = sum_o sigma^2(o)``, the summed second moments
``phi = sum_o mu2(o)``, the squared norm ``ups = ||S||^2`` of the
mean-sum vector ``S = sum_o mu(o)``, and the size ``n``:

* UCPC (Eq. (14)):   ``J(C) = psi/n + phi - ups/n``;
* MMVar (Eq. (11)):  ``J_MM(C) = phi/n - ups/n^2``  (Proposition 2:
  ``J_MM = J_UK/|C|``).

Adding or removing one object changes each scalar by an O(m) term, so
every candidate relocation costs one ``S @ mu_o`` matvec plus O(k)
vector arithmetic (Corollary 1).  :func:`relocate` runs the sweeps;
the algorithm enters only as a :class:`ClusterObjective`.

The literal step and the non-mover screen
-----------------------------------------
Every move is decided by one *literal step*: the matvec ``x = S @ mu_o``
(one GEMV) and, for object ``o`` in cluster ``g`` and every target
``c``, the delta

    delta_c = [J(psi_g - s, phi_g - p, ups_g - 2 x_g + q, n_g - 1) - O_g]
            + [J(psi_c + s, phi_c + p, ups_c + 2 x_c + q, n_c + 1) - O_c]

with ``s``, ``p``, ``q = ||mu_o||^2`` the object's scalars and ``O`` the
stored per-cluster objectives; ``delta_g`` is set to 0 and ``o`` moves
to the arg-min if that is below the sweep's threshold ``t``.  So ``o``
stays put whenever ``delta_c > t`` for every ``c != g`` (whatever the
sign of ``t``), and always when it is its cluster's last member.

Late sweeps move few objects.  A sweep that follows one which moved at
most :data:`SCREEN_MAX_MOVER_FRACTION` of the objects *screens* blocks
of :data:`SCREEN_BLOCK_ROWS` upcoming objects: it computes a lower bound
``L_c`` of every ``delta_c`` with GEMMs and skips each object whose
bounds all exceed ``t``.  The first uncertified object runs the literal
step; if it moves, the statistics changed and screening restarts at the
next object.  Labels, objective history and the RNG stream are therefore
bit-identical with and without the screen.

**The screen.**  ``J`` is linear in ``(psi, phi, ups)`` at fixed ``n``,
``J = a(n) psi + b(n) phi + c(n) ups``, and :attr:`ClusterObjective.
magnitude` is ``|a| psi + |b| phi + |c| ups``.  So the exact value of
the literal formula, at the exact cross terms ``x``, is ``Delta_c =
W_c + W'_g`` with

    W_c  = K+_c + a+_c s + b+_c p + c+_c (q + 2 x_c)
    W'_g = K-_g - a-_g s - b-_g p + c-_g (q - 2 x_g),

``+`` taken at ``n_c + 1``, ``-`` at ``n_g - 1``, ``K+_c = J(psi_c,
phi_c, ups_c, n_c + 1) - O_c`` and ``K-_g`` likewise.  The screen reads
``a, b, c`` off ``cluster_j`` at unit inputs and evaluates both sides as
GEMMs of the coefficient rows ``[2 c S_c | a, b, c, K - M_c, ...]``
against ``[mu_o | s, p, q, 1, ...]``, with the margin folded in:

    L_c = Delta_c - M_c - M_g - 2 sigma rho_o - 2 tiny,
    M_c = sigma G_c,   G_c = magnitude(|psi_c|, |phi_c|, |ups_c|,
                                       max(n_c - 1, 1)) + |O_c|,
    rho_o = magnitude(s, p, q + 4 nu N, 1),   sigma = 2 (m + 16) eps,

where ``nu = ||mu_o||``, ``N = max_c ||S_c||`` and ``tiny`` is the
smallest normal double.  ``o`` is certified iff ``L_c > t`` for every
``c != g`` (computed; NaN fails) or ``n_g = 1``.

**Proof that a certified object does not move.**  Let ``u = eps / 2``
and ``gamma_j = j u / (1 - j u)``; ``T = G_c + G_g + 2 rho_o``.

(a) *Cross terms.*  The literal GEMV and the screen's GEMM each form
    ``S_c . mu_o`` as a floating-point inner product of length ``m``,
    in any order, with or without FMA, so each lies within
    ``gamma_m sum_j |S_cj mu_oj| <= gamma_m ||S_c|| nu <= gamma_m N nu``
    of the exact ``x_c`` (Higham, *Accuracy and Stability*, eq. 3.5,
    and Cauchy-Schwarz).
(b) *The literal step's rounding.*  Given its cross terms ``x^``, the
    step is a fixed DAG in which every leaf term passes at most 6
    roundings (``2 x`` is exact, and so is ``n * n`` below 2^26
    objects), so ``|delta_c - Delta_c(x^)| <= gamma_6`` times the sum
    of the leaf terms' magnitudes.  That sum is at most ``T``:
    ``magnitude`` is linear and non-increasing in ``n``, ``n_c + 1``
    and ``n_g - 1`` are at least ``max(n - 1, 1)``, and ``|x^| <= (1 +
    gamma_m) N nu <= 2 N nu``.
(c) *The cross error carries through the ``ups`` term.*  ``Delta_c`` is
    affine in ``(x_c, x_g)`` with slopes ``2 c+_c`` and ``-2 c-_g``,
    through ``ups/n`` (UCPC) or ``ups/n^2`` (MMVar), so by (a)
    ``|Delta_c(x^) - Delta_c(x)| <= magnitude(0, 0, 4 gamma_m N nu, 1)
    <= gamma_m rho_o``.
(d) *The screen's rounding.*  Each coefficient is at most 2 roundings
    from the statistics (the constant ``K - M`` at most 6), each product
    one more, each GEMM row an inner product of at most ``max(m, 6)``
    terms, and the two GEMMs and the two sides are added once each:
    every term reaches ``L_c`` through at most ``m + 15`` roundings, and
    the terms' magnitudes sum to ``T (1 + O(sigma))``, so ``L_c`` is
    within ``gamma_(m+15) (1 + O(sigma)) T`` of its exact expression.
(e) *Together.*  ``delta_c >= Delta_c(x) - gamma_6 T - gamma_m rho_o >=
    L_c + sigma T + 2 tiny - (gamma_(m+15) + gamma_6 + gamma_m) T (1 +
    O(sigma))``.  ``sigma T = 4 (m + 16) u T`` exceeds the subtracted
    error ``(2m + 21) u T (1 + O(m u))`` by ``(2m + 43) u T``, which
    absorbs the ``O(m u)`` relative error of computing ``G``, ``rho``,
    ``N`` and the margin itself.  Hence ``L_c > t`` implies ``delta_c >
    t``.
(f) *Underflow, overflow, non-finite values.*  A product or quotient
    that underflows adds at most ``2^-1075`` absolutely (subnormal sums
    are exact); fewer than ``4 m + 40`` such errors reach ``delta_c``
    and ``L_c``, far below the ``2 tiny = 2^-1021`` in the margin.  The
    screen runs only when ``4 magnitude(sum s, sum p, 4 (sum nu)^2, 1)
    <= max / 16``: every cluster's statistics and cross terms are
    bounded by the whole dataset's, so no intermediate of either
    computation overflows, and non-finite moments fail the test.  A
    last member's own side (``n_g - 1 = 0``) is evaluated at ``n = 1``
    only to keep its row finite; such objects are certified by rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, NamedTuple

import numpy as np

from repro._typing import IntArray
from repro.exceptions import NumericalError
from repro.objects.dataset import UncertainDataset


@dataclass(frozen=True)
class ClusterObjective:
    """A per-cluster criterion on the cached statistics.

    ``cluster_j(psi, phi, ups, n)`` evaluates ``J`` elementwise (arrays
    or scalars); it must be linear in ``(psi, phi, ups)`` at fixed
    ``n``.  ``magnitude`` is ``cluster_j`` with every term taken in
    absolute value (non-increasing in ``n >= 1``); the screen's margin
    uses it.  ``floor`` clamps the *stored* objectives only; the
    relocation deltas always use the unclamped ``J``.
    """

    cluster_j: Callable
    magnitude: Callable
    floor: float = -np.inf
    #: False when ``cluster_j`` ignores ``psi`` (the step then skips it).
    uses_psi: bool = True


UCPC_OBJECTIVE = ClusterObjective(
    lambda psi, phi, ups, n: psi / n + phi - ups / n,
    lambda psi, phi, ups, n: psi / n + phi + ups / n,
)
# The mixture variance is nonnegative; the clamp absorbs round-off below 0.
MMVAR_OBJECTIVE = ClusterObjective(
    lambda psi, phi, ups, n: phi / n - ups / (n * n),
    lambda psi, phi, ups, n: phi / n + ups / (n * n),
    floor=0.0,
    uses_psi=False,
)

# The three screen constants below were measured on KDD-shaped data
# (m = 42, k = 23) at n = 29 ... 2000 and on Table 2-shaped data at
# n = 100, UCPC and MMVar: a screen costs about 7 literal steps plus 1/40
# of a step per row, a skipped object about 1/50 of a step.
#: Upcoming objects screened per GEMM; bounds the ``(k, rows)`` screen
#: temporaries.  A move discards the rest of the block: 64 and 256 were
#: no better than 128, 32 was worse.
SCREEN_BLOCK_ROWS: int = 128
#: A sweep is screened only if the previous one moved at most this
#: fraction of the objects.  Each move costs a fresh screen, so busier
#: sweeps run unscreened; 0.15-0.3 were within a few percent, 0.5 lost.
SCREEN_MAX_MOVER_FRACTION: float = 0.2
#: Smaller datasets never screen: one screen per sweep costs about as
#: much as the steps it can skip.
SCREEN_MIN_OBJECTS: int = 16

_EPS = float(np.finfo(np.float64).eps)
_TINY = float(np.finfo(np.float64).tiny)
#: The screen runs only on data whose raw scale stays below this (proof
#: step (f)); otherwise every object takes the literal step.
_SCREEN_HUGE = float(np.finfo(np.float64).max) / 16.0
#: ``sigma = _MARGIN_C * (m + _DEPTH) * eps`` (proof step (e)).
_MARGIN_C = 2.0
_DEPTH = 16
#: Unit ``(psi, phi, ups)`` inputs that read J's coefficients off
#: ``cluster_j``, broadcast against the (2, k) with/without sizes.
_UNIT = np.eye(3).reshape(3, 3, 1, 1)
#: Signs of the ``s, p, q`` coefficients on the with / without sides,
#: and the cross-term factor ``2 c`` / ``-2 c``.
_SIDE_SIGN = np.array([1.0, -1.0, 1.0, -1.0, 1.0, 1.0]).reshape(3, 2, 1)
_CROSS_SIGN = np.array([2.0, -2.0]).reshape(2, 1)


class Relocation(NamedTuple):
    """Outcome of :func:`relocate`."""

    labels: IntArray
    history: list
    sweeps: int
    converged: bool
    moves_per_sweep: List[int]
    #: Relocation steps skipped because the screen certified them.
    skipped: int


def relocate(
    dataset: UncertainDataset,
    assignment: IntArray,
    k: int,
    rng: np.random.Generator,
    objective: ClusterObjective,
    max_iter: int,
    min_improvement: float,
) -> Relocation:
    """Relocation sweeps from ``assignment`` until none moves an object.

    Each sweep visits the objects in a fresh random order and moves each
    to the cluster with the most negative change of the summed objective,
    if that beats ``min_improvement`` relative to the current total.  A
    cluster's last member never moves, so all ``k`` clusters stay
    non-empty.  Raises :class:`~repro.exceptions.NumericalError` when the
    objective of the starting partition, or of any sweep's result, is not
    finite (overflow-scale input).
    """
    cluster_j, magnitude, floor = (
        objective.cluster_j, objective.magnitude, objective.floor
    )
    uses_psi = objective.uses_psi
    sigma2_tot = dataset.sigma2_matrix.sum(axis=1)
    mu2_tot = dataset.mu2_matrix.sum(axis=1)
    mu = dataset.mu_matrix
    mu_norm_sq = np.einsum("ij,ij->i", mu, mu)
    n = len(dataset)

    # Per-cluster statistics, one row each.  ``counts + 1`` (the size of
    # every candidate target) and the screen's ``max(counts - 1, 1)`` are
    # kept current on each move (small integers, so exact).
    stats = np.zeros((7, k))
    psi_tot, phi_tot, ups, counts = stats[:4]
    counts_plus, counts_minus, objectives = stats[4:]
    mean_sums = np.zeros((k, dataset.dim))
    counts[:] = np.bincount(assignment, minlength=k)
    np.add.at(psi_tot, assignment, sigma2_tot)
    np.add.at(phi_tot, assignment, mu2_tot)
    np.add.at(mean_sums, assignment, mu)
    ups[:] = np.einsum("cj,cj->c", mean_sums, mean_sums)
    counts_plus[:] = counts + 1.0
    counts_minus[:] = np.maximum(counts - 1.0, 1.0)

    def refresh_objectives() -> None:
        safe = np.maximum(counts, 1.0)
        per = np.maximum(cluster_j(psi_tot, phi_tot, ups, safe), floor)
        objectives[:] = np.where(counts > 0, per, 0.0)
        if not np.isfinite(objectives).all():
            raise NumericalError(
                "relocation objective is not finite; the data's scale "
                "overflows the cluster statistics"
            )

    refresh_objectives()
    history = [float(objectives.sum())]

    # Python-float mirrors of what the scalar side reads: IEEE arithmetic
    # on them equals numpy's on float64 scalars.
    labels = assignment.tolist()
    assigned = np.array(labels)
    s_of, p_of = sigma2_tot.tolist(), mu2_tot.tolist()
    q_of = mu_norm_sq.tolist()
    cnt_l, psi_l, phi_l = counts.tolist(), psi_tot.tolist(), phi_tot.tolist()
    ups_l, obj_l = ups.tolist(), objectives.tolist()

    def step(idx: int, threshold: float) -> bool:
        """The literal relocation step of object ``idx``; True if it moved."""
        own = labels[idx]
        if cnt_l[own] <= 1.0:
            return False
        s = s_of[idx]
        p = p_of[idx]
        q = q_of[idx]
        row = mu[idx]
        cross = mean_sums @ row
        # ``cross + cross`` is ``2.0 * cross`` exactly.
        j_with = cluster_j(
            psi_tot + s if uses_psi else psi_tot,
            phi_tot + p,
            ups + (cross + cross) + q,
            counts_plus,
        )
        x_own = float(cross[own])
        j_without = cluster_j(
            psi_l[own] - s,
            phi_l[own] - p,
            ups_l[own] - 2.0 * x_own + q,
            cnt_l[own] - 1.0,
        )
        # [J(own \ o) + J(c ∪ o)] - [J(own) + J(c)] for every c.
        delta = j_with - objectives
        delta += j_without - obj_l[own]
        delta[own] = 0.0
        best = int(delta.argmin())
        if best == own or not delta[best] < threshold:
            return False
        x_best = float(cross[best])
        j_best = float(j_with[best])
        for c, size in ((own, cnt_l[own] - 1.0), (best, cnt_l[best] + 1.0)):
            cnt_l[c] = counts[c] = size
            counts_plus[c] = size + 1.0
            counts_minus[c] = max(size - 1.0, 1.0)
        psi_l[own] = psi_tot[own] = psi_l[own] - s
        psi_l[best] = psi_tot[best] = psi_l[best] + s
        phi_l[own] = phi_tot[own] = phi_l[own] - p
        phi_l[best] = phi_tot[best] = phi_l[best] + p
        mean_sums[own] -= row
        mean_sums[best] += row
        ups_l[own] = ups[own] = ups_l[own] - 2.0 * x_own + q
        ups_l[best] = ups[best] = ups_l[best] + 2.0 * x_best + q
        obj_l[own] = objectives[own] = max(j_without, floor)
        obj_l[best] = objectives[best] = max(j_best, floor)
        labels[idx] = assigned[idx] = best
        return True

    # Screen constants (see the module docstring for the margin).  Per
    # object: s, p, q, 1 and the two per-object parts of the margin.
    scale = _MARGIN_C * (dataset.dim + _DEPTH) * _EPS
    norms = np.sqrt(mu_norm_sq)
    terms = np.stack(
        [
            sigma2_tot,
            mu2_tot,
            mu_norm_sq,
            np.ones(n),
            2.0 * scale * magnitude(sigma2_tot, mu2_tot, mu_norm_sq, 1.0)
            + 2.0 * _TINY,
            magnitude(0.0, 0.0, 8.0 * scale * norms, 1.0),
        ],
        axis=1,
    )
    total_norm = float(norms.sum())
    raw_scale = magnitude(
        float(sigma2_tot.sum()),
        float(mu2_tot.sum()),
        4.0 * total_norm * total_norm,
        1.0,
    )
    screenable = bool(4.0 * raw_scale <= _SCREEN_HUGE)
    # Coefficients of ``terms`` per screen row: k "with" rows, then k
    # "without" rows.  The per-object margin enters the latter only.
    term_coef = np.zeros((2 * k, terms.shape[1]))
    term_coef[k:, 4] = -1.0
    at = np.arange(SCREEN_BLOCK_ROWS)

    def screen(rows: IntArray, threshold: float) -> List[bool]:
        """Which objects of ``rows`` the literal step provably leaves put."""
        sizes = stats[4:6]
        # J is linear in (psi, phi, ups) at fixed n: its coefficients,
        # shape (3, 2, k), and its value on the current statistics.
        unit = cluster_j(_UNIT[0], _UNIT[1], _UNIT[2], sizes)
        a_psi, a_phi, a_ups, _, _, _, a_obj = np.abs(stats)
        cluster_margin = magnitude(a_psi, a_phi, a_ups, sizes[1])
        cluster_margin += a_obj
        cluster_margin *= scale
        constant = cluster_j(psi_tot, phi_tot, ups, sizes)
        constant -= objectives
        constant -= cluster_margin
        term_coef[:, :3] = (unit * _SIDE_SIGN).reshape(3, -1).T
        term_coef[:, 3] = constant.reshape(-1)
        term_coef[k:, 5] = -float(
            np.sqrt(np.einsum("cj,cj->c", mean_sums, mean_sums).max())
        )
        mean_coef = mean_sums * (unit[2] * _CROSS_SIGN)[:, :, None]
        size = rows.size
        own = assigned[rows]
        out = mean_coef.reshape(2 * k, -1) @ mu[rows].T
        out += term_coef @ terms[rows].T
        lower = out[:k] + out[own + k, at[:size]]
        lower[own, at[:size]] = np.inf
        certified = lower.min(axis=0) > threshold
        certified |= counts[own] <= 1.0
        return certified.tolist()

    iterations = 0
    converged = False
    moves: List[int] = []
    skipped = 0
    for _ in range(max_iter):
        iterations += 1
        moved = 0
        threshold = -min_improvement * max(1.0, abs(history[-1]))
        # Algorithm 1 leaves the scan order open; a fresh random order
        # per sweep avoids order artifacts in the local search.
        order = rng.permutation(n)
        # The first sweep, from a random partition, moves most objects.
        if not (
            screenable
            and n >= SCREEN_MIN_OBJECTS
            and moves
            and moves[-1] <= SCREEN_MAX_MOVER_FRACTION * n
        ):
            for idx in order.tolist():
                moved += step(idx, threshold)
        else:
            start = 0
            while start < n:
                rows = order[start : start + at.size]
                certified = screen(rows, threshold)
                block_start, start = start, start + rows.size
                for offset, idx in enumerate(rows.tolist()):
                    if certified[offset]:
                        skipped += 1
                    elif step(idx, threshold):
                        # The move changed the statistics: screen the
                        # objects after this one afresh.
                        moved += 1
                        start = block_start + offset + 1
                        break
        moves.append(moved)
        # Refresh from exact sums once per sweep to cap round-off drift.
        ups[:] = np.einsum("cj,cj->c", mean_sums, mean_sums)
        refresh_objectives()
        ups_l[:] = ups.tolist()
        obj_l[:] = objectives.tolist()
        history.append(float(objectives.sum()))
        if moved == 0:
            converged = True
            break
    return Relocation(
        np.asarray(labels, dtype=assignment.dtype),
        history,
        iterations,
        converged,
        moves,
        skipped,
    )
