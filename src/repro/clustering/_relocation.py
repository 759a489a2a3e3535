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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro._typing import IntArray
from repro.objects.dataset import UncertainDataset


@dataclass(frozen=True)
class ClusterObjective:
    """A per-cluster criterion on the cached statistics.

    ``cluster_j(psi, phi, ups, n)`` evaluates ``J`` elementwise (arrays
    or scalars).  ``floor`` clamps the *stored* objectives only; the
    relocation deltas always use the unclamped ``J``.
    """

    cluster_j: Callable
    floor: float = -np.inf


UCPC_OBJECTIVE = ClusterObjective(lambda psi, phi, ups, n: psi / n + phi - ups / n)
# The mixture variance is nonnegative; the clamp absorbs round-off below 0.
MMVAR_OBJECTIVE = ClusterObjective(
    lambda psi, phi, ups, n: phi / n - ups / (n * n), floor=0.0
)


def relocate(
    dataset: UncertainDataset,
    assignment: IntArray,
    k: int,
    rng: np.random.Generator,
    objective: ClusterObjective,
    max_iter: int,
    min_improvement: float,
) -> tuple[IntArray, list, int, bool]:
    """Relocation sweeps from ``assignment`` until none moves an object.

    Each sweep visits the objects in a fresh random order and moves each
    to the cluster with the most negative change of the summed objective,
    if that beats ``min_improvement`` relative to the current total.  A
    cluster's last member never moves, so all ``k`` clusters stay
    non-empty.  Returns ``(labels, objective_history, sweeps, converged)``.
    """
    assignment = assignment.copy()
    cluster_j, floor = objective.cluster_j, objective.floor
    sigma2_tot = dataset.sigma2_matrix.sum(axis=1)
    mu2_tot = dataset.mu2_matrix.sum(axis=1)
    mu = dataset.mu_matrix
    mu_norm_sq = np.einsum("ij,ij->i", mu, mu)

    counts = np.bincount(assignment, minlength=k).astype(np.float64)
    psi_tot = np.zeros(k)
    phi_tot = np.zeros(k)
    mean_sums = np.zeros((k, dataset.dim))
    np.add.at(psi_tot, assignment, sigma2_tot)
    np.add.at(phi_tot, assignment, mu2_tot)
    np.add.at(mean_sums, assignment, mu)
    ups = np.einsum("cj,cj->c", mean_sums, mean_sums)

    def objectives_vector() -> np.ndarray:
        safe = np.maximum(counts, 1.0)
        per = np.maximum(cluster_j(psi_tot, phi_tot, ups, safe), floor)
        return np.where(counts > 0, per, 0.0)

    objectives = objectives_vector()
    history = [float(objectives.sum())]

    iterations = 0
    converged = False
    for _ in range(max_iter):
        iterations += 1
        moved = 0
        threshold = -min_improvement * max(1.0, abs(history[-1]))
        # Algorithm 1 leaves the scan order open; a fresh random order
        # per sweep avoids order artifacts in the local search.
        for idx in rng.permutation(len(dataset)):
            idx = int(idx)
            own = int(assignment[idx])
            if counts[own] <= 1.0:
                continue
            s = sigma2_tot[idx]
            p = mu2_tot[idx]
            cross = mean_sums @ mu[idx]
            j_with = cluster_j(
                psi_tot + s,
                phi_tot + p,
                ups + 2.0 * cross + mu_norm_sq[idx],
                counts + 1.0,
            )
            j_without = cluster_j(
                psi_tot[own] - s,
                phi_tot[own] - p,
                ups[own] - 2.0 * cross[own] + mu_norm_sq[idx],
                counts[own] - 1.0,
            )
            # [J(own \ o) + J(c ∪ o)] - [J(own) + J(c)] for every c.
            delta = (j_without - objectives[own]) + (j_with - objectives)
            delta[own] = 0.0
            best = int(np.argmin(delta))
            if best != own and delta[best] < threshold:
                counts[own] -= 1.0
                counts[best] += 1.0
                psi_tot[own] -= s
                psi_tot[best] += s
                phi_tot[own] -= p
                phi_tot[best] += p
                mean_sums[own] -= mu[idx]
                mean_sums[best] += mu[idx]
                ups[own] = ups[own] - 2.0 * cross[own] + mu_norm_sq[idx]
                ups[best] = ups[best] + 2.0 * cross[best] + mu_norm_sq[idx]
                objectives[own] = max(j_without, floor)
                objectives[best] = max(float(j_with[best]), floor)
                assignment[idx] = best
                moved += 1
        # Refresh from exact sums once per sweep to cap round-off drift.
        ups = np.einsum("cj,cj->c", mean_sums, mean_sums)
        objectives = objectives_vector()
        history.append(float(objectives.sum()))
        if moved == 0:
            converged = True
            break
    return assignment, history, iterations, converged
