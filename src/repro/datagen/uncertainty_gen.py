"""Uncertainty generation over deterministic datasets — Section 5.1 (S22).

The paper's evaluation pipeline, reproduced faithfully:

1. For every deterministic point ``w`` of a benchmark dataset, generate
   a pdf ``f_w`` whose *expected value is exactly* ``w`` while every
   other parameter (uniform width, normal std, exponential rate and
   direction) is chosen at random.  Three families: Uniform, Normal,
   Exponential.
2. **Case 1** — build a *perturbed deterministic* dataset ``D'`` by
   replacing each ``w`` with one draw from ``f_w`` (Monte Carlo, or
   Markov-Chain Monte Carlo when ``use_mcmc=True`` — the paper invokes
   both via the SSJ library).
3. **Case 2** — build the *uncertain* dataset ``D''`` whose object for
   ``w`` is ``(R, f_w)`` with ``R`` the region containing ``mass``
   (default 95%) of ``f_w``'s probability.

Both datasets derive from the *same* per-point pdfs, which is what makes
``Theta = F(C'') - F(C')`` a paired comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro._typing import SeedLike
from repro.exceptions import InvalidParameterError
from repro.objects.dataset import UncertainDataset
from repro.uncertainty.columns import (
    ProductColumns,
    TruncatedExponentialColumns,
    TruncatedNormalColumns,
    UniformColumns,
)
from repro.uncertainty.sampling import MetropolisHastingsSampler
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_probability, ensure_labels, ensure_matrix

#: The pdf families of the paper's Table 2 (U / N / E).
PDF_FAMILIES = ("uniform", "normal", "exponential")


@dataclass(frozen=True)
class UncertainDataPair:
    """The paired outputs of the Section 5.1 generation strategy.

    Attributes
    ----------
    perturbed:
        ``D'`` — deterministic dataset of one draw per point (Case 1).
    uncertain:
        ``D''`` — uncertain dataset of truncated pdfs (Case 2).
    """

    perturbed: UncertainDataset
    uncertain: UncertainDataset


class UncertaintyGenerator:
    """Per-point pdf assignment and the Case-1/Case-2 dataset pair.

    Parameters
    ----------
    family:
        ``"uniform"``, ``"normal"`` or ``"exponential"``.
    spread:
        Overall uncertainty magnitude: per-point scales are drawn from
        ``U(0.1, 1.0) * spread * column_std``.  Dimensionless knob; the
        paper leaves the analogous choice unspecified ("randomly
        chosen"), 0.5-1.0 reproduces its qualitative regime.
    mass:
        Probability mass the Case-2 region must contain (paper: 95%).
    use_mcmc:
        Perturb via a Metropolis-Hastings chain instead of direct Monte
        Carlo draws (the paper uses both).

    Notes
    -----
    Both datasets are columnar (:mod:`repro.uncertainty.columns`): the
    pdf parameters of all ``n * m`` cells are computed as arrays, and
    the Monte Carlo perturbation is one block of uniforms mapped through
    the vectorized inverse CDFs.  The block is drawn in the object-major
    order of a per-point loop — ``m`` draws per point, or ``m``
    exponential directions then ``m`` draws — so the datasets and the
    generator's final state equal those of an object-by-object
    construction, draw for draw.
    """

    def __init__(
        self,
        family: str = "normal",
        spread: float = 0.75,
        mass: float = 0.95,
        use_mcmc: bool = False,
    ):
        family = family.lower()
        if family not in PDF_FAMILIES:
            raise InvalidParameterError(
                f"family must be one of {PDF_FAMILIES}, got {family!r}"
            )
        if not (np.isfinite(spread) and spread > 0):
            raise InvalidParameterError(
                f"spread must be finite and > 0, got {spread}"
            )
        check_probability(mass, "mass")
        if mass <= 0.0:
            raise InvalidParameterError("mass must be positive")
        self.family = family
        self.spread = float(spread)
        self.mass = float(mass)
        self.use_mcmc = bool(use_mcmc)

    # ------------------------------------------------------------------
    # Main entry point
    # ------------------------------------------------------------------
    def generate(
        self,
        points: np.ndarray,
        labels: Optional[np.ndarray] = None,
        seed: SeedLike = None,
    ) -> UncertainDataPair:
        """Generate the Case-1 / Case-2 dataset pair for ``points``."""
        pts = ensure_matrix(points, "points")
        n, m = pts.shape
        if labels is not None:
            labels = ensure_labels(labels, n)
        rng = ensure_rng(seed)

        # Per-point, per-dimension uncertainty scales relative to each
        # column's spread ("randomly chosen" parameters of the paper).
        with np.errstate(over="ignore"):  # overflow is reported below
            column_std = pts.std(axis=0)
        column_std = np.where(column_std > 0, column_std, 1.0)
        column_scale = self.spread * column_std
        if not np.all(np.isfinite(column_scale)):
            j = int(np.argmin(np.isfinite(column_scale)))
            raise InvalidParameterError(
                f"column {j}'s uncertainty scale spread * std is not finite "
                f"({column_scale[j]}); rescale the points"
            )
        scales = rng.uniform(0.1, 1.0, size=(n, m)) * self.spread * column_std

        if self.use_mcmc:
            directions, draws = self._mcmc(pts, scales, rng)
            _, truncated = self._pdf_columns(pts, scales, directions)
        else:
            # One block in the stream order of a per-point loop: per
            # point, the exponential family's m directions, then the m
            # quantiles of its perturbation draw.
            n_directions = m if self.family == "exponential" else 0
            block = rng.random((n, n_directions + m))
            full, truncated = self._pdf_columns(
                pts, scales, block[:, :n_directions]
            )
            draws = full.transform(block[:, n_directions:])
        return UncertainDataPair(
            perturbed=UncertainDataset.from_points(draws, labels),
            uncertain=UncertainDataset._from_columns(truncated, labels),
        )

    def uncertain_dataset(
        self,
        points: np.ndarray,
        labels: Optional[np.ndarray] = None,
        seed: SeedLike = None,
    ) -> UncertainDataset:
        """Only the Case-2 uncertain dataset (``D''``)."""
        return self.generate(points, labels, seed).uncertain

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _pdf_columns(
        self,
        pts: np.ndarray,
        scales: np.ndarray,
        directions: Optional[np.ndarray],
    ) -> Tuple[ProductColumns, ProductColumns]:
        """The untruncated ``f_w`` and its ``mass`` truncation, as columns.

        ``f_w`` has expected value ``w`` and scale ``scales``; the
        exponential family decays rightwards where ``directions < 0.5``.
        The truncated columns re-derive their parameters from the
        untruncated ones instead of re-drawing, so D' and D'' share the
        same underlying pdf.
        """
        if self.family == "uniform":
            half = scales * np.sqrt(3.0)  # std s => half-width s*sqrt(3)
            full = UniformColumns.build(pts - half, pts + half)
            # A uniform's central `mass` interval is just a narrower
            # uniform around the same center.
            lower, upper = full.support_lower, full.support_upper
            half = 0.5 * (upper - lower) * self.mass
            center = 0.5 * (upper + lower)
            return full, UniformColumns.build(center - half, center + half)
        if self.family == "normal":
            return (
                TruncatedNormalColumns.central_mass(pts, scales, 1.0),
                TruncatedNormalColumns.central_mass(pts, scales, self.mass),
            )
        rate = 1.0 / scales
        sign = np.where(directions < 0.5, 1.0, -1.0)
        full = TruncatedExponentialColumns.with_mean(pts, rate, sign)
        mean = full.origin + sign / rate
        return full, TruncatedExponentialColumns.with_mean(
            mean, rate, sign, self.mass
        )

    def _mcmc(self, pts, scales, rng):
        """Per-point Metropolis-Hastings perturbation.

        MCMC needs a bounded support, so each chain targets the
        truncated pdf, whose region carries ``mass`` of ``f_w`` — the
        perturbations are equally representative of ``f_w``.  A point's
        exponential directions are drawn right before its chain, as the
        chain's draws interleave with them in the shared stream.
        """
        n, m = pts.shape
        mcmc = MetropolisHastingsSampler(seed=rng)
        directions = np.empty((n, m)) if self.family == "exponential" else None
        draws = np.empty((n, m))
        for i in range(n):
            row = slice(i, i + 1)
            if directions is not None:
                directions[i] = rng.random(m)
            _, truncated = self._pdf_columns(
                pts[row], scales[row],
                None if directions is None else directions[row],
            )
            target = truncated.materialize(0)
            draws[i] = mcmc.draw(target.pdf, target.region, size=1)[0]
        return directions, draws
