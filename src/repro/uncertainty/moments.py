"""Numerical moment estimation and cross-checks.

The library's distribution families expose *analytic* moments; this
module provides the independent numerical estimates (Monte Carlo and 1-D
quadrature) used by the test-suite to validate every closed form, and by
callers holding only a black-box pdf.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._typing import FloatArray, SeedLike
from repro.exceptions import InvalidParameterError
from repro.uncertainty.base import MultivariateDistribution, UnivariateDistribution
from repro.utils.rng import ensure_rng


@dataclass(frozen=True)
class MomentEstimate:
    """Monte-Carlo estimates of a distribution's moment vectors."""

    mean_vector: FloatArray
    second_moment_vector: FloatArray
    n_samples: int

    @property
    def variance_vector(self) -> FloatArray:
        """Estimated per-dimension variances."""
        return np.maximum(self.second_moment_vector - self.mean_vector**2, 0.0)

    @property
    def total_variance(self) -> float:
        """Estimated scalar variance (Eq. (6))."""
        return float(np.sum(self.variance_vector))


def monte_carlo_moments(
    dist: MultivariateDistribution,
    n_samples: int = 20000,
    seed: SeedLike = None,
) -> MomentEstimate:
    """Estimate mean / second-moment vectors from i.i.d. samples."""
    if n_samples <= 1:
        raise InvalidParameterError(f"n_samples must be > 1, got {n_samples}")
    rng = ensure_rng(seed)
    samples = dist.sample(n_samples, rng)
    return MomentEstimate(
        mean_vector=samples.mean(axis=0),
        second_moment_vector=(samples**2).mean(axis=0),
        n_samples=n_samples,
    )


def quadrature_mass(dist: UnivariateDistribution) -> float:
    """Total probability mass of a 1-D pdf via adaptive quadrature.

    Should be ~1 for every valid distribution; the test-suite asserts it.
    """
    from scipy import integrate  # deferred: only the cross-checks need it

    lo = dist.support_lower
    hi = dist.support_upper
    if not (np.isfinite(lo) and np.isfinite(hi)):
        # Integrate the unbounded tails with scipy's infinite-limit support.
        mass, _ = integrate.quad(lambda x: float(dist.pdf(np.array([x]))[0]), lo, hi)
        return float(mass)
    if hi == lo:
        return 1.0  # point mass
    mass, _ = integrate.quad(
        lambda x: float(dist.pdf(np.array([x]))[0]), lo, hi, limit=200
    )
    return float(mass)


def quadrature_moments(dist: UnivariateDistribution) -> tuple[float, float]:
    """(mean, second moment) of a 1-D pdf via adaptive quadrature."""
    from scipy import integrate  # deferred: only the cross-checks need it

    lo = dist.support_lower
    hi = dist.support_upper
    if hi == lo:
        return lo, lo * lo

    def integrand_mean(x: float) -> float:
        return x * float(dist.pdf(np.array([x]))[0])

    def integrand_second(x: float) -> float:
        return x * x * float(dist.pdf(np.array([x]))[0])

    mean, _ = integrate.quad(integrand_mean, lo, hi, limit=200)
    second, _ = integrate.quad(integrand_second, lo, hi, limit=200)
    return float(mean), float(second)
