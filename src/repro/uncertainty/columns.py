"""Columnar parameters of product-family uncertain datasets.

A dataset whose objects are all independent products of one family's
marginals (or all point masses) is fully described by that family's
per-cell parameters, stacked into read-only ``(n, m)`` arrays.  This
module holds those columns for the four families the generators build —
uniform, truncated normal, truncated exponential and point mass — and
derives everything the clustering layers need straight from the arrays:
the moment matrices, the support boxes, the batch-sampling plan and the
quantile transform.  Objects are built only on request
(:meth:`ProductColumns.materialize`), through the scalar constructors.

Exactness: every array formula repeats its scalar constructor's float
operations in the same order, so columns and objects agree bit for bit.
Two scalar libm calls are kept scalar because their NumPy counterparts
differ in the last ulp: the truncated normal's ``mean**2`` (CPython
``pow``) runs per element, and the truncated exponential's
``exp``/``expm1`` run once per distinct ``rate * cutoff`` value (a
handful per dataset) and are gathered.  Validation mirrors the scalar
constructors and raises the same :class:`InvalidParameterError`\\ s.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Tuple

import numpy as np
from scipy.special import ndtr, ndtri

from repro._typing import FloatArray
from repro.exceptions import InvalidParameterError
from repro.uncertainty.base import MultivariateDistribution
from repro.uncertainty.batch import (
    SamplingPlan,
    _FamilyGroup,
    _truncated_exponential_apply,
    _truncated_normal_apply,
    _uniform_apply,
)
from repro.uncertainty.exponential import TruncatedExponentialDistribution
from repro.uncertainty.normal import TruncatedNormalDistribution, _phi
from repro.uncertainty.point import MultivariatePointMass
from repro.uncertainty.product import IndependentProduct
from repro.uncertainty.uniform import UniformDistribution


def _matrix(values, shape=None) -> FloatArray:
    """A private float64 copy of ``values``, broadcast to ``shape``."""
    arr = np.asarray(values, dtype=np.float64)
    if shape is not None:
        arr = np.broadcast_to(arr, shape)
    if arr.ndim != 2:
        raise InvalidParameterError(
            f"parameter columns must be 2-D, got shape {arr.shape}"
        )
    return np.array(arr)


def _first(mask: np.ndarray, values: FloatArray) -> float:
    """The value at the first flagged cell (for error messages)."""
    return float(values[mask][0])


def _per_distinct(values: FloatArray, fn: Callable[[float], float]) -> FloatArray:
    """``fn`` (a scalar libm call) at every cell, evaluated once per value."""
    distinct, inverse = np.unique(values, return_inverse=True)
    mapped = np.array([fn(v) for v in distinct.tolist()], dtype=np.float64)
    return mapped[inverse].reshape(values.shape)


class ProductColumns:
    """Read-only ``(n, m)`` parameter arrays of one product family.

    Subclasses name the arrays their batch transform takes
    (``_plan_fields``) and their scalar constructor takes
    (``_marginal_fields``); ``lower``/``upper`` always hold the support.
    """

    __slots__ = ("_arrays",)

    _plan_fields: Tuple[str, ...] = ()
    _marginal_fields: Tuple[str, ...] = ()

    def __init__(self, arrays: Dict[str, FloatArray]):
        for arr in arrays.values():
            arr.setflags(write=False)
        self._arrays = arrays

    def __reduce__(self):
        return type(self), (dict(self._arrays),)

    @property
    def shape(self) -> Tuple[int, int]:
        """``(n, m)``: objects by dimensions."""
        return self._arrays["lower"].shape

    @property
    def support_lower(self) -> FloatArray:
        """Per-cell lower support bounds, shape ``(n, m)``."""
        return self._arrays["lower"]

    @property
    def support_upper(self) -> FloatArray:
        """Per-cell upper support bounds, shape ``(n, m)``."""
        return self._arrays["upper"]

    def take(self, rows) -> "ProductColumns":
        """Columns restricted to the given object rows."""
        return type(self)({name: arr[rows] for name, arr in self._arrays.items()})

    def moments(self) -> Tuple[FloatArray, FloatArray]:
        """``(mu, mu2)`` matrices, equal to the scalar constructors' moments."""
        raise NotImplementedError

    # -- sampling ---------------------------------------------------------
    @staticmethod
    def _apply(q: FloatArray, *params: FloatArray) -> FloatArray:
        raise NotImplementedError

    def _plan_params(self) -> Tuple[FloatArray, ...]:
        return tuple(self._arrays[name].reshape(-1, 1) for name in self._plan_fields)

    def transform(self, q: FloatArray) -> FloatArray:
        """Map an ``(n, m)`` quantile matrix through every cell's inverse CDF."""
        return self._apply(q.reshape(-1, 1), *self._plan_params()).reshape(self.shape)

    def sampling_plan(self) -> SamplingPlan:
        """A plan with one dense family group over every cell.

        The cells are raveled in (object, dim) order, the order in which
        :func:`~repro.uncertainty.batch.build_sampling_plan` collects the
        marginals of the equivalent objects, so both plans consume the
        random stream identically.
        """
        n, m = self.shape
        group = _FamilyGroup(
            self._apply,
            np.repeat(np.arange(n, dtype=np.intp), m),
            np.tile(np.arange(m, dtype=np.intp), n),
            self._plan_params(),
            True,
        )
        return SamplingPlan(
            n, m, [group], np.empty(0, dtype=np.intp), np.empty((0, m)),
            None, None, [],
        )

    # -- objects ------------------------------------------------------------
    @staticmethod
    def _marginal(*params):
        raise NotImplementedError

    def materialize(self, i: int) -> MultivariateDistribution:
        """Object ``i``'s distribution, built by the scalar constructors."""
        cells = zip(*(self._arrays[name][i].tolist() for name in self._marginal_fields))
        return IndependentProduct([self._marginal(*cell) for cell in cells])


class UniformColumns(ProductColumns):
    """Uniform marginals on ``[lower, upper]``."""

    __slots__ = ()
    _plan_fields = ("lower", "width")
    _marginal_fields = ("lower", "upper")
    _apply = staticmethod(_uniform_apply)
    _marginal = staticmethod(UniformDistribution)

    @classmethod
    def build(cls, lower, upper) -> "UniformColumns":
        lower = _matrix(lower)
        upper = _matrix(upper, lower.shape)
        if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))):
            raise InvalidParameterError("uniform bounds must be finite")
        inverted = lower > upper
        if inverted.any():
            raise InvalidParameterError(
                f"lower ({_first(inverted, lower)}) must not exceed upper "
                f"({_first(inverted, upper)})"
            )
        return cls({"lower": lower, "upper": upper, "width": upper - lower})

    def moments(self):
        a = self._arrays["lower"]
        b = self._arrays["upper"]
        return 0.5 * (a + b), (a * a + a * b + b * b) / 3.0


class TruncatedNormalColumns(ProductColumns):
    """Normal(loc, scale) marginals truncated to ``[lower, upper]``."""

    __slots__ = ()
    _plan_fields = ("loc", "scale", "lower", "upper", "cdf_alpha", "z_mass")
    _marginal_fields = ("loc", "scale", "lower", "upper")
    _apply = staticmethod(_truncated_normal_apply)
    _marginal = staticmethod(TruncatedNormalDistribution)

    @classmethod
    def build(cls, loc, scale, lower=-np.inf, upper=np.inf) -> "TruncatedNormalColumns":
        loc = _matrix(loc)
        scale = _matrix(scale, loc.shape)
        lower = _matrix(lower, loc.shape)
        upper = _matrix(upper, loc.shape)
        if not np.all(np.isfinite(loc)):
            raise InvalidParameterError("loc must be finite")
        bad_scale = ~(np.isfinite(scale) & (scale > 0))
        if bad_scale.any():
            raise InvalidParameterError(
                f"scale must be > 0, got {_first(bad_scale, scale)}"
            )
        empty = lower >= upper
        if empty.any():
            raise InvalidParameterError(
                f"lower ({_first(empty, lower)}) must be strictly less than "
                f"upper ({_first(empty, upper)})"
            )
        alpha = (lower - loc) / scale
        beta = (upper - loc) / scale
        cdf_alpha = np.where(np.isfinite(alpha), ndtr(alpha), 0.0)
        cdf_beta = np.where(np.isfinite(beta), ndtr(beta), 1.0)
        z_mass = cdf_beta - cdf_alpha
        if np.any(z_mass <= 0.0):
            raise InvalidParameterError(
                "truncation interval captures zero probability mass"
            )
        return cls({
            "loc": loc, "scale": scale, "lower": lower, "upper": upper,
            "cdf_alpha": cdf_alpha, "z_mass": z_mass,
        })

    @classmethod
    def central_mass(cls, loc, scale, mass: float = 0.95) -> "TruncatedNormalColumns":
        """Columnar :meth:`TruncatedNormalDistribution.central_mass`."""
        if not (0.0 < mass <= 1.0):
            raise InvalidParameterError(f"mass must be in (0, 1], got {mass}")
        if mass == 1.0:
            return cls.build(loc, scale)
        loc = _matrix(loc)
        half = float(ndtri(0.5 + mass / 2.0)) * _matrix(scale, loc.shape)
        return cls.build(loc, scale, loc - half, loc + half)

    def moments(self):
        arrays = self._arrays
        loc, scale, z_mass = arrays["loc"], arrays["scale"], arrays["z_mass"]
        alpha = (arrays["lower"] - loc) / scale
        beta = (arrays["upper"] - loc) / scale
        phi_alpha = np.where(np.isfinite(alpha), _phi(alpha), 0.0)
        phi_beta = np.where(np.isfinite(beta), _phi(beta), 0.0)
        alpha_term = np.multiply(
            alpha, phi_alpha, out=np.zeros_like(alpha), where=phi_alpha > 0.0
        )
        beta_term = np.multiply(
            beta, phi_beta, out=np.zeros_like(beta), where=phi_beta > 0.0
        )
        delta = (phi_alpha - phi_beta) / z_mass
        mean = loc + scale * delta
        spread = 1.0 + (alpha_term - beta_term) / z_mass - delta * delta
        variance = scale * scale * np.where(0.0 > spread, 0.0, spread)
        # ``mean**2`` of a Python float is libm ``pow``; np.square is not
        # bit-identical to it, so the term is computed per element.
        mean_sq = np.array([v**2 for v in mean.ravel().tolist()], dtype=np.float64)
        return mean, variance + mean_sq.reshape(mean.shape)


class TruncatedExponentialColumns(ProductColumns):
    """``origin + direction * T``, ``T ~ Exp(rate)`` truncated to ``[0, cutoff]``."""

    __slots__ = ()
    _plan_fields = ("origin", "rate", "direction", "cutoff", "mass")
    _marginal_fields = ("origin", "rate", "cutoff", "direction")
    _apply = staticmethod(_truncated_exponential_apply)

    @property
    def origin(self) -> FloatArray:
        """Per-cell density peaks."""
        return self._arrays["origin"]

    @staticmethod
    def _marginal(origin, rate, cutoff, direction):
        return TruncatedExponentialDistribution(origin, rate, cutoff, int(direction))

    @staticmethod
    def _check_direction(direction: FloatArray) -> None:
        bad = (direction != 1.0) & (direction != -1.0)
        if bad.any():
            raise InvalidParameterError(
                f"direction must be +1 or -1, got {_first(bad, direction)}"
            )

    @staticmethod
    def _check_rate(rate: FloatArray) -> None:
        bad = ~(np.isfinite(rate) & (rate > 0))
        if bad.any():
            raise InvalidParameterError(f"rate must be > 0, got {_first(bad, rate)}")

    @classmethod
    def build(cls, origin, rate, cutoff=np.inf, direction=1.0) -> "TruncatedExponentialColumns":
        origin = _matrix(origin)
        rate = _matrix(rate, origin.shape)
        cutoff = _matrix(cutoff, origin.shape)
        direction = _matrix(direction, origin.shape)
        if not np.all(np.isfinite(origin)):
            raise InvalidParameterError("origin must be finite")
        cls._check_rate(rate)
        short = cutoff <= 0
        if short.any():
            raise InvalidParameterError(
                f"cutoff must be > 0, got {_first(short, cutoff)}"
            )
        cls._check_direction(direction)
        finite = np.isfinite(cutoff)
        mass = np.ones_like(cutoff)
        if finite.any():
            mass[finite] = _per_distinct(
                rate[finite] * cutoff[finite], lambda lam_c: -math.expm1(-lam_c)
            )
        upward = direction == 1.0
        return cls({
            "origin": origin, "rate": rate, "cutoff": cutoff,
            "direction": direction, "mass": mass,
            "lower": np.where(upward, origin, origin - cutoff),
            "upper": np.where(upward, origin + cutoff, origin),
        })

    @classmethod
    def with_mean(cls, mean, rate, direction, mass: float = 1.0) -> "TruncatedExponentialColumns":
        """Columnar :meth:`TruncatedExponentialDistribution.with_mean`."""
        mean = _matrix(mean)
        rate = _matrix(rate, mean.shape)
        direction = _matrix(direction, mean.shape)
        cls._check_direction(direction)
        if not (0.0 < mass <= 1.0):
            raise InvalidParameterError(f"mass must be in (0, 1], got {mass}")
        cls._check_rate(rate)
        origin = mean - direction / rate
        cutoff = np.inf if mass == 1.0 else -math.log(1.0 - mass) / rate
        return cls.build(origin, rate, cutoff, direction)

    def moments(self):
        arrays = self._arrays
        origin, rate, cutoff = arrays["origin"], arrays["rate"], arrays["cutoff"]
        direction = arrays["direction"]
        t_mean = 1.0 / rate
        t_second = 2.0 / (rate * rate)
        finite = np.isfinite(cutoff)
        if finite.any():
            r, c = rate[finite], cutoff[finite]
            tail_ratio = _per_distinct(
                r * c, lambda lam_c: math.exp(-lam_c) / (-math.expm1(-lam_c))
            )
            t_mean[finite] = 1.0 / r - c * tail_ratio
            t_second[finite] = 2.0 / (r * r) - (c * c + 2.0 * c / r) * tail_ratio
        mean = origin + direction * t_mean
        second = origin * origin + 2.0 * origin * direction * t_mean + t_second
        return mean, second


class PointColumns(ProductColumns):
    """Point masses: every cell is a deterministic value."""

    __slots__ = ()

    @classmethod
    def build(cls, values) -> "PointColumns":
        values = _matrix(values)
        if not np.all(np.isfinite(values)):
            raise InvalidParameterError("point must contain only finite values")
        return cls({"lower": values, "upper": values})

    def moments(self):
        values = self._arrays["lower"]
        return values, values**2

    def sampling_plan(self) -> SamplingPlan:
        """Point rows only: like point-mass objects, draws no randomness."""
        n, m = self.shape
        return SamplingPlan(
            n, m, [], np.arange(n, dtype=np.intp), self._arrays["lower"],
            None, None, [],
        )

    def materialize(self, i: int) -> MultivariateDistribution:
        return MultivariatePointMass(self._arrays["lower"][i])
