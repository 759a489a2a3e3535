"""Eager argument validation helpers.

The library validates inputs at its public boundaries and raises
:class:`~repro.exceptions.InvalidParameterError` /
:class:`~repro.exceptions.DimensionMismatchError` immediately, rather
than letting numpy broadcast errors surface from deep inside an
iteration loop.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro._typing import FloatArray, IntArray, MatrixLike, VectorLike
from repro.exceptions import DimensionMismatchError, InvalidParameterError


def ensure_vector(
    values: VectorLike,
    name: str = "values",
    dim: Optional[int] = None,
    allow_infinite: bool = False,
) -> FloatArray:
    """Convert ``values`` to a contiguous 1-D float64 array.

    Parameters
    ----------
    values:
        Sequence or array convertible to a 1-D float vector.
    name:
        Argument name used in error messages.
    dim:
        When given, the required length of the vector.
    allow_infinite:
        Permit +-inf entries (used for unbounded region limits); NaN is
        always rejected.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1:
        raise InvalidParameterError(
            f"{name} must be 1-dimensional, got shape {arr.shape}"
        )
    if dim is not None and arr.shape[0] != dim:
        raise DimensionMismatchError(
            f"{name} must have length {dim}, got {arr.shape[0]}"
        )
    if allow_infinite:
        if np.any(np.isnan(arr)):
            raise InvalidParameterError(f"{name} must not contain NaN")
    else:
        check_finite_array(arr, name)
    return np.ascontiguousarray(arr)


def ensure_matrix(
    values: MatrixLike,
    name: str = "values",
    cols: Optional[int] = None,
) -> FloatArray:
    """Convert ``values`` to a contiguous 2-D float64 array."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise InvalidParameterError(
            f"{name} must be 2-dimensional, got shape {arr.shape}"
        )
    if cols is not None and arr.shape[1] != cols:
        raise DimensionMismatchError(
            f"{name} must have {cols} columns, got {arr.shape[1]}"
        )
    check_finite_array(arr, name)
    return np.ascontiguousarray(arr)


def check_finite_array(arr: np.ndarray, name: str = "values") -> None:
    """Raise if ``arr`` contains NaN or infinity."""
    if not np.all(np.isfinite(arr)):
        raise InvalidParameterError(f"{name} must contain only finite values")


def check_positive(value: float, name: str, strict: bool = True) -> float:
    """Validate a scalar is positive (or nonnegative when ``strict=False``)."""
    value = float(value)
    if not np.isfinite(value):
        raise InvalidParameterError(f"{name} must be finite, got {value}")
    if strict and value <= 0:
        raise InvalidParameterError(f"{name} must be > 0, got {value}")
    if not strict and value < 0:
        raise InvalidParameterError(f"{name} must be >= 0, got {value}")
    return value


def check_probability(value: float, name: str) -> float:
    """Validate a scalar lies in the closed interval [0, 1]."""
    value = float(value)
    if not (0.0 <= value <= 1.0):
        raise InvalidParameterError(f"{name} must be in [0, 1], got {value}")
    return value


def check_int_range(
    value: int,
    name: str,
    low: Optional[int] = None,
    high: Optional[int] = None,
) -> int:
    """Validate an integer lies in ``[low, high]`` (either bound optional)."""
    if not isinstance(value, (int, np.integer)):
        raise InvalidParameterError(
            f"{name} must be an integer, got {type(value).__name__}"
        )
    value = int(value)
    if low is not None and value < low:
        raise InvalidParameterError(f"{name} must be >= {low}, got {value}")
    if high is not None and value > high:
        raise InvalidParameterError(f"{name} must be <= {high}, got {value}")
    return value


def ensure_labels(labels, n: int) -> IntArray:
    """Convert per-row class labels to an int64 vector of length ``n``.

    Labels must be integral: ``1.0`` is accepted as class 1, but ``0.5``
    is rejected instead of being truncated to class 0.
    """
    arr = np.asarray(labels)
    if arr.ndim != 1 or arr.shape[0] != n:
        raise InvalidParameterError("labels length must match points rows")
    if arr.dtype.kind in "biu":
        return arr.astype(np.int64)
    try:
        values = arr.astype(np.float64)
    except (TypeError, ValueError):
        raise InvalidParameterError(
            f"labels must be integers, got dtype {arr.dtype}"
        ) from None
    fractional = ~(np.isfinite(values) & (values == np.trunc(values)))
    if fractional.any():
        raise InvalidParameterError(
            f"labels must be integral, got {values[fractional][0]!r}"
        )
    return values.astype(np.int64)
