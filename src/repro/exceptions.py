"""Exception hierarchy for the :mod:`repro` library.

Every error raised on purpose by this library derives from
:class:`ReproError`, so callers can catch library failures with a single
``except`` clause while still distinguishing the failure class when they
need to.
"""

from __future__ import annotations

import sys
import warnings


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class InvalidParameterError(ReproError, ValueError):
    """An argument value is outside the accepted domain.

    Raised eagerly at construction/call time so that misconfiguration
    surfaces at the call site instead of deep inside an iteration loop.
    """


class DimensionMismatchError(ReproError, ValueError):
    """Two entities that must share dimensionality do not.

    Examples: an uncertain object compared against a point of different
    length, or a dataset mixing objects of different dimensionality.
    """


class EmptyClusterError(ReproError, RuntimeError):
    """An operation that needs a non-empty cluster received an empty one."""


class EmptyDatasetError(ReproError, ValueError):
    """An operation that needs a non-empty dataset received an empty one."""


class NotFittedError(ReproError, RuntimeError):
    """A result attribute was accessed before the model was fitted."""


class NumericalError(ReproError, ArithmeticError):
    """A computation left the finite floating-point range.

    Raised instead of returning a result built on non-finite values —
    for example when every proximity of an agglomeration overflows, so
    no merge can be chosen.
    """


class ConvergenceWarning(UserWarning):
    """A clustering run hit its iteration cap before converging."""


def warn_convergence(message: str) -> None:
    """Emit a :class:`ConvergenceWarning` once per *fit*, reliably.

    ``warnings.warn`` records each (message, category, lineno) in the
    calling module's ``__warningregistry__``; under the ``"default"``
    filter action a second non-converged fit in the same process is then
    silently deduplicated, while under ``processes`` backends the
    registry lives in the worker and the warning never reaches the
    parent at all.  Calling :func:`warnings.warn_explicit` with a fresh
    registry sidesteps the cross-fit deduplication — every
    non-converged fit emits exactly one warning — while still honoring
    the active filters, so ``simplefilter("ignore", ConvergenceWarning)``
    keeps working.  (Cross-process visibility is handled separately: the
    multi-restart engine counts non-converged restarts in its extras and
    re-warns once in the parent.)
    """
    frame = sys._getframe(1)
    warnings.warn_explicit(
        message,
        ConvergenceWarning,
        frame.f_code.co_filename,
        frame.f_lineno,
        module=frame.f_globals.get("__name__", "repro"),
        registry={},
    )


class UnsupportedDistributionError(ReproError, TypeError):
    """A distribution family does not support the requested operation."""


class SweepStoreError(ReproError, RuntimeError):
    """A sweep result store cannot be (re)used as requested.

    Raised — on every store backend (JSON directory or SQLite file) —
    when a store belongs to a different grid, already holds results and
    ``resume`` was not requested, its manifest is unreadable, its
    substrate is corrupt (a truncated database, a non-store path), or a
    migration between backends fails verification — cases where
    silently writing on would mix measurements from incompatible
    schedules or lose cells.
    """
