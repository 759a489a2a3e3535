"""Dataset container with vectorized moment views.

All partitional algorithms in the paper operate on per-object moment
vectors.  :class:`UncertainDataset` stacks the moments of its objects
into ``(n, m)`` matrices once, so that assignment steps run as numpy
matrix arithmetic instead of per-object Python loops.

A dataset whose objects all belong to one product family (the generated
datasets and point-mass datasets) is stored *columnar*: the family's
``(n, m)`` parameter arrays (:mod:`repro.uncertainty.columns`) replace
the objects, and every view — moments, supports, the sampling plan,
subsets — is computed from the arrays.  Objects are materialized only
when something iterates or integer-indexes the dataset.
"""

from __future__ import annotations

import operator
from typing import Iterable, Iterator, List, Optional, Sequence, overload

import numpy as np

from repro._typing import FloatArray, IntArray
from repro.exceptions import (
    DimensionMismatchError,
    EmptyDatasetError,
    InvalidParameterError,
)
from repro.objects.uncertain_object import UncertainObject
from repro.uncertainty.columns import PointColumns, ProductColumns
from repro.utils.validation import ensure_labels


class UncertainDataset:
    """An immutable, indexable collection of :class:`UncertainObject`.

    Parameters
    ----------
    objects:
        The uncertain objects; all must share one dimensionality.

    Notes
    -----
    The stacked views (:attr:`mu_matrix`, :attr:`mu2_matrix`,
    :attr:`sigma2_matrix`, :attr:`total_variances`) are computed eagerly;
    they correspond to the off-line phase of Algorithm 1 (Line 1) and of
    UK-means/MMVar.
    """

    __slots__ = (
        "_objects",
        "_columns",
        "_mu",
        "_mu2",
        "_sigma2",
        "_total_var",
        "_labels",
        "_support",
        "_sampling_plan",
        "_pairwise_ed",
    )

    def __init__(self, objects: Sequence[UncertainObject]):
        objs: List[UncertainObject] = list(objects)
        if not objs:
            raise EmptyDatasetError("a dataset needs at least one object")
        dim = objs[0].dim
        for obj in objs:
            if obj.dim != dim:
                raise DimensionMismatchError(
                    "all objects in a dataset must share dimensionality"
                )
        labels = None
        if all(obj.label is not None for obj in objs):
            labels = np.array([int(obj.label) for obj in objs])
        self._assemble(
            tuple(objs),
            None,
            np.vstack([obj.mu for obj in objs]),
            np.vstack([obj.mu2 for obj in objs]),
            np.vstack([obj.sigma2 for obj in objs]),
            labels,
        )

    def _assemble(self, objects, columns, mu, mu2, sigma2, labels) -> None:
        """Set every slot; ``objects`` is a tuple, or ``None`` if columnar."""
        if objects is None:
            objects = [None] * mu.shape[0]
        self._objects = objects
        self._columns = columns
        self._mu = mu
        self._mu2 = mu2
        self._sigma2 = sigma2
        self._total_var = sigma2.sum(axis=1)
        for arr in (mu, mu2, sigma2, self._total_var):
            arr.setflags(write=False)
        if labels is not None:
            labels = np.asarray(labels)
            labels.setflags(write=False)
        self._labels = labels
        self._support = None
        self._sampling_plan = None
        self._pairwise_ed = None

    @classmethod
    def _from_columns(
        cls, columns: ProductColumns, labels=None
    ) -> "UncertainDataset":
        """Columnar dataset over one product family's parameter arrays.

        The moment matrices come from
        :meth:`~repro.uncertainty.columns.ProductColumns.moments`, which
        reproduces the scalar constructors bit for bit, so this equals
        ``UncertainDataset`` over the materialized objects.
        """
        if columns.shape[0] == 0:
            raise EmptyDatasetError("a dataset needs at least one object")
        mu, mu2 = columns.moments()
        dataset = object.__new__(cls)
        dataset._assemble(
            None, columns, mu, mu2, np.maximum(mu2 - mu**2, 0.0), labels
        )
        return dataset

    # ------------------------------------------------------------------
    # Sequence protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._mu.shape[0]

    def __iter__(self) -> Iterator[UncertainObject]:
        return iter(self.objects)

    @overload
    def __getitem__(self, index: int) -> UncertainObject: ...

    @overload
    def __getitem__(self, index: slice) -> "UncertainDataset": ...

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self.subset(range(len(self))[index])
        return self._object(range(len(self))[index])

    def __repr__(self) -> str:
        return f"UncertainDataset(n={len(self)}, dim={self.dim})"

    def _object(self, i: int) -> UncertainObject:
        """Object ``i``, materialized from the columns on first access."""
        obj = self._objects[i]
        if obj is None:
            label = None if self._labels is None else int(self._labels[i])
            obj = UncertainObject(self._columns.materialize(i), label=label)
            self._objects[i] = obj
        return obj

    # ------------------------------------------------------------------
    # Shape / moment views
    # ------------------------------------------------------------------
    @property
    def objects(self) -> tuple[UncertainObject, ...]:
        """The stored objects (materializes a columnar dataset's)."""
        if self._columns is None:
            return self._objects
        return tuple(self._object(i) for i in range(len(self)))

    @property
    def support_lower(self) -> FloatArray:
        """Stacked region lower bounds, shape ``(n, m)``."""
        return self._support_bounds()[0]

    @property
    def support_upper(self) -> FloatArray:
        """Stacked region upper bounds, shape ``(n, m)``."""
        return self._support_bounds()[1]

    def _support_bounds(self):
        if self._support is None:
            if self._columns is not None:
                bounds = (self._columns.support_lower, self._columns.support_upper)
            else:
                bounds = (
                    np.vstack([obj.region.lower for obj in self._objects]),
                    np.vstack([obj.region.upper for obj in self._objects]),
                )
                for arr in bounds:
                    arr.setflags(write=False)
            self._support = bounds
        return self._support

    @property
    def dim(self) -> int:
        """Dimensionality m shared by every object."""
        return self._mu.shape[1]

    @property
    def mu_matrix(self) -> FloatArray:
        """Stacked expected values, shape ``(n, m)``."""
        return self._mu

    @property
    def mu2_matrix(self) -> FloatArray:
        """Stacked raw second moments, shape ``(n, m)``."""
        return self._mu2

    @property
    def sigma2_matrix(self) -> FloatArray:
        """Stacked variance vectors, shape ``(n, m)``."""
        return self._sigma2

    @property
    def total_variances(self) -> FloatArray:
        """Per-object scalar variances (Eq. (6)), shape ``(n,)``."""
        return self._total_var

    @property
    def labels(self) -> Optional[IntArray]:
        """Reference class labels if every object carries one, else None."""
        return self._labels

    @property
    def n_classes(self) -> Optional[int]:
        """Number of distinct reference classes, if labels are present."""
        if self._labels is None:
            return None
        return int(np.unique(self._labels).size)

    # ------------------------------------------------------------------
    # Batched sampling
    # ------------------------------------------------------------------
    def sample_tensor(self, n_samples: int, seed=None) -> FloatArray:
        """One ``(n, S, m)`` realization tensor for the whole dataset.

        This is the vectorized off-line phase of the sample-based
        algorithms: marginal cells are grouped by distribution family
        and drawn with one quantile transform per family (see
        :mod:`repro.uncertainty.batch`) instead of ``n`` Python-level
        ``sample`` calls.  The grouping plan is compiled lazily on
        first use and cached (the dataset is immutable), so repeated
        draws — multi-restart runs, per-seed experiments — pay only the
        vectorized transforms.  Deterministic for a fixed ``seed``.
        """
        from repro.uncertainty.batch import build_sampling_plan

        if self._sampling_plan is None:
            if self._columns is not None:
                self._sampling_plan = self._columns.sampling_plan()
            else:
                self._sampling_plan = build_sampling_plan(
                    [obj.distribution for obj in self._objects]
                )
        return self._sampling_plan.sample(n_samples, seed)

    # ------------------------------------------------------------------
    # Pairwise-distance plane
    # ------------------------------------------------------------------
    def pairwise_ed(self) -> FloatArray:
        """The ``(n, n)`` ``ÊD`` matrix, computed once and cached.

        This is the off-line phase of UK-medoids (Lemma 3) lifted to the
        dataset, mirroring the moment matrices and the sampling plan:
        the matrix is deterministic for an immutable dataset, so every
        consumer — engine restarts, the internal validity criteria, the
        Case-1/Case-2 protocol — reads one shared read-only copy instead
        of rebuilding the O(n^2 m) matrix per use.  Computed lazily on
        first call (it is O(n^2) memory, and the moment-based algorithms
        never need it).
        """
        from repro.objects.distance import pairwise_squared_expected_distances

        if self._pairwise_ed is None:
            matrix = pairwise_squared_expected_distances(self)
            matrix.setflags(write=False)
            self._pairwise_ed = matrix
        return self._pairwise_ed

    # ------------------------------------------------------------------
    # Shared-memory reconstruction (process execution backend)
    # ------------------------------------------------------------------
    def _moment_free_state(self):
        """The picklable state minus the stacked moment matrices.

        The process execution backend ships this small tuple to workers
        and publishes the ``(n, m)`` matrices through shared memory
        instead — see :meth:`_from_shared_moments`.  A columnar dataset
        ships its parameter columns and never materializes objects.
        """
        if self._columns is not None:
            return self._columns, self._labels
        return self._objects, self._labels

    @classmethod
    def _from_shared_moments(
        cls, source, labels, mu, mu2, sigma2
    ) -> "UncertainDataset":
        """Rebuild a dataset around externally provided moment views.

        Counterpart of :meth:`_moment_free_state`: the matrices are
        adopted as-is (typically read-only views over shared-memory
        blocks) instead of being restacked from the objects, so worker
        processes pay neither the pickling nor the recomputation cost.
        ``source`` is the object tuple or the parameter columns.
        """
        dataset = object.__new__(cls)
        if isinstance(source, ProductColumns):
            dataset._assemble(None, source, mu, mu2, sigma2, labels)
        else:
            dataset._assemble(tuple(source), None, mu, mu2, sigma2, labels)
        return dataset

    # ------------------------------------------------------------------
    # Derived datasets
    # ------------------------------------------------------------------
    def subset(self, indices: Iterable[int]) -> "UncertainDataset":
        """Dataset restricted to the given object indices."""
        idx_list = list(indices)
        if not idx_list:
            raise EmptyDatasetError("subset needs at least one index")
        if self._columns is None:
            return UncertainDataset([self._objects[i] for i in idx_list])
        rows = np.array([operator.index(i) for i in idx_list], dtype=np.intp)
        rows = np.arange(len(self))[rows]  # bounds-checked, negatives wrapped
        dataset = object.__new__(type(self))
        dataset._assemble(
            None,
            self._columns.take(rows),
            self._mu[rows],
            self._mu2[rows],
            self._sigma2[rows],
            None if self._labels is None else self._labels[rows],
        )
        return dataset

    def sample_fraction(
        self,
        fraction: float,
        seed=None,
        stratified: bool = True,
    ) -> "UncertainDataset":
        """Random subset holding ``fraction`` of the objects.

        Used by the scalability study (Figure 5), which varies the
        dataset size from 5% to 100% while ensuring every class remains
        represented — hence ``stratified=True`` by default.
        """
        from repro.utils.rng import ensure_rng

        if not (0.0 < fraction <= 1.0):
            raise InvalidParameterError(
                f"fraction must be in (0, 1], got {fraction}"
            )
        if fraction == 1.0:
            return self
        rng = ensure_rng(seed)
        n = len(self)
        if stratified and self._labels is not None:
            chosen: List[int] = []
            for cls in np.unique(self._labels):
                members = np.flatnonzero(self._labels == cls)
                take = max(1, int(round(fraction * members.size)))
                chosen.extend(
                    rng.choice(members, size=min(take, members.size), replace=False)
                )
            chosen.sort()
            return self.subset(chosen)
        take = max(1, int(round(fraction * n)))
        chosen = np.sort(rng.choice(n, size=take, replace=False))
        return self.subset(chosen.tolist())

    @staticmethod
    def from_points(
        points: np.ndarray, labels: Optional[Sequence[int]] = None
    ) -> "UncertainDataset":
        """Deterministic dataset: one zero-variance object per row.

        Stored columnar as point masses (see the module docstring).
        """
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 2:
            raise InvalidParameterError(
                f"points must be a 2-D matrix, got shape {pts.shape}"
            )
        if labels is not None:
            labels = ensure_labels(labels, pts.shape[0])
        return UncertainDataset._from_columns(PointColumns.build(pts), labels)
