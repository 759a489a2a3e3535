"""Result-store backend API: one cell payload contract, many substrates.

The sweep orchestrator (:mod:`repro.engine.sweep`) treats its result
store as a key-value map of *cells* — one payload per grid cell,
carrying the cell's values plus a fingerprint of the seed stream that
produced them — under a *manifest* that pins the exact grid.  This
module defines that contract as an abstract :class:`ResultStore` so the
substrate is pluggable:

* :class:`~repro.engine.store.json_store.JsonStore` — the original
  directory layout (one atomically-written JSON file per cell), human
  inspectable, trivially rsync-able;
* :class:`~repro.engine.store.sqlite_store.SqliteStore` — a single-file
  SQLite database in WAL mode (concurrent writers), with every numeric
  value exploded into an indexed ``cell_values(cell_id, metric, value)``
  table so report aggregation runs as SQL instead of a Python loop over
  ten thousand files.

The payload itself is backend-invariant: both backends persist the
*canonical JSON text* of the payload (:func:`canonical_dumps`), so a
cell migrated between backends round-trips byte-for-byte and a report
generated from either store is identical.

Refusal/resume semantics are part of the API: ``prepare`` refuses a
store written for a different grid, a store that already holds results
when ``resume`` was not requested, and any non-empty path that is not a
result store — on every backend, with the same exception class
(:class:`~repro.exceptions.SweepStoreError`).

Query layer
-----------
:meth:`ResultStore.query` and the aggregation helpers
(:meth:`~ResultStore.metric_summary`, :meth:`~ResultStore.best_cells`,
:meth:`~ResultStore.rank_over_grid`) are defined here as reference
Python implementations over :meth:`~ResultStore.iter_cells`; the SQLite
backend overrides them with indexed SQL (``GROUP BY``, window
functions).  Both produce identical rows — the conformance suite in
``tests/test_store.py`` pins it.

Claim/lease layer
-----------------
The store doubles as the coordination substrate for multi-worker sweep
execution (:meth:`ResultStore.claim_cell`,
:meth:`~ResultStore.renew_lease`, :meth:`~ResultStore.release_cell`,
:meth:`~ResultStore.active_leases`): a worker *claims* a pending cell
before running it, heartbeats the lease while computing, and releases
it after the cell's payload lands.  A lease is ``(owner, expires_at)``;
an expired lease means its worker died mid-cell and any survivor may
reclaim (work-stealing).  Leases are *coordination only* — they never
change what gets computed, because every cell is deterministic given
the grid (seed-fingerprint replay), so the worst case of a lost race
is one cell computed twice and written twice with identical bytes.
The SQLite backend claims atomically (one WAL transaction on a
``leases`` table); the JSON backend is best-effort (``O_EXCL`` claim
files — the initial claim is race-free, stealing an expired lease is
last-writer-wins).  Lease state is ephemeral and excluded from store
identity: a finished sweep leaves no lease behind
(:meth:`~ResultStore.reap_leases`).
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import uuid
from abc import ABC, abstractmethod
from pathlib import Path
from typing import (
    ClassVar,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.exceptions import SweepStoreError

#: Bumped whenever the store layout or a cell payload's meaning changes.
#: Version 2: collision-proof cell ids (content hash suffix) and the
#: pluggable-backend store layout.
SWEEP_SCHEMA_VERSION = 2

#: The selectable store backends (the ``--store-backend`` domain).
STORE_BACKENDS = ("json", "sqlite")

#: Path suffixes that resolve to the SQLite backend.
SQLITE_SUFFIXES = (".sqlite", ".sqlite3", ".db")


# ----------------------------------------------------------------------
# Shared payload/identity helpers
# ----------------------------------------------------------------------
def canonical_dumps(payload: Dict[str, object]) -> str:
    """Canonical JSON: sorted keys, stable indentation, no timestamps.

    Determinism is a feature — a resumed store must be byte-identical
    to an uninterrupted one wherever the values themselves are
    deterministic, and a migrated cell must round-trip byte-for-byte.
    """
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _fsync_directory(path: Path) -> None:
    """Flush a directory's entry table to disk (best effort).

    ``os.replace`` makes the rename atomic with respect to crashes of
    the *process*, but only an fsync of the parent directory makes the
    new entry durable across power loss.  Platforms that cannot open a
    directory (Windows) simply skip it.
    """
    try:
        dir_fd = os.open(str(path), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(dir_fd)
    except OSError:
        pass
    finally:
        os.close(dir_fd)


def atomic_write(path: Path, text: str) -> None:
    """Durably replace ``path`` with ``text`` (write-fsync-rename-fsync).

    The tmp file is fsynced before the rename — otherwise a power loss
    shortly after ``os.replace`` can leave a *truncated* file under the
    final name, indistinguishable from a completed write — and the
    parent directory is fsynced after it so the rename itself is
    durable.  The tmp name carries a per-call token: two processes
    writing one file (workers creating one store, or both writers of a
    cell after a stolen lease) must not rename each other's tmp away.
    """
    tmp = path.with_name(f"{path.name}.{uuid.uuid4().hex}.tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    _fsync_directory(path.parent)


def _slug(part: object) -> str:
    return re.sub(r"[^A-Za-z0-9.+-]+", "-", str(part))


def cell_id(
    surface: str, group: Sequence[object], cell: Sequence[object]
) -> str:
    """Stable, collision-proof id of one grid cell.

    The readable prefix is a slug of the parts; slugs are lossy
    (``a_b`` and ``a-b`` both slug to ``a-b``, and the ``__`` joiner
    can itself appear inside a part), so a short content hash of the
    *raw* parts — joined on an unprintable separator so no part
    boundary is ambiguous, with the group length folded in so the
    group/cell split is unambiguous too — is appended to make distinct
    (surface, group, cell) triples map to distinct ids.
    """
    parts = tuple(str(part) for part in (surface, *group, *cell))
    key = "\x1f".join((str(len(group)), *parts))
    digest = hashlib.sha1(key.encode("utf-8")).hexdigest()[:10]
    return "__".join(_slug(part) for part in parts) + "--" + digest


def seed_fingerprint(rng: np.random.Generator) -> str:
    """Digest of a generator's exact state (non-consuming).

    Stored with every cell and re-derived on resume: a completed cell is
    only skipped when the replayed schedule reaches it with the *same*
    stream state, which is what makes the skip bit-identical.
    """
    state = json.dumps(rng.bit_generator.state, sort_keys=True, default=int)
    return hashlib.sha1(state.encode()).hexdigest()


def build_payload(
    surface: str,
    group: Sequence[object],
    cell: Sequence[object],
    seed_state: str,
    values: Dict[str, object],
) -> Dict[str, object]:
    """The backend-invariant payload of one completed cell."""
    return {
        "schema": SWEEP_SCHEMA_VERSION,
        "surface": surface,
        "group": [str(part) for part in group],
        "cell": [str(part) for part in cell],
        "seed_state": seed_state,
        "status": "done",
        "values": values,
    }


def validate_payload(payload: object) -> Optional[str]:
    """``None`` when the payload is a complete cell, a problem otherwise."""
    if (
        not isinstance(payload, dict)
        or payload.get("schema") != SWEEP_SCHEMA_VERSION
        or payload.get("status") != "done"
        or not isinstance(payload.get("values"), dict)
        or not isinstance(payload.get("seed_state"), str)
        or not isinstance(payload.get("surface"), str)
        or not isinstance(payload.get("group"), list)
        or not isinstance(payload.get("cell"), list)
    ):
        return "incomplete"
    return None


def _numeric_items(values: Dict[str, object]) -> List[Tuple[str, float]]:
    """The queryable (metric, value) projection of a values dict.

    Only real numbers land in the value plane (and in SQLite's
    ``cell_values`` table); non-numeric values stay payload-only.
    """
    rows = []
    for metric in sorted(values):
        value = values[metric]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        rows.append((metric, float(value)))
    return rows


#: One value-plane row: (cell_id, surface, group, cell, metric, value).
ValueRow = Tuple[str, str, Tuple[str, ...], Tuple[str, ...], str, float]


# ----------------------------------------------------------------------
# The backend API
# ----------------------------------------------------------------------
class ResultStore(ABC):
    """Abstract result store: manifest + cells + value-plane queries.

    Subclasses implement the substrate (:meth:`prepare`,
    :meth:`read_manifest`, :meth:`has_cells`, :meth:`load_cell`,
    :meth:`write_payload`, :meth:`iter_cells`); everything else —
    including the whole query/aggregation layer — has a reference
    implementation here that any backend may override with something
    substrate-native (the SQLite backend pushes it into SQL).
    """

    #: Short backend name (``"json"`` / ``"sqlite"``).
    backend: ClassVar[str] = "abstract"

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)

    # -- identity ------------------------------------------------------
    @property
    def root(self) -> Path:
        """Filesystem anchor of the store (directory or database file)."""
        return self.path

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({str(self.path)!r})"

    # -- lifecycle -----------------------------------------------------
    @abstractmethod
    def prepare(self, description: Dict[str, object], resume: bool) -> None:
        """Create the store, or verify an existing one matches the grid."""

    def close(self) -> None:
        """Release any substrate handles (no-op by default)."""

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _verify_reusable(
        self,
        existing: Dict[str, object],
        description: Dict[str, object],
        resume: bool,
    ) -> None:
        """The shared refusal matrix for an already-initialized store."""
        if existing != description:
            raise SweepStoreError(
                f"store {self.path} was written for a different grid; "
                "use a fresh --store path (or the original grid)"
            )
        if not resume and self.has_cells():
            raise SweepStoreError(
                f"store {self.path} already holds results; pass "
                "resume=True (--resume) to fill in missing cells, or "
                "choose a fresh path"
            )

    # -- manifest ------------------------------------------------------
    @abstractmethod
    def read_manifest(self) -> Optional[Dict[str, object]]:
        """The stored grid description, or ``None`` when absent.

        Raises :class:`~repro.exceptions.SweepStoreError` when a
        manifest exists but cannot be read.
        """

    # -- cells ---------------------------------------------------------
    @abstractmethod
    def has_cells(self) -> bool:
        """Whether any cell result has been written."""

    @abstractmethod
    def load_cell(
        self, cell: str
    ) -> Tuple[Optional[Dict[str, object]], Optional[str]]:
        """(payload, problem): payload when clean, problem when damaged.

        ``(None, None)`` means the cell simply has not run yet.
        """

    @abstractmethod
    def write_payload(self, payload: Dict[str, object]) -> str:
        """Persist one complete cell payload; returns its cell id.

        The payload must be :func:`validate_payload`-clean; its id is
        derived from its own surface/group/cell parts, so a payload
        read from one backend lands under the same id on another (the
        migrator depends on this).
        """

    @abstractmethod
    def iter_cells(
        self,
    ) -> Iterator[Tuple[str, Optional[Dict[str, object]], Optional[str]]]:
        """Every stored cell as ``(cell_id, payload, problem)``.

        Ordered by cell id; damaged cells appear with ``payload=None``
        and a problem string, exactly as :meth:`load_cell` reports them.
        """

    def write_cell(
        self,
        surface: str,
        group: Sequence[object],
        cell: Sequence[object],
        seed_state: str,
        values: Dict[str, object],
    ) -> str:
        """Persist one freshly computed cell; returns its cell id."""
        return self.write_payload(
            build_payload(surface, group, cell, seed_state, values)
        )

    def load_group(
        self, names: Sequence[str]
    ) -> Optional[Dict[str, Dict[str, object]]]:
        """All cells of a group, when every one is present and clean.

        ``None`` when any cell is missing or damaged — the caller then
        materializes the group and walks it cell by cell (which is
        where damaged cells get reported and re-run).
        """
        values: Dict[str, Dict[str, object]] = {}
        for name in names:
            payload, problem = self.load_cell(name)
            if payload is None or problem is not None:
                return None
            values[name] = payload["values"]
        return values

    def count_cells(self) -> int:
        """Number of stored cells (damaged ones included)."""
        return sum(1 for _ in self.iter_cells())

    # -- claim/lease layer ---------------------------------------------
    @abstractmethod
    def claim_cell(self, cell: str, owner: str, ttl: float) -> bool:
        """Try to acquire the lease on one cell for ``ttl`` seconds.

        Succeeds when the cell has no lease, when ``owner`` already
        holds it (re-entrant — also extends the expiry), or when the
        existing lease has expired (its worker died; the claim *steals*
        it).  Returns ``False`` when another worker holds a live lease.
        Claiming never inspects the cell's payload: a completed cell
        can be claimed, which is harmless because re-running a
        deterministic cell rewrites identical bytes.
        """

    @abstractmethod
    def renew_lease(self, cell: str, owner: str, ttl: float) -> bool:
        """Extend a held lease (heartbeat); ``False`` when it was lost.

        Only the current owner can renew.  A ``False`` return means the
        lease expired and was stolen (or released) — the worker should
        keep computing anyway (writes are idempotent) but must expect a
        peer to finish the cell first.
        """

    @abstractmethod
    def release_cell(self, cell: str, owner: Optional[str] = None) -> None:
        """Drop a lease.  With ``owner``, only that owner's lease.

        ``owner=None`` force-releases whatever lease exists (used by
        :meth:`reap_leases` to clear leases of dead workers).  Missing
        leases are ignored — release is idempotent.
        """

    @abstractmethod
    def active_leases(self) -> Dict[str, Tuple[str, float]]:
        """Every recorded lease as ``{cell_id: (owner, expires_at)}``.

        Includes expired leases — expiry is a property the *reader*
        evaluates against its own clock, not a deletion event.
        """

    def reap_leases(self, now: Optional[float] = None) -> List[str]:
        """Drop stale leases; returns the reaped cell ids (sorted).

        A lease is stale when its cell is already complete (the owner
        died between writing the payload and releasing) or when it has
        expired (the owner died mid-cell).  Workers call this when they
        finish a grid so a completed sweep's store carries no lease
        state at all — lease bookkeeping must never show up in the
        store-identity comparisons (tree bytes / logical rows).
        """
        import time as _time

        clock = _time.time() if now is None else now
        reaped = []
        for cell, (_owner, expires_at) in sorted(self.active_leases().items()):
            if expires_at <= clock:
                self.release_cell(cell)
                reaped.append(cell)
                continue
            payload, problem = self.load_cell(cell)
            if payload is not None and problem is None:
                self.release_cell(cell)
                reaped.append(cell)
        return reaped

    def discard_stray_tmp(self) -> List[str]:
        """Remove write-in-flight residue dead workers left behind.

        A worker killed between opening a tmp file and renaming it
        leaves a ``*.tmp`` under the store — invisible to every reader
        but a spurious difference in the tree-bytes identity check.
        Only call this when no other process can be mid-write (e.g.
        after every worker process has been joined): unlinking a live
        peer's in-flight tmp would break its rename.  Substrates
        without stray files (SQLite rolls back via the WAL) return an
        empty list.
        """
        return []

    # -- query layer ---------------------------------------------------
    def query(
        self,
        surface: Optional[str] = None,
        metric: Optional[str] = None,
    ) -> List[ValueRow]:
        """The numeric value plane, ordered by (cell_id, metric).

        Damaged cells are excluded (they carry no trustworthy values).
        """
        rows: List[ValueRow] = []
        for name, payload, problem in self.iter_cells():
            if payload is None or problem is not None:
                continue
            if surface is not None and payload["surface"] != surface:
                continue
            group = tuple(payload["group"])
            cell = tuple(payload["cell"])
            for found, value in _numeric_items(payload["values"]):
                if metric is not None and found != metric:
                    continue
                rows.append(
                    (name, payload["surface"], group, cell, found, value)
                )
        return rows

    def metric_summary(
        self, surface: Optional[str] = None
    ) -> List[Tuple[str, str, int, float, float, float]]:
        """Per (surface, metric): ``(count, min, max, mean)`` rows."""
        buckets: Dict[Tuple[str, str], List[float]] = {}
        for _name, row_surface, _g, _c, metric, value in self.query(
            surface=surface
        ):
            buckets.setdefault((row_surface, metric), []).append(value)
        return [
            (s, m, len(vs), min(vs), max(vs), sum(vs) / len(vs))
            for (s, m), vs in sorted(buckets.items())
        ]

    def best_cells(
        self, metric: str, mode: str = "max"
    ) -> List[Tuple[str, Tuple[str, ...], str, float]]:
        """Best-of-group for one metric: one winner per (surface, group).

        ``mode`` is ``"max"`` or ``"min"``; ties break on the smallest
        cell id so both backends agree deterministically.
        """
        _check_mode(mode)
        best: Dict[Tuple[str, Tuple[str, ...]], Tuple[float, str]] = {}
        for name, surface, group, _cell, _m, value in self.query(
            metric=metric
        ):
            key = (surface, group)
            current = best.get(key)
            if current is None or _beats(value, name, current, mode):
                best[key] = (value, name)
        return [
            (surface, group, name, value)
            for (surface, group), (value, name) in sorted(best.items())
        ]

    def rank_over_grid(
        self, metric: str, mode: str = "max"
    ) -> List[Tuple[int, str, str, float]]:
        """Every cell ranked over the whole grid for one metric.

        Competition ranking (ties share a rank, the next rank skips),
        matching SQL's ``RANK() OVER (ORDER BY value)``; rows ordered
        by (rank, cell_id).
        """
        _check_mode(mode)
        rows = self.query(metric=metric)
        ordered = sorted((row[5] for row in rows), reverse=(mode == "max"))
        ranks: Dict[float, int] = {}
        for index, value in enumerate(ordered):
            ranks.setdefault(value, index + 1)
        return sorted(
            (ranks[value], name, surface, value)
            for name, surface, _g, _c, _m, value in rows
        )


def _check_mode(mode: str) -> None:
    if mode not in ("max", "min"):
        from repro.exceptions import InvalidParameterError

        raise InvalidParameterError(
            f"aggregation mode must be 'max' or 'min', got {mode!r}"
        )


def _beats(
    value: float, name: str, current: Tuple[float, str], mode: str
) -> bool:
    current_value, current_name = current
    if value == current_value:
        return name < current_name
    if mode == "max":
        return value > current_value
    return value < current_value
