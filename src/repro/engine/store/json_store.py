"""Directory-backed result store: a manifest plus one file per cell.

The original sweep store layout, unchanged::

    <store>/
      manifest.json           # schema + full grid description
      cells/
        <cell_id>.json

Every write is atomic *and durable* (write, fsync, rename, directory
fsync — :func:`repro.engine.store.base.atomic_write`), so a killed run
can only ever leave a stray ``*.tmp`` behind and a power loss cannot
leave a truncated file under a final name.  Human-inspectable and
rsync-able; for large grids and SQL-side aggregation, prefer
:class:`~repro.engine.store.sqlite_store.SqliteStore`.

Leases are claim files under ``<store>/leases/`` — one small JSON file
per leased cell.  A claim stages the complete record in a tmp file and
publishes it with ``os.link`` (atomic create-if-absent; the lease can
never be observed half-written), so the initial claim is a race-free
test-and-set even on shared filesystems.  Stealing an expired lease
first renames the old file away — only one stealer's rename can
succeed — then links the staged record in, losing cleanly to any
fresh claim that slipped between the two steps.  Lease files are
deleted on release and reaped after a finished sweep, so they never
participate in the store's tree-bytes identity.
"""

from __future__ import annotations

import json
import os
import uuid
from pathlib import Path
from typing import Dict, Iterator, Optional, Tuple, Union

from repro.engine.store.base import (
    ResultStore,
    atomic_write,
    canonical_dumps,
    cell_id,
    validate_payload,
)
from repro.exceptions import SweepStoreError


class JsonStore(ResultStore):
    """One JSON file per cell under a manifest-pinned directory."""

    backend = "json"
    MANIFEST = "manifest.json"
    LEASE_SUFFIX = ".lease"

    def __init__(self, root: Union[str, Path]):
        super().__init__(root)
        self.cells_dir = self.path / "cells"
        self.leases_dir = self.path / "leases"

    # -- lifecycle -----------------------------------------------------
    def prepare(self, description: Dict[str, object], resume: bool) -> None:
        manifest = self.path / self.MANIFEST
        if manifest.exists():
            existing = self.read_manifest()
            self._verify_reusable(existing, description, resume)
        else:
            if self.path.exists() and any(self.path.iterdir()):
                raise SweepStoreError(
                    f"{self.path} exists, is not empty and has no sweep "
                    "manifest; refusing to write into it"
                )
            self.path.mkdir(parents=True, exist_ok=True)
            atomic_write(manifest, canonical_dumps(description))
        self.cells_dir.mkdir(parents=True, exist_ok=True)

    # -- manifest ------------------------------------------------------
    def read_manifest(self) -> Optional[Dict[str, object]]:
        manifest = self.path / self.MANIFEST
        if not manifest.exists():
            return None
        try:
            return json.loads(manifest.read_text())
        except (json.JSONDecodeError, OSError) as error:
            raise SweepStoreError(
                f"unreadable sweep manifest {manifest}: {error}"
            ) from error

    # -- cells ---------------------------------------------------------
    def cell_path(self, cell: str) -> Path:
        return self.cells_dir / f"{cell}.json"

    def has_cells(self) -> bool:
        return self.cells_dir.is_dir() and any(self.cells_dir.glob("*.json"))

    def load_cell(
        self, cell: str
    ) -> Tuple[Optional[Dict[str, object]], Optional[str]]:
        path = self.cell_path(cell)
        if not path.exists():
            return None, None
        try:
            payload = json.loads(path.read_text())
        except (json.JSONDecodeError, OSError):
            return None, "unreadable"
        problem = validate_payload(payload)
        if problem is not None:
            return None, problem
        return payload, None

    def write_payload(self, payload: Dict[str, object]) -> str:
        name = cell_id(payload["surface"], payload["group"], payload["cell"])
        atomic_write(self.cell_path(name), canonical_dumps(payload))
        return name

    def iter_cells(
        self,
    ) -> Iterator[Tuple[str, Optional[Dict[str, object]], Optional[str]]]:
        if not self.cells_dir.is_dir():
            return
        # Sort the *cell ids* (file stems), not the directory listing:
        # ``os.listdir`` order is filesystem-dependent, and sorting full
        # filenames diverges from id order when one id is a prefix of
        # another (ids may contain ``+``/``-``, which sort below the
        # ``.`` of ``.json``).  The SQLite backend orders by cell id;
        # this must match it row for row.
        names = sorted(
            entry[: -len(".json")]
            for entry in os.listdir(self.cells_dir)
            if entry.endswith(".json")
        )
        for name in names:
            payload, problem = self.load_cell(name)
            yield name, payload, problem

    # -- claim/lease layer ---------------------------------------------
    def _lease_path(self, cell: str) -> Path:
        return self.leases_dir / f"{cell}{self.LEASE_SUFFIX}"

    def _read_lease(self, path: Path) -> Optional[Tuple[str, float]]:
        try:
            record = json.loads(path.read_text())
            return str(record["owner"]), float(record["expires_at"])
        except (OSError, ValueError, KeyError, TypeError):
            # Unreadable/torn lease file: treat as no usable lease so a
            # claim can replace it (leases are best-effort coordination,
            # never data).
            return None

    def _write_lease(self, path: Path, owner: str, expires_at: float) -> None:
        """Replace a lease file in place (steal / renew).

        The tmp name carries a per-call token so two stealers never
        interleave writes through one tmp file; ``os.replace`` keeps
        the final name atomic.  No fsync: a lease lost to a crash is
        simply re-claimed.
        """
        record = json.dumps(
            {"owner": owner, "expires_at": expires_at}, sort_keys=True
        )
        tmp = path.with_name(f"{path.name}.{uuid.uuid4().hex}.tmp")
        tmp.write_text(record)
        os.replace(tmp, path)

    def claim_cell(self, cell: str, owner: str, ttl: float) -> bool:
        import time

        now = time.time()
        self.leases_dir.mkdir(parents=True, exist_ok=True)
        path = self._lease_path(cell)
        record = json.dumps(
            {"owner": owner, "expires_at": now + ttl}, sort_keys=True
        )
        # Stage the complete record, then publish with a hard link:
        # link() is atomic create-if-absent AND the lease file can never
        # be observed half-written (the old O_EXCL-then-write protocol
        # had a window where a rival read the still-empty file, treated
        # it as torn, and "stole" a lease whose writer also won).
        staged = path.with_name(f"{path.name}.{uuid.uuid4().hex}.tmp")
        staged.write_text(record)
        try:
            try:
                os.link(staged, path)
                return True
            except FileExistsError:
                pass
            current = self._read_lease(path)
            if current is not None and current[0] == owner:
                # Reentrant claim: extend our own lease.
                self._write_lease(path, owner, now + ttl)
                return True
            if current is not None and current[1] > now:
                return False
            # Expired (or unreadable) foreign lease: steal in two atomic
            # steps.  Only one stealer's rename() of the old file can
            # succeed, and the follow-up link() still loses cleanly to
            # any fresh claim that slipped in between the two steps.
            tomb = path.with_name(f"{path.name}.{uuid.uuid4().hex}.tmp")
            try:
                os.rename(path, tomb)
            except FileNotFoundError:
                return False  # a rival stole (or the owner released) first
            os.unlink(tomb)
            try:
                os.link(staged, path)
                return True
            except FileExistsError:
                return False
        finally:
            os.unlink(staged)

    def renew_lease(self, cell: str, owner: str, ttl: float) -> bool:
        import time

        path = self._lease_path(cell)
        current = self._read_lease(path)
        if current is None or current[0] != owner:
            return False
        self._write_lease(path, owner, time.time() + ttl)
        return True

    def release_cell(self, cell: str, owner: Optional[str] = None) -> None:
        path = self._lease_path(cell)
        if owner is not None:
            current = self._read_lease(path)
            if current is not None and current[0] != owner:
                return
        try:
            path.unlink()
        except FileNotFoundError:
            pass

    def active_leases(self) -> Dict[str, Tuple[str, float]]:
        if not self.leases_dir.is_dir():
            return {}
        leases: Dict[str, Tuple[str, float]] = {}
        for entry in sorted(os.listdir(self.leases_dir)):
            if not entry.endswith(self.LEASE_SUFFIX):
                continue
            record = self._read_lease(self.leases_dir / entry)
            if record is not None:
                leases[entry[: -len(self.LEASE_SUFFIX)]] = record
        return leases

    def discard_stray_tmp(self):
        """Unlink ``*.tmp`` files a killed worker left mid-rename.

        Covers the manifest, cell files and lease files.  Safe only
        once no peer process can be writing (see the base docstring).
        """
        removed = []
        candidates = sorted(self.path.glob(f"{self.MANIFEST}*.tmp"))
        for directory in (self.cells_dir, self.leases_dir):
            if directory.is_dir():
                candidates.extend(sorted(directory.glob("*.tmp")))
        for stray in candidates:
            try:
                stray.unlink()
            except FileNotFoundError:
                continue
            removed.append(stray.relative_to(self.path).as_posix())
        return removed
