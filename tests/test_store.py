"""Backend conformance suite for the pluggable result-store layer.

Every test class parametrized over ``backend`` runs identically against
:class:`JsonStore` and :class:`SqliteStore` — the store API's whole
point is that the sweep orchestrator, the reporting layer and the
query/aggregation helpers cannot tell the substrates apart:

* prepare/refusal matrix (different grid, results without resume,
  non-store paths, corrupt manifests) raises the same
  :class:`SweepStoreError` on both;
* a sweep produces value-identical cells and byte-identical payloads on
  both, and a killed + resumed store equals an uninterrupted one
  (tree-byte-identical for JSON, row-identical for SQLite);
* damaged cells (torn JSON, truncated/partial rows) are detected,
  reported, and re-run on both; a truncated SQLite database fails
  *cleanly* (SweepStoreError, not a raw sqlite3 error);
* the query layer (value plane, metric summaries, best-of-group,
  rank-over-grid) returns identical rows whether computed by the
  Python reference implementation or by SQL window functions;
* migration round-trips byte-for-byte in either direction.

The claim/lease layer rides the same conformance matrix: double-claim
races admit exactly one winner, expired leases are stolen, renewal is
owner-only, and a multi-worker sweep — including one whose worker is
SIGKILLed mid-grid — leaves a store identical to an uninterrupted
single-worker run, with zero lease state behind.

Satellite regressions live here too: cell-id collision resistance, the
durable (fsynced) atomic write, fork safety of the cached SQLite
connection, migration cleanup on mid-copy failure, and listdir-order
independence of the JSON cell walk.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sqlite3
import threading
import time
from pathlib import Path

import pytest

from repro.engine.store import (
    SWEEP_SCHEMA_VERSION,
    JsonStore,
    SqliteStore,
    atomic_write,
    build_payload,
    cell_id,
    diff_stores,
    infer_backend,
    migrate_store,
    open_store,
)
from repro.engine.sweep import (
    SweepGrid,
    Table2Spec,
    Table3Spec,
    _worker_main,
    run_sweep,
    run_sweep_worker,
    run_sweep_workers,
)
from repro.exceptions import InvalidParameterError, SweepStoreError
from repro.experiments import ExperimentConfig, run_table2, run_table3

BACKENDS = ("json", "sqlite")

T2_AXES = dict(
    datasets=("iris",), families=("normal",), algorithms=("UKM", "UKmed")
)
T3_AXES = dict(
    datasets=("neuroblastoma",),
    cluster_counts=(2, 3),
    algorithms=("UKmed", "MMV"),
)


def store_path(tmp_path: Path, backend: str, name: str = "store") -> Path:
    """A backend-appropriate path: bare directory vs ``.sqlite`` file."""
    return tmp_path / (name if backend == "json" else f"{name}.sqlite")


def _grid(seed=5, n_runs=2, backend="serial", n_jobs=1):
    common = dict(
        n_runs=n_runs, n_samples=8, seed=seed, backend=backend, n_jobs=n_jobs
    )
    return SweepGrid(
        table2=Table2Spec(
            config=ExperimentConfig(scale=0.12, max_objects=40, **common),
            **T2_AXES,
        ),
        table3=Table3Spec(
            config=ExperimentConfig(scale=0.004, **common), **T3_AXES
        ),
    )


def _direct_reports(seed=5, n_runs=2):
    common = dict(n_runs=n_runs, n_samples=8, seed=seed)
    return (
        run_table2(
            ExperimentConfig(scale=0.12, max_objects=40, **common), **T2_AXES
        ),
        run_table3(ExperimentConfig(scale=0.004, **common), **T3_AXES),
    )


def _sqlite_rows(path: Path):
    """The full logical content of a SQLite store, deterministically."""
    conn = sqlite3.connect(str(path))
    try:
        cells = conn.execute(
            "SELECT cell_id, surface, group_json, cell_json, seed_state, "
            "status, payload FROM cells ORDER BY cell_id"
        ).fetchall()
        values = conn.execute(
            "SELECT cell_id, metric, value FROM cell_values "
            "ORDER BY cell_id, metric"
        ).fetchall()
        meta = conn.execute(
            "SELECT key, value FROM meta ORDER BY key"
        ).fetchall()
    finally:
        conn.close()
    return {"cells": cells, "values": values, "meta": meta}


def _tree_bytes(root: Path):
    return {
        path.relative_to(root).as_posix(): path.read_bytes()
        for path in sorted(Path(root).rglob("*"))
        if path.is_file()
    }


def _snapshot(path: Path, backend: str):
    """Backend-appropriate store identity: tree bytes vs logical rows."""
    return _tree_bytes(path) if backend == "json" else _sqlite_rows(path)


def _seed_payloads():
    """A small synthetic grid with deliberate value ties."""
    payloads = []
    for ds in ("alpha", "beta"):
        for idx, alg in enumerate(("A", "B", "C")):
            payloads.append(
                build_payload(
                    surface="synthetic",
                    group=(ds,),
                    cell=(alg,),
                    seed_state="f" * 40,
                    values={
                        "quality": 0.5
                        if alg != "A"
                        else (0.25 if ds == "alpha" else 0.9),
                        "runtime_ms": float(10 * (idx + 1)),
                        "n": 100,
                        "note": "not-a-number",
                    },
                )
            )
    return payloads


# ----------------------------------------------------------------------
# Cell ids (satellite: collision bugfix)
# ----------------------------------------------------------------------
class TestCellId:
    def test_slug_lossiness_does_not_collide(self):
        """`a_b` and `a-b` slug to the same readable prefix but must
        map to different cell ids (pre-fix they shared one file)."""
        a = cell_id("s", ("a_b",), ("x",))
        b = cell_id("s", ("a-b",), ("x",))
        assert a != b

    def test_joiner_inside_part_does_not_collide(self):
        assert cell_id("s", ("a__b",), ("c",)) != cell_id(
            "s", ("a", "b"), ("c",)
        )

    def test_part_boundaries_are_unambiguous(self):
        assert cell_id("s", ("ab",), ("c",)) != cell_id("s", ("a",), ("bc",))
        assert cell_id("s", ("a", "b"), ()) != cell_id("s", ("a",), ("b",))

    def test_deterministic_and_filesystem_safe(self):
        first = cell_id("table2", ("iris", "normal"), ("UKM",))
        assert first == cell_id("table2", ("iris", "normal"), ("UKM",))
        assert "/" not in first and first == first.strip()
        assert first.startswith("table2__iris__normal__UKM--")


# ----------------------------------------------------------------------
# Durable atomic writes (satellite: fsync bugfix)
# ----------------------------------------------------------------------
class TestAtomicWrite:
    def test_fsyncs_file_and_directory(self, tmp_path, monkeypatch):
        synced = []
        real_fsync = os.fsync

        def spy(fd):
            synced.append(fd)
            return real_fsync(fd)

        monkeypatch.setattr(os, "fsync", spy)
        target = tmp_path / "cell.json"
        atomic_write(target, "payload\n")
        assert target.read_text() == "payload\n"
        # One fsync for the tmp file's contents, one for the directory
        # entry after the rename.
        assert len(synced) >= 2

    def test_no_tmp_residue(self, tmp_path):
        target = tmp_path / "cell.json"
        atomic_write(target, "one\n")
        atomic_write(target, "two\n")
        assert target.read_text() == "two\n"
        assert list(tmp_path.glob("*.tmp")) == []

    def test_second_writer_inside_first_fsync(self, tmp_path, monkeypatch):
        """Two workers creating one store both write ``manifest.json``:
        a second write landing inside the first one's fsync must not
        rename the first writer's tmp file away from under it."""
        target = tmp_path / "manifest.json"
        real_fsync = os.fsync
        interleaved = []

        def racing_fsync(fd):
            real_fsync(fd)
            if not interleaved:
                interleaved.append(fd)
                atomic_write(target, "second\n")

        monkeypatch.setattr(os, "fsync", racing_fsync)
        atomic_write(target, "first\n")
        assert interleaved
        assert target.read_text() == "first\n"
        assert list(tmp_path.glob("*.tmp")) == []

    def test_json_discards_stray_manifest_tmp(self, tmp_path):
        store = JsonStore(tmp_path / "store")
        store.prepare({"schema": SWEEP_SCHEMA_VERSION, "surfaces": {}}, False)
        (store.path / "manifest.json.0123abcd.tmp").write_text("{half")
        assert store.discard_stray_tmp() == ["manifest.json.0123abcd.tmp"]
        assert store.read_manifest() is not None
        store.close()


# ----------------------------------------------------------------------
# Backend resolution
# ----------------------------------------------------------------------
class TestResolution:
    def test_suffix_resolves_sqlite(self, tmp_path):
        for suffix in (".sqlite", ".sqlite3", ".db"):
            assert infer_backend(tmp_path / f"store{suffix}") == "sqlite"

    def test_directory_and_bare_paths_resolve_json(self, tmp_path):
        assert infer_backend(tmp_path / "store") == "json"
        (tmp_path / "existing").mkdir()
        assert infer_backend(tmp_path / "existing") == "json"

    def test_existing_file_resolves_sqlite(self, tmp_path):
        db = tmp_path / "oddly-named"
        db.write_bytes(b"")
        assert infer_backend(db) == "sqlite"

    def test_open_store_types(self, tmp_path):
        assert isinstance(open_store(tmp_path / "d"), JsonStore)
        assert isinstance(open_store(tmp_path / "d.sqlite"), SqliteStore)
        assert isinstance(
            open_store(tmp_path / "d", backend="sqlite"), SqliteStore
        )

    def test_open_store_passthrough_and_mismatch(self, tmp_path):
        store = JsonStore(tmp_path / "d")
        assert open_store(store) is store
        with pytest.raises(InvalidParameterError, match="backend"):
            open_store(store, backend="sqlite")
        with pytest.raises(InvalidParameterError, match="unknown"):
            open_store(tmp_path / "d", backend="parquet")


# ----------------------------------------------------------------------
# Prepare / refusal matrix
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
class TestPrepareMatrix:
    def _description(self, tag="grid"):
        return {"schema": SWEEP_SCHEMA_VERSION, "surfaces": {"t": tag}}

    def test_fresh_prepare_round_trips_manifest(self, tmp_path, backend):
        with open_store(store_path(tmp_path, backend)) as store:
            store.prepare(self._description(), resume=False)
            assert store.read_manifest() == self._description()
            assert not store.has_cells()

    def test_reopen_same_grid_ok(self, tmp_path, backend):
        path = store_path(tmp_path, backend)
        with open_store(path) as store:
            store.prepare(self._description(), resume=False)
        with open_store(path) as store:
            store.prepare(self._description(), resume=False)

    def test_different_grid_refused(self, tmp_path, backend):
        path = store_path(tmp_path, backend)
        with open_store(path) as store:
            store.prepare(self._description("one"), resume=False)
        with open_store(path) as store:
            with pytest.raises(SweepStoreError, match="different grid"):
                store.prepare(self._description("two"), resume=False)

    def test_existing_results_need_resume(self, tmp_path, backend):
        path = store_path(tmp_path, backend)
        with open_store(path) as store:
            store.prepare(self._description(), resume=False)
            store.write_payload(_seed_payloads()[0])
        with open_store(path) as store:
            with pytest.raises(SweepStoreError, match="resume"):
                store.prepare(self._description(), resume=False)
            store.prepare(self._description(), resume=True)

    def test_non_store_path_refused(self, tmp_path, backend):
        path = store_path(tmp_path, backend)
        if backend == "json":
            path.mkdir()
            (path / "precious.txt").write_text("do not clobber")
        else:
            path.write_bytes(b"definitely not a sqlite database")
        with open_store(path) as store:
            with pytest.raises(SweepStoreError):
                store.prepare(self._description(), resume=False)
        if backend == "json":
            assert (path / "precious.txt").read_text() == "do not clobber"
        else:
            assert path.read_bytes() == b"definitely not a sqlite database"

    def test_corrupt_manifest_refused(self, tmp_path, backend):
        path = store_path(tmp_path, backend)
        with open_store(path) as store:
            store.prepare(self._description(), resume=False)
        if backend == "json":
            (path / "manifest.json").write_text("{not json")
        else:
            conn = sqlite3.connect(str(path))
            with conn:
                conn.execute(
                    "UPDATE meta SET value = '{not json' "
                    "WHERE key = 'manifest'"
                )
            conn.close()
        with open_store(path) as store:
            with pytest.raises(SweepStoreError, match="unreadable"):
                store.prepare(self._description(), resume=True)


# ----------------------------------------------------------------------
# Cell round trips + damage detection
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
class TestCells:
    def _prepared(self, tmp_path, backend):
        store = open_store(store_path(tmp_path, backend))
        store.prepare({"schema": SWEEP_SCHEMA_VERSION, "surfaces": {}}, False)
        return store

    def test_write_load_iter_round_trip(self, tmp_path, backend):
        store = self._prepared(tmp_path, backend)
        payloads = _seed_payloads()
        names = [store.write_payload(payload) for payload in payloads]
        assert len(set(names)) == len(names)
        for name, payload in zip(names, payloads):
            loaded, problem = store.load_cell(name)
            assert problem is None
            assert loaded == payload
        iterated = list(store.iter_cells())
        assert [name for name, _p, _w in iterated] == sorted(names)
        assert all(problem is None for _n, _p, problem in iterated)
        assert store.count_cells() == len(names)
        missing, problem = store.load_cell("never-written--0000000000")
        assert missing is None and problem is None
        store.close()

    def test_write_cell_matches_build_payload(self, tmp_path, backend):
        store = self._prepared(tmp_path, backend)
        name = store.write_cell(
            "s", ("g",), ("c",), "a" * 40, {"quality": 0.5}
        )
        loaded, problem = store.load_cell(name)
        assert problem is None
        assert loaded == build_payload(
            "s", ("g",), ("c",), "a" * 40, {"quality": 0.5}
        )
        store.close()

    def test_load_group_all_or_none(self, tmp_path, backend):
        store = self._prepared(tmp_path, backend)
        payloads = _seed_payloads()
        names = [store.write_payload(payload) for payload in payloads]
        group = store.load_group(names)
        assert group is not None
        assert set(group) == set(names)
        assert group[names[0]] == payloads[0]["values"]
        assert store.load_group(names + ["missing--0000000000"]) is None
        assert store.load_group([]) == {}
        store.close()

    def test_incomplete_payload_reported(self, tmp_path, backend):
        store = self._prepared(tmp_path, backend)
        name = store.write_payload(_seed_payloads()[0])
        self._damage(store, name, backend, kind="incomplete")
        loaded, problem = store.load_cell(name)
        assert loaded is None and problem == "incomplete"
        assert store.load_group([name]) is None
        store.close()

    def test_torn_payload_reported(self, tmp_path, backend):
        store = self._prepared(tmp_path, backend)
        name = store.write_payload(_seed_payloads()[0])
        self._damage(store, name, backend, kind="torn")
        loaded, problem = store.load_cell(name)
        assert loaded is None and problem == "unreadable"
        damaged = [w for _n, _p, w in store.iter_cells() if w is not None]
        assert damaged == ["unreadable"]
        store.close()

    @staticmethod
    def _damage(store, name, backend, kind):
        if backend == "json":
            path = store.cell_path(name)
            if kind == "torn":
                path.write_text(path.read_text()[:25])
            else:
                path.write_text(json.dumps({"status": "running"}))
        else:
            conn = store._connect()
            with conn:
                if kind == "torn":
                    conn.execute(
                        "UPDATE cells SET payload = substr(payload, 1, 25) "
                        "WHERE cell_id = ?",
                        (name,),
                    )
                else:
                    conn.execute(
                        "UPDATE cells SET payload = ? WHERE cell_id = ?",
                        (json.dumps({"status": "running"}), name),
                    )


class TestSqliteSubstrate:
    """SQLite-only failure modes must surface as clean SweepStoreErrors."""

    def test_truncated_database_fails_cleanly(self, tmp_path):
        path = store_path(tmp_path, "sqlite")
        with open_store(path) as store:
            store.prepare(
                {"schema": SWEEP_SCHEMA_VERSION, "surfaces": {}}, False
            )
            for payload in _seed_payloads():
                store.write_payload(payload)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])  # tear trailing pages
        with open_store(path) as store:
            with pytest.raises(SweepStoreError, match="unreadable|corrupt"):
                store.query()

    def test_missing_database_fails_cleanly(self, tmp_path):
        with open_store(tmp_path / "absent.sqlite") as store:
            with pytest.raises(SweepStoreError, match="no sqlite"):
                store.load_cell("anything")

    def test_wal_mode_is_active(self, tmp_path):
        path = store_path(tmp_path, "sqlite")
        with open_store(path) as store:
            store.prepare(
                {"schema": SWEEP_SCHEMA_VERSION, "surfaces": {}}, False
            )
            mode = store._connect().execute(
                "PRAGMA journal_mode"
            ).fetchone()[0]
        assert mode == "wal"

    def test_concurrent_connections_share_the_store(self, tmp_path):
        """WAL's point: a second writer connection can land cells while
        the first store handle stays open for reading."""
        path = store_path(tmp_path, "sqlite")
        reader = open_store(path)
        reader.prepare({"schema": SWEEP_SCHEMA_VERSION, "surfaces": {}}, False)
        writer = open_store(path)
        payload = _seed_payloads()[0]
        name = writer.write_payload(payload)
        loaded, problem = reader.load_cell(name)
        assert problem is None and loaded == payload
        reader.close()
        writer.close()


# ----------------------------------------------------------------------
# Query / aggregation conformance (Python reference vs SQL)
# ----------------------------------------------------------------------
class TestQueryConformance:
    @pytest.fixture
    def stores(self, tmp_path):
        opened = []
        for backend in BACKENDS:
            store = open_store(store_path(tmp_path, backend))
            store.prepare(
                {"schema": SWEEP_SCHEMA_VERSION, "surfaces": {}}, False
            )
            for payload in _seed_payloads():
                store.write_payload(payload)
            opened.append(store)
        yield dict(zip(BACKENDS, opened))
        for store in opened:
            store.close()

    def test_value_plane_identical(self, stores):
        json_rows = stores["json"].query()
        sqlite_rows = stores["sqlite"].query()
        assert json_rows == sqlite_rows
        # Non-numeric values never reach the value plane.
        assert all(row[4] != "note" for row in json_rows)
        # Filters agree too.
        for kwargs in (
            {"surface": "synthetic"},
            {"metric": "quality"},
            {"surface": "nope"},
            {"surface": "synthetic", "metric": "runtime_ms"},
        ):
            assert stores["json"].query(**kwargs) == stores["sqlite"].query(
                **kwargs
            )

    def test_metric_summary_identical(self, stores):
        json_summary = stores["json"].metric_summary()
        sqlite_summary = stores["sqlite"].metric_summary()
        assert len(json_summary) == len(sqlite_summary) == 3
        for j, s in zip(json_summary, sqlite_summary):
            assert j[:5] == s[:5]  # surface, metric, count, min, max exact
            assert j[5] == pytest.approx(s[5], rel=1e-12)  # mean (sum order)

    @pytest.mark.parametrize("mode", ["max", "min"])
    def test_best_cells_identical_with_ties(self, stores, mode):
        json_best = stores["json"].best_cells("quality", mode=mode)
        sqlite_best = stores["sqlite"].best_cells("quality", mode=mode)
        assert json_best == sqlite_best
        assert len(json_best) == 2  # one winner per (surface, group)

    @pytest.mark.parametrize("mode", ["max", "min"])
    def test_rank_over_grid_identical_with_ties(self, stores, mode):
        json_rank = stores["json"].rank_over_grid("quality", mode=mode)
        sqlite_rank = stores["sqlite"].rank_over_grid("quality", mode=mode)
        assert json_rank == sqlite_rank
        ranks = [rank for rank, _n, _s, _v in json_rank]
        # Competition ranking: the four 0.5 ties share one rank and the
        # next rank skips accordingly.
        assert len(ranks) == 6
        assert len(set(ranks)) == 3
        counts = {rank: ranks.count(rank) for rank in set(ranks)}
        assert max(counts.values()) == 4

    def test_mode_validated(self, stores):
        for store in stores.values():
            with pytest.raises(InvalidParameterError, match="mode"):
                store.best_cells("quality", mode="upside-down")


# ----------------------------------------------------------------------
# Sweep integration: both backends, kill+resume, damage, reports
# ----------------------------------------------------------------------
class TestSweepOnBackends:
    def test_sweep_value_identical_across_backends(self, tmp_path):
        """Acceptance: the small grid produces value-identical stores
        under both backends, every payload byte-identical, and the
        rendered reports byte-identical to each other and to the
        direct runners."""
        common = dict(n_runs=2, n_samples=8, seed=5)
        t3_axes = dict(T3_AXES, algorithms=("UCPC", "UKmed"))

        def grid():
            return SweepGrid(
                table2=Table2Spec(
                    config=ExperimentConfig(
                        scale=0.12, max_objects=40, **common
                    ),
                    **T2_AXES,
                ),
                table3=Table3Spec(
                    config=ExperimentConfig(scale=0.004, **common), **t3_axes
                ),
            )

        json_out = run_sweep(grid(), store_path(tmp_path, "json"))
        sqlite_out = run_sweep(grid(), store_path(tmp_path, "sqlite"))
        table2 = run_table2(
            ExperimentConfig(scale=0.12, max_objects=40, **common), **T2_AXES
        )
        table3 = run_table3(
            ExperimentConfig(scale=0.004, **common), **t3_axes
        )
        for outcome in (json_out, sqlite_out):
            for key, cell in table2.cells.items():
                assert outcome.table2.cells[key].theta == cell.theta
                assert outcome.table2.cells[key].quality == cell.quality
            for key, quality in table3.quality.items():
                assert outcome.table3.quality[key] == quality
        # Rendered report: byte-identical across backends.  (table2's
        # render needs the UCPC baseline, which this micro-grid omits.)
        assert json_out.table3.render() == sqlite_out.table3.render()
        assert json_out.table3.render() == table3.render()
        # Stored payloads: byte-identical canonical JSON across backends.
        with open_store(store_path(tmp_path, "json")) as json_store:
            with open_store(store_path(tmp_path, "sqlite")) as sqlite_store:
                json_cells = {
                    name: payload
                    for name, payload, _w in json_store.iter_cells()
                }
                sqlite_cells = {
                    name: payload
                    for name, payload, _w in sqlite_store.iter_cells()
                }
                assert json_cells == sqlite_cells
                assert len(json_cells) == 6
                assert (
                    json_store.read_manifest()
                    == sqlite_store.read_manifest()
                )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_kill_and_resume_identical(self, tmp_path, backend, monkeypatch):
        """Acceptance: a killed + resumed store is identical to an
        uninterrupted one — tree bytes for JSON, logical rows for
        SQLite (same cells, payloads, seed fingerprints)."""
        import repro.experiments.table2 as table2_module

        clean = store_path(tmp_path, backend, "clean")
        run_sweep(_grid(), clean)

        killed = store_path(tmp_path, backend, "killed")
        original = table2_module.run_table2_cell
        calls = {"count": 0}

        def bomb(*args, **kwargs):
            if calls["count"] >= 1:
                raise KeyboardInterrupt("simulated kill")
            calls["count"] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(table2_module, "run_table2_cell", bomb)
        with pytest.raises(KeyboardInterrupt):
            run_sweep(_grid(), killed)
        monkeypatch.setattr(table2_module, "run_table2_cell", original)

        outcome = run_sweep(_grid(), killed, resume=True)
        assert len(outcome.reused) == 1
        assert len(outcome.executed) == 5
        assert _snapshot(clean, backend) == _snapshot(killed, backend)
        table2, table3 = _direct_reports()
        for key, cell in table2.cells.items():
            assert outcome.table2.cells[key].theta == cell.theta

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_damaged_cells_rerun_to_identity(self, tmp_path, backend):
        clean = store_path(tmp_path, backend, "clean")
        run_sweep(_grid(), clean)
        damaged = store_path(tmp_path, backend, "damaged")
        run_sweep(_grid(), damaged)

        torn = cell_id("table2", ("iris", "normal"), ("UKM",))
        partial = cell_id("table3", ("neuroblastoma",), ("k2", "UKmed"))
        if backend == "json":
            torn_path = damaged / "cells" / f"{torn}.json"
            torn_path.write_text(torn_path.read_text()[:25])
            partial_path = damaged / "cells" / f"{partial}.json"
            partial_path.write_text(json.dumps({"status": "running"}))
        else:
            conn = sqlite3.connect(str(damaged))
            with conn:
                conn.execute(
                    "UPDATE cells SET payload = substr(payload, 1, 25) "
                    "WHERE cell_id = ?",
                    (torn,),
                )
                conn.execute(
                    "UPDATE cells SET payload = ? WHERE cell_id = ?",
                    (json.dumps({"status": "running"}), partial),
                )
            conn.close()

        outcome = run_sweep(_grid(), damaged, resume=True)
        assert sorted(outcome.invalid) == sorted([torn, partial])
        assert sorted(outcome.executed) == sorted(outcome.invalid)
        assert _snapshot(clean, backend) == _snapshot(damaged, backend)

    def test_explicit_backend_overrides_path_inference(self, tmp_path):
        path = tmp_path / "suffixless"
        run_sweep(_grid(), path, store_backend="sqlite")
        assert path.is_file()
        rows = _sqlite_rows(path)
        assert len(rows["cells"]) == 6


# ----------------------------------------------------------------------
# Migration
# ----------------------------------------------------------------------
class TestMigration:
    def _populated(self, tmp_path, backend, name="src"):
        path = store_path(tmp_path, backend, name)
        run_sweep(_grid(), path)
        return path

    def test_json_sqlite_json_round_trip_byte_identical(self, tmp_path):
        source = self._populated(tmp_path, "json")
        db = tmp_path / "mid.sqlite"
        back = tmp_path / "back"
        first = migrate_store(source, db)
        assert len(first.cells) == 6
        second = migrate_store(db, back)
        assert sorted(second.cells) == sorted(first.cells)
        assert _tree_bytes(source) == _tree_bytes(back)

    def test_sqlite_to_json_equals_native_json_store(self, tmp_path):
        """A sweep persisted to SQLite, migrated to JSON, is
        byte-identical to the store a JSON sweep writes directly."""
        native = self._populated(tmp_path, "json", "native")
        db = self._populated(tmp_path, "sqlite", "native-db")
        migrated = tmp_path / "migrated"
        migrate_store(db, migrated)
        assert _tree_bytes(native) == _tree_bytes(migrated)

    def test_migrated_store_resumes_with_full_reuse(self, tmp_path):
        source = self._populated(tmp_path, "json")
        db = tmp_path / "resumable.sqlite"
        migrate_store(source, db)
        outcome = run_sweep(_grid(), db, resume=True)
        assert not outcome.executed
        assert len(outcome.reused) == 6
        table2, _table3 = _direct_reports()
        for key, cell in table2.cells.items():
            assert outcome.table2.cells[key].theta == cell.theta

    def test_refuses_source_without_manifest(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(SweepStoreError, match="no sweep manifest"):
            migrate_store(empty, tmp_path / "dst.sqlite")

    def test_refuses_damaged_source(self, tmp_path):
        source = self._populated(tmp_path, "json")
        victim = next((source / "cells").glob("*.json"))
        victim.write_text(victim.read_text()[:25])
        with pytest.raises(SweepStoreError, match="damaged"):
            migrate_store(source, tmp_path / "dst.sqlite")

    def test_refuses_populated_destination(self, tmp_path):
        source = self._populated(tmp_path, "json")
        destination = self._populated(tmp_path, "sqlite", "dst")
        with pytest.raises(SweepStoreError, match="resume"):
            migrate_store(source, destination)

    def test_refuses_self_migration(self, tmp_path):
        source = self._populated(tmp_path, "json")
        with pytest.raises(SweepStoreError, match="same store"):
            migrate_store(source, source)


# ----------------------------------------------------------------------
# CLI integration
# ----------------------------------------------------------------------
class TestCLI:
    def _quick_sweep(self, store, extra=()):
        from repro.cli import main

        return main(
            [
                "sweep",
                "--store",
                str(store),
                "--quick",
                "--surfaces",
                "table2",
                "--runs",
                "1",
                *extra,
            ]
        )

    def test_sweep_sqlite_by_suffix_and_resume(self, tmp_path, capsys):
        store = tmp_path / "store.sqlite"
        assert self._quick_sweep(store) == 0
        assert store.is_file()
        assert "sweep complete" in capsys.readouterr().out
        assert self._quick_sweep(store, ("--resume",)) == 0
        assert "0 cells run, 2 reused" in capsys.readouterr().out
        assert self._quick_sweep(store) == 2  # refused without --resume

    def test_sweep_store_backend_flag(self, tmp_path):
        store = tmp_path / "suffixless"
        assert self._quick_sweep(store, ("--store-backend", "sqlite")) == 0
        assert store.is_file()

    def test_store_migrate_and_summary(self, tmp_path, capsys):
        from repro.cli import main

        store = tmp_path / "store"
        assert self._quick_sweep(store) == 0
        capsys.readouterr()
        db = tmp_path / "store.sqlite"
        assert main(["store", "migrate", str(store), str(db)]) == 0
        out = capsys.readouterr().out
        assert "migrated 2 cells" in out and "verified" in out
        assert (
            main(["store", "summary", str(db), "--metric", "quality"]) == 0
        )
        out = capsys.readouterr().out
        assert "sqlite store" in out
        assert "best (max) per group" in out
        assert "rank over grid" in out
        # Summary of the JSON original agrees (Python-side aggregation).
        assert main(["store", "summary", str(store)]) == 0
        assert "json store" in capsys.readouterr().out

    def test_store_migrate_refusal_exit_code(self, tmp_path, capsys):
        from repro.cli import main

        empty = tmp_path / "empty"
        empty.mkdir()
        code = main(["store", "migrate", str(empty), str(tmp_path / "x.db")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_store_summary_missing_manifest_exit_code(self, tmp_path, capsys):
        from repro.cli import main

        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["store", "summary", str(empty)]) == 2
        assert "no sweep manifest" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Claim/lease layer (tentpole): conformance on both backends
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
class TestLeases:
    def _prepared(self, tmp_path, backend, name="store"):
        store = open_store(store_path(tmp_path, backend, name))
        store.prepare(
            {"schema": SWEEP_SCHEMA_VERSION, "surfaces": {}}, False
        )
        return store

    def test_claim_is_exclusive_while_live(self, tmp_path, backend):
        store = self._prepared(tmp_path, backend)
        assert store.claim_cell("cell--0000000001", "alice", 60.0)
        assert not store.claim_cell("cell--0000000001", "bob", 60.0)
        leases = store.active_leases()
        assert set(leases) == {"cell--0000000001"}
        assert leases["cell--0000000001"][0] == "alice"
        # An unrelated cell is claimable regardless.
        assert store.claim_cell("cell--0000000002", "bob", 60.0)
        store.close()

    def test_claim_is_reentrant_and_extends(self, tmp_path, backend):
        store = self._prepared(tmp_path, backend)
        assert store.claim_cell("cell--0000000001", "alice", 10.0)
        first = store.active_leases()["cell--0000000001"][1]
        assert store.claim_cell("cell--0000000001", "alice", 120.0)
        second = store.active_leases()["cell--0000000001"][1]
        assert second > first
        store.close()

    def test_expired_lease_is_stolen(self, tmp_path, backend):
        store = self._prepared(tmp_path, backend)
        assert store.claim_cell("cell--0000000001", "dead-worker", 0.05)
        time.sleep(0.1)
        assert store.claim_cell("cell--0000000001", "bob", 60.0)
        assert store.active_leases()["cell--0000000001"][0] == "bob"
        store.close()

    def test_renew_is_owner_only(self, tmp_path, backend):
        store = self._prepared(tmp_path, backend)
        # No lease at all: renewal reports the lease as lost.
        assert not store.renew_lease("cell--0000000001", "alice", 60.0)
        assert store.claim_cell("cell--0000000001", "alice", 10.0)
        before = store.active_leases()["cell--0000000001"][1]
        assert not store.renew_lease("cell--0000000001", "bob", 60.0)
        assert store.active_leases()["cell--0000000001"][0] == "alice"
        assert store.renew_lease("cell--0000000001", "alice", 120.0)
        assert store.active_leases()["cell--0000000001"][1] > before
        store.close()

    def test_release_is_owner_checked_then_forced(self, tmp_path, backend):
        store = self._prepared(tmp_path, backend)
        assert store.claim_cell("cell--0000000001", "alice", 60.0)
        store.release_cell("cell--0000000001", "bob")  # wrong owner: no-op
        assert "cell--0000000001" in store.active_leases()
        store.release_cell("cell--0000000001", "alice")
        assert store.active_leases() == {}
        assert store.claim_cell("cell--0000000001", "bob", 60.0)
        store.release_cell("cell--0000000001")  # owner=None force-releases
        assert store.active_leases() == {}
        store.release_cell("never-claimed--00")  # idempotent on absence
        store.close()

    def test_reap_drops_complete_and_expired_leases(self, tmp_path, backend):
        store = self._prepared(tmp_path, backend)
        done = store.write_payload(_seed_payloads()[0])
        # Owner died between writing the payload and releasing:
        assert store.claim_cell(done, "crashed-after-write", 600.0)
        # Owner died mid-cell (lease expired, no payload):
        assert store.claim_cell("pending--0000000001", "crashed-mid", 0.05)
        # A live worker still computing:
        assert store.claim_cell("pending--0000000002", "alive", 600.0)
        time.sleep(0.1)
        reaped = store.reap_leases()
        assert sorted(reaped) == sorted([done, "pending--0000000001"])
        assert set(store.active_leases()) == {"pending--0000000002"}
        store.close()

    def test_double_claim_race_admits_one_winner(self, tmp_path, backend):
        """N handles racing an initial claim: exactly one wins (O_EXCL
        on JSON, the single-writer upsert transaction on SQLite)."""
        path = store_path(tmp_path, backend)
        with open_store(path) as store:
            store.prepare(
                {"schema": SWEEP_SCHEMA_VERSION, "surfaces": {}}, False
            )
        for round_idx in range(5):
            cell = f"contested--{round_idx:010d}"
            barrier = threading.Barrier(6)
            wins: list = []

            def contend(idx, cell=cell, barrier=barrier, wins=wins):
                handle = open_store(path)
                try:
                    barrier.wait()
                    if handle.claim_cell(cell, f"worker-{idx}", 60.0):
                        wins.append(idx)
                finally:
                    handle.close()

            threads = [
                threading.Thread(target=contend, args=(idx,))
                for idx in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert len(wins) == 1, f"round {round_idx}: winners {wins}"

    def test_lease_history_invisible_to_store_identity(
        self, tmp_path, backend
    ):
        """Claim/renew/release/reap churn must never show up in the
        identity comparison (tree bytes / logical rows)."""
        plain = store_path(tmp_path, backend, "plain")
        run_sweep(_grid(), plain)
        churned = store_path(tmp_path, backend, "churned")
        run_sweep(_grid(), churned)
        with open_store(churned) as store:
            names = [name for name, _p, _w in store.iter_cells()]
            assert store.claim_cell(names[0], "ghost", 0.05)
            assert store.claim_cell(names[1], "worker", 60.0)
            assert store.renew_lease(names[1], "worker", 60.0)
            store.release_cell(names[1], "worker")
            time.sleep(0.1)
            store.reap_leases()
            assert store.active_leases() == {}
        assert _snapshot(plain, backend) == _snapshot(churned, backend)
        assert diff_stores(plain, churned) == []

    def test_discard_stray_tmp(self, tmp_path, backend):
        """JSON removes killed writers' tmp residue; SQLite has none."""
        store = self._prepared(tmp_path, backend)
        name = store.write_payload(_seed_payloads()[0])
        if backend == "json":
            (store.cells_dir / "victim.json.tmp").write_text("{half")
            store.leases_dir.mkdir(parents=True, exist_ok=True)
            (store.leases_dir / "x.lease.deadbeef.tmp").write_text("{")
            removed = store.discard_stray_tmp()
            assert sorted(removed) == [
                "cells/victim.json.tmp",
                "leases/x.lease.deadbeef.tmp",
            ]
        assert store.discard_stray_tmp() == []
        loaded, problem = store.load_cell(name)
        assert problem is None and loaded is not None
        store.close()


# ----------------------------------------------------------------------
# JSON cell walk is listdir-order independent (satellite bugfix)
# ----------------------------------------------------------------------
class TestJsonIterOrder:
    def _populated(self, tmp_path):
        store = JsonStore(tmp_path / "store")
        store.prepare(
            {"schema": SWEEP_SCHEMA_VERSION, "surfaces": {}}, False
        )
        names = [store.write_payload(p) for p in _seed_payloads()]
        return store, names

    @pytest.mark.parametrize("scramble", ["reversed", "shuffled"])
    def test_iter_cells_ignores_listdir_order(
        self, tmp_path, monkeypatch, scramble
    ):
        import random

        store, names = self._populated(tmp_path)
        real_listdir = os.listdir

        def scrambled(path):
            entries = list(real_listdir(path))
            if scramble == "reversed":
                entries.reverse()
            else:
                random.Random(0).shuffle(entries)
            return entries

        monkeypatch.setattr(os, "listdir", scrambled)
        iterated = [name for name, _p, _w in store.iter_cells()]
        assert iterated == sorted(names)
        store.close()

    def test_prefix_stems_sort_by_cell_id_not_filename(self, tmp_path):
        """`a.json` vs `a-b.json`: filename order puts `a-b` first
        (`-` < `.`), cell-id order puts `a` first — the walk must use
        cell-id order, matching the SQLite backend row for row."""
        from repro.engine.store import canonical_dumps

        store = JsonStore(tmp_path / "store")
        store.prepare(
            {"schema": SWEEP_SCHEMA_VERSION, "surfaces": {}}, False
        )
        for stem in ("a", "a-b"):
            payload = build_payload(
                "s", (stem,), ("x",), "b" * 40, {"quality": 1.0}
            )
            (store.cells_dir / f"{stem}.json").write_text(
                canonical_dumps(payload)
            )
        iterated = [name for name, _p, problem in store.iter_cells()]
        assert iterated == ["a", "a-b"]
        assert all(
            problem is None for _n, _p, problem in store.iter_cells()
        )
        store.close()


# ----------------------------------------------------------------------
# Fork safety of the cached SQLite connection (satellite bugfix)
# ----------------------------------------------------------------------
@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="platform has no fork start method",
)
class TestSqliteForkSafety:
    def test_child_reopens_inherited_connection(self, tmp_path):
        """A store handle that crosses a fork() must lazily discard the
        inherited sqlite3.Connection and reopen in the child; both
        sides keep writing with no `database is locked` and no
        corruption."""
        path = store_path(tmp_path, "sqlite")
        store = open_store(path)
        store.prepare(
            {"schema": SWEEP_SCHEMA_VERSION, "surfaces": {}}, False
        )
        payloads = _seed_payloads()
        store.write_payload(payloads[0])  # connection now open and cached
        assert store._conn is not None
        context = multiprocessing.get_context("fork")
        queue = context.SimpleQueue()

        def child():
            try:
                name = store.write_payload(payloads[1])
                loaded, problem = store.load_cell(name)
                assert problem is None and loaded == payloads[1]
                assert store._conn_pid == os.getpid()
                assert store.claim_cell(name, "child", 30.0)
                store.release_cell(name, "child")
                queue.put("ok")
            except BaseException as error:
                queue.put(repr(error))

        process = context.Process(target=child)
        process.start()
        process.join(timeout=120)
        assert process.exitcode == 0
        assert not queue.empty()
        assert queue.get() == "ok"
        # The parent's connection survives the child's exit (the
        # child's close of its duplicate descriptors must not release
        # the parent's locks or tear its view).
        name = store.write_payload(payloads[2])
        loaded, problem = store.load_cell(name)
        assert problem is None and loaded == payloads[2]
        assert store.count_cells() == 3
        assert store.active_leases() == {}
        store.close()

    def test_processes_backend_sweep_forks_mid_run(self, tmp_path):
        """Regression: the `processes` execution backend forks pool
        workers while the sweep's SQLite connection is open; the sweep
        must land the same cells as a serial run (manifest differs by
        the backend field, so compare cells/values only)."""
        serial = store_path(tmp_path, "sqlite", "serial")
        run_sweep(_grid(), serial)
        forked = store_path(tmp_path, "sqlite", "forked")
        run_sweep(_grid(backend="processes", n_jobs=2), forked)
        serial_rows = _sqlite_rows(serial)
        forked_rows = _sqlite_rows(forked)
        assert serial_rows["cells"] == forked_rows["cells"]
        assert serial_rows["values"] == forked_rows["values"]


# ----------------------------------------------------------------------
# Migration failure cleanup (satellite bugfix)
# ----------------------------------------------------------------------
class TestMigrationCleanup:
    def _populated(self, tmp_path, backend, name="src"):
        path = store_path(tmp_path, backend, name)
        run_sweep(_grid(), path)
        return path

    def test_mid_copy_failure_removes_partial_destination(
        self, tmp_path, monkeypatch
    ):
        """A crash after N copied cells must not leave a partial store
        that blocks (`prepare` refusal) every retry."""
        source = self._populated(tmp_path, "json")
        destination = tmp_path / "dst.sqlite"
        original = SqliteStore.write_payload
        calls = {"count": 0}

        def bomb(self, payload):
            if calls["count"] >= 2:
                raise RuntimeError("disk full (simulated)")
            calls["count"] += 1
            return original(self, payload)

        monkeypatch.setattr(SqliteStore, "write_payload", bomb)
        with pytest.raises(RuntimeError, match="disk full"):
            migrate_store(source, destination)
        assert not destination.exists()
        assert not Path(str(destination) + "-wal").exists()
        # The retry starts from a clean slate and succeeds.
        monkeypatch.setattr(SqliteStore, "write_payload", original)
        report = migrate_store(source, destination)
        assert len(report.cells) == 6
        assert diff_stores(source, destination) == []

    def test_verification_failure_removes_partial_destination(
        self, tmp_path, monkeypatch
    ):
        import repro.engine.store.migrate as migrate_module

        source = self._populated(tmp_path, "sqlite")
        destination = tmp_path / "dst"

        def failing_verify(src, dst, payloads):
            raise SweepStoreError("verification failed (simulated)")

        monkeypatch.setattr(migrate_module, "_verify", failing_verify)
        with pytest.raises(SweepStoreError, match="verification failed"):
            migrate_store(source, destination)
        assert not destination.exists()

    def test_refused_existing_destination_is_not_deleted(self, tmp_path):
        """The cleanup only covers destinations *we* wrote: a populated
        store refused by prepare() must survive the refusal intact."""
        source = self._populated(tmp_path, "json")
        destination = self._populated(tmp_path, "sqlite", "dst")
        before = _sqlite_rows(destination)
        with pytest.raises(SweepStoreError, match="resume"):
            migrate_store(source, destination)
        assert destination.exists()
        assert _sqlite_rows(destination) == before


# ----------------------------------------------------------------------
# Multi-worker sweep execution (tentpole)
# ----------------------------------------------------------------------
class TestMultiWorkerSweep:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_single_worker_mode_equals_run_sweep(self, tmp_path, backend):
        """Worker mode on a fresh store: one pass, same store bytes and
        same reports as a plain run_sweep, zero lease state behind."""
        reference = store_path(tmp_path, backend, "reference")
        run_sweep(_grid(), reference)
        worked = store_path(tmp_path, backend, "worked")
        outcome = run_sweep_worker(
            _grid(), worked, worker_id="test:solo", max_passes=1
        )
        assert outcome.passes == 1
        assert len(outcome.executed) == 6
        assert not outcome.deferred
        assert _snapshot(reference, backend) == _snapshot(worked, backend)
        with open_store(worked, backend=backend) as store:
            assert store.active_leases() == {}
        table2, table3 = _direct_reports()
        for key, cell in table2.cells.items():
            assert outcome.table2.cells[key].theta == cell.theta
        for key, quality in table3.quality.items():
            assert outcome.table3.quality[key] == quality

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_foreign_lease_defers_then_expires_and_reclaims(
        self, tmp_path, backend
    ):
        """A dead worker's live-looking lease defers its cell; once the
        lease expires a surviving worker steals it, re-runs the cell,
        and the store equals an uninterrupted single-worker run."""
        reference = store_path(tmp_path, backend, "reference")
        run_sweep(_grid(), reference)
        shared = store_path(tmp_path, backend, "shared")
        run_sweep(_grid(), shared)
        victim = cell_id("table2", ("iris", "normal"), ("UKM",))
        # Simulate a worker that died mid-cell: payload never written,
        # lease still ticking.
        if backend == "json":
            (shared / "cells" / f"{victim}.json").unlink()
        else:
            conn = sqlite3.connect(str(shared))
            with conn:
                conn.execute(
                    "DELETE FROM cells WHERE cell_id = ?", (victim,)
                )
                conn.execute(
                    "DELETE FROM cell_values WHERE cell_id = ?", (victim,)
                )
            conn.close()
        with open_store(shared, backend=backend) as store:
            assert store.claim_cell(victim, "dead-worker", 2.5)
        lines: list = []
        outcome = run_sweep_worker(
            _grid(),
            shared,
            worker_id="test:survivor",
            lease_ttl=5.0,
            poll_interval=0.1,
            progress=lines.append,
            max_passes=200,
        )
        assert outcome.executed == [victim]
        assert any("deferred" in line for line in lines)
        assert outcome.passes >= 2
        assert _snapshot(reference, backend) == _snapshot(shared, backend)
        with open_store(shared, backend=backend) as store:
            assert store.active_leases() == {}

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_two_workers_one_sigkilled_identical(self, tmp_path, backend):
        """Acceptance: a 2-process cluster on one store — with one
        worker SIGKILLed mid-grid and its leases reclaimed — produces a
        store identical to the uninterrupted single-worker reference."""
        reference = store_path(tmp_path, backend, "reference")
        run_sweep(_grid(), reference)
        shared = store_path(tmp_path, backend, "shared")
        grid = _grid()
        context = multiprocessing.get_context("spawn")
        workers = [
            context.Process(
                target=_worker_main,
                args=(grid, str(shared), backend, f"test:{tag}", 2.0, 0.1),
            )
            for tag in ("victim", "survivor")
        ]
        for process in workers:
            process.start()
        victim, survivor = workers
        time.sleep(1.5)
        victim.kill()  # SIGKILL: no cleanup, leases left ticking
        victim.join()
        survivor.join(timeout=300)
        assert not survivor.is_alive()
        assert survivor.exitcode == 0
        # The collection pass (what run_sweep_workers runs after the
        # join) finishes anything the victim left behind and reaps.
        outcome = run_sweep_worker(
            grid,
            shared,
            worker_id="test:collector",
            lease_ttl=2.0,
            poll_interval=0.1,
            store_backend=backend,
            max_passes=200,
        )
        with open_store(shared, backend=backend) as store:
            store.discard_stray_tmp()
            assert store.active_leases() == {}
        assert _snapshot(reference, backend) == _snapshot(shared, backend)
        table2, table3 = _direct_reports()
        for key, cell in table2.cells.items():
            assert outcome.table2.cells[key].theta == cell.theta
        for key, quality in table3.quality.items():
            assert outcome.table3.quality[key] == quality

    def test_run_sweep_workers_end_to_end(self, tmp_path):
        """The orchestrated path: spawn N children, join, collect."""
        reference = store_path(tmp_path, "json", "reference")
        run_sweep(_grid(), reference)
        shared = store_path(tmp_path, "json", "shared")
        outcome = run_sweep_workers(
            _grid(), shared, workers=2, lease_ttl=5.0, poll_interval=0.1
        )
        assert _tree_bytes(reference) == _tree_bytes(shared)
        table2, _table3 = _direct_reports()
        for key, cell in table2.cells.items():
            assert outcome.table2.cells[key].theta == cell.theta
        with pytest.raises(InvalidParameterError, match="workers"):
            run_sweep_workers(_grid(), shared, workers=0)


# ----------------------------------------------------------------------
# CLI: --workers / --join / store diff
# ----------------------------------------------------------------------
class TestCLIMultiWorker:
    def _sweep_args(self, extra):
        return [
            "sweep",
            "--quick",
            "--surfaces",
            "table2",
            "--runs",
            "1",
            *extra,
        ]

    def test_sweep_requires_store_or_join(self, capsys):
        from repro.cli import main

        assert main(self._sweep_args([])) == 2
        assert "--store" in capsys.readouterr().err

    def test_join_mode_runs_then_reuses(self, tmp_path, capsys):
        from repro.cli import main

        store = tmp_path / "shared"
        assert main(self._sweep_args(["--join", str(store)])) == 0
        assert "sweep complete" in capsys.readouterr().out
        # A second worker joining the finished store reuses everything.
        assert main(self._sweep_args(["--join", str(store)])) == 0
        assert "0 cells run, 2 reused" in capsys.readouterr().out

    def test_workers_flag_matches_single_worker_store(self, tmp_path):
        from repro.cli import main

        reference = tmp_path / "reference"
        assert main(self._sweep_args(["--store", str(reference)])) == 0
        shared = tmp_path / "shared"
        assert (
            main(
                self._sweep_args(
                    [
                        "--store",
                        str(shared),
                        "--workers",
                        "2",
                        "--lease-ttl",
                        "5",
                    ]
                )
            )
            == 0
        )
        assert _tree_bytes(reference) == _tree_bytes(shared)

    def test_store_diff_cli(self, tmp_path, capsys):
        from repro.cli import main

        left = tmp_path / "left"
        assert main(self._sweep_args(["--store", str(left)])) == 0
        twin = tmp_path / "twin.sqlite"
        assert main(["store", "migrate", str(left), str(twin)]) == 0
        capsys.readouterr()
        assert main(["store", "diff", str(left), str(twin)]) == 0
        assert "stores identical" in capsys.readouterr().out
        other = tmp_path / "other"
        assert (
            main(self._sweep_args(["--store", str(other), "--seed", "9"]))
            == 0
        )
        capsys.readouterr()
        assert main(["store", "diff", str(left), str(other)]) == 1
        out = capsys.readouterr().out
        assert "stores differ" in out
        assert main(["store", "diff", str(left), str(tmp_path / "nope")]) == 2
        assert "error:" in capsys.readouterr().err
