"""Tests for the paper-grid sweep orchestrator (repro.engine.sweep).

The orchestrator's whole contract is invisibility plus persistence: a
sweep cell must equal the corresponding direct-runner cell bit for bit
(on every backend), a resumed store must be byte-identical to an
uninterrupted one, damaged cell files must be detected and re-run, and
each dataset's off-line caches (moment matrices, sampling plan, pairwise
ÊD matrix) must be built exactly once across the whole grid.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.engine.sweep import (
    Figure4Spec,
    Figure5Spec,
    SweepGrid,
    Table2Spec,
    Table3Spec,
    cell_id,
    run_sweep,
)
from repro.exceptions import SweepStoreError
from repro.experiments import (
    ExperimentConfig,
    run_figure4,
    run_figure5,
    run_table2,
    run_table3,
)

T2_AXES = dict(
    datasets=("iris",), families=("normal",), algorithms=("UKM", "UKmed")
)
T3_AXES = dict(
    datasets=("neuroblastoma",),
    cluster_counts=(2, 3),
    algorithms=("UKmed", "MMV"),
)


def _configs(seed=5, backend="serial", n_jobs=1, batch_size=1, n_runs=2):
    common = dict(
        n_runs=n_runs,
        n_samples=8,
        seed=seed,
        backend=backend,
        n_jobs=n_jobs,
        batch_size=batch_size,
    )
    return (
        ExperimentConfig(scale=0.12, max_objects=40, **common),
        ExperimentConfig(scale=0.004, **common),
    )


def _grid(seed=5, backend="serial", n_jobs=1, batch_size=1):
    cfg2, cfg3 = _configs(seed, backend, n_jobs, batch_size)
    return SweepGrid(
        table2=Table2Spec(config=cfg2, **T2_AXES),
        table3=Table3Spec(config=cfg3, **T3_AXES),
    )


def _direct_reports(seed=5):
    """The reference values: direct serial runner invocations."""
    cfg2, cfg3 = _configs(seed)
    return (
        run_table2(cfg2, **T2_AXES),
        run_table3(cfg3, **T3_AXES),
    )


def _assert_matches_direct(outcome, table2, table3):
    for key, cell in table2.cells.items():
        sweep_cell = outcome.table2.cells[key]
        assert sweep_cell.theta == cell.theta, key
        assert sweep_cell.quality == cell.quality, key
    for key, quality in table3.quality.items():
        assert outcome.table3.quality[key] == quality, key


def _tree_bytes(root: Path):
    return {
        path.relative_to(root).as_posix(): path.read_bytes()
        for path in sorted(Path(root).rglob("*"))
        if path.is_file()
    }


class TestSweepEquivalence:
    """Satellite 1: sweep cells ≡ direct runner cells, per backend."""

    def test_20_seed_bit_identity_serial(self, tmp_path):
        for seed in range(20):
            outcome = run_sweep(_grid(seed=seed), tmp_path / f"s{seed}")
            table2, table3 = _direct_reports(seed)
            _assert_matches_direct(outcome, table2, table3)

    @pytest.mark.parametrize(
        "backend,n_jobs,batch_size",
        [("threads", 3, 1), ("threads", 2, "auto"), ("auto", 2, 1)],
    )
    def test_parallel_backend_bit_identity(
        self, tmp_path, backend, n_jobs, batch_size
    ):
        """Backends and chunkings are result-invariant, so a sweep on
        any of them must still equal the direct *serial* reference."""
        for seed in (0, 7, 123):
            outcome = run_sweep(
                _grid(seed=seed, backend=backend, n_jobs=n_jobs,
                      batch_size=batch_size),
                tmp_path / f"{backend}-{batch_size}-{seed}",
            )
            table2, table3 = _direct_reports(seed)
            _assert_matches_direct(outcome, table2, table3)

    def test_processes_backend_bit_identity(self, tmp_path):
        """The process pool (shared-memory publication, group block
        registry) is the costly path — one seed keeps the test fast."""
        outcome = run_sweep(
            _grid(seed=7, backend="processes", n_jobs=2),
            tmp_path / "processes",
        )
        table2, table3 = _direct_reports(7)
        _assert_matches_direct(outcome, table2, table3)

    def test_figure_surfaces_match_direct_structure(self, tmp_path):
        """Figure cells store measured runtimes (not deterministic), so
        the sweep pins structure: same cell keys, same deterministic
        subset sizes, positive runtimes."""
        cfg = ExperimentConfig(
            scale=0.02, max_objects=60, n_runs=1, n_samples=8, seed=3
        )
        grid = SweepGrid(
            figure4=Figure4Spec(config=cfg, datasets=("abalone",)),
            figure5=Figure5Spec(
                config=cfg,
                fractions=(0.25, 1.0),
                algorithms=("UKM", "MMV"),
                base_size=1500,
            ),
        )
        outcome = run_sweep(grid, tmp_path / "figures")
        direct4 = run_figure4(cfg, datasets=("abalone",))
        direct5 = run_figure5(
            cfg,
            fractions=(0.25, 1.0),
            algorithms=("UKM", "MMV"),
            base_size=1500,
        )
        assert set(outcome.figure4.runtimes_ms) == set(direct4.runtimes_ms)
        assert all(v > 0 for v in outcome.figure4.runtimes_ms.values())
        assert outcome.figure5.sizes == direct5.sizes
        assert set(outcome.figure5.runtimes_ms) == set(direct5.runtimes_ms)
        assert all(v > 0 for v in outcome.figure5.runtimes_ms.values())


class TestResume:
    """Satellite 3: kill mid-grid, resume, byte-identical store."""

    def _interrupted_store(self, store, kill_after, monkeypatch):
        """Run the grid but die after ``kill_after`` table2 cells."""
        import repro.experiments.table2 as table2_module

        original = table2_module.run_table2_cell
        calls = {"count": 0}

        def bomb(*args, **kwargs):
            if calls["count"] >= kill_after:
                raise KeyboardInterrupt("simulated kill")
            calls["count"] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(table2_module, "run_table2_cell", bomb)
        with pytest.raises(KeyboardInterrupt):
            run_sweep(_grid(), store)
        monkeypatch.setattr(table2_module, "run_table2_cell", original)

    def test_mid_group_kill_then_resume_is_byte_identical(
        self, tmp_path, monkeypatch
    ):
        clean = tmp_path / "clean"
        run_sweep(_grid(), clean)
        # Kill after 1 of the 2 table2 cells: the resume must replay the
        # completed cell's seed consumption so the second cell (and all
        # of table3) still sees the uninterrupted streams.
        killed = tmp_path / "killed"
        self._interrupted_store(killed, kill_after=1, monkeypatch=monkeypatch)
        outcome = run_sweep(_grid(), killed, resume=True)
        assert len(outcome.reused) == 1
        assert len(outcome.executed) == 5
        assert _tree_bytes(clean) == _tree_bytes(killed)
        table2, table3 = _direct_reports()
        _assert_matches_direct(outcome, table2, table3)

    def test_undamaged_resume_reuses_everything(self, tmp_path):
        store = tmp_path / "store"
        first = run_sweep(_grid(), store)
        again = run_sweep(_grid(), store, resume=True)
        assert not again.executed
        assert sorted(again.reused) == sorted(
            first.executed
        )
        table2, table3 = _direct_reports()
        _assert_matches_direct(again, table2, table3)

    def test_corrupted_and_partial_cells_detected_and_rerun(self, tmp_path):
        clean = tmp_path / "clean"
        run_sweep(_grid(), clean)
        damaged = tmp_path / "damaged"
        run_sweep(_grid(), damaged)
        truncated = damaged / "cells" / (
            cell_id("table2", ("iris", "normal"), ("UKM",)) + ".json"
        )
        truncated.write_text(truncated.read_text()[:25])  # broken JSON
        partial = damaged / "cells" / (
            cell_id("table3", ("neuroblastoma",), ("k2", "UKmed")) + ".json"
        )
        partial.write_text(json.dumps({"status": "running"}))  # no values
        outcome = run_sweep(_grid(), damaged, resume=True)
        assert sorted(outcome.invalid) == sorted(
            [truncated.stem, partial.stem]
        )
        assert sorted(outcome.executed) == sorted(outcome.invalid)
        assert _tree_bytes(clean) == _tree_bytes(damaged)

    def test_stale_seed_fingerprint_reruns_cell(self, tmp_path):
        """A cell whose recorded seed state no longer matches the
        replayed schedule is re-run, not silently reused.  (A fully
        cached group is reused wholesale on the manifest's authority,
        so the group must be partially complete for the per-cell
        fingerprint walk to engage — here a sibling cell is missing.)"""
        clean = tmp_path / "clean"
        run_sweep(_grid(), clean)
        store = tmp_path / "stale"
        run_sweep(_grid(), store)
        stale = store / "cells" / (
            cell_id("table2", ("iris", "normal"), ("UKmed",)) + ".json"
        )
        payload = json.loads(stale.read_text())
        payload["seed_state"] = "0" * 40
        stale.write_text(json.dumps(payload))
        missing = store / "cells" / (
            cell_id("table2", ("iris", "normal"), ("UKM",)) + ".json"
        )
        missing.unlink()
        outcome = run_sweep(_grid(), store, resume=True)
        assert outcome.invalid == [stale.stem]
        assert sorted(outcome.executed) == sorted(
            [stale.stem, missing.stem]
        )
        assert _tree_bytes(clean) == _tree_bytes(store)


class TestStoreSafety:
    def test_refuses_existing_results_without_resume(self, tmp_path):
        store = tmp_path / "store"
        run_sweep(_grid(), store)
        with pytest.raises(SweepStoreError, match="resume"):
            run_sweep(_grid(), store)

    def test_refuses_store_from_different_grid(self, tmp_path):
        store = tmp_path / "store"
        run_sweep(_grid(seed=5), store)
        with pytest.raises(SweepStoreError, match="different grid"):
            run_sweep(_grid(seed=6), store, resume=True)

    def test_refuses_unrelated_non_empty_directory(self, tmp_path):
        target = tmp_path / "notastore"
        target.mkdir()
        (target / "precious.txt").write_text("do not clobber")
        with pytest.raises(SweepStoreError, match="no sweep manifest"):
            run_sweep(_grid(), target)
        assert (target / "precious.txt").read_text() == "do not clobber"

    def test_refuses_corrupt_manifest(self, tmp_path):
        store = tmp_path / "store"
        run_sweep(_grid(), store)
        (store / "manifest.json").write_text("{not json")
        with pytest.raises(SweepStoreError, match="unreadable"):
            run_sweep(_grid(), store, resume=True)

    def test_manifest_records_grid(self, tmp_path):
        store = tmp_path / "store"
        grid = _grid()
        run_sweep(grid, store)
        manifest = json.loads((store / "manifest.json").read_text())
        assert manifest == grid.describe()
        assert set(manifest["surfaces"]) == {"table2", "table3"}

    def test_grid_needs_a_surface(self):
        from repro.exceptions import InvalidParameterError

        with pytest.raises(InvalidParameterError, match="at least one"):
            SweepGrid()


class TestCacheSharing:
    """Satellite 2: one cache build per dataset across the whole grid."""

    @pytest.fixture
    def build_spies(self, monkeypatch):
        """Counts of every off-line build the grid can trigger."""
        import repro.clustering.uahc as uahc_module
        import repro.clustering.ukmedoids as ukmedoids_module
        import repro.experiments.table3 as table3_module
        import repro.objects.distance as distance_module
        import repro.uncertainty.batch as batch_module

        counts = {"pairwise": 0, "plan": 0, "dataset": 0}

        original_pairwise = distance_module.pairwise_squared_expected_distances

        def counting_pairwise(dataset):
            counts["pairwise"] += 1
            return original_pairwise(dataset)

        for module in (distance_module, ukmedoids_module, uahc_module):
            monkeypatch.setattr(
                module,
                "pairwise_squared_expected_distances",
                counting_pairwise,
            )

        # Columnar datasets compile their plan without build_sampling_plan,
        # so count the plans themselves.
        original_plan = batch_module.SamplingPlan.__init__

        def counting_plan(plan, *args, **kwargs):
            counts["plan"] += 1
            original_plan(plan, *args, **kwargs)

        monkeypatch.setattr(batch_module.SamplingPlan, "__init__", counting_plan)

        original_microarray = table3_module.make_microarray

        def counting_microarray(*args, **kwargs):
            counts["dataset"] += 1
            return original_microarray(*args, **kwargs)

        monkeypatch.setattr(
            table3_module, "make_microarray", counting_microarray
        )
        return counts

    def test_one_build_per_dataset_across_grid(self, tmp_path, build_spies):
        """4 cells share 1 dataset: the dataset is generated once, its
        ÊD matrix is built once (feeding UK-medoids fits *and* every
        cell's internal criterion), and the sampling plan is compiled
        once (shared by both sample-based cells)."""
        cfg = ExperimentConfig(scale=0.004, n_runs=2, n_samples=8, seed=3)
        grid = SweepGrid(
            table3=Table3Spec(
                config=cfg,
                datasets=("neuroblastoma",),
                cluster_counts=(2, 3),
                algorithms=("UKmed", "bUKM"),
            )
        )
        run_sweep(grid, tmp_path / "store")
        assert build_spies["dataset"] == 1
        assert build_spies["pairwise"] == 1
        assert build_spies["plan"] == 1

    def test_resume_of_complete_group_builds_nothing(
        self, tmp_path, build_spies
    ):
        cfg = ExperimentConfig(scale=0.004, n_runs=1, n_samples=8, seed=3)
        grid = SweepGrid(
            table3=Table3Spec(
                config=cfg,
                datasets=("neuroblastoma",),
                cluster_counts=(2,),
                algorithms=("UKmed",),
            )
        )
        run_sweep(grid, tmp_path / "store")
        before = dict(build_spies)
        run_sweep(grid, tmp_path / "store", resume=True)
        assert build_spies == before


class TestCLI:
    def test_sweep_command_quick_grid(self, tmp_path, capsys):
        from repro.cli import main

        store = tmp_path / "store"
        code = main(
            [
                "sweep",
                "--store",
                str(store),
                "--quick",
                "--surfaces",
                "table2",
                "--runs",
                "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "sweep complete" in out
        assert (store / "manifest.json").exists()
        assert len(list((store / "cells").glob("*.json"))) == 2
        # Resume reuses; a third run without --resume is refused.
        assert (
            main(
                [
                    "sweep", "--store", str(store), "--quick",
                    "--surfaces", "table2", "--runs", "1", "--resume",
                ]
            )
            == 0
        )
        assert "0 cells run, 2 reused" in capsys.readouterr().out
        assert (
            main(
                [
                    "sweep", "--store", str(store), "--quick",
                    "--surfaces", "table2", "--runs", "1",
                ]
            )
            == 2
        )

    def test_batch_size_auto_parses(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["table2", "--batch-size", "auto"]
        )
        assert args.batch_size == "auto"
        args = build_parser().parse_args(["table2", "--batch-size", "4"])
        assert args.batch_size == 4
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table2", "--batch-size", "soon"])


class TestReportingIntegration:
    def test_outcome_artifacts_requires_full_grid(self, tmp_path):
        from repro.exceptions import InvalidParameterError

        outcome = run_sweep(_grid(), tmp_path / "store")
        with pytest.raises(InvalidParameterError, match="missing"):
            outcome.artifacts()

    def test_collect_artifacts_via_store(self, tmp_path):
        """collect_artifacts(store=...) routes through the sweep and
        returns the same deterministic cells as the direct path."""
        from repro.experiments.reporting import collect_artifacts
        from repro.engine.sweep import paper_grid, run_sweep as _run

        cfg = ExperimentConfig(
            scale=0.02, max_objects=40, n_runs=1, n_samples=8, seed=9
        )
        micro = ExperimentConfig(scale=0.004, n_runs=1, n_samples=8, seed=9)
        # Shrink the grid axes through paper_grid-compatible specs: use
        # the sweep directly for the heavy surfaces' axes, then check
        # collect_artifacts agrees for the deterministic Table 2 cells.
        grid = paper_grid(
            table2_config=cfg,
            table3_config=micro,
            figure4_config=micro,
            figure5_config=cfg,
            figure5_base_size=800,
        )
        # paper_grid uses the full default axes — far too slow for a
        # test — so only check the wiring: a grid with every surface
        # assembles PaperArtifacts.
        small = SweepGrid(
            table2=Table2Spec(config=cfg, **T2_AXES),
            table3=Table3Spec(config=micro, **T3_AXES),
            figure4=Figure4Spec(config=micro, datasets=("abalone",)),
            figure5=Figure5Spec(
                config=cfg,
                fractions=(1.0,),
                algorithms=("UKM",),
                base_size=800,
            ),
        )
        outcome = _run(small, tmp_path / "store")
        artifacts = outcome.artifacts()
        assert artifacts.table2 is outcome.table2
        assert artifacts.figure5 is outcome.figure5
        assert grid.table2 is not None  # paper_grid wiring sanity


class TestLeaseTTLEdges:
    """Edge matrix for the claim/lease protocol's timing parameters."""

    def _prepared_store(self, tmp_path):
        from repro.engine.store import SWEEP_SCHEMA_VERSION, open_store

        store = open_store(tmp_path / "store")
        store.prepare(
            {"schema": SWEEP_SCHEMA_VERSION, "surfaces": {}}, False
        )
        return store

    def test_ttl_below_floor_rejected_at_construction(self, tmp_path):
        from repro.engine.sweep import MIN_LEASE_TTL, _LeaseClaimer
        from repro.exceptions import InvalidParameterError

        store = self._prepared_store(tmp_path)
        try:
            with pytest.raises(InvalidParameterError, match="lease ttl"):
                _LeaseClaimer(
                    store, "w1", MIN_LEASE_TTL / 2, lambda msg: None
                )
            # The floor itself is accepted.
            claimer = _LeaseClaimer(
                store, "w1", MIN_LEASE_TTL, lambda msg: None
            )
            claimer.close()
        finally:
            store.close()

    def test_ttl_below_floor_rejected_by_cli(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(
            ["sweep", "--store", "s", "--lease-ttl", "5"]
        )
        assert args.lease_ttl == 5.0
        with pytest.raises(SystemExit):
            parser.parse_args(["sweep", "--store", "s", "--lease-ttl", "0.01"])
        with pytest.raises(SystemExit):
            parser.parse_args(["sweep", "--store", "s", "--lease-ttl", "soon"])

    def test_heartbeat_thread_does_not_outlive_cell(self, tmp_path):
        import threading

        from repro.engine.sweep import _LeaseClaimer

        store = self._prepared_store(tmp_path)
        claimer = _LeaseClaimer(store, "w1", 0.2, lambda msg: None)
        try:
            assert claimer.claim("cell--0000000001")
            with claimer.heartbeat("cell--0000000001"):
                beats = [
                    t
                    for t in threading.enumerate()
                    if t.name == "sweep-lease-heartbeat"
                ]
                assert len(beats) == 1
            # The context join must reap the thread: a beat thread that
            # outlives its cell would renew a lease nobody holds.
            assert not beats[0].is_alive()
            claimer.release("cell--0000000001")
            assert not store.active_leases()
        finally:
            claimer.close()
            store.close()

    def test_heartbeat_keeps_short_lease_alive(self, tmp_path):
        import time

        from repro.engine.sweep import _LeaseClaimer

        store = self._prepared_store(tmp_path)
        claimer = _LeaseClaimer(store, "w1", 0.2, lambda msg: None)
        try:
            assert claimer.claim("cell--0000000001")
            with claimer.heartbeat("cell--0000000001"):
                # Several ttls pass; the 0.066s beat keeps renewing, so
                # a rival can never steal the cell.
                deadline = time.monotonic() + 0.8
                while time.monotonic() < deadline:
                    assert not store.claim_cell(
                        "cell--0000000001", "rival", 60.0
                    )
                    time.sleep(0.1)
            claimer.release("cell--0000000001")
            assert store.claim_cell("cell--0000000001", "rival", 60.0)
        finally:
            claimer.close()
            store.close()

    def test_default_worker_id_format_and_uniqueness(self):
        import os
        import socket

        from repro.engine.sweep import _default_worker_id

        ids = {_default_worker_id() for _ in range(64)}
        assert len(ids) == 64  # uuid suffix disambiguates same host:pid
        host, pid, suffix = next(iter(ids)).rsplit(":", 2)
        assert host == socket.gethostname()
        assert pid == str(os.getpid())
        assert len(suffix) == 8
        int(suffix, 16)  # hex suffix
