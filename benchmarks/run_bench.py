"""Run the pinned engine benchmarks and emit a machine-readable JSON.

This is the perf-trajectory seed: every CI run executes the same fixed
measurement roster and uploads ``BENCH_engine.json`` as an artifact, so
regressions (and wins) in the engine layer are visible across commits
without digging through pytest-benchmark output.

Usage::

    PYTHONPATH=src python benchmarks/run_bench.py                 # full sizes
    PYTHONPATH=src python benchmarks/run_bench.py --quick         # CI smoke
    PYTHONPATH=src python benchmarks/run_bench.py --output out.json

The measurement roster mirrors ``benchmarks/bench_engine.py``:

* batched ``sample_tensor`` vs the per-object sampling loop;
* multi-restart engine with shared vs fresh sample tensors;
* ported FDBSCAN end-to-end fit;
* the execution backends (serial / threads / processes) driving the
  same moment-based restart workload;
* paper-scale UK-medoids multi-restarts on the shared pairwise-distance
  plane vs the per-restart ÊD recompute it replaced;
* UAHC's vectorized proximity agglomeration;
* report-shaped aggregation (metric summary + best-of-group +
  rank-over-grid) over a ~10k-cell synthetic result store, on the JSON
  directory backend vs the SQLite columnar backend;
* the multi-worker sweep: one compute-dominated small grid run by a
  single worker vs two claim-based worker processes leasing cells off
  one shared store (speedup only materializes on >= 2 cores; the
  single-core record documents the coordination overhead instead);
* the million-object scale path at n=20_000 (S=32, m=8, k=20):
  Elkan-bounded UK-means vs the full BasicUKMeans Lloyd pass (same
  seeds, bit-identical labels — the record carries the measured
  speedup and ED skip rate) plus the lossy mini-batch UK-means fit;
* the columnar uncertainty generator (Section 5.1) at the Figure 5
  shape (n=2000, m=42), one row per pdf family;
* VDBiP's bisector mask at the Figure 5 shape (n=2000, m=42, k=23):
  the certified GEMM screen vs the literal per-pair loop over the same
  helper it falls back to (identical masks, asserted).

Timings are best-of-``repeats`` wall clock; the JSON also records the
machine shape (cores, python, numpy) so numbers are comparable only
within like-for-like runners.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
import time
import warnings
from pathlib import Path
from typing import Callable, Dict, List, Optional

try:
    import repro  # noqa: F401
except ImportError:  # pragma: no cover - direct invocation convenience
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro.clustering import (
    FDBSCAN,
    UAHC,
    VDBiP,
    BasicUKMeans,
    UKMeans,
    UKMedoids,
)
from repro.clustering.pruning import _bisector_max
from repro.datagen import PDF_FAMILIES, UncertaintyGenerator, make_blobs_uncertain
from repro.datagen.benchmarks import make_classification_like
from repro.engine import MultiRestartRunner
from repro.engine.store import SWEEP_SCHEMA_VERSION, ResultStore, open_store
from repro.exceptions import ConvergenceWarning
from repro.objects import UncertainDataset, UncertainObject
from repro.utils.rng import ensure_rng

#: Bumped whenever a measurement's name or meaning changes.
SCHEMA_VERSION = 6

#: The fixed measurement roster.  ``run_benchmarks`` must emit exactly
#: these names; the overwrite guard in :func:`main` compares an existing
#: snapshot against them *before* running anything, so a snapshot from a
#: different roster (or schema) is never silently clobbered.
MEASUREMENT_NAMES = (
    "sample_tensor_batched",
    "sample_tensor_per_object",
    "multi_restart_shared_cache",
    "multi_restart_fresh_samples",
    "fdbscan_ported_fit",
    "backend_serial_ukmeans_restarts",
    "backend_threads_ukmeans_restarts",
    "backend_processes_ukmeans_restarts",
    "ukmedoids_plane_shared",
    "ukmedoids_plane_recompute",
    "uahc_jeffreys_fit",
    "store_aggregate_sqlite",
    "store_aggregate_json",
    "sweep_single_worker",
    "sweep_two_workers",
    "bounded_ukmeans_elkan",
    "bounded_ukmeans_basic_reference",
    "minibatch_ukmeans_fit",
    "uncertainty_generate_uniform",
    "uncertainty_generate_normal",
    "uncertainty_generate_exponential",
    "vdbip_candidate_mask",
    "vdbip_candidate_mask_literal",
)


def snapshot_conflict(path: Path) -> Optional[str]:
    """Why overwriting the snapshot at ``path`` would lose information.

    Returns ``None`` when the existing file is a like-for-like snapshot
    (same schema version, same measurement roster) — the normal CI
    refresh — and a human-readable reason otherwise: an unreadable
    file, a different schema version, or a different roster all mean
    the committed trajectory would silently change meaning.
    """
    try:
        payload = json.loads(path.read_text())
    except (json.JSONDecodeError, OSError) as error:
        return f"existing file is not readable benchmark JSON ({error})"
    if not isinstance(payload, dict):
        return "existing file is not a benchmark snapshot object"
    if payload.get("schema") != SCHEMA_VERSION:
        return (
            f"existing schema version {payload.get('schema')!r} != "
            f"{SCHEMA_VERSION}"
        )
    existing = {
        entry.get("name")
        for entry in payload.get("benchmarks", [])
        if isinstance(entry, dict)
    }
    if existing != set(MEASUREMENT_NAMES):
        missing = sorted(set(MEASUREMENT_NAMES) - existing)
        extra = sorted(existing - set(MEASUREMENT_NAMES))
        return (
            "existing measurement roster differs "
            f"(missing: {missing or '-'}, extra: {extra or '-'})"
        )
    return None


def _best_of(fn: Callable[[], object], repeats: int) -> float:
    timings = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        timings.append(time.perf_counter() - start)
    return min(timings)


def _uniform_dataset(n_objects: int, seed: int = 11) -> UncertainDataset:
    rng = np.random.default_rng(seed)
    centers = rng.normal(0.0, 10.0, size=(n_objects, 2))
    widths = rng.uniform(0.2, 2.0, size=(n_objects, 2))
    return UncertainDataset(
        [
            UncertainObject.uniform_box(centers[i], widths[i], label=0)
            for i in range(n_objects)
        ]
    )


def _per_object_loop(dataset, n_samples, seed):
    rng = ensure_rng(seed)
    out = np.empty((len(dataset), n_samples, dataset.dim))
    for idx, obj in enumerate(dataset):
        out[idx] = obj.sample(n_samples, rng)
    return out


def populate_synthetic_store(
    store: ResultStore, n_cells: int, seed: int = 29
) -> None:
    """Fill ``store`` with a sweep-shaped synthetic grid of ``n_cells``.

    Groups of 50 cells (10 datasets-worth of algorithm x k cells each)
    with a few numeric metrics per cell — the shape the report
    aggregation walks, at a scale where substrate cost dominates.
    """
    rng = np.random.default_rng(seed)
    store.prepare(
        {
            "schema": SWEEP_SCHEMA_VERSION,
            "surfaces": {"synthetic": {"cells": n_cells}},
        },
        resume=False,
    )
    written = 0
    group_idx = 0
    while written < n_cells:
        group = (f"dataset{group_idx:04d}",)
        for pos in range(min(50, n_cells - written)):
            store.write_cell(
                "synthetic",
                group,
                (f"alg{pos % 5}", f"k{10 + pos // 5}"),
                seed_state=f"{written:040x}",
                values={
                    "quality": float(rng.random()),
                    "runtime_ms": float(rng.uniform(1.0, 1e3)),
                    "iterations": int(rng.integers(1, 40)),
                },
            )
            written += 1
        group_idx += 1


def vdbip_mask_inputs(n_objects: int, seed: int = 0):
    """Figure 5-shaped ``(lower, upper, centers)``: KDD-like boxes with
    m=42 and k=23 centroids drawn from the objects' means."""
    points, labels = make_classification_like(
        n_objects=n_objects, n_attributes=42, n_classes=23, seed=seed
    )
    data = UncertaintyGenerator("normal", mass=0.95).uncertain_dataset(
        points, labels, seed=seed
    )
    rows = np.random.default_rng(seed).choice(n_objects, 23, replace=False)
    return data.support_lower, data.support_upper, data.mu_matrix[rows]


def literal_vdbip_mask(lower, upper, centers):
    """VDBiP's bisector mask as the per-pair loop over the literal
    helper: the baseline of the GEMM screen, and its reference."""
    n, k = lower.shape[0], centers.shape[0]
    center_sq = np.einsum("cj,cj->c", centers, centers)
    candidates = np.ones((n, k), dtype=bool)
    for j in range(k):
        for l in range(k):
            if l != j:
                a = -2.0 * (centers[j] - centers[l])
                b = center_sq[j] - center_sq[l]
                candidates[_bisector_max(lower, upper, a, b) < 0.0, l] = False
    candidates[~candidates.any(axis=1)] = True
    return candidates


def aggregate_store(store: ResultStore):
    """The report-shaped aggregation workload over one store.

    One full metric summary plus best-of-group and rank-over-grid on
    the headline metric — Python reference reads on the JSON backend,
    indexed SQL (GROUP BY + window functions) on SQLite.
    """
    return (
        store.metric_summary(),
        store.best_cells("quality", mode="max"),
        store.rank_over_grid("quality", mode="max"),
    )


def run_benchmarks(quick: bool = False) -> List[Dict[str, object]]:
    """Execute the fixed roster; returns one record per measurement."""
    repeats = 2 if quick else 3
    scale = 0.25 if quick else 1.0
    records: List[Dict[str, object]] = []

    def record(name: str, seconds: float, **meta) -> None:
        records.append({"name": name, "seconds": seconds, **meta})

    # --- off-line sampling -------------------------------------------
    n_sampling = int(2000 * scale)
    n_samples = 64
    sampling_data = _uniform_dataset(n_sampling)
    sampling_data.sample_tensor(n_samples, 0)  # warm the plan cache
    batched = _best_of(lambda: sampling_data.sample_tensor(n_samples, 0), repeats)
    looped = _best_of(
        lambda: _per_object_loop(sampling_data, n_samples, 0), repeats
    )
    record(
        "sample_tensor_batched",
        batched,
        n=n_sampling,
        S=n_samples,
        speedup=looped / batched,
    )
    record("sample_tensor_per_object", looped, n=n_sampling, S=n_samples)

    # --- multi-restart engine ----------------------------------------
    n_restart = int(400 * scale)
    restart_data = make_blobs_uncertain(
        n_objects=n_restart, n_clusters=4, separation=4.0, seed=11
    )
    shared = _best_of(
        lambda: MultiRestartRunner(
            BasicUKMeans(4, n_samples=32), n_init=5, share_samples=True
        ).run(restart_data, 0),
        repeats,
    )
    fresh = _best_of(
        lambda: MultiRestartRunner(
            BasicUKMeans(4, n_samples=32), n_init=5, share_samples=False
        ).run(restart_data, 0),
        repeats,
    )
    record("multi_restart_shared_cache", shared, n=n_restart, n_init=5)
    record("multi_restart_fresh_samples", fresh, n=n_restart, n_init=5)

    # --- density clustering ------------------------------------------
    n_density = int(1000 * scale)
    density_data = make_blobs_uncertain(
        n_objects=n_density, n_clusters=5, n_attributes=16, seed=7
    )
    model = FDBSCAN(n_samples=64)
    model.fit(density_data, seed=0)  # warm
    record(
        "fdbscan_ported_fit",
        _best_of(lambda: model.fit(density_data, seed=0), repeats),
        n=n_density,
        S=64,
        m=16,
    )

    # --- execution backends ------------------------------------------
    n_backend = int(2000 * scale)
    backend_data = make_blobs_uncertain(
        n_objects=n_backend, n_clusters=8, n_attributes=16, separation=3.0,
        seed=19,
    )
    jobs = min(4, os.cpu_count() or 1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        for backend, n_jobs in (
            ("serial", 1),
            ("threads", jobs),
            ("processes", jobs),
        ):
            seconds = _best_of(
                lambda: MultiRestartRunner(
                    UKMeans(8, max_iter=8),
                    n_init=8,
                    n_jobs=n_jobs,
                    backend=backend,
                ).run(backend_data, seed=3),
                repeats,
            )
            record(
                f"backend_{backend}_ukmeans_restarts",
                seconds,
                n=n_backend,
                m=16,
                n_init=8,
                n_jobs=n_jobs,
            )

    # --- pairwise-distance plane -------------------------------------
    from repro.objects.distance import pairwise_squared_expected_distances

    n_medoid = int(2000 * scale)
    medoid_k = 25
    medoid_restarts = 8
    medoid_data = make_blobs_uncertain(
        n_objects=n_medoid, n_clusters=medoid_k, n_attributes=32,
        separation=3.0, seed=23,
    )

    def _plane_shared():
        # Build + pin the matrix explicitly so each repeat pays the
        # one-time off-line cost (the dataset-level cache would hide it).
        model = UKMedoids(medoid_k, max_iter=2)
        model.pairwise_ed_cache = pairwise_squared_expected_distances(
            medoid_data
        )
        return MultiRestartRunner(
            model, n_init=medoid_restarts, backend="serial"
        ).run(medoid_data, seed=5)

    def _plane_recompute():
        return MultiRestartRunner(
            UKMedoids(medoid_k, max_iter=2),
            n_init=medoid_restarts,
            backend="serial",
            share_pairwise=False,
        ).run(medoid_data, seed=5)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        plane_shared = _best_of(_plane_shared, repeats)
        plane_recompute = _best_of(_plane_recompute, repeats)
    record(
        "ukmedoids_plane_shared",
        plane_shared,
        n=n_medoid,
        n_init=medoid_restarts,
        k=medoid_k,
        speedup=plane_recompute / plane_shared,
    )
    record(
        "ukmedoids_plane_recompute",
        plane_recompute,
        n=n_medoid,
        n_init=medoid_restarts,
        k=medoid_k,
    )

    # --- result-store aggregation ------------------------------------
    store_cells = int(10000 * scale)
    with tempfile.TemporaryDirectory() as tmp:
        json_store = open_store(Path(tmp) / "store")
        sqlite_store = open_store(Path(tmp) / "store.sqlite")
        try:
            populate_synthetic_store(json_store, store_cells)
            populate_synthetic_store(sqlite_store, store_cells)
            aggregate_store(json_store)  # warm page/inode caches
            aggregate_store(sqlite_store)
            agg_json = _best_of(lambda: aggregate_store(json_store), repeats)
            agg_sqlite = _best_of(
                lambda: aggregate_store(sqlite_store), repeats
            )
        finally:
            json_store.close()
            sqlite_store.close()
    record(
        "store_aggregate_sqlite",
        agg_sqlite,
        cells=store_cells,
        speedup=agg_json / agg_sqlite,
    )
    record("store_aggregate_json", agg_json, cells=store_cells)

    # --- multi-worker sweep ------------------------------------------
    from repro.engine.sweep import (
        SweepGrid,
        Table3Spec,
        run_sweep,
        run_sweep_workers,
    )
    from repro.experiments import ExperimentConfig

    sweep_runs = max(3, int(30 * scale))

    def _sweep_grid():
        # Compute-dominated: n_runs restarts per cell dwarf the
        # per-group off-line prep, so two workers can split the grid.
        return SweepGrid(
            table3=Table3Spec(
                config=ExperimentConfig(
                    scale=0.05, n_runs=sweep_runs, n_samples=8, seed=11
                ),
                datasets=("neuroblastoma", "leukaemia"),
                cluster_counts=(25, 30),
                algorithms=("UKmed", "UKM", "MMV"),
            )
        )

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        with tempfile.TemporaryDirectory() as tmp:
            start = time.perf_counter()
            run_sweep(_sweep_grid(), os.path.join(tmp, "single"))
            sweep_single = time.perf_counter() - start
            start = time.perf_counter()
            run_sweep_workers(
                _sweep_grid(),
                os.path.join(tmp, "double"),
                workers=2,
                lease_ttl=10.0,
                poll_interval=0.1,
            )
            sweep_double = time.perf_counter() - start
    record(
        "sweep_single_worker",
        sweep_single,
        cells=12,
        n_runs=sweep_runs,
        workers=1,
    )
    record(
        "sweep_two_workers",
        sweep_double,
        cells=12,
        n_runs=sweep_runs,
        workers=2,
        speedup=sweep_single / sweep_double,
    )

    # --- million-object scale path -----------------------------------
    from repro.clustering import BoundedUKMeans, MiniBatchUKMeans

    n_bound = int(20000 * scale)
    bound_k = 20
    bound_s = 32
    bound_iters = 5
    bound_data = make_blobs_uncertain(
        n_objects=n_bound, n_clusters=bound_k, n_attributes=8,
        separation=3.0, seed=42,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        bounded_result = BoundedUKMeans(
            bound_k, n_samples=bound_s, max_iter=bound_iters
        ).fit(bound_data, seed=0)
        bounded = _best_of(
            lambda: BoundedUKMeans(
                bound_k, n_samples=bound_s, max_iter=bound_iters
            ).fit(bound_data, seed=0),
            repeats,
        )
        basic = _best_of(
            lambda: BasicUKMeans(
                bound_k, n_samples=bound_s, max_iter=bound_iters
            ).fit(bound_data, seed=0),
            repeats,
        )
        minibatch = _best_of(
            lambda: MiniBatchUKMeans(bound_k, batch_size=1024).fit(
                bound_data, seed=0
            ),
            repeats,
        )
    record(
        "bounded_ukmeans_elkan",
        bounded,
        n=n_bound,
        S=bound_s,
        m=8,
        k=bound_k,
        speedup=basic / bounded,
        skip_rate=bounded_result.extras["skip_rate"],
    )
    record(
        "bounded_ukmeans_basic_reference",
        basic,
        n=n_bound,
        S=bound_s,
        m=8,
        k=bound_k,
    )
    record(
        "minibatch_ukmeans_fit",
        minibatch,
        n=n_bound,
        S=bound_s,
        m=8,
        k=bound_k,
    )

    # --- uncertainty generation (Section 5.1) -------------------------
    n_gen = int(2000 * scale)
    gen_points, gen_labels = make_classification_like(
        n_objects=n_gen, n_attributes=42, n_classes=23, seed=0
    )
    for family in PDF_FAMILIES:
        generator = UncertaintyGenerator(family)
        record(
            f"uncertainty_generate_{family}",
            _best_of(
                lambda g=generator: g.generate(gen_points, gen_labels, seed=0),
                repeats,
            ),
            n=n_gen,
            m=42,
        )

    # --- VDBiP bisector mask (Figure 5 shape) --------------------------
    n_mask = int(2000 * scale)
    lower, upper, centers = vdbip_mask_inputs(n_mask)
    vdbip = VDBiP(23)
    screened = vdbip._candidate_mask(lower, upper, centers)
    assert np.array_equal(screened, literal_vdbip_mask(lower, upper, centers))
    screen_s = _best_of(
        lambda: vdbip._candidate_mask(lower, upper, centers), repeats
    )
    literal_s = _best_of(
        lambda: literal_vdbip_mask(lower, upper, centers), repeats
    )
    record(
        "vdbip_candidate_mask",
        screen_s,
        n=n_mask,
        m=42,
        k=23,
        speedup=literal_s / screen_s,
        pruned_frac=float(1.0 - screened.mean()),
    )
    record("vdbip_candidate_mask_literal", literal_s, n=n_mask, m=42, k=23)

    # --- hierarchical ------------------------------------------------
    n_uahc = int(300 * scale)
    uahc_data = make_blobs_uncertain(
        n_objects=max(n_uahc, 20), n_clusters=4, n_attributes=5, seed=3
    )
    record(
        "uahc_jeffreys_fit",
        _best_of(lambda: UAHC(4, linkage="jeffreys").fit(uahc_data), repeats),
        n=len(uahc_data),
        m=5,
    )
    emitted = {entry["name"] for entry in records}
    assert emitted == set(MEASUREMENT_NAMES), (
        "run_benchmarks drifted from MEASUREMENT_NAMES; update the "
        f"roster constant and bump SCHEMA_VERSION (diff: "
        f"{emitted ^ set(MEASUREMENT_NAMES)})"
    )
    return records


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the pinned engine benchmarks, emit JSON."
    )
    parser.add_argument(
        "--output", default="BENCH_engine.json", help="output JSON path"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="quarter-size datasets, fewer repeats (CI smoke)",
    )
    parser.add_argument(
        "--force",
        action="store_true",
        help="overwrite an existing snapshot even when its schema "
        "version or measurement roster differs from this script's",
    )
    args = parser.parse_args(argv)

    output = Path(args.output)
    if output.exists() and not args.force:
        conflict = snapshot_conflict(output)
        if conflict is not None:
            print(
                f"refusing to overwrite {output}: {conflict}\n"
                "(re-run with --force to overwrite anyway)",
                file=sys.stderr,
            )
            return 2

    records = run_benchmarks(quick=args.quick)
    payload = {
        "schema": SCHEMA_VERSION,
        "quick": args.quick,
        "machine": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
        },
        "benchmarks": records,
    }
    Path(args.output).write_text(json.dumps(payload, indent=2) + "\n")
    for entry in records:
        extra = (
            f"  (speedup {entry['speedup']:.1f}x)" if "speedup" in entry else ""
        )
        print(f"{entry['name']:35s} {entry['seconds'] * 1e3:9.1f} ms{extra}")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
