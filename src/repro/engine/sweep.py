"""Paper-grid sweep orchestrator: one shared-cache schedule for the grid.

The paper's headline artifacts (Tables 2-3, Figures 4-5) are a *grid*
of run-sets — datasets x algorithms x parameters — and every cell that
shares a dataset also shares that dataset's off-line work: the stacked
moment matrices, the compiled sampling plan, and the pairwise ``ÊD``
matrix of the distance plane.  The experiment runners already share
those caches *within* one invocation; this module turns the whole grid
into one explicit schedule of dataset groups so that

* each dataset is materialized **once** and every cell that needs it
  reads the same object (hence the same moment matrices, the same
  cached :meth:`~repro.objects.dataset.UncertainDataset.pairwise_ed`
  matrix and the same compiled sampling plan);
* under the ``processes``/``auto`` backends the group's stable arrays
  are published to shared memory **once** for all of its cells
  (:func:`repro.engine.backends.shared_block_registry`), instead of
  once per run-set;
* every cell's result lands in a **resumable JSON store**: one file per
  cell, written atomically, carrying the cell's values plus a
  fingerprint of the seed stream that produced them.

Bit-identity contract
---------------------
A sweep cell equals the corresponding cell of a direct
``run_table2``/``run_table3``/``run_figure4``/``run_figure5`` call with
the same spec, on every backend: the orchestrator executes the exact
group/cell helpers the runners themselves use, in the exact iteration
order, consuming the exact seed streams.  On ``resume``, completed
cells are skipped but their seed consumption is *replayed* (the
``skip_*_cell`` helpers), so every pending cell still sees the streams
an uninterrupted run would have produced — the resumed store is
byte-identical to an uninterrupted one for the deterministic surfaces
(Tables 2-3; the Figure cells store measured wall-clock runtimes).

Result stores
-------------
Cell persistence goes through the pluggable store layer
(:mod:`repro.engine.store`): the ``json`` backend keeps the original
directory layout (``manifest.json`` plus one atomically written file
per cell), the ``sqlite`` backend keeps everything in one WAL-mode
database file with the values exploded into an indexed columnar table.
A cell payload is ``{"schema": ..., "surface": ..., "group": [...],
"cell": [...], "seed_state": "<sha1>", "status": "done",
"values": {...}}`` on every backend.  Corrupted or partial cells (a
killed run can only ever leave a stray ``*.tmp`` file or an aborted
transaction behind — final writes are atomic — but truncation or
manual editing happens) are detected, reported in
:attr:`SweepOutcome.invalid`, and re-run.

Multi-worker execution
----------------------
:func:`run_sweep_worker` executes the same schedule as a claim-based
*worker*: pending cells are leased on the store before running
(:meth:`~repro.engine.store.ResultStore.claim_cell`), leases are
heartbeated while a cell computes, foreign-leased cells are deferred
with their seed consumption replayed, and the walk repeats until the
grid is fully resolved — reclaiming expired leases of dead workers on
the way.  :func:`run_sweep_workers` drives N such workers as local
processes plus a final collection pass.  Because every cell is
deterministic given the grid (the fingerprint replay above), N workers
produce a store *identical* to one worker's: same cells, same bytes.
"""

from __future__ import annotations

import hashlib
import os
import socket
import threading
import time
import uuid
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.datagen.uncertainty_gen import PDF_FAMILIES
from repro.engine.backends import shared_block_registry
from repro.engine.store import (
    SWEEP_SCHEMA_VERSION,
    ResultStore,
    cell_id,
    open_store,
)
from repro.engine.store import seed_fingerprint as _seed_fingerprint
from repro.exceptions import InvalidParameterError, SweepStoreError
from repro.experiments.config import (
    ACCURACY_ROSTER,
    FAST_ROSTER,
    SCALABILITY_ROSTER,
    SLOW_ROSTER,
    ExperimentConfig,
)
from repro.experiments.figure4 import FIGURE4_DATASETS
from repro.experiments.figure5 import FIGURE5_FRACTIONS, FIGURE5_K
from repro.experiments.table2 import TABLE2_DATASETS
from repro.experiments.table3 import TABLE3_CLUSTER_COUNTS, TABLE3_DATASETS
from repro.utils.rng import spawn_rngs

#: Execution order of the surfaces (each derives its streams from its
#: own ``config.seed``, so the order never affects any cell's seeds).
SWEEP_SURFACES = ("table2", "table3", "figure4", "figure5")

#: Default lease duration for multi-worker execution.  A worker
#: heartbeats at a third of this, so a lease only expires when its
#: worker has been dead (or wedged) for most of the ttl.
DEFAULT_LEASE_TTL = 30.0

#: Smallest accepted lease ttl.  The heartbeat interval is
#: ``max(ttl / 3, 0.05)`` seconds — below ``3 * 0.05`` the clamped
#: interval no longer fits three beats inside one ttl, so a healthy
#: worker's lease can expire between its own renewals and peers would
#: "reclaim" cells that are actively running.  Rejected eagerly at
#: claimer construction and at the CLI (``--lease-ttl``).
MIN_LEASE_TTL = 0.15



# ----------------------------------------------------------------------
# Grid specification
# ----------------------------------------------------------------------
def _freeze(spec, **fields) -> None:
    for name, value in fields.items():
        object.__setattr__(spec, name, value)


@dataclass(frozen=True)
class Table2Spec:
    """One Table 2 sub-grid: datasets x families x algorithms."""

    config: ExperimentConfig = ExperimentConfig()
    datasets: Tuple[str, ...] = TABLE2_DATASETS
    families: Tuple[str, ...] = PDF_FAMILIES
    algorithms: Tuple[str, ...] = ACCURACY_ROSTER

    def __post_init__(self) -> None:
        _freeze(
            self,
            datasets=tuple(self.datasets),
            families=tuple(self.families),
            algorithms=tuple(self.algorithms),
        )

    def describe(self) -> Dict[str, object]:
        return {
            "config": asdict(self.config),
            "datasets": list(self.datasets),
            "families": list(self.families),
            "algorithms": list(self.algorithms),
        }


@dataclass(frozen=True)
class Table3Spec:
    """One Table 3 sub-grid: datasets x cluster counts x algorithms."""

    config: ExperimentConfig = ExperimentConfig(scale=0.02)
    datasets: Tuple[str, ...] = TABLE3_DATASETS
    cluster_counts: Tuple[int, ...] = TABLE3_CLUSTER_COUNTS
    algorithms: Tuple[str, ...] = ACCURACY_ROSTER

    def __post_init__(self) -> None:
        _freeze(
            self,
            datasets=tuple(self.datasets),
            cluster_counts=tuple(int(k) for k in self.cluster_counts),
            algorithms=tuple(self.algorithms),
        )

    def describe(self) -> Dict[str, object]:
        return {
            "config": asdict(self.config),
            "datasets": list(self.datasets),
            "cluster_counts": list(self.cluster_counts),
            "algorithms": list(self.algorithms),
        }


@dataclass(frozen=True)
class Figure4Spec:
    """One Figure 4 sub-grid: datasets x (slow + fast + UCPC) roster."""

    config: ExperimentConfig = ExperimentConfig(scale=0.02, n_runs=3)
    datasets: Tuple[str, ...] = FIGURE4_DATASETS
    slow_group: Tuple[str, ...] = SLOW_ROSTER
    fast_group: Tuple[str, ...] = FAST_ROSTER
    n_clusters: int = 10

    def __post_init__(self) -> None:
        _freeze(
            self,
            datasets=tuple(self.datasets),
            slow_group=tuple(self.slow_group),
            fast_group=tuple(self.fast_group),
            n_clusters=int(self.n_clusters),
        )

    def describe(self) -> Dict[str, object]:
        return {
            "config": asdict(self.config),
            "datasets": list(self.datasets),
            "slow_group": list(self.slow_group),
            "fast_group": list(self.fast_group),
            "n_clusters": self.n_clusters,
        }


@dataclass(frozen=True)
class Figure5Spec:
    """One Figure 5 sub-grid: fractions x scalability roster."""

    config: ExperimentConfig = ExperimentConfig(n_runs=3)
    fractions: Tuple[float, ...] = FIGURE5_FRACTIONS
    algorithms: Tuple[str, ...] = SCALABILITY_ROSTER
    base_size: int = 20000

    def __post_init__(self) -> None:
        _freeze(
            self,
            fractions=tuple(float(f) for f in self.fractions),
            algorithms=tuple(self.algorithms),
            base_size=int(self.base_size),
        )

    def describe(self) -> Dict[str, object]:
        return {
            "config": asdict(self.config),
            "fractions": list(self.fractions),
            "algorithms": list(self.algorithms),
            "base_size": self.base_size,
        }


@dataclass(frozen=True)
class SweepGrid:
    """Which surfaces a sweep covers, each with its own spec.

    A ``None`` surface is excluded.  :func:`paper_grid` builds the full
    default grid (every surface at its runner-default shape).
    """

    table2: Optional[Table2Spec] = None
    table3: Optional[Table3Spec] = None
    figure4: Optional[Figure4Spec] = None
    figure5: Optional[Figure5Spec] = None

    def __post_init__(self) -> None:
        if not any(
            (self.table2, self.table3, self.figure4, self.figure5)
        ):
            raise InvalidParameterError(
                "a SweepGrid needs at least one surface spec"
            )

    def describe(self) -> Dict[str, object]:
        """Deterministic JSON-ready description (the manifest body)."""
        surfaces: Dict[str, object] = {}
        for name in SWEEP_SURFACES:
            spec = getattr(self, name)
            if spec is not None:
                surfaces[name] = spec.describe()
        return {"schema": SWEEP_SCHEMA_VERSION, "surfaces": surfaces}


def paper_grid(
    table2_config: Optional[ExperimentConfig] = None,
    table3_config: Optional[ExperimentConfig] = None,
    figure4_config: Optional[ExperimentConfig] = None,
    figure5_config: Optional[ExperimentConfig] = None,
    figure5_base_size: int = 20000,
) -> SweepGrid:
    """The full paper grid, one spec per surface.

    Defaults mirror each runner's own default config (Table 3 and
    Figure 4 scale-capped for laptop runtimes, exactly as
    ``run_table3``/``run_figure4`` default).
    """
    return SweepGrid(
        table2=Table2Spec(config=table2_config or ExperimentConfig()),
        table3=Table3Spec(
            config=table3_config or ExperimentConfig(scale=0.02)
        ),
        figure4=Figure4Spec(
            config=figure4_config or ExperimentConfig(scale=0.02, n_runs=3)
        ),
        figure5=Figure5Spec(
            config=figure5_config or ExperimentConfig(n_runs=3),
            base_size=figure5_base_size,
        ),
    )


# ----------------------------------------------------------------------
# Outcome
# ----------------------------------------------------------------------
@dataclass
class SweepOutcome:
    """What one :func:`run_sweep` invocation did, plus the reports."""

    grid: SweepGrid
    store_root: Path
    executed: List[str] = field(default_factory=list)
    reused: List[str] = field(default_factory=list)
    invalid: List[str] = field(default_factory=list)
    #: Cells skipped because another worker held their lease (only ever
    #: non-empty on intermediate worker passes; a returned outcome has
    #: absorbed every deferred cell via a later pass).
    deferred: List[str] = field(default_factory=list)
    #: Grid walks a worker needed before every cell was accounted for.
    passes: int = 1
    table2: Optional[object] = None  # Table2Report
    table3: Optional[object] = None  # Table3Report
    figure4: Optional[object] = None  # Figure4Report
    figure5: Optional[object] = None  # Figure5Report

    def artifacts(self):
        """The four reports as a :class:`PaperArtifacts` bundle."""
        from repro.experiments.reporting import PaperArtifacts

        missing = [
            name
            for name in SWEEP_SURFACES
            if getattr(self, name) is None
        ]
        if missing:
            raise InvalidParameterError(
                "artifacts() needs every surface in the grid; missing: "
                + ", ".join(missing)
            )
        return PaperArtifacts(
            table2=self.table2,
            table3=self.table3,
            figure4=self.figure4,
            figure5=self.figure5,
        )

    def summary(self) -> str:
        parts = [
            f"{len(self.executed)} cells run",
            f"{len(self.reused)} reused",
        ]
        if self.invalid:
            parts.append(f"{len(self.invalid)} damaged cells re-run")
        if self.passes > 1:
            parts.append(f"{self.passes} passes")
        return ", ".join(parts)


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
Progress = Optional[Callable[[str], None]]


@contextmanager
def _group_scope(config: ExperimentConfig):
    """Shared-memory publication scope for one dataset group.

    Under the ``processes``/``auto`` backends, every run-set inside the
    scope publishes the group's stable arrays (moment matrices, ``ÊD``
    matrix) once via :func:`shared_block_registry`; the other backends
    share the address space anyway, so no scope is needed.
    """
    if config.backend in ("processes", "auto"):
        with shared_block_registry():
            yield
    else:
        yield


def _default_worker_id() -> str:
    """A globally unique lease owner id for one worker process.

    ``host:pid:uuid4-prefix`` — the host/pid prefix makes ids human-
    attributable in logs, and the 8-hex (32-bit) uuid4 suffix
    disambiguates workers that *share* a host and pid (sequential
    reuse after process exit, or several claimers in one process).
    Collision behavior: two workers would need the same host, the same
    pid *and* the same 32-bit suffix (probability 2**-32 per such
    pair); the failure mode is benign for correctness — a same-id pair
    can renew/release each other's leases, so a cell could run twice,
    but cell writes are deterministic and idempotent (both writers
    produce the same bytes).  Uniqueness of the generator is pinned in
    ``tests/test_sweep.py``.
    """
    return f"{socket.gethostname()}:{os.getpid()}:{uuid.uuid4().hex[:8]}"


class _LeaseClaimer:
    """Claim/heartbeat/release plumbing for one sweep worker.

    Claims and releases go through a dedicated store handle (not the
    sweep's own, so lease traffic never interleaves with a payload
    transaction), and the heartbeat thread opens its *own* handle per
    leased cell — a ``sqlite3.Connection`` is single-thread by default
    and there is no reason to weaken that.
    """

    def __init__(self, store: ResultStore, owner: str, ttl: float, log):
        if float(ttl) < MIN_LEASE_TTL:
            raise InvalidParameterError(
                f"lease ttl ({ttl}) must be >= {MIN_LEASE_TTL}s: the "
                "heartbeat interval clamps at 0.05s, and a ttl below "
                "three beats lets a healthy worker's lease expire "
                "between its own renewals"
            )
        self.owner = owner
        self.ttl = float(ttl)
        self.log = log
        self.store_path = store.path
        self.store_backend = store.backend
        self.lease_store = open_store(store.path, backend=store.backend)
        # Deterministic per-owner rotation offset for order_groups.
        self.offset = int(hashlib.sha1(owner.encode()).hexdigest()[:8], 16)

    def close(self) -> None:
        self.lease_store.close()

    def claim(self, name: str) -> bool:
        return self.lease_store.claim_cell(name, self.owner, self.ttl)

    def release(self, name: str) -> None:
        self.lease_store.release_cell(name, self.owner)

    @contextmanager
    def heartbeat(self, name: str):
        """Renew the lease on ``name`` every ttl/3 while the body runs.

        Losing the lease (stolen after a stall) is logged but does not
        abort the computation: the cell is deterministic, so finishing
        and writing anyway is harmless — both writers produce the same
        bytes.
        """
        stop = threading.Event()
        interval = max(self.ttl / 3.0, 0.05)

        def beat() -> None:
            beat_store = open_store(
                self.store_path, backend=self.store_backend
            )
            try:
                while not stop.wait(interval):
                    try:
                        if not beat_store.renew_lease(
                            name, self.owner, self.ttl
                        ):
                            self.log(
                                f"lease lost for {name}; finishing anyway "
                                "(cell writes are idempotent)"
                            )
                            return
                    except SweepStoreError:
                        continue  # transient substrate hiccup; keep trying
            finally:
                beat_store.close()

        thread = threading.Thread(
            target=beat, name="sweep-lease-heartbeat", daemon=True
        )
        thread.start()
        try:
            yield
        finally:
            stop.set()
            thread.join(timeout=max(1.0, interval * 2))


class _CellLedger:
    """Per-surface bookkeeping shared by the four surface loops.

    With a ``claimer`` the ledger runs in multi-worker mode: a cell is
    only executed after its lease is claimed, foreign-leased cells are
    *deferred* (their seed consumption is still replayed, so the walk
    stays on the exact single-worker streams), and executed cells
    heartbeat their lease while running.
    """

    def __init__(
        self,
        store: ResultStore,
        outcome: SweepOutcome,
        log,
        claimer: Optional[_LeaseClaimer] = None,
    ):
        self.store = store
        self.outcome = outcome
        self.log = log
        self.claimer = claimer

    def order_groups(self, groups: List) -> List:
        """Iteration order of a surface's dataset groups.

        Single-worker sweeps keep the natural order.  Workers rotate
        the list by an owner-derived offset so concurrent workers start
        in different groups; correctness never depends on this (group
        seed streams are independent and every group is still walked),
        it only reduces duplicate dataset materialization and claim
        contention.
        """
        if self.claimer is None or len(groups) < 2:
            return groups
        shift = self.claimer.offset % len(groups)
        return groups[shift:] + groups[:shift]

    def begin_cell(self, name: str) -> bool:
        """Whether this worker should run the cell (claims its lease)."""
        if self.claimer is None:
            return True
        if self.claimer.claim(name):
            return True
        self.outcome.deferred.append(name)
        self.log(f"deferred (leased by another worker): {name}")
        return False

    def running_cell(self, name: str):
        """Context holding the cell's lease alive while it computes."""
        if self.claimer is None:
            return nullcontext()
        return self.claimer.heartbeat(name)

    def finish_cell(self, name: str) -> None:
        """Release the lease after the cell's payload is durably stored."""
        if self.claimer is not None:
            self.claimer.release(name)

    def reuse_whole_group(
        self, names: List[str]
    ) -> Optional[Dict[str, Dict[str, object]]]:
        """All cells of a group, when every one is present and clean.

        ``None`` when any cell is missing or damaged — the caller then
        materializes the group and walks it cell by cell (which is
        where damaged files get reported and re-run).  Group streams
        are independent, so a fully-cached group can skip even its
        dataset generation.  The read is one bulk
        :meth:`~repro.engine.store.ResultStore.load_group` call, which
        the SQLite backend answers with a single indexed query.
        """
        values = self.store.load_group(names)
        if values is None:
            return None
        self.outcome.reused.extend(names)
        return values

    def cached_values(
        self, name: str, fingerprint: str
    ) -> Optional[Dict[str, object]]:
        """The stored values of one cell, iff reusable at this point.

        Damaged files and fingerprint mismatches (a schedule that
        reaches the cell with a different stream state) are recorded in
        ``outcome.invalid`` and answered with ``None`` — the cell then
        re-runs and its file is rewritten.
        """
        payload, problem = self.store.load_cell(name)
        if problem is not None:
            self.outcome.invalid.append(name)
            self.log(f"damaged cell file ({problem}): {name} — re-running")
            return None
        if payload is None:
            return None
        if payload["seed_state"] != fingerprint:
            self.outcome.invalid.append(name)
            self.log(f"stale seed fingerprint: {name} — re-running")
            return None
        self.outcome.reused.append(name)
        return payload["values"]


def _sweep_table2(spec: Table2Spec, ledger: _CellLedger) -> object:
    from repro.experiments.table2 import (
        Table2Cell,
        Table2Report,
        prepare_table2_group,
        run_table2_cell,
        skip_table2_cell,
    )

    config = spec.config
    report = Table2Report(
        datasets=spec.datasets,
        families=spec.families,
        algorithms=spec.algorithms,
    )
    master = spawn_rngs(config.seed, len(spec.datasets) * len(spec.families))
    groups = [
        (ds_name, family)
        for ds_name in spec.datasets
        for family in spec.families
    ]
    for stream_idx, (ds_name, family) in ledger.order_groups(
        list(enumerate(groups))
    ):
        rng = master[stream_idx]
        group = (ds_name, family)
        names = {
            alg: cell_id("table2", group, (alg,))
            for alg in spec.algorithms
        }
        cached = ledger.reuse_whole_group(list(names.values()))
        if cached is not None:
            for alg in spec.algorithms:
                values = cached[names[alg]]
                report.cells[(ds_name, family, alg)] = Table2Cell(
                    theta=values["theta"], quality=values["quality"]
                )
            ledger.log(f"table2/{ds_name}/{family}: reused all cells")
            continue
        pair, n_classes = prepare_table2_group(ds_name, family, rng, config)
        distances = None
        with _group_scope(config):
            for alg in spec.algorithms:
                fingerprint = _seed_fingerprint(rng)
                values = ledger.cached_values(names[alg], fingerprint)
                if values is not None:
                    skip_table2_cell(rng, config)
                    cell = Table2Cell(
                        theta=values["theta"], quality=values["quality"]
                    )
                elif not ledger.begin_cell(names[alg]):
                    skip_table2_cell(rng, config)
                    cell = None
                else:
                    if distances is None:
                        distances = pair.uncertain.pairwise_ed()
                    with ledger.running_cell(names[alg]):
                        cell = run_table2_cell(
                            alg, pair, n_classes, rng, config, distances
                        )
                    ledger.store.write_cell(
                        "table2",
                        group,
                        (alg,),
                        fingerprint,
                        {"theta": cell.theta, "quality": cell.quality},
                    )
                    ledger.finish_cell(names[alg])
                    ledger.outcome.executed.append(names[alg])
                    ledger.log(f"table2/{ds_name}/{family}/{alg}: done")
                if cell is not None:
                    report.cells[(ds_name, family, alg)] = cell
    return report


def _sweep_table3(spec: Table3Spec, ledger: _CellLedger) -> object:
    from repro.experiments.table3 import (
        Table3Report,
        prepare_table3_group,
        run_table3_cell,
        skip_table3_cell,
    )

    config = spec.config
    report = Table3Report(
        datasets=spec.datasets,
        cluster_counts=spec.cluster_counts,
        algorithms=spec.algorithms,
    )
    streams = spawn_rngs(config.seed, len(spec.datasets))
    for ds_name, ds_rng in ledger.order_groups(
        list(zip(spec.datasets, streams))
    ):
        cells = [
            (k, alg) for k in spec.cluster_counts for alg in spec.algorithms
        ]
        names = {
            (k, alg): cell_id("table3", (ds_name,), (f"k{k}", alg))
            for k, alg in cells
        }
        cached = ledger.reuse_whole_group([names[key] for key in cells])
        if cached is not None:
            for k, alg in cells:
                report.quality[(ds_name, k, alg)] = cached[names[(k, alg)]][
                    "quality"
                ]
            ledger.log(f"table3/{ds_name}: reused all cells")
            continue
        dataset = prepare_table3_group(ds_name, ds_rng, config)
        distances = None
        with _group_scope(config):
            for k, alg in cells:
                fingerprint = _seed_fingerprint(ds_rng)
                values = ledger.cached_values(names[(k, alg)], fingerprint)
                if values is not None:
                    skip_table3_cell(ds_rng, config)
                    quality = float(values["quality"])
                elif not ledger.begin_cell(names[(k, alg)]):
                    skip_table3_cell(ds_rng, config)
                    quality = None
                else:
                    if distances is None:
                        distances = dataset.pairwise_ed()
                    with ledger.running_cell(names[(k, alg)]):
                        quality = run_table3_cell(
                            alg, dataset, k, ds_rng, config, distances
                        )
                    ledger.store.write_cell(
                        "table3",
                        (ds_name,),
                        (f"k{k}", alg),
                        fingerprint,
                        {"quality": quality},
                    )
                    ledger.finish_cell(names[(k, alg)])
                    ledger.outcome.executed.append(names[(k, alg)])
                    ledger.log(f"table3/{ds_name}/k{k}/{alg}: done")
                if quality is not None:
                    report.quality[(ds_name, k, alg)] = quality
    return report


def _sweep_figure4(spec: Figure4Spec, ledger: _CellLedger) -> object:
    from repro.experiments.figure4 import (
        Figure4Report,
        figure4_roster,
        prepare_figure4_group,
        run_figure4_cell,
        skip_figure4_cell,
    )

    config = spec.config
    report = Figure4Report(
        datasets=spec.datasets,
        slow_group=spec.slow_group,
        fast_group=spec.fast_group,
    )
    roster = figure4_roster(spec.slow_group, spec.fast_group)
    streams = spawn_rngs(config.seed, len(spec.datasets))
    for ds_name, ds_rng in ledger.order_groups(
        list(zip(spec.datasets, streams))
    ):
        names = {
            alg: cell_id("figure4", (ds_name,), (alg,)) for alg in roster
        }
        cached = ledger.reuse_whole_group([names[alg] for alg in roster])
        if cached is not None:
            for alg in roster:
                report.runtimes_ms[(ds_name, alg)] = float(
                    cached[names[alg]]["runtime_ms"]
                )
            ledger.log(f"figure4/{ds_name}: reused all cells")
            continue
        dataset = prepare_figure4_group(ds_name, ds_rng, config)
        k = min(spec.n_clusters, len(dataset) - 1)
        with _group_scope(config):
            for alg in roster:
                fingerprint = _seed_fingerprint(ds_rng)
                values = ledger.cached_values(names[alg], fingerprint)
                if values is not None:
                    skip_figure4_cell(ds_rng, config)
                    runtime_ms = float(values["runtime_ms"])
                elif not ledger.begin_cell(names[alg]):
                    skip_figure4_cell(ds_rng, config)
                    runtime_ms = None
                else:
                    with ledger.running_cell(names[alg]):
                        runtime_ms = run_figure4_cell(
                            alg, dataset, k, ds_rng, config
                        )
                    ledger.store.write_cell(
                        "figure4",
                        (ds_name,),
                        (alg,),
                        fingerprint,
                        {"runtime_ms": runtime_ms},
                    )
                    ledger.finish_cell(names[alg])
                    ledger.outcome.executed.append(names[alg])
                    ledger.log(f"figure4/{ds_name}/{alg}: done")
                if runtime_ms is not None:
                    report.runtimes_ms[(ds_name, alg)] = runtime_ms
    return report


def _sweep_figure5(spec: Figure5Spec, ledger: _CellLedger) -> object:
    from repro.experiments.figure5 import (
        Figure5Report,
        prepare_figure5_base,
        prepare_figure5_fraction,
        run_figure5_cell,
        skip_figure5_cell,
    )

    config = spec.config
    report = Figure5Report(
        fractions=spec.fractions, algorithms=spec.algorithms
    )
    names = {
        (frac, alg): cell_id("figure5", (f"f{frac}",), (alg,))
        for frac in spec.fractions
        for alg in spec.algorithms
    }
    # Figure 5's fractions share one data stream (each subset draw
    # consumes it), so the surface can only skip dataset synthesis when
    # *every* cell is reusable; otherwise the full sequence is replayed.
    cached = ledger.reuse_whole_group(
        [names[key] for key in names]
    )
    if cached is not None:
        for (frac, alg), name in names.items():
            values = cached[name]
            report.runtimes_ms[(frac, alg)] = float(values["runtime_ms"])
            report.sizes[frac] = int(values["n"])
        ledger.log("figure5: reused all cells")
        return report
    full, rng_data, rng_runs = prepare_figure5_base(config, spec.base_size)
    for frac in spec.fractions:
        subset = prepare_figure5_fraction(full, frac, rng_data)
        report.sizes[frac] = len(subset)
        k = min(FIGURE5_K, len(subset) - 1)
        with _group_scope(config):
            for alg in spec.algorithms:
                fingerprint = _seed_fingerprint(rng_runs)
                values = ledger.cached_values(
                    names[(frac, alg)], fingerprint
                )
                if values is not None:
                    skip_figure5_cell(rng_runs, config)
                    runtime_ms = float(values["runtime_ms"])
                elif not ledger.begin_cell(names[(frac, alg)]):
                    skip_figure5_cell(rng_runs, config)
                    runtime_ms = None
                else:
                    with ledger.running_cell(names[(frac, alg)]):
                        runtime_ms = run_figure5_cell(
                            alg, subset, k, rng_runs, config
                        )
                    ledger.store.write_cell(
                        "figure5",
                        (f"f{frac}",),
                        (alg,),
                        fingerprint,
                        {"runtime_ms": runtime_ms, "n": len(subset)},
                    )
                    ledger.finish_cell(names[(frac, alg)])
                    ledger.outcome.executed.append(names[(frac, alg)])
                    ledger.log(f"figure5/f{frac}/{alg}: done")
                if runtime_ms is not None:
                    report.runtimes_ms[(frac, alg)] = runtime_ms
    return report


_SURFACE_RUNNERS = {
    "table2": _sweep_table2,
    "table3": _sweep_table3,
    "figure4": _sweep_figure4,
    "figure5": _sweep_figure5,
}


def run_sweep(
    grid: SweepGrid,
    store: Union[str, Path, ResultStore],
    resume: bool = False,
    progress: Progress = None,
    store_backend: Optional[str] = None,
) -> SweepOutcome:
    """Execute (or resume) one paper-grid sweep against a result store.

    Parameters
    ----------
    grid:
        The surfaces to run; see :class:`SweepGrid` / :func:`paper_grid`.
    store:
        Result-store path (or an already-open
        :class:`~repro.engine.store.ResultStore`).  Created when new;
        an existing store must carry the same grid manifest (anything
        else raises :class:`~repro.exceptions.SweepStoreError`).
    resume:
        Reuse completed cells from the store, replaying their seed
        consumption so pending cells get bit-identical streams.
        Without ``resume``, a store that already holds cells is
        refused.
    progress:
        Optional ``callable(str)`` receiving one line per cell/group
        event (the CLI passes ``print``).
    store_backend:
        ``"json"`` or ``"sqlite"``; ``None`` resolves from the path
        (directory vs ``.sqlite`` file,
        :func:`repro.engine.store.infer_backend`).

    Returns
    -------
    SweepOutcome
        Executed/reused/invalid cell ids plus one report per surface,
        each equal to its direct runner's output for the same spec —
        on either store backend.
    """
    sweep_store = open_store(store, backend=store_backend)
    borrowed = isinstance(store, ResultStore)
    try:
        sweep_store.prepare(grid.describe(), resume)
        outcome = SweepOutcome(grid=grid, store_root=sweep_store.path)
        ledger = _CellLedger(
            sweep_store, outcome, progress or (lambda _msg: None)
        )
        _run_surfaces(grid, ledger, outcome)
        return outcome
    finally:
        if not borrowed:
            sweep_store.close()


def _run_surfaces(
    grid: SweepGrid, ledger: _CellLedger, outcome: SweepOutcome
) -> None:
    for name in SWEEP_SURFACES:
        spec = getattr(grid, name)
        if spec is not None:
            setattr(outcome, name, _SURFACE_RUNNERS[name](spec, ledger))


def _prepare_shared(
    sweep_store: ResultStore,
    grid: SweepGrid,
    attempts: int = 5,
    delay: float = 0.2,
) -> None:
    """Prepare a store that several workers may be creating at once.

    Workers always prepare with resume semantics (an existing store
    holding a peer's cells is the normal case).  Creation itself races:
    a second worker can observe the store half-born (a manifest tmp
    file, an empty database) for a moment, which ``prepare`` reports as
    a refusal — so a refusal is retried a few times before it is
    believed.  Genuine refusals (different grid) still raise, just a
    second late.
    """
    description = grid.describe()
    for attempt in range(attempts):
        try:
            sweep_store.prepare(description, resume=True)
            return
        except SweepStoreError:
            if attempt == attempts - 1:
                raise
            time.sleep(delay)


def run_sweep_worker(
    grid: SweepGrid,
    store: Union[str, Path, ResultStore],
    worker_id: Optional[str] = None,
    lease_ttl: float = DEFAULT_LEASE_TTL,
    poll_interval: float = 0.5,
    progress: Progress = None,
    store_backend: Optional[str] = None,
    max_passes: int = 0,
) -> SweepOutcome:
    """Join a (possibly shared) result store as one claim-based worker.

    The worker walks the grid exactly like :func:`run_sweep` with
    ``resume=True`` — same schedule, same seed streams — but before
    executing a pending cell it *claims* the cell's lease on the store.
    A cell leased to another worker is skipped for now (its seed
    consumption is replayed, so every later cell still sees the exact
    single-worker streams) and the walk repeats until no cell is left
    deferred; each repeat reuses everything that landed in the
    meantime, reclaims expired leases of dead workers, and waits
    ``poll_interval`` seconds between passes while peers compute.  The
    returned outcome's reports come from the final, fully-resolved
    pass, so they are identical to a single-worker sweep's.

    ``max_passes`` bounds the number of walks (0 = unbounded) and
    raises :class:`~repro.exceptions.SweepStoreError` when exceeded —
    a safety valve for tests; production workers wait out live peers.
    """
    log = progress or (lambda _msg: None)
    sweep_store = open_store(store, backend=store_backend)
    borrowed = isinstance(store, ResultStore)
    owner = worker_id or _default_worker_id()
    claimer = _LeaseClaimer(sweep_store, owner, lease_ttl, log)
    try:
        _prepare_shared(sweep_store, grid)
        executed: List[str] = []
        passes = 0
        while True:
            passes += 1
            outcome = SweepOutcome(grid=grid, store_root=sweep_store.path)
            ledger = _CellLedger(sweep_store, outcome, log, claimer)
            _run_surfaces(grid, ledger, outcome)
            executed.extend(outcome.executed)
            if not outcome.deferred:
                outcome.executed = executed
                outcome.passes = passes
                sweep_store.reap_leases()
                return outcome
            if max_passes and passes >= max_passes:
                raise SweepStoreError(
                    f"worker {owner} gave up after {passes} passes with "
                    f"{len(outcome.deferred)} cells still leased elsewhere"
                )
            log(
                f"worker {owner}: pass {passes} left "
                f"{len(outcome.deferred)} cells leased to other workers; "
                "waiting"
            )
            time.sleep(poll_interval)
    finally:
        claimer.close()
        if not borrowed:
            sweep_store.close()


def _worker_main(
    grid: SweepGrid,
    store_path: str,
    store_backend: Optional[str],
    worker_id: str,
    lease_ttl: float,
    poll_interval: float,
) -> None:
    """Child-process entry point of :func:`run_sweep_workers`."""
    run_sweep_worker(
        grid,
        store_path,
        worker_id=worker_id,
        lease_ttl=lease_ttl,
        poll_interval=poll_interval,
        store_backend=store_backend,
    )


def run_sweep_workers(
    grid: SweepGrid,
    store: Union[str, Path, ResultStore],
    workers: int = 2,
    lease_ttl: float = DEFAULT_LEASE_TTL,
    poll_interval: float = 0.5,
    progress: Progress = None,
    store_backend: Optional[str] = None,
) -> SweepOutcome:
    """Execute one grid with ``workers`` claim-based worker processes.

    Spawns ``workers`` child processes (``spawn`` start method — no
    inherited store handles), each running :func:`run_sweep_worker`
    against the same store, then runs a final in-process collection
    pass that assembles the reports (pure reuse when the children
    covered the grid; it also finishes any cells a dead child left
    behind, so a crashed worker degrades throughput, never the result).
    The final store is identical to a single-worker run's: every cell
    is produced by the same executors from the same seed streams, and
    lease bookkeeping is reaped on completion.
    """
    if workers < 1:
        raise InvalidParameterError(
            f"workers must be >= 1, got {workers}"
        )
    import multiprocessing

    log = progress or (lambda _msg: None)
    if isinstance(store, ResultStore):
        store_path, backend = store.path, store.backend
    else:
        store_path, backend = Path(store), store_backend
    context = multiprocessing.get_context("spawn")
    run_tag = uuid.uuid4().hex[:6]
    processes = []
    for index in range(workers):
        process = context.Process(
            target=_worker_main,
            args=(
                grid,
                str(store_path),
                backend,
                f"{socket.gethostname()}:w{index}:{run_tag}",
                lease_ttl,
                poll_interval,
            ),
        )
        process.start()
        processes.append(process)
        log(f"started sweep worker {index} (pid {process.pid})")
    for process in processes:
        process.join()
    failed = sum(1 for process in processes if process.exitcode != 0)
    if failed:
        log(f"{failed} worker(s) exited abnormally; collection pass "
            "will finish their cells")
    # Every worker is joined, so nobody can be mid-write: drop any
    # tmp residue a killed worker left (it would spoil the tree-bytes
    # identity with a single-worker store).
    cleanup_store = open_store(
        store,
        backend=None if isinstance(store, ResultStore) else store_backend,
    )
    try:
        stray = cleanup_store.discard_stray_tmp()
        if stray:
            log(f"removed {len(stray)} stray tmp file(s) from dead workers")
    finally:
        if not isinstance(store, ResultStore):
            cleanup_store.close()
    return run_sweep_worker(
        grid,
        store,
        worker_id=f"{socket.gethostname()}:collector:{run_tag}",
        lease_ttl=lease_ttl,
        poll_interval=poll_interval,
        progress=progress,
        store_backend=store_backend,
    )
