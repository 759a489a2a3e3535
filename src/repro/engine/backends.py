"""Pluggable execution backends for the multi-restart engine.

The engine's restarts are embarrassingly parallel, but *how* they should
execute depends on the algorithm family:

* **serial** — one restart after another in the calling process.  The
  right choice for quick fits and the reference semantics every other
  backend must reproduce bit-for-bit.
* **threads** — a ``ThreadPoolExecutor`` sharing the process address
  space.  NumPy's kernels release the GIL, so moment-based fits
  (UK-means, MMVar, UCPC) scale across cores *without serializing a
  single byte*: every restart reads the same moment matrices and sample
  tensor in place.
* **processes** — a ``ProcessPoolExecutor`` for fits whose Python-level
  bookkeeping would serialize on the GIL.  The dataset's stacked moment
  matrices, the engine's batched ``(n, S, m)`` sample tensor and the
  shared pairwise ``ÊD`` matrix (for ``wants_pairwise_ed`` algorithms)
  are published **once** through :mod:`multiprocessing.shared_memory`;
  workers attach to the blocks by name instead of receiving pickled
  copies, so the per-restart (and per-worker) pickling cost no longer
  grows with ``n·S·m`` or ``n^2``.
* **auto** — per-algorithm-family dispatch: serial when only one worker
  or restart is requested (or the fit is sub-ms small), otherwise the
  clusterer's declared ``preferred_backend`` family — threads for
  GIL-releasing moment/tensor kernels, processes for interpreter-bound
  relocation/merge loops.

All pool backends optionally submit restarts in **in-worker batches**
(``batch_size`` seeds per task): a worker fits a whole chunk in one
task, amortizing per-task pool overhead for sub-ms fits.  Completions
are still consumed in submission order restart-by-restart, so batching
never changes the result (see below).  ``batch_size="auto"`` sizes the
chunks adaptively: the first completed task with a measurable per-fit
latency sets the chunk length so one task runs for about
:data:`ADAPTIVE_TARGET_SECONDS` — sub-ms fits get large chunks, slow
fits degrade to ``batch_size=1`` — while tasks finishing below the
timer resolution only double the chunk length (geometric growth toward
:data:`ADAPTIVE_MAX_BATCH`, never a blind jump to it).  Because
consumption stays submission-ordered either way, the adaptive policy
is bit-identical to any fixed chunking.

Determinism contract
--------------------
``ExecutionBackend.run`` consumes completed restarts strictly in
*submission order* (seed order), and the optional early-stopping rule is
evaluated on that ordered stream.  Out-of-order completion in a pool can
therefore never change which restarts are kept: for a fixed seed list,
every backend returns the identical result prefix, and the engine's
best-of selection is bit-identical across ``serial``/``threads``/
``processes`` — the backend-invariance tests pin this.
"""

from __future__ import annotations

import abc
import pickle
from collections import deque
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.clustering.base import ClusteringResult, UncertainClusterer
from repro.exceptions import InvalidParameterError
from repro.objects.dataset import UncertainDataset

#: Names accepted by :func:`get_backend` (and the ``backend=`` knobs of
#: the runner, the experiment configs and the CLI).
BACKEND_NAMES = ("serial", "threads", "processes", "auto")

#: Per-fit element floor below which the auto backend prefers serial:
#: fits touching this little data are sub-millisecond, so pool spin-up
#: and task dispatch would dominate any parallel win.  The count is
#: ``n * m`` scaled by the algorithm's Monte-Carlo ``n_samples`` when it
#: is sample-based — an (n, S, m) tensor sweep is not sub-ms just
#: because the dataset is small.
AUTO_SERIAL_ELEMENTS = 4096

#: Wall-clock seconds one pool task should run for under
#: ``batch_size="auto"``: long enough that per-task dispatch overhead
#: (~100 us thread, ~1 ms process) is noise, short enough that the
#: submission-order consumer never waits long on a head-of-line chunk.
ADAPTIVE_TARGET_SECONDS = 0.05

#: Upper bound on an adaptively sized chunk — keeps the work discarded
#: past an early-stopping decision (and the latency-estimate error for
#: very fast fits) bounded.
ADAPTIVE_MAX_BATCH = 64

#: A batch-size argument: a fixed chunk length or ``"auto"`` (adaptive).
BatchSizeLike = Union[int, str]


def validate_batch_size(batch_size: BatchSizeLike) -> BatchSizeLike:
    """Normalize/validate a ``batch_size`` knob (``int >= 1`` or ``"auto"``)."""
    if batch_size == "auto":
        return "auto"
    if isinstance(batch_size, bool) or not isinstance(
        batch_size, (int, np.integer)
    ):
        raise InvalidParameterError(
            f"batch_size must be an int >= 1 or 'auto', got {batch_size!r}"
        )
    if batch_size < 1:
        raise InvalidParameterError(
            f"batch_size must be >= 1, got {batch_size}"
        )
    return int(batch_size)


@dataclass(frozen=True)
class EarlyStopping:
    """Engine-level early stopping across restarts.

    Stop *scheduling* new restarts once the best objective seen so far
    has not improved for ``patience`` consecutive completed restarts,
    evaluated in submission (seed) order.  Restarts beyond the stopping
    point are never part of the result, even if a parallel backend had
    already started them — so the selected best run is identical for
    every backend.

    Parameters
    ----------
    patience:
        Number of consecutive non-improving restarts tolerated before
        the engine stops scheduling further ones.
    min_improvement:
        Absolute objective decrease below which a restart counts as
        non-improving (0.0 = any strict decrease resets the counter).
    """

    patience: int
    min_improvement: float = 0.0

    def __post_init__(self) -> None:
        if self.patience < 1:
            raise InvalidParameterError(
                f"patience must be >= 1, got {self.patience}"
            )
        if self.min_improvement < 0.0:
            raise InvalidParameterError(
                f"min_improvement must be >= 0, got {self.min_improvement}"
            )


class _StopClock:
    """Applies an :class:`EarlyStopping` rule to a submission-order stream."""

    def __init__(self, rule: Optional[EarlyStopping]):
        self.rule = rule
        self.best = float("inf")
        self.stale = 0

    def should_stop(self, objective: float) -> bool:
        """Record one completed restart; True = stop scheduling more.

        NaN objectives (objective-less algorithms) never improve, so
        with early stopping enabled they exhaust ``patience`` quickly —
        the runner already warns that such restarts cannot be ranked.
        """
        if self.rule is None:
            return False
        objective = float(objective)
        if not np.isnan(objective) and (
            objective < self.best - self.rule.min_improvement
        ):
            self.best = objective
            self.stale = 0
        else:
            self.stale += 1
        return self.stale >= self.rule.patience


class ExecutionBackend(abc.ABC):
    """How the engine maps restart seeds to :class:`ClusteringResult`.

    Implementations must preserve the determinism contract documented in
    the module docstring: results come back in seed order, truncated at
    the point the early-stopping rule fires on the ordered stream.
    """

    #: Identifier recorded in the winning result's ``extras``.
    name: str = "backend"

    @abc.abstractmethod
    def run(
        self,
        clusterer: UncertainClusterer,
        dataset: UncertainDataset,
        seeds: Sequence[int],
        early_stopping: Optional[EarlyStopping] = None,
    ) -> List[ClusteringResult]:
        """Fit one restart per seed; return results in seed order."""


def _run_serially(
    clusterer: UncertainClusterer,
    dataset: UncertainDataset,
    seeds: Sequence[int],
    early_stopping: Optional[EarlyStopping],
) -> List[ClusteringResult]:
    clock = _StopClock(early_stopping)
    results: List[ClusteringResult] = []
    for seed in seeds:
        result = clusterer.fit(dataset, seed=seed)
        results.append(result)
        if clock.should_stop(result.objective):
            break
    return results


def _fit_chunk(
    clusterer: UncertainClusterer,
    dataset: UncertainDataset,
    seeds: Sequence[int],
) -> List[ClusteringResult]:
    """One pool task: fit a whole chunk of restarts in seed order."""
    return [clusterer.fit(dataset, seed=s) for s in seeds]


def _adaptive_chunk_size(
    results: Sequence[ClusteringResult], current: int = 1
) -> int:
    """Chunk length targeting ``ADAPTIVE_TARGET_SECONDS`` per pool task.

    The estimate comes from the measured on-line runtime of the latest
    completed chunk's fits — the latency the batching exists to
    amortize.  Zero/degenerate measurements (clock granularity) carry
    no magnitude information at all, so they *double* the chunk length
    rather than jumping to :data:`ADAPTIVE_MAX_BATCH`: a max-size chunk
    committed on a timer artifact over-schedules up to 64 restarts past
    an early-stopping decision, while geometric growth reaches the cap
    within ``log2(ADAPTIVE_MAX_BATCH)`` chunks on genuinely sub-
    resolution fits and keeps the over-commitment bounded by one
    doubling.
    """
    per_fit = sum(r.runtime_seconds for r in results) / max(1, len(results))
    if per_fit <= 0.0:
        return min(ADAPTIVE_MAX_BATCH, max(1, int(current)) * 2)
    return max(1, min(ADAPTIVE_MAX_BATCH, int(ADAPTIVE_TARGET_SECONDS / per_fit)))


def _pool_shape(
    n_jobs: int,
    n_seeds: int,
    batch_size: BatchSizeLike,
    early_stopping: Optional[EarlyStopping],
) -> Tuple[int, int]:
    """(workers, window) for one pool run.

    ``window`` counts chunks in flight.  Without early stopping every
    fixed-size chunk is submitted upfront (the executor keeps all
    workers busy); with early stopping — or with adaptive batching,
    whose chunk length is unknown until the first completion — the
    window narrows to ``workers`` so the work scheduled past a stop
    decision (or sized off the initial probe guess) stays bounded.
    """
    if batch_size == "auto":
        workers = min(n_jobs, n_seeds)
        return workers, workers
    n_chunks = (n_seeds + batch_size - 1) // batch_size
    workers = min(n_jobs, n_chunks)
    window = workers if early_stopping is not None else n_chunks
    return workers, window


def _drive_pool(
    submit: Callable[[List[int]], Future],
    seeds: Sequence[int],
    early_stopping: Optional[EarlyStopping],
    window: int,
    batch_size: BatchSizeLike = 1,
) -> List[ClusteringResult]:
    """Bounded-window pool driver with submission-order consumption.

    Seeds are submitted in chunks of ``batch_size`` (one pool task fits
    a whole chunk, amortizing per-task overhead for sub-ms fits).  At
    most ``window`` chunks are in flight; completions are consumed
    strictly in submission order, restart by restart, so the
    early-stopping decision — and hence the returned prefix — cannot
    depend on pool scheduling *or* on the chunking.  Once the rule
    fires, the result list is truncated at the firing restart (a chunk's
    surplus restarts are discarded), queued-but-unstarted chunks are
    cancelled and anything already running is discarded — identical to
    the unbatched prefix.

    ``batch_size="auto"`` starts with single-seed probe chunks; the
    first completed chunk with a *measurable* per-fit latency sizes
    every chunk submitted afterwards via :func:`_adaptive_chunk_size`,
    while sub-timer-resolution completions merely double the length
    (bounding the restarts over-committed past an early-stopping
    decision).  Chunk boundaries are invisible to the submission-order
    consumer, so the adaptive policy returns the exact ``batch_size=1``
    prefix.

    Callers pass ``window=n_chunks`` when no early stopping is active
    (everything is submitted upfront and the executor keeps all workers
    busy); the narrow ``window=workers`` is only worth its head-of-line
    submission gap when it bounds the work wasted past a stop decision
    or scheduled before the adaptive chunk length settles.
    """
    seeds = list(seeds)
    adaptive = batch_size == "auto"
    chunk_len = 1 if adaptive else int(batch_size)
    clock = _StopClock(early_stopping)
    results: List[ClusteringResult] = []
    in_flight: deque[Future] = deque()
    next_pos = 0

    def refill() -> None:
        nonlocal next_pos
        while next_pos < len(seeds) and len(in_flight) < window:
            chunk = seeds[next_pos : next_pos + chunk_len]
            next_pos += len(chunk)
            in_flight.append(submit(chunk))

    refill()
    while in_flight:
        chunk_results = in_flight.popleft().result()
        if adaptive:
            # A measurable completion (in submission order) fixes the
            # chunk length for every seed not yet submitted; sub-timer-
            # resolution chunks keep the policy live, growing the length
            # geometrically until a positive latency lands or the cap
            # is reached.
            measured = sum(r.runtime_seconds for r in chunk_results) > 0.0
            chunk_len = max(
                chunk_len, _adaptive_chunk_size(chunk_results, chunk_len)
            )
            adaptive = not measured and chunk_len < ADAPTIVE_MAX_BATCH
        stopped = False
        for result in chunk_results:
            results.append(result)
            if clock.should_stop(result.objective):
                stopped = True
                break
        if stopped:
            for future in in_flight:
                future.cancel()
            break
        refill()
    return results


class SerialBackend(ExecutionBackend):
    """Sequential in-process execution — the reference semantics."""

    name = "serial"

    def run(self, clusterer, dataset, seeds, early_stopping=None):
        return _run_serially(clusterer, dataset, seeds, early_stopping)


class ThreadBackend(ExecutionBackend):
    """Thread-pool execution over the shared address space.

    Nothing is serialized: every worker thread calls
    ``clusterer.fit(dataset, seed)`` on the *same* objects, reading the
    shared moment matrices and (for sample-based algorithms) the pinned
    sample tensor in place.  Fits are instance-state-free, and NumPy
    releases the GIL inside its kernels, so moment-based algorithms
    scale with cores while Python-loop-heavy fits degrade gracefully to
    roughly serial speed.
    """

    name = "threads"

    def __init__(self, n_jobs: int, batch_size: BatchSizeLike = 1):
        if n_jobs < 1:
            raise InvalidParameterError(f"n_jobs must be >= 1, got {n_jobs}")
        self.n_jobs = int(n_jobs)
        self.batch_size = validate_batch_size(batch_size)

    def run(self, clusterer, dataset, seeds, early_stopping=None):
        if self.n_jobs == 1 or len(seeds) == 1:
            return _run_serially(clusterer, dataset, seeds, early_stopping)
        workers, window = _pool_shape(
            self.n_jobs, len(seeds), self.batch_size, early_stopping
        )
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return _drive_pool(
                lambda chunk: pool.submit(_fit_chunk, clusterer, dataset, chunk),
                seeds,
                early_stopping,
                window=window,
                batch_size=self.batch_size,
            )


# ----------------------------------------------------------------------
# Shared-memory plumbing for the process backend
# ----------------------------------------------------------------------
#: (shm name, shape, dtype string) — everything a worker needs to attach.
_ShmSpec = Tuple[str, Tuple[int, ...], str]


class _SharedNDArray:
    """An ndarray published once in a :class:`SharedMemory` block."""

    def __init__(self, array: np.ndarray):
        array = np.ascontiguousarray(array)
        self.shape = array.shape
        self.dtype = array.dtype.str
        self.shm = shared_memory.SharedMemory(
            create=True, size=max(1, array.nbytes)
        )
        view = np.ndarray(array.shape, dtype=array.dtype, buffer=self.shm.buf)
        view[...] = array

    @property
    def spec(self) -> _ShmSpec:
        return (self.shm.name, self.shape, self.dtype)

    def destroy(self) -> None:
        """Close and unlink the block (idempotent)."""
        try:
            self.shm.close()
            self.shm.unlink()
        except FileNotFoundError:  # already unlinked
            pass


def _attach_shared(spec: _ShmSpec) -> Tuple[shared_memory.SharedMemory, np.ndarray]:
    """Worker-side attach: a read-only ndarray view over the named block.

    The parent owns the block's lifecycle (``_SharedNDArray.destroy``),
    so on Python >= 3.13 the attach opts out of resource tracking.  On
    older versions pool workers share the parent's tracker process and
    its name registry is a set, so the attach-side registration dedupes
    against the parent's own and the parent's ``unlink`` retires the
    name exactly once — workers must *not* unregister manually, which
    would strip the parent's entry instead.
    """
    name, shape, dtype = spec
    try:  # Python >= 3.13
        shm = shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        shm = shared_memory.SharedMemory(name=name)
    array = np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf)
    array.setflags(write=False)
    return shm, array


#: Per-worker-process state installed by :func:`_init_shared_worker`.
_WORKER_STATE: Dict[str, object] = {}


def _init_shared_worker(payload: Dict[str, object]) -> None:
    """Pool initializer: rebuild the dataset/clusterer around shared blocks.

    Runs once per worker process.  The pickled parts are the light ones
    (hyperparameters, distribution objects or parameter columns); every
    large array — moment matrices and the sample tensor — arrives as a
    shared-memory spec and is attached, not copied.
    """
    shms = []
    views = {}
    for key, spec in payload["moments"].items():
        shm, view = _attach_shared(spec)
        shms.append(shm)
        views[key] = view
    source, labels = pickle.loads(payload["dataset"])
    dataset = UncertainDataset._from_shared_moments(
        source, labels, views["mu"], views["mu2"], views["sigma2"]
    )
    clusterer = pickle.loads(payload["clusterer"])
    if payload["sample"] is not None:
        shm, tensor = _attach_shared(payload["sample"])
        shms.append(shm)
        clusterer.sample_cache = tensor
    if payload.get("pairwise") is not None:
        shm, matrix = _attach_shared(payload["pairwise"])
        shms.append(shm)
        clusterer.pairwise_ed_cache = matrix
    # Keep the SharedMemory handles referenced for the process lifetime;
    # dropping them would invalidate the array views' buffers.
    _WORKER_STATE["shms"] = shms
    _WORKER_STATE["clusterer"] = clusterer
    _WORKER_STATE["dataset"] = dataset


def _fit_shared_chunk(seeds: Sequence[int]) -> List[ClusteringResult]:
    return _fit_chunk(
        _WORKER_STATE["clusterer"], _WORKER_STATE["dataset"], seeds
    )


class SharedBlockRegistry:
    """Interns shared-memory blocks for arrays reused across run-sets.

    One engine run-set publishes its big arrays and unlinks them when it
    finishes.  A *sweep* over many run-sets on one dataset would pay
    that publication once per cell; this registry, activated with
    :func:`shared_block_registry`, lets the process backend reuse a
    block for the *same ndarray object* across runs — the dataset's
    moment matrices and the cached ``ÊD`` matrix are stable read-only
    objects, so identity is the correct cache key.  Per-cell arrays
    (sample tensors) are never interned: retaining every cell's tensor
    until the registry closes would grow without bound.

    All interned blocks are unlinked when the context exits, including
    on error; runs inside the context must therefore never outlive it.
    """

    def __init__(self) -> None:
        self._entries: Dict[int, Tuple[np.ndarray, _SharedNDArray]] = {}

    def intern(self, array: np.ndarray) -> _SharedNDArray:
        """The block publishing ``array``, created on first sight."""
        key = id(array)
        entry = self._entries.get(key)
        if entry is not None and entry[0] is array:
            return entry[1]
        block = _SharedNDArray(array)
        self._entries[key] = (array, block)
        return block

    def destroy_all(self) -> None:
        entries = list(self._entries.values())
        self._entries.clear()
        for _, block in entries:
            block.destroy()


#: The registry runs inside ``shared_block_registry()`` consult, if any.
_ACTIVE_BLOCK_REGISTRY: Optional[SharedBlockRegistry] = None


@contextmanager
def shared_block_registry() -> "Iterator[SharedBlockRegistry]":
    """Scope within which process-backend runs share stable blocks.

    Used by the sweep orchestrator around each dataset group: every
    ``processes`` (or ``auto``-dispatched) run-set inside the scope
    publishes the group's moment matrices and ``ÊD`` matrix to shared
    memory **once**, instead of once per cell.  Nesting is not
    supported — the sweep's group loop is strictly sequential.
    """
    global _ACTIVE_BLOCK_REGISTRY
    if _ACTIVE_BLOCK_REGISTRY is not None:
        raise InvalidParameterError(
            "shared_block_registry scopes cannot be nested"
        )
    registry = SharedBlockRegistry()
    _ACTIVE_BLOCK_REGISTRY = registry
    try:
        yield registry
    finally:
        _ACTIVE_BLOCK_REGISTRY = None
        registry.destroy_all()


class ProcessBackend(ExecutionBackend):
    """Process-pool execution over shared-memory tensors.

    Publication happens once per ``run``: the dataset's ``(n, m)``
    moment matrices, the engine-pinned ``(n, S, m)`` sample tensor and
    the ``(n, n)`` pairwise ``ÊD`` matrix (for ``wants_pairwise_ed``
    algorithms, whether engine-injected or fixed at construction) go
    into shared-memory blocks; workers attach by name.  The clusterer is
    pickled with every big array stripped, so neither the tensor nor the
    matrix is ever serialized (the backend tests assert this with pickle
    spies).  All blocks are unlinked when the run finishes, including
    when a worker crashes.
    """

    name = "processes"

    def __init__(self, n_jobs: int, batch_size: BatchSizeLike = 1):
        if n_jobs < 1:
            raise InvalidParameterError(f"n_jobs must be >= 1, got {n_jobs}")
        self.n_jobs = int(n_jobs)
        self.batch_size = validate_batch_size(batch_size)
        #: Specs of the most recent run's blocks — exposed so tests can
        #: verify they were unlinked.
        self.last_shared_specs: List[_ShmSpec] = []

    def run(self, clusterer, dataset, seeds, early_stopping=None):
        if self.n_jobs == 1 or len(seeds) == 1:
            return _run_serially(clusterer, dataset, seeds, early_stopping)
        registry = _ACTIVE_BLOCK_REGISTRY
        #: Blocks this run created and must unlink itself; registry
        #: blocks outlive the run and are unlinked by the registry scope.
        owned: List[_SharedNDArray] = []
        specs: List[_ShmSpec] = []

        def publish(array: np.ndarray, stable: bool) -> _SharedNDArray:
            """Publish ``array``; intern only stable per-dataset arrays."""
            if stable and registry is not None:
                block = registry.intern(array)
            else:
                block = _SharedNDArray(array)
                owned.append(block)
            specs.append(block.spec)
            return block

        try:
            moments = {
                "mu": publish(dataset.mu_matrix, stable=True),
                "mu2": publish(dataset.mu2_matrix, stable=True),
                "sigma2": publish(dataset.sigma2_matrix, stable=True),
            }
            tensor = getattr(clusterer, "sample_cache", None)
            sample_block = None
            if tensor is not None:
                # Per-cell tensors: never interned (fresh draw per run-set).
                sample_block = publish(np.asarray(tensor), stable=False)
            # The pairwise ÊD plane: engine-injected cache or the
            # clusterer's own constructor matrix — published by name,
            # and stripped below so it is never pickled.
            strip = ["sample_cache"]
            pairwise_block = None
            if getattr(clusterer, "wants_pairwise_ed", False):
                matrix = getattr(clusterer, "pairwise_ed_cache", None)
                if matrix is None:
                    matrix = getattr(clusterer, "precomputed", None)
                if matrix is not None:
                    # Intern on the matrix object itself (not an
                    # ``asarray`` view, whose identity would differ per
                    # run and defeat the registry).
                    pairwise_block = publish(matrix, stable=True)
                    strip += ["pairwise_ed_cache", "precomputed"]
            payload = {
                "clusterer": self._pickle_without(clusterer, strip),
                "dataset": pickle.dumps(dataset._moment_free_state()),
                "moments": {key: blk.spec for key, blk in moments.items()},
                "sample": None if sample_block is None else sample_block.spec,
                "pairwise": (
                    None if pairwise_block is None else pairwise_block.spec
                ),
            }
            self.last_shared_specs = specs
            workers, window = _pool_shape(
                self.n_jobs, len(seeds), self.batch_size, early_stopping
            )
            with ProcessPoolExecutor(
                max_workers=workers,
                initializer=_init_shared_worker,
                initargs=(payload,),
            ) as pool:
                return _drive_pool(
                    lambda chunk: pool.submit(_fit_shared_chunk, chunk),
                    seeds,
                    early_stopping,
                    window=window,
                    batch_size=self.batch_size,
                )
        finally:
            for block in owned:
                block.destroy()

    @staticmethod
    def _pickle_without(
        clusterer: UncertainClusterer, attrs: Sequence[str]
    ) -> bytes:
        """Pickle the clusterer with the named big arrays detached."""
        stripped = {}
        for attr in attrs:
            value = getattr(clusterer, attr, None)
            if value is not None:
                stripped[attr] = value
                setattr(clusterer, attr, None)
        try:
            return pickle.dumps(clusterer)
        finally:
            for attr, value in stripped.items():
                setattr(clusterer, attr, value)


class AutoBackend(ExecutionBackend):
    """Per-algorithm-family backend dispatch, resolved per ``run``.

    The right execution backend depends on the algorithm family, not the
    engine call site: moment/tensor kernels scale on threads (NumPy
    releases the GIL), interpreter-bound relocation loops need the
    process pool, and sub-ms fits are fastest serial.  ``auto`` encodes
    that routing table so callers can stop choosing:

    * ``n_jobs == 1`` or a single restart → **serial** (nothing to
      parallelize);
    * ``n * m <= AUTO_SERIAL_ELEMENTS`` → **serial** (pool overhead
      dominates sub-ms fits);
    * otherwise the clusterer's declared ``preferred_backend`` family —
      ``threads`` (the default) or ``processes`` (UCPC, MMVar,
      UK-medoids, UAHC).

    Every candidate backend is result-identical for fixed seeds, so the
    dispatch only ever changes wall-clock time; the backend-invariance
    tests cover ``auto`` alongside the fixed choices.
    """

    name = "auto"

    def __init__(self, n_jobs: int, batch_size: BatchSizeLike = 1):
        if n_jobs < 1:
            raise InvalidParameterError(f"n_jobs must be >= 1, got {n_jobs}")
        self.n_jobs = int(n_jobs)
        self.batch_size = validate_batch_size(batch_size)
        #: Name of the backend the most recent ``run`` dispatched to.
        self.last_resolved: Optional[str] = None

    def resolve(
        self,
        clusterer: UncertainClusterer,
        dataset: UncertainDataset,
        n_restarts: int,
    ) -> ExecutionBackend:
        """The concrete backend one run-set dispatches to."""
        n_samples = getattr(clusterer, "n_samples", None)
        per_fit_elements = (
            len(dataset) * dataset.dim * max(1, int(n_samples or 1))
        )
        if self.n_jobs == 1 or n_restarts <= 1:
            choice = "serial"
        elif per_fit_elements <= AUTO_SERIAL_ELEMENTS:
            choice = "serial"
        else:
            choice = getattr(clusterer, "preferred_backend", "threads")
            if choice not in ("threads", "processes"):
                choice = "threads"
        self.last_resolved = choice
        return get_backend(choice, self.n_jobs, batch_size=self.batch_size)

    def run(self, clusterer, dataset, seeds, early_stopping=None):
        backend = self.resolve(clusterer, dataset, len(seeds))
        return backend.run(clusterer, dataset, seeds, early_stopping)


#: A backend argument: a name, an instance, or None (= legacy mapping).
BackendLike = Union[str, ExecutionBackend, None]


def get_backend(
    backend: BackendLike, n_jobs: int = 1, batch_size: BatchSizeLike = 1
) -> ExecutionBackend:
    """Resolve a backend spec to an :class:`ExecutionBackend` instance.

    ``None`` keeps the runner's historical behavior: serial for
    ``n_jobs == 1``, the process pool otherwise.  ``batch_size`` sets
    the in-worker restart chunking of the pool backends — a fixed chunk
    length or ``"auto"`` for latency-adaptive sizing (ignored when an
    already-constructed instance is passed, which keeps its own).
    """
    if isinstance(backend, ExecutionBackend):
        return backend
    if backend is None:
        backend = "serial" if n_jobs == 1 else "processes"
    if backend == "serial":
        return SerialBackend()
    if backend == "threads":
        return ThreadBackend(n_jobs, batch_size=batch_size)
    if backend == "processes":
        return ProcessBackend(n_jobs, batch_size=batch_size)
    if backend == "auto":
        return AutoBackend(n_jobs, batch_size=batch_size)
    raise InvalidParameterError(
        f"unknown backend {backend!r}; known: {BACKEND_NAMES}"
    )
