"""Where the traced run wraps the program, and how spans become metrics.

Every probe wraps one public entry point of a layer, under the name its
callers look up at call time: a method is replaced on the class that
defines it, and a function is replaced in every ``repro`` module that
holds a reference to it (``from … import`` copies the binding, so
``repro.experiments.table2.make_benchmark`` is patched alongside
``repro.datagen.benchmarks.make_benchmark``).  Counters are read off the
values the wrapped calls return; nothing is added to the program.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Tuple

from perfbench import spans

#: Paper abbreviation of every roster class (``build_algorithm``'s names).
ALGORITHMS = {
    "UCPC": "UCPC",
    "UKMeans": "UKM",
    "MMVar": "MMV",
    "UKMedoids": "UKmed",
    "FDBSCAN": "FDB",
    "FOPTICS": "FOPT",
    "UAHC": "UAHC",
    "MinMaxBB": "MinMax-BB",
    "VDBiP": "VDBiP",
    "BasicUKMeans": "bUKM",
}

#: Algorithms whose fits report ED evaluations and prunes in ``extras``.
PRUNING = ("MinMax-BB", "VDBiP")

#: Modules imported before patching, so that every binding exists.
MODULES = (
    "repro.cli",
    "repro.datagen.benchmarks",
    "repro.datagen.microarray",
    "repro.datagen.uncertainty_gen",
    "repro.engine.backends",
    "repro.engine.runner",
    "repro.engine.store.json_store",
    "repro.engine.sweep",
    "repro.evaluation.internal",
    "repro.evaluation.protocol",
    "repro.experiments.figure4",
    "repro.experiments.figure5",
    "repro.experiments.table2",
    "repro.experiments.table3",
    "repro.objects.dataset",
    "repro.objects.distance",
)

#: Store layers: the counter of outermost calls, and the wrapped methods.
STORE_METHODS = {
    "engine.store.write": (
        "engine.store.writes",
        ("prepare", "write_cell", "write_payload"),
    ),
    "engine.store.read": (
        "engine.store.reads",
        ("read_manifest", "has_cells", "load_cell", "load_group",
         "iter_cells", "count_cells"),
    ),
    "engine.store.query": (
        "engine.store.queries",
        ("query", "metric_summary", "best_cells", "rank_over_grid"),
    ),
}

EXPERIMENT_PREFIXES = ("run_", "prepare_", "skip_")

#: Layer span names; each metric is ``<name>_s`` (self time in seconds).
LAYERS = (
    "cli.self",
    "experiments.self",
    "datagen.generate",
    "datagen.make_benchmark",
    "datagen.make_microarray",
    "objects.sample_tensor",
    "objects.pairwise_ed",
    *(f"clustering.{alg}.fit" for alg in ALGORITHMS.values()),
    "evaluation.internal_scores",
    "evaluation.protocol",
    "engine.fit_runs",
    "engine.sweep",
    *STORE_METHODS,
)

#: Counters that must repeat exactly across traced passes of one seed.
COUNTS = (
    "datagen.generate_calls",
    "datagen.objects",
    "objects.sample_tensor_calls",
    "objects.samples_drawn",
    "objects.pairwise_ed_builds",
    *(
        f"clustering.{alg}.{field}"
        for alg in ALGORITHMS.values()
        for field in ("fits", "iterations")
    ),
    *(f"clustering.{alg}.ed_evaluations" for alg in PRUNING),
    *(f"clustering.{alg}.ed_pruned" for alg in PRUNING),
    "clustering.unconverged",
    "evaluation.internal_scores_calls",
    "engine.restarts",
    "engine.cells_executed",
    "engine.cells_reused",
    "engine.store.writes",
    "engine.store.reads",
    "engine.store.queries",
)


class Patches:
    """Attribute replacements with an exact undo."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def rebind(self, original: Callable, replacement: Callable) -> None:
        """Replace ``original`` in every loaded ``repro`` module."""
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.set(module, attr, replacement)

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def _algorithm(clusterer) -> str:
    cls = type(clusterer).__name__
    return ALGORITHMS.get(cls, cls)


def _fit_span(self, *args, **kwargs) -> str:
    return f"clustering.{_algorithm(self)}.fit"


def _fit_counts(counts, args, kwargs, result) -> None:
    prefix = f"clustering.{_algorithm(args[0])}."
    counts[prefix + "fits"] += 1
    counts[prefix + "iterations"] += result.n_iterations
    counts[prefix + "online_s"] += result.runtime_seconds
    counts["clustering.unconverged"] += 0 if result.converged else 1
    for key in ("ed_evaluations", "ed_pruned"):
        if key in result.extras:
            counts[prefix + key] += result.extras[key]


def _add(amounts: Dict[str, Callable]):
    """``on_result`` adding ``amount(result)`` to each named counter."""

    def on_result(counts, args, kwargs, result) -> None:
        for key, amount in amounts.items():
            counts[key] += amount(result)

    return on_result


def _one(result) -> int:
    return 1


def _restarts(result) -> int:
    if isinstance(result, list):
        return len(result)
    return int(result.extras.get("restarts_executed", 1))


def _sweep_counts(counts, args, kwargs, outcome) -> None:
    counts["engine.cells_executed"] += len(outcome.executed)
    counts["engine.cells_reused"] += len(outcome.reused)


def _defining_class(cls, attr: str):
    return next(c for c in cls.__mro__ if attr in c.__dict__)


def install(tracer: spans.Tracer) -> Patches:
    """Wrap every layer boundary; ``restore()`` the result to undo."""
    for name in MODULES:
        importlib.import_module(name)
    import repro.clustering as clustering
    from repro.cli import main
    from repro.datagen.benchmarks import make_benchmark
    from repro.datagen.microarray import make_microarray
    from repro.datagen.uncertainty_gen import UncertaintyGenerator
    from repro.engine.backends import SerialBackend
    from repro.engine.runner import MultiRestartRunner, fit_runs
    from repro.engine.store.json_store import JsonStore
    from repro.engine.sweep import run_sweep
    from repro.evaluation.internal import internal_scores
    from repro.evaluation.protocol import evaluate_theta, evaluate_theta_multirun
    from repro.objects.dataset import UncertainDataset
    from repro.objects.distance import pairwise_squared_expected_distances

    patches = Patches()
    wrapped = set()

    def method(cls, attr, name, on_result=None):
        owner = _defining_class(cls, attr)
        if (owner, attr) not in wrapped:
            wrapped.add((owner, attr))
            fn = owner.__dict__[attr]
            patches.set(owner, attr, tracer.wrap(fn, name, on_result))

    def function(fn, name, on_result=None):
        patches.rebind(fn, tracer.wrap(fn, name, on_result))

    function(main, "cli.self")
    for module_name in (
        "repro.experiments.table2",
        "repro.experiments.table3",
        "repro.experiments.figure4",
        "repro.experiments.figure5",
    ):
        module = sys.modules[module_name]
        for attr, value in list(vars(module).items()):
            if (
                attr.startswith(EXPERIMENT_PREFIXES)
                and callable(value)
                and getattr(value, "__module__", None) == module_name
            ):
                function(value, "experiments.self")

    function(make_benchmark, "datagen.make_benchmark")
    function(
        make_microarray,
        "datagen.make_microarray",
        _add({"datagen.objects": len}),
    )
    method(
        UncertaintyGenerator,
        "generate",
        "datagen.generate",
        _add({
            "datagen.generate_calls": _one,
            "datagen.objects": lambda pair: len(pair.uncertain),
        }),
    )

    method(
        UncertainDataset,
        "sample_tensor",
        "objects.sample_tensor",
        _add({
            "objects.sample_tensor_calls": _one,
            # (n, S, m): one drawn sample vector per object and sample.
            "objects.samples_drawn": lambda tensor: tensor.shape[0] * tensor.shape[1],
        }),
    )
    function(
        pairwise_squared_expected_distances,
        "objects.pairwise_ed",
        _add({"objects.pairwise_ed_builds": _one}),
    )

    for cls_name in ALGORITHMS:
        method(getattr(clustering, cls_name), "fit", _fit_span, _fit_counts)

    function(
        internal_scores,
        "evaluation.internal_scores",
        _add({"evaluation.internal_scores_calls": _one}),
    )
    function(evaluate_theta_multirun, "evaluation.protocol")
    function(evaluate_theta, "evaluation.protocol")

    restarts = _add({"engine.restarts": _restarts})
    function(fit_runs, "engine.fit_runs", restarts)
    method(MultiRestartRunner, "run", "engine.fit_runs", restarts)
    method(MultiRestartRunner, "run_all", "engine.fit_runs", restarts)
    method(SerialBackend, "run", "engine.fit_runs", restarts)

    function(run_sweep, "engine.sweep", _sweep_counts)
    for layer, (counter, names) in STORE_METHODS.items():
        for attr in names:
            method(JsonStore, attr, layer, _add({counter: _one}))
    return patches


def summarize(tracer: spans.Tracer) -> Dict[str, object]:
    """Layer self times, counters and coverage of the traced passes."""
    totals, root = spans.layer_totals(tracer.spans)
    layers = {f"{name}_s": totals.get(name, 0.0) for name in LAYERS}
    counts = {key: tracer.counts.get(key, 0) for key in COUNTS}
    times = {
        f"clustering.{alg}.online_s": tracer.counts.get(
            f"clustering.{alg}.online_s", 0.0
        )
        for alg in ALGORITHMS.values()
    }
    return {
        "wall_s": root,
        "coverage": spans.coverage(tracer.spans),
        "layers": layers,
        "counts": counts,
        "times": times,
    }
