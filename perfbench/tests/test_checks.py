"""Output checks, failure counting, digests and the metric list."""

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from perfbench import probes, run, spans, worker, workloads
from repro.clustering import ClusteringResult

ROOT = Path(__file__).resolve().parents[2]


def passes(*digests, failures=()):
    return [
        {"cells": 10, "failures": list(failures) if i == 0 else [], "digest": d}
        for i, d in enumerate(digests)
    ]


def test_injected_non_finite_table2_cell_fails():
    cells = {("iris", "normal", "UCPC"): (0.1, 2.0),
             ("iris", "normal", "UKM"): (math.nan, 2.0),
             ("wine", "normal", "UKM"): (1.5, 2.0),
             ("wine", "normal", "MMV"): (0.2, math.inf)}
    assert workloads.table2_failures(cells) == [
        "iris/normal/UKM", "wine/normal/UKM", "wine/normal/MMV",
    ]


def test_failure_counter_counts_failed_cells():
    assert run.score(passes("d", "d"), "d") == (20, 0, [])
    attempted, failed, notes = run.score(passes("d", "d", failures=["x"]), "d")
    assert (attempted, failed) == (20, 1)


def test_digest_mismatch_fails_every_cell_of_the_pass():
    attempted, failed, notes = run.score(passes("d", "e"), "d")
    assert (attempted, failed) == (20, 10)
    # Without a committed reference, the first pass is the reference.
    attempted, failed, _ = run.score(passes("e", "d", "d"), None)
    assert (attempted, failed) == (30, 20)


def test_partition_failures():
    good = ClusteringResult(labels=np.array([0, 1, 2, 0]), objective=1.0)
    assert workloads.partition_failures([good], 3) == []
    missing = ClusteringResult(labels=np.array([0, 1, 1, 0]), objective=1.0)
    outside = ClusteringResult(labels=np.array([0, 1, 3, 2]), objective=1.0)
    nan = ClusteringResult(labels=np.array([0, 1, 2, 0]), objective=math.nan)
    problems = workloads.partition_failures([missing, outside, nan], 3)
    assert len(problems) == 3


def test_sweep_value_checks():
    assert workloads.sweep_value_ok(("table2", "iris", "normal", "UKM", "theta"), 0.5)
    assert not workloads.sweep_value_ok(("table2", "iris", "normal", "UKM", "theta"), -1.5)
    assert not workloads.sweep_value_ok(("table3", "x", 2, "MMV"), math.nan)
    assert not workloads.sweep_value_ok(("figure4", "abalone", "UKM"), -1.0)


def test_digest_ignores_row_order_and_ulp_noise():
    rows = [("a", workloads.number(0.1 + 0.2)), ("b", workloads.number(1.0))]
    assert workloads.digest(rows) == workloads.digest(
        [("b", workloads.number(1.0)), ("a", workloads.number(0.3))]
    )
    assert workloads.digest(rows) != workloads.digest([("a", "0.3")])


class FirstDataset(BaseException):
    """Stops a pass once it has generated its first dataset.

    A ``BaseException``, so the pass's own failure counting lets it through.
    """


def first_dataset_digest(workload, seed, workdir, monkeypatch):
    """sha256 of the first dataset a benchmark pass generates from ``seed``.

    The seed goes the benchmark's own way: ``run.py`` builds the worker's
    arguments, the worker runs the pass, the pass hands the seed to the
    program, and the program's generator makes the data.
    """
    from repro.datagen.uncertainty_gen import UncertaintyGenerator

    argv = []
    children = run.Children()
    monkeypatch.setattr(children, "worker", lambda *args: argv.extend(args) or {})
    monkeypatch.setattr(children, "calibrate", lambda: [1.0])
    children.one_pass(workload, seed, False, 0)
    argv[argv.index("--workdir") + 1] = str(workdir)

    generate = UncertaintyGenerator.generate

    def stop(self, *args, **kwargs):
        raise FirstDataset(generate(self, *args, **kwargs).uncertain)

    monkeypatch.setattr(UncertaintyGenerator, "generate", stop)
    with pytest.raises(FirstDataset) as stopped:
        worker.main(argv)
    monkeypatch.setattr(UncertaintyGenerator, "generate", generate)
    dataset = stopped.value.args[0]
    blob = np.concatenate([dataset.mu_matrix, dataset.sigma2_matrix], axis=1)
    return hashlib.sha256(np.ascontiguousarray(blob).tobytes()).hexdigest()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_changes_the_generated_inputs(workload, tmp_path, monkeypatch):
    def inputs(seed):
        return first_dataset_digest(workload, seed, tmp_path / str(seed), monkeypatch)

    first = inputs(0)
    assert inputs(0) == first
    assert inputs(1) != first


def test_parse_importtime():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:      1000 |       1000 |   numpy._core",
        "import time:       500 |       1500 | numpy",
        "import time:       200 |        200 |       scipy.special._ufuncs",
        "import time:       100 |        300 |     scipy.special",
        "import time:      3000 |       6000 | repro",
    ])
    assert run.parse_importtime(text) == pytest.approx({
        "import.repro_s": 0.006, "import.numpy_s": 0.0015, "import.scipy_s": 0.0003,
    })


def test_probes_trace_without_changing_results():
    from repro.datagen import make_blobs_uncertain
    from repro.engine import fit_runs
    from repro.clustering import UCPC, MinMaxBB
    import repro.experiments.table2 as table2

    data = make_blobs_uncertain(n_objects=40, n_clusters=3, seed=1)
    plain = [fit_runs(alg(3), data, [1, 2], sample_seed=3) for alg in (UCPC, MinMaxBB)]
    original = table2.make_benchmark
    tracer = spans.Tracer()
    patches = probes.install(tracer)
    try:
        assert table2.make_benchmark is not original
        with tracer.span(spans.ROOT):
            traced = [fit_runs(alg(3), data, [1, 2], sample_seed=3) for alg in (UCPC, MinMaxBB)]
    finally:
        patches.restore()
    assert table2.make_benchmark is original
    for before, after in zip(plain, traced):
        for a, b in zip(before, after):
            assert np.array_equal(a.labels, b.labels) and a.objective == b.objective
    summary = probes.summarize(tracer)
    assert summary["counts"]["clustering.UCPC.fits"] == 2
    assert summary["counts"]["clustering.MinMax-BB.fits"] == 2
    assert summary["counts"]["engine.restarts"] == 4
    assert summary["counts"]["objects.sample_tensor_calls"] == 1
    assert summary["layers"]["clustering.UCPC.fit_s"] > 0.0
    assert 0.9 < summary["coverage"] <= 1.0


class FakeChildren:
    """Canned workers: every pass takes 2 s on a machine at half speed."""

    def one_pass(self, workload, seed, trace, pass_id):
        return {"setup_s": 1.0, "wall_s": 2.0, "cpu_s": 1.8, "calib_s": 2 * run.CALIB_REF_S,
                "peak_rss_mb": 100.0, "cells": 4, "failures": [], "digest": "d",
                "load": {"cells": 4}}

    def worker(self, *args):
        return {"setup_s": 1.0, "calib_s": 2 * run.CALIB_REF_S}

    def timed(self, run):
        return run()

def test_untraced_run_reports_medians_at_reference_speed():
    attempted, failed, notes, metrics, info, ok = run.measure(
        FakeChildren(), "table2-accuracy", 10**6, 0.0
    )
    assert (attempted, failed, ok) == (4 * run.MIN_PASSES, 0, True)
    assert info["passes"] == run.MIN_PASSES
    assert metrics["wall_s"]["value"] == pytest.approx(1.0)
    assert metrics["cpu_s"]["value"] == pytest.approx(0.9)
    assert metrics["setup_s"]["value"] == pytest.approx(0.5)
    assert metrics["ok_frac"]["value"] == 1.0


def test_benchmark_json_names_every_metric_the_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = run.measure(FakeChildren(), "table2-accuracy", 10**6, 0.0)[3]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: value["unit"] for name, value in metrics.items()
    }
    summary = probes.summarize(spans.Tracer())
    fake = {"trace": summary, "load": {}, "wall_s": 1.0, "calib_s": run.CALIB_REF_S}
    printed = run.per_layer([fake], [fake], {k: 0.0 for k in run.parse_importtime("")})
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: value["unit"] for name, value in printed.items()
    }
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
