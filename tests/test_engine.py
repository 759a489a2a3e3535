"""Tests for the multi-restart execution engine (repro.engine)."""

from __future__ import annotations

import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.clustering import BasicUKMeans, MinMaxBB, UKMeans
from repro.datagen import make_blobs_uncertain
from repro.engine import MultiRestartRunner, RestartRecord
from repro.exceptions import InvalidParameterError


@pytest.fixture(scope="module")
def data():
    # Moderate separation so different seeds reach different optima.
    return make_blobs_uncertain(
        n_objects=90, n_clusters=4, separation=2.5, seed=13
    )


@pytest.fixture
def tensor_spy(monkeypatch):
    """Counts UncertainDataset.sample_tensor calls (behavior intact)."""
    from repro.objects.dataset import UncertainDataset

    calls = {"count": 0}
    original = UncertainDataset.sample_tensor

    def counting(self, n_samples, seed=None):
        calls["count"] += 1
        return original(self, n_samples, seed)

    monkeypatch.setattr(UncertainDataset, "sample_tensor", counting)
    return calls


class TestMultiRestartRunner:
    def test_returns_best_objective(self, data):
        runner = MultiRestartRunner(UKMeans(4), n_init=8)
        best = runner.run(data, seed=3)
        history = best.extras["restart_history"]
        assert len(history) == 8
        objectives = [record["objective"] for record in history]
        assert best.objective == pytest.approx(min(objectives))
        assert history[best.extras["best_restart"]]["objective"] == pytest.approx(
            best.objective
        )

    def test_no_worse_than_single_restart(self, data):
        """Best-of-n is at least as good as the first restart alone."""
        runner = MultiRestartRunner(UKMeans(4), n_init=6)
        best = runner.run(data, seed=5)
        first = best.extras["restart_history"][0]["objective"]
        assert best.objective <= first + 1e-12

    def test_deterministic(self, data):
        a = MultiRestartRunner(UKMeans(4), n_init=5).run(data, seed=7)
        b = MultiRestartRunner(UKMeans(4), n_init=5).run(data, seed=7)
        np.testing.assert_array_equal(a.labels, b.labels)
        assert a.objective == b.objective

    def test_parallel_matches_sequential(self, data):
        sequential = MultiRestartRunner(UKMeans(4), n_init=6, n_jobs=1).run(
            data, seed=11
        )
        parallel = MultiRestartRunner(UKMeans(4), n_init=6, n_jobs=2).run(
            data, seed=11
        )
        np.testing.assert_array_equal(sequential.labels, parallel.labels)
        assert sequential.objective == parallel.objective
        assert parallel.extras["engine_jobs"] == 2

    def test_shared_sample_cache(self, data):
        clusterer = BasicUKMeans(4, n_samples=16)
        runner = MultiRestartRunner(clusterer, n_init=3, share_samples=True)
        best = runner.run(data, seed=2)
        assert best.extras["shared_samples"] is True
        # The cache is injected for the run and restored afterwards.
        assert clusterer.sample_cache is None

    def test_pinned_cache_honored(self, data):
        """A caller-pinned sample_cache survives fit_best untouched."""
        tensor = data.sample_tensor(16, seed=33)
        clusterer = BasicUKMeans(4, n_samples=16)
        clusterer.sample_cache = tensor
        best = MultiRestartRunner(clusterer, n_init=3).run(data, seed=2)
        assert best.extras["shared_samples"] is True
        assert clusterer.sample_cache is tensor
        # Restarts really used the pinned tensor: rerunning with the
        # same pin reproduces the result exactly.
        clusterer2 = BasicUKMeans(4, n_samples=16)
        clusterer2.sample_cache = tensor.copy()
        again = MultiRestartRunner(clusterer2, n_init=3).run(data, seed=2)
        np.testing.assert_array_equal(best.labels, again.labels)

    def test_objective_less_algorithms_flagged(self):
        from repro.clustering import FDBSCAN, FOPTICS, UAHC

        assert UKMeans.has_objective is True
        for cls in (FDBSCAN, FOPTICS, UAHC):
            assert cls.has_objective is False

    def test_objective_less_clusterer_warns_on_best_of(self, data):
        """run() cannot rank objective-less restarts and says so;
        run_all() aggregates without ranking, so it stays silent."""
        from repro.clustering import FDBSCAN

        runner = MultiRestartRunner(FDBSCAN(n_samples=4), n_init=2)
        with pytest.warns(UserWarning, match="no objective"):
            runner.run(data, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            runner.run_all(data, seed=0)

    def test_shared_cache_off(self, data):
        best = MultiRestartRunner(
            BasicUKMeans(4, n_samples=16), n_init=2, share_samples=False
        ).run(data, seed=2)
        assert best.extras["shared_samples"] is False

    def test_moment_based_algorithms_skip_cache(self, data):
        best = MultiRestartRunner(UKMeans(4), n_init=2).run(data, seed=0)
        assert best.extras["shared_samples"] is False

    def test_pruning_variant_through_engine(self, data):
        best = MultiRestartRunner(MinMaxBB(4, n_samples=16), n_init=3).run(
            data, seed=4
        )
        assert best.n_clusters == 4
        assert best.extras["ed_pruned"] > 0

    def test_restart_record_fields(self, data):
        best = MultiRestartRunner(UKMeans(4), n_init=2).run(data, seed=1)
        record = best.extras["restart_history"][0]
        assert set(record) == {
            field for field in RestartRecord.__dataclass_fields__
        }
        assert best.extras["total_runtime_seconds"] >= 0.0

    def test_validation(self, data):
        with pytest.raises(InvalidParameterError):
            MultiRestartRunner(UKMeans(4), n_init=0)
        with pytest.raises(InvalidParameterError):
            MultiRestartRunner(UKMeans(4), n_jobs=0)

    def test_generator_seed(self, data):
        gen = np.random.default_rng(9)
        best = MultiRestartRunner(UKMeans(4), n_init=3).run(data, seed=gen)
        assert len(best.extras["restart_history"]) == 3


class TestRunAll:
    def test_returns_all_results_in_order(self, data):
        runner = MultiRestartRunner(UKMeans(4), n_init=5)
        results = runner.run_all(data, seed=3)
        assert len(results) == 5
        best = runner.run(data, seed=3)
        objectives = [r.objective for r in results]
        assert best.objective == pytest.approx(min(objectives))

    def test_moment_based_equals_direct_fits(self, data):
        """Moment-based algorithms consume no sample seed, so run_all
        is fit-for-fit identical to the direct per-seed loop."""
        from repro.utils.rng import spawn_rngs

        seeds = spawn_rngs(11, 4)
        direct = [UKMeans(4).fit(data, seed=s) for s in seeds]
        engine = MultiRestartRunner(UKMeans(4), n_init=1).run_all(
            data, seeds=spawn_rngs(11, 4)
        )
        for d, e in zip(direct, engine):
            np.testing.assert_array_equal(d.labels, e.labels)
            assert d.objective == e.objective

    def test_sample_based_equals_direct_fits_with_pinned_cache(self, data):
        """With the shared tensor pinned, engine restarts are identical
        to direct fits reading the same tensor."""
        tensor = data.sample_tensor(16, seed=21)
        seeds = [5, 6, 7]
        direct = []
        for s in seeds:
            algo = BasicUKMeans(4, n_samples=16)
            algo.sample_cache = tensor
            direct.append(algo.fit(data, seed=s))
        shared = BasicUKMeans(4, n_samples=16)
        shared.sample_cache = tensor.copy()
        engine = MultiRestartRunner(shared, n_init=1).run_all(data, seeds=seeds)
        for d, e in zip(direct, engine):
            np.testing.assert_array_equal(d.labels, e.labels)

    def test_empty_seeds_rejected(self, data):
        with pytest.raises(InvalidParameterError):
            MultiRestartRunner(UKMeans(4)).run_all(data, seeds=[])

    def test_sample_tensor_built_exactly_once(self, data, tensor_spy):
        """Spy: a multi-run engine execution draws one shared tensor."""
        runner = MultiRestartRunner(BasicUKMeans(4, n_samples=16), n_init=6)
        runner.run_all(data, seed=2)
        assert tensor_spy["count"] == 1


#: Table 2/3 cells of the routing cases, ``float.hex`` per value.
ROUTING_GOLDEN = Path(__file__).with_name("engine_routing_golden.json")

#: ``name -> (runner, config kwargs, grid axes)`` of the golden cases.
ROUTING_CASES = {
    # A sample-based algorithm early in the roster must not shift the
    # seeds of the later moment-based cells.
    "mixed_roster_seed_drift": (
        "table3",
        dict(scale=0.004, n_runs=2, seed=31, n_samples=8),
        dict(
            datasets=("neuroblastoma",),
            cluster_counts=(2,),
            algorithms=("FDB", "UKM", "MMV"),
        ),
    ),
    # FDB/FOPT draw per-run tensors from their run seeds.
    "table2_incl_density": (
        "table2",
        dict(scale=0.08, n_runs=2, seed=42, n_samples=8),
        dict(
            datasets=("iris",),
            families=("normal",),
            algorithms=("FDB", "FOPT", "UKM", "MMV"),
        ),
    ),
    "table3_moment_based": (
        "table3",
        dict(scale=0.004, n_runs=2, seed=17),
        dict(
            datasets=("neuroblastoma",),
            cluster_counts=(2, 3),
            algorithms=("UKM", "MMV"),
        ),
    ),
}


def _routing_cells(name: str) -> dict:
    """``"/"``-joined cell key -> ``float.hex`` values of one case."""
    from repro import experiments

    runner, config, axes = ROUTING_CASES[name]
    report = getattr(experiments, f"run_{runner}")(
        experiments.ExperimentConfig(**config), **axes
    )
    if runner == "table2":
        return {
            "/".join(key): [cell.theta.hex(), cell.quality.hex()]
            for key, cell in report.cells.items()
        }
    return {
        "/".join(map(str, key)): value.hex()
        for key, value in report.quality.items()
    }


class TestExperimentEngineRouting:
    """The experiment runners route their per-run fits through the
    engine.  ``fit_runs`` and the protocol are checked against inline
    per-fit loops; the Table 2/3 runners against
    ``engine_routing_golden.json``, recorded while the runners still
    had a direct per-fit mode and both modes agreed on every cell."""

    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(ROUTING_GOLDEN.read_text())

    def test_fit_runs_engine_matches_direct_for_moment_based(self, data):
        from repro.engine import fit_runs
        from repro.utils.rng import spawn_rngs

        direct = [UKMeans(4).fit(data, seed=s) for s in spawn_rngs(7, 3)]
        routed = fit_runs(UKMeans(4), data, spawn_rngs(7, 3))
        for d, e in zip(direct, routed):
            np.testing.assert_array_equal(d.labels, e.labels)
            assert d.objective == e.objective

    def test_fit_runs_shares_tensor_for_sample_based(self, data, tensor_spy):
        from repro.engine import fit_runs

        results = fit_runs(
            BasicUKMeans(4, n_samples=8), data, [0, 1, 2, 3], sample_seed=9
        )
        assert len(results) == 4
        assert tensor_spy["count"] == 1

    def test_fit_runs_shares_tensor_without_sample_seed(self, data, tensor_spy):
        """Regression: sample_seed=None must still mean *one* shared
        draw (from fresh entropy), not a per-restart draw."""
        from repro.engine import fit_runs

        fit_runs(BasicUKMeans(4, n_samples=8), data, [0, 1, 2])
        assert tensor_spy["count"] == 1

    def test_fit_runs_density_keeps_independent_draws(self, data, tensor_spy):
        """FDBSCAN's only randomness is the draw: fit_runs must not pin
        one tensor across its measurement runs (that would average n
        copies of a single realization) — and with per-run draws the
        engine path equals direct per-seed fits exactly."""
        from repro.clustering import FDBSCAN
        from repro.engine import fit_runs

        routed = fit_runs(FDBSCAN(n_samples=8), data, [0, 1, 2], sample_seed=9)
        assert tensor_spy["count"] == 3  # one independent draw per run
        direct = [FDBSCAN(n_samples=8).fit(data, seed=s) for s in (0, 1, 2)]
        for d, e in zip(direct, routed):
            np.testing.assert_array_equal(d.labels, e.labels)
        # Explicit opt-in to sharing is still possible (restart-style).
        tensor_spy["count"] = 0
        shared = fit_runs(
            FDBSCAN(n_samples=8), data, [0, 1, 2], sample_seed=9,
            share_samples=True,
        )
        assert tensor_spy["count"] == 1
        for result in shared[1:]:
            np.testing.assert_array_equal(shared[0].labels, result.labels)

    def test_mixed_roster_seed_drift_regression(self, golden):
        """Regression: a sample-based algorithm earlier in the roster
        must not shift the seeds of later moment-based cells (the
        shared-tensor stream is pre-spawned for every algorithm)."""
        name = "mixed_roster_seed_drift"
        assert _routing_cells(name) == golden[name]

    def test_table2_engine_path_identical_incl_density(self, golden):
        """Moment-based algorithms consume no tensors; FDB/FOPT draw
        per-run independent tensors from the run seeds — so the whole
        accuracy roster equals the per-fit reference bit for bit."""
        name = "table2_incl_density"
        assert _routing_cells(name) == golden[name]

    def test_table3_engine_path_identical_for_moment_based(self, golden):
        name = "table3_moment_based"
        assert _routing_cells(name) == golden[name]

    def test_protocol_engine_path_identical_for_moment_based(self, data):
        from repro.datagen.uncertainty_gen import UncertaintyGenerator
        from repro.evaluation.protocol import (
            evaluate_theta,
            evaluate_theta_multirun,
            multirun_stream_plan,
        )

        pair = UncertaintyGenerator(family="normal").generate(
            data.mu_matrix, data.labels, seed=0
        )
        routed = evaluate_theta_multirun(UKMeans(4), pair, n_runs=3, seed=13)
        direct = [
            evaluate_theta(UKMeans(4), pair, run_seed)
            for run_seed in multirun_stream_plan(13, 3)[0]
        ]
        assert routed.theta_mean == float(
            np.mean([outcome.theta for outcome in direct])
        )
        assert routed.quality_mean == float(
            np.mean([outcome.quality for outcome in direct])
        )


class TestFitBest:
    def test_matches_runner(self, data):
        via_method = UKMeans(4).fit_best(data, seed=17, n_init=4)
        via_runner = MultiRestartRunner(UKMeans(4), n_init=4).run(data, seed=17)
        np.testing.assert_array_equal(via_method.labels, via_runner.labels)
        assert via_method.objective == via_runner.objective

    def test_sample_based_with_jobs(self, data):
        result = BasicUKMeans(4, n_samples=16).fit_best(
            data, seed=17, n_init=4, n_jobs=2
        )
        assert result.extras["n_init"] == 4
        assert result.extras["shared_samples"] is True


if __name__ == "__main__":
    ROUTING_GOLDEN.write_text(
        json.dumps(
            {name: _routing_cells(name) for name in ROUTING_CASES},
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"wrote {ROUTING_GOLDEN}")
