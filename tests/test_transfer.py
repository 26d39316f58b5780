"""Transfer tuning: task features, neighbour planning, and the autotune modes.

Covers the :mod:`repro.tune.transfer` layer end to end: the reference
feature vector of a task is deterministic, neighbour search excludes the
task's own fingerprint and respects the distance bound, seed configurations
are filtered to the target space, ``cost_model="learned"/"hybrid"`` change
the phase-1 ranking (and the hybrid mode spends fewer measurements), and a
confident transfer replaces phase 2 outright.
"""

import numpy as np
import pytest

from repro.sim.device import V100
from repro.sim.learned import FEATURE_NAMES, feature_list
from repro.tune import SpMMProblem, TuningRecord, TuningRecordStore, autotune, get_workload
from repro.tune.transfer import (
    DEFAULT_MAX_SEEDS,
    feature_distance,
    plan_transfer,
    task_features,
)
from repro.workloads.graphs import generate_adjacency


@pytest.fixture(scope="module")
def graph():
    return generate_adjacency(120, 700, "powerlaw", seed=5)


@pytest.fixture(scope="module")
def spec():
    return get_workload("spmm")


@pytest.fixture(scope="module")
def seeded(graph, tmp_path_factory):
    """A store whose corpus holds one measured feat-8 SpMM task."""
    store = TuningRecordStore(tmp_path_factory.mktemp("corpus"))
    result = autotune(
        "spmm", SpMMProblem(graph, 8), records=store,
        strategy="random", max_trials=10, survivors=4, repeats=1, seed=0,
    )
    assert result.measured_configs > 0
    return store, result


def space_configs(spec, problem, count):
    configs = []
    for config in spec.space(problem).configurations():
        configs.append(dict(config))
        if len(configs) >= count:
            break
    return configs


class TestTaskFeatures:
    def test_deterministic_and_finite(self, spec, graph):
        problem = SpMMProblem(graph, 8)
        a = task_features(spec, problem, V100)
        b = task_features(spec, problem, V100, memo={})
        assert a is not None and a.shape == (len(FEATURE_NAMES),)
        assert np.isfinite(a).all()
        assert np.array_equal(a, b)

    def test_nearby_problem_is_near_unrelated_is_far(self, spec, graph):
        base = task_features(spec, SpMMProblem(graph, 8), V100)
        near = task_features(spec, SpMMProblem(graph, 16), V100)
        other = generate_adjacency(500, 9000, "centralized", seed=9)
        far = task_features(spec, SpMMProblem(other, 256), V100)
        assert feature_distance(base, near) < feature_distance(base, far)


class TestFeatureDistance:
    def test_zero_for_identical(self):
        v = np.arange(5.0)
        assert feature_distance(v, v) == 0.0
        assert feature_distance(v, list(v)) == 0.0

    def test_shape_mismatch_is_infinite(self):
        assert feature_distance([1.0, 2.0], [1.0, 2.0, 3.0]) == float("inf")

    def test_relative_scaling(self):
        a = np.ones(4)
        assert feature_distance(a, 2 * a) == pytest.approx(
            feature_distance(10 * a, 20 * a)
        )

    def test_small_vectors_use_unit_floor(self):
        assert feature_distance([0.0, 0.0], [0.3, 0.4]) == pytest.approx(0.5)


class TestPlanTransfer:
    def _neighbour_corpus(self, store, spec, problem, fingerprint, configs):
        """Persist a corpus file whose task_features equal *problem*'s own."""
        reference = feature_list(task_features(spec, problem, V100))
        entries = [
            {
                "features": [float(i)] * len(FEATURE_NAMES),
                "predicted_us": 10.0 + i,
                "measured_s": 0.01 * (len(configs) - i),  # later = faster
                "config": config,
            }
            for i, config in enumerate(configs)
        ]
        store.add_corpus(
            fingerprint, spec.name, entries,
            task_features=reference, feature_version=1,
        )
        return reference

    def test_no_store_or_empty_corpus(self, spec, graph, tmp_path):
        problem = SpMMProblem(graph, 8)
        assert plan_transfer(None, spec, problem, V100, "f" * 16) is None
        store = TuningRecordStore(tmp_path)
        assert plan_transfer(store, spec, problem, V100, "f" * 16) is None

    def test_own_fingerprint_is_excluded(self, spec, graph, tmp_path):
        problem = SpMMProblem(graph, 8)
        store = TuningRecordStore(tmp_path)
        own = "a" * 16
        self._neighbour_corpus(
            store, spec, problem, own, space_configs(spec, problem, 2)
        )
        assert plan_transfer(store, spec, problem, V100, own) is None

    def test_nearest_neighbour_seeds_sorted_and_filtered(self, spec, graph, tmp_path):
        problem = SpMMProblem(graph, 8)
        store = TuningRecordStore(tmp_path)
        configs = space_configs(spec, problem, 3)
        alien = {"definitely": "not-in-space"}
        self._neighbour_corpus(
            store, spec, problem, "b" * 16, configs + [alien]
        )
        record_config = configs[-1]
        store.put(
            TuningRecord(
                fingerprint="b" * 16, workload=spec.name,
                config=record_config, measured_s=1e-6,
            )
        )
        plan = plan_transfer(store, spec, problem, V100, "a" * 16)
        assert plan is not None
        assert plan.source_fingerprint == "b" * 16
        assert plan.distance == pytest.approx(0.0)
        assert len(plan.seed_configs) <= DEFAULT_MAX_SEEDS
        # The record's winning config leads; the out-of-space one is dropped
        # and the duplicate (record == last corpus config) appears once.
        assert plan.seed_configs[0] == record_config
        assert alien not in plan.seed_configs
        assert len([s for s in plan.seed_configs if s == record_config]) == 1
        # Corpus seeds follow in best-measured-first order.
        assert plan.seed_configs[1] == configs[-1] or plan.seed_configs[1] in configs

    def test_distance_bound_rejects_far_neighbours(self, spec, graph, tmp_path):
        problem = SpMMProblem(graph, 8)
        store = TuningRecordStore(tmp_path)
        configs = space_configs(spec, problem, 1)
        reference = feature_list(task_features(spec, problem, V100))
        store.add_corpus(
            "b" * 16, spec.name,
            [{
                "features": [0.0] * len(FEATURE_NAMES),
                "predicted_us": 1.0,
                "measured_s": 0.001,
                "config": configs[0],
            }],
            task_features=[v * 10.0 for v in reference],
            feature_version=1,
        )
        assert plan_transfer(store, spec, problem, V100, "a" * 16) is None
        assert (
            plan_transfer(
                store, spec, problem, V100, "a" * 16, max_distance=2.0
            )
            is not None
        )


class TestCostModelModes:
    def test_unknown_cost_model_raises(self, graph):
        with pytest.raises(ValueError, match="cost_model"):
            autotune("spmm", SpMMProblem(graph, 8), cost_model="oracle", records=False)

    def test_learned_without_store_degrades_to_analytic(self, graph):
        result = autotune(
            "spmm", SpMMProblem(graph, 8), records=False,
            strategy="random", max_trials=6, survivors=0, seed=0,
            cost_model="learned",
        )
        assert result.cost_model == "learned"
        # No corpus, no model: history entries carry no learned score.
        assert all("score" not in entry for entry in result.history)

    def test_hybrid_confident_model_halves_measurements(self, seeded, graph):
        store, analytic = seeded
        hybrid = autotune(
            "spmm", SpMMProblem(graph, 8), records=store, force=True,
            strategy="random", max_trials=10, survivors=4, repeats=1, seed=0,
            cost_model="hybrid", corpus_min_samples=3,
        )
        assert hybrid.cost_model == "hybrid"
        assert hybrid.record.metadata["corpus_samples"] >= 3
        assert 0 < hybrid.measured_configs < analytic.measured_configs
        assert hybrid.timed_runs < analytic.timed_runs
        # The learned correction is live: predict entries carry a score.
        predicts = [e for e in hybrid.history if e["phase"] == "predict"]
        assert predicts and all("score" in e for e in predicts)
        # ``predicted_us`` stays the raw analytic price everywhere.
        for entry in predicts:
            if entry["predicted_us"] is not None and entry["score"] is not None:
                assert entry["predicted_us"] > 0

    def test_analytic_history_format_unchanged(self, seeded, graph):
        store, _ = seeded
        result = autotune(
            "spmm", SpMMProblem(graph, 8), records=store, force=True,
            strategy="random", max_trials=6, survivors=0, seed=0,
        )
        assert all("score" not in entry for entry in result.history)


class TestTransferEndToEnd:
    def test_confident_transfer_skips_phase2(self, seeded, graph):
        store, source = seeded
        result = autotune(
            "spmm", SpMMProblem(graph, 32), records=store, force=True,
            strategy="random", max_trials=10, survivors=4, repeats=1, seed=0,
            cost_model="hybrid", transfer=True,
            transfer_max_distance=0.5, corpus_min_samples=3,
        )
        assert result.transferred_from == source.fingerprint
        assert result.transfer_distance is not None
        assert 0.0 <= result.transfer_distance <= 0.5
        assert result.measured_configs == 0 and result.timed_runs == 0
        assert result.best_measured_s is None
        assert result.record.metadata["transferred"] is True
        assert result.record.metadata["transfer_from"] == source.fingerprint
        # The neighbour's winning config was priced into phase 1.
        priced = [e["config"] for e in result.history if e["phase"] == "predict"]
        assert source.best_config in priced
        # Phase-2-free runs leave the corpus untouched for this fingerprint.
        assert store.get_corpus(result.fingerprint) is None

    def test_include_baseline_forces_measurement(self, seeded, graph, spec):
        store, _ = seeded
        problem = SpMMProblem(graph, 32)
        baseline = space_configs(spec, problem, 1)[0]
        result = autotune(
            "spmm", problem, records=store, force=True,
            strategy="random", max_trials=10, survivors=2, repeats=1, seed=0,
            cost_model="hybrid", transfer=True,
            transfer_max_distance=0.5, corpus_min_samples=3,
            include=[baseline],
        )
        assert result.transferred_from is None
        assert result.measured_configs > 0
        measured = [e["config"] for e in result.history if e["phase"] == "measure"]
        assert baseline in measured

    def test_transfer_off_without_flag(self, seeded, graph):
        store, _ = seeded
        result = autotune(
            "spmm", SpMMProblem(graph, 32), records=store, force=True,
            strategy="random", max_trials=8, survivors=2, repeats=1, seed=0,
            cost_model="hybrid", corpus_min_samples=3,
        )
        assert result.transferred_from is None
        assert result.measured_configs > 0
