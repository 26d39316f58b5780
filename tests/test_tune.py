"""Unit tests for the format/schedule tuner."""

import numpy as np
import pytest

from repro.runtime import Session
from repro.sim.device import V100
from repro.tune import Choice, ParameterSpace, SDDMMProblem, SpMMProblem, get_workload
from repro.tune.search_space import config_key
from repro.workloads.graphs import generate_adjacency


def spmm_search_space() -> ParameterSpace:
    """The registered SpMM space (it does not depend on the problem)."""
    return get_workload("spmm").space(None)


class TestParameterSpace:
    def test_size_and_enumeration(self):
        space = ParameterSpace([Choice("a", (1, 2)), Choice("b", ("x", "y", "z"))])
        assert len(space) == 6
        configs = list(space.configurations())
        assert len(configs) == 6
        assert {"a", "b"} == set(configs[0])

    def test_sampling_without_replacement(self):
        space = ParameterSpace([Choice("a", (1, 2, 3)), Choice("b", (1, 2))])
        sample = space.sample(4, seed=1)
        assert len(sample) == 4
        assert len({tuple(sorted(c.items())) for c in sample}) == 4
        assert len(space.sample(100, seed=1)) == len(space)

    def test_validation(self):
        with pytest.raises(ValueError):
            ParameterSpace([Choice("a", (1,)), Choice("a", (2,))])
        with pytest.raises(ValueError):
            Choice("empty", ())

    def test_predefined_spaces(self):
        graph = generate_adjacency(20, 60, "powerlaw", seed=0)
        assert len(get_workload("spmm").space(SpMMProblem(graph, 8))) == 2 * 5 * 5 * 3
        assert len(get_workload("sddmm").space(SDDMMProblem(graph, 8))) == 2 * 4 * 3 * 3

    def test_subspace_preserves_order_and_rejects_unknown(self):
        space = spmm_search_space()
        sub = space.subspace(["num_col_parts", "num_buckets"])
        assert [c.name for c in sub.choices] == ["num_col_parts", "num_buckets"]
        assert len(sub) == 5 * 5
        with pytest.raises(KeyError, match="unknown parameters"):
            space.subspace(["num_col_parts", "warp_size"])

    def test_sample_with_generator_draws_single_config(self):
        space = spmm_search_space()
        rng = np.random.default_rng(0)
        config = space.sample(rng)
        assert isinstance(config, dict)
        assert space.contains(config)
        # Distinct draws from one generator differ eventually.
        draws = {config_key(space.sample(rng)) for _ in range(20)}
        assert len(draws) > 1

    def test_contains(self):
        space = ParameterSpace([Choice("a", (1, 2)), Choice("b", ("x",))])
        assert space.contains({"a": 1, "b": "x"})
        assert not space.contains({"a": 3, "b": "x"})     # value not a candidate
        assert not space.contains({"a": 1})               # missing parameter
        assert not space.contains({"a": 1, "b": "x", "c": 0})  # extra parameter

    def test_mutate_changes_exactly_one_parameter(self):
        space = ParameterSpace([Choice("a", (1, 2, 3)), Choice("b", ("x",))])
        rng = np.random.default_rng(1)
        config = {"a": 1, "b": "x"}
        mutated = space.mutate(config, rng)
        assert mutated != config
        assert sum(mutated[k] != config[k] for k in config) == 1
        assert space.contains(mutated)
        # A space with no mutable parameter returns the config unchanged.
        frozen = ParameterSpace([Choice("only", (7,))])
        assert frozen.mutate({"only": 7}, rng) == {"only": 7}

    def test_crossover_inherits_from_parents(self):
        space = ParameterSpace([Choice("a", (1, 2)), Choice("b", (10, 20))])
        rng = np.random.default_rng(2)
        child = space.crossover({"a": 1, "b": 10}, {"a": 2, "b": 20}, rng)
        assert child["a"] in (1, 2) and child["b"] in (10, 20)
        assert space.contains(child)


def _tune(graph, feat_size, session=None, **kwargs):
    """Predict-only unless ``survivors`` says otherwise; nothing persisted."""
    kwargs.setdefault("survivors", 0)
    session = session if session is not None else Session(persistent=False)
    return session.autotune(
        "spmm", SpMMProblem(graph, feat_size), device=V100, records=False, **kwargs
    )


def _predicted(result):
    return [h for h in result.history if h["phase"] == "predict"]


class TestSearchDrivers:
    @pytest.fixture(scope="class")
    def graph(self):
        return generate_adjacency(120, 700, "powerlaw", seed=5)

    def test_grid_search_finds_minimum(self, graph):
        result = _tune(graph, 16, strategy="grid")
        spec = get_workload("spmm")
        canonical = {config_key(spec.canonical(c)) for c in spmm_search_space().configurations()}
        priced = _predicted(result)
        assert result.evaluated == len(priced) == len(canonical)
        assert result.best_cost == min(h["predicted_us"] for h in priced)
        best = next(h for h in priced if h["predicted_us"] == result.best_cost)
        assert spec.canonical(result.best_config) == spec.canonical(best["config"])

    def test_random_search_respects_trial_budget(self, graph):
        result = _tune(graph, 16, strategy="random", max_trials=5, seed=0)
        assert 1 <= result.evaluated <= 5
        assert result.best_cost == min(h["predicted_us"] for h in _predicted(result))

    def test_random_search_trials_beyond_space_size_dedupe(self, graph):
        """A budget beyond the space never re-evaluates a configuration."""
        space = ParameterSpace([Choice("x", (1, 2, 3)), Choice("y", ("a", "b"))])
        drawn = space.sample(1000, seed=0)
        assert len(drawn) == len(space) == 6
        assert len({config_key(c) for c in drawn}) == 6
        # ... and the driver prices every behaviour of the space exactly once.
        result = _tune(graph, 16, strategy="random", max_trials=1000)
        spec = get_workload("spmm")
        keys = [config_key(spec.canonical(h["config"])) for h in _predicted(result)]
        assert result.evaluated == len(keys) == len(set(keys))
        assert result.evaluated == _tune(graph, 16, strategy="grid").evaluated

    def test_random_search_never_repeats_within_budget(self):
        space = ParameterSpace([Choice("x", tuple(range(10)))])
        drawn = [config_key(c) for c in space.sample(8, seed=3)]
        assert len(drawn) == len(set(drawn)) == 8

    def test_random_search_rejects_nonpositive_trials(self, graph):
        with pytest.raises(ValueError, match="max_trials must be positive"):
            _tune(graph, 16, strategy="random", max_trials=0)


class TestSpMMTuner:
    @pytest.fixture(scope="class")
    def graph(self):
        return generate_adjacency(1500, 18000, "powerlaw", seed=2)

    def test_tuner_returns_valid_configuration(self, graph):
        result = _tune(graph, 64, strategy="random", max_trials=10)
        assert result.best_config["num_col_parts"] in (1, 2, 4, 8, 16)
        assert result.best_config["threads_per_block"] in (64, 128, 256)
        assert result.best_cost > 0

    def test_tuned_configuration_not_worse_than_default(self, graph):
        from repro.formats import HybFormat
        from repro.sim.ops.spmm import spmm_hyb_workload
        from repro.sim.gpu_model import GPUModel

        result = _tune(graph, 64, strategy="grid")
        model = GPUModel(V100)
        default = model.estimate(
            spmm_hyb_workload(HybFormat.from_csr(graph, num_col_parts=1), 64, V100)
        ).duration_us
        assert result.best_cost <= default * 1.001


class TestWallclockObjective:
    def test_wallclock_tuning_executes_through_three_tier_runtime(self):
        graph = generate_adjacency(300, 2400, "powerlaw", seed=7)
        session = Session()
        result = _tune(
            graph, 16, session=session, strategy="random", max_trials=6, survivors=2, repeats=1
        )
        assert result.measured_configs == 2 and result.timed_runs == 2
        assert result.best_cost == result.best_measured_s > 0  # seconds, not model us
        # Every candidate executed on the runtime's fast tiers, compile-once:
        # one build per structure, warm-up + timed call per candidate.
        assert session.stats.fast_runs == session.stats.runs >= 4
        assert session.stats.kernel_cache_hits >= 2

    def test_default_wallclock_space_drops_schedule_only_parameters(self):
        """threads_per_block does not change the NumPy execution, so phase 2
        must not time two configurations that differ only in it."""
        graph = generate_adjacency(200, 1200, "powerlaw", seed=9)
        result = _tune(graph, 8, strategy="grid", survivors=200, repeats=1)
        spec = get_workload("spmm")
        timed = [
            config_key(spec.exec_config(h["config"]))
            for h in result.history if h["phase"] == "measure"
        ]
        assert len(timed) == len(set(timed)) == result.measured_configs
        assert all("threads_per_block" not in dict(key) for key in timed)

    def test_unknown_objective_rejected(self):
        graph = generate_adjacency(100, 500, "powerlaw", seed=1)
        with pytest.raises(ValueError, match="unknown strategy"):
            _tune(graph, 8, strategy="guess")
