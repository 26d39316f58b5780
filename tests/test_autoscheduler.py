"""The workload-generic format autoscheduler: search, replay, bit-exactness.

Covers the two-phase driver (cost-model pruning then wallclock measurement),
the four search strategies, deterministic histories, persistent TuningRecord
replay (in-process and across processes) and — the acceptance bar — an
end-to-end check for every paper workload that its tuned configuration
computes exactly what the reference implementation computes.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.formats.csr import CSRMatrix
from repro.formats.csf import CSFTensor
from repro.ops.rgms import RGMSProblem, rgms_reference
from repro.ops.sparse_conv import SparseConvProblem, sparse_conv_reference
from repro.runtime.session import Session
from repro.tune import (
    AttentionProblem,
    PrunedSpMMProblem,
    SDDMMProblem,
    SpMMProblem,
    TuningRecordStore,
    autotune,
    available_workloads,
    get_workload,
    task_fingerprint,
)
from repro.workloads.graphs import generate_adjacency


@pytest.fixture(scope="module")
def graph():
    return generate_adjacency(250, 1800, "powerlaw", seed=11)


@pytest.fixture
def session():
    return Session(persistent=False, tuning_records=False)


def block_mask(size=48, block=8, seed=0):
    """A block-aligned attention mask (bsr-feasible at ``block``)."""
    rng = np.random.default_rng(seed)
    dense = np.zeros((size, size), dtype=np.float32)
    for b in range(0, size, block):
        dense[b : b + block, b : b + block] = 1.0
    extra = rng.integers(0, size // block, size=2) * block
    dense[extra[0] : extra[0] + block, extra[1] : extra[1] + block] = 1.0
    return CSRMatrix.from_dense(dense)


class TestRegistry:
    def test_all_paper_workloads_registered(self):
        assert {"spmm", "sddmm", "attention", "rgms", "sparse_conv"} <= set(
            available_workloads()
        )
        assert "pruned_spmm" in available_workloads()

    def test_every_spec_enumerates_a_space(self, graph):
        problems = {
            "spmm": SpMMProblem(graph, 16),
            "sddmm": SDDMMProblem(graph, 16),
            "attention": AttentionProblem(block_mask(), 2, 8),
            "pruned_spmm": PrunedSpMMProblem(graph, 8),
        }
        for name, problem in problems.items():
            space = get_workload(name).space(problem)
            assert len(space) > 1
            first = next(space.configurations())
            assert space.contains(first)

    def test_unknown_workload_rejected(self, graph):
        with pytest.raises(KeyError, match="unknown workload"):
            autotune("conv3d", SpMMProblem(graph, 8), records=False)

    def test_fingerprint_is_structural(self, graph):
        spec = get_workload("spmm")
        fp1 = task_fingerprint(spec, SpMMProblem(graph, 16))
        fp2 = task_fingerprint(spec, SpMMProblem(graph, 16))
        fp3 = task_fingerprint(spec, SpMMProblem(graph, 32))
        other = generate_adjacency(250, 1800, "powerlaw", seed=12)
        fp4 = task_fingerprint(spec, SpMMProblem(other, 16))
        assert fp1 == fp2
        assert len({fp1, fp3, fp4}) == 3

    def test_fingerprint_ignores_values(self, graph):
        """Same sparsity pattern, new edge weights: the record still replays
        (every registered decomposition depends only on the structure)."""
        spec = get_workload("spmm")
        reweighted = CSRMatrix(
            graph.shape,
            graph.indptr,
            graph.indices,
            graph.data * 2.0 + 1.0,
        )
        assert task_fingerprint(spec, SpMMProblem(graph, 16)) == task_fingerprint(
            spec, SpMMProblem(reweighted, 16)
        )


class TestStrategies:
    def test_grid_covers_every_canonical_config(self, graph):
        result = autotune(
            "spmm", SpMMProblem(graph, 8), strategy="grid", survivors=0, records=False
        )
        spec = get_workload("spmm")
        space = spec.space(SpMMProblem(graph, 8))
        canonical = {
            tuple(sorted(spec.canonical(c).items())) for c in space.configurations()
        }
        assert result.evaluated == len(canonical)
        assert space.contains(result.best_config)

    def test_random_respects_budget(self, graph):
        result = autotune(
            "spmm",
            SpMMProblem(graph, 8),
            strategy="random",
            max_trials=9,
            survivors=0,
            records=False,
        )
        assert 0 < result.evaluated <= 9

    def test_evolutionary_beats_or_matches_first_random_draw(self, graph):
        problem = SpMMProblem(graph, 8)
        evo = autotune(
            "spmm", problem, strategy="evolutionary", max_trials=30,
            survivors=0, records=False, seed=5,
        )
        rand1 = autotune(
            "spmm", problem, strategy="random", max_trials=1,
            survivors=0, records=False, seed=5,
        )
        assert evo.best_predicted_us <= rand1.best_predicted_us
        assert evo.evaluated <= 30

    def test_unknown_strategy_rejected(self, graph):
        with pytest.raises(ValueError, match="unknown strategy"):
            autotune("spmm", SpMMProblem(graph, 8), strategy="annealing", records=False)

    def test_successive_halving_measures_with_doubling_repeats(self, graph, session):
        result = autotune(
            "spmm",
            SpMMProblem(graph, 8),
            strategy="successive_halving",
            max_trials=12,
            survivors=4,
            session=session,
            records=False,
        )
        measured = [h for h in result.history if h["phase"] == "measure"]
        assert measured, "halving must measure"
        repeats = [h["repeats"] for h in measured]
        assert max(repeats) > min(repeats)  # later rounds re-measure longer
        assert result.best_measured_s is not None


class TestDeterminism:
    @pytest.mark.parametrize("strategy", ["grid", "random", "evolutionary"])
    def test_same_seed_byte_identical_history(self, graph, strategy):
        """Predict-only runs are pure functions of (task, strategy, seed)."""
        problem = SpMMProblem(graph, 8)

        def run():
            result = autotune(
                "spmm", problem, strategy=strategy, max_trials=20,
                survivors=0, seed=13, records=False,
            )
            return json.dumps(
                {"best": result.best_config, "history": result.history},
                sort_keys=True,
            ).encode()

        assert run() == run()

    def test_different_seed_changes_sampling(self, graph):
        problem = SpMMProblem(graph, 8)
        histories = []
        for seed in (0, 1):
            result = autotune(
                "spmm", problem, strategy="random", max_trials=6,
                survivors=0, seed=seed, records=False,
            )
            histories.append(json.dumps(result.history, sort_keys=True))
        assert histories[0] != histories[1]


class TestTwoPhaseDriver:
    def test_phase2_dedupes_execution_identical_candidates(self, graph, session):
        """Model-only parameters never cause duplicate wallclock measurements."""
        result = autotune(
            "spmm", SpMMProblem(graph, 8), strategy="grid",
            survivors=100, repeats=1, session=session, records=False,
        )
        measured = [h for h in result.history if h["phase"] == "measure"]
        exec_configs = {
            tuple(sorted(get_workload("spmm").exec_config(h["config"]).items()))
            for h in measured
        }
        assert len(measured) == len(exec_configs)

    def test_both_phases_share_one_decomposition(self, graph, session, monkeypatch):
        """Phase 1 decomposes through the session phase 2 measures with: no
        ``(c, k)`` is built twice, and every measured hyb survivor's first run
        finds its format memoised."""
        from repro.formats.hyb import HybFormat

        built = []
        real = HybFormat.from_csr.__func__

        def counted(cls, csr, **params):
            built.append(tuple(sorted(params.items())))
            return real(cls, csr, **params)

        monkeypatch.setattr(HybFormat, "from_csr", classmethod(counted))
        result = autotune(
            "spmm", SpMMProblem(graph, 8), strategy="grid",
            survivors=6, repeats=1, session=session, records=False,
        )
        assert built and len(built) == len(set(built))
        assert session.stats.format_cache_misses == len(built)
        hyb_survivors = {
            (h["config"]["num_col_parts"], h["config"]["num_buckets"])
            for h in result.history
            if h["phase"] == "measure" and h["config"]["format"] == "hyb"
        }
        assert hyb_survivors and session.stats.format_cache_hits >= len(hyb_survivors)

    def test_predict_only_run_never_touches_the_session(self, graph, session):
        autotune(
            "spmm", SpMMProblem(graph, 8), survivors=0, session=session, records=False
        )
        assert session.stats.runs == 0

    def test_infeasible_configs_are_dropped(self):
        # A 5x5 mask can never be block-aligned at block sizes 8/16/32, so
        # every bsr candidate is infeasible and csr must win.
        dense = np.zeros((5, 5), dtype=np.float32)
        dense[0, 1] = dense[2, 2] = dense[4, 0] = 1.0
        mask = CSRMatrix.from_dense(dense)
        result = autotune(
            "attention", AttentionProblem(mask, 2, 4), strategy="grid",
            survivors=0, records=False,
        )
        assert result.best_config["format"] == "csr"
        assert all(
            h["config"]["format"] == "csr"
            for h in result.history
            if h["predicted_us"] is not None
        )

    def test_unmeasurable_formats_rank_by_model_only(self, graph, session):
        result = autotune(
            "pruned_spmm", PrunedSpMMProblem(graph, 8), strategy="grid",
            survivors=4, repeats=1, session=session, records=False,
        )
        measured = [h for h in result.history if h["phase"] == "measure"]
        assert all(h["config"]["format"] == "bsr" for h in measured)


class TestRecordsAndReplay:
    def test_record_written_and_replayed(self, graph, tmp_path):
        store = TuningRecordStore(tmp_path)
        problem = SpMMProblem(graph, 8)
        first = autotune(
            "spmm", problem, max_trials=10, survivors=2, repeats=1, records=store
        )
        assert not first.replayed and len(store) == 1

        second = autotune("spmm", problem, records=store)
        assert second.replayed
        assert second.evaluated == 0 and second.history == []
        assert second.best_config == first.best_config

        forced = autotune(
            "spmm", problem, max_trials=10, survivors=0, records=store, force=True
        )
        assert not forced.replayed and forced.evaluated > 0

    def test_session_remembers_and_applies_records(self, graph, tmp_path):
        session = Session(persistent=False, tuning_records=tmp_path)
        problem = SpMMProblem(graph, 8)
        result = session.autotune(
            "spmm", problem, max_trials=10, survivors=2, repeats=1
        )
        assert session.tuning_record("spmm", problem).config == result.best_config

        # A second session sharing only the record directory sees the record
        # and applies it through the tuned=True flag with zero re-tuning.
        other = Session(persistent=False, tuning_records=tmp_path)
        overrides = other._tuned_overrides("spmm", problem)
        assert overrides == get_workload("spmm").exec_config(result.best_config)

    def test_replayed_autotune_remembers_record_in_session(self, graph, tmp_path):
        """Direct autotune(session=...) on a warm store: the session must see
        the replayed record, so tuned=True applies it immediately."""
        store = TuningRecordStore(tmp_path)
        problem = SpMMProblem(graph, 8)
        first = autotune(
            "spmm", problem, max_trials=8, survivors=2, repeats=1, records=store
        )
        fresh = Session(persistent=False, tuning_records=False)
        replay = autotune("spmm", problem, session=fresh, records=store)
        assert replay.replayed
        assert fresh.tuning_record("spmm", problem).config == first.best_config

    def test_include_requires_survivors(self, graph):
        with pytest.raises(ValueError, match="requires survivors > 0"):
            autotune(
                "spmm", SpMMProblem(graph, 8), survivors=0,
                include=[{"format": "csr", "num_col_parts": 1,
                          "num_buckets": None, "threads_per_block": 128}],
                records=False,
            )

    def test_infeasible_include_is_skipped_not_measured(self, session):
        """A forced baseline that is infeasible never reaches the runtime."""
        dense = np.zeros((5, 5), dtype=np.float32)
        dense[0, 1] = dense[2, 2] = 1.0
        mask = CSRMatrix.from_dense(dense)
        result = autotune(
            "attention", AttentionProblem(mask, 2, 4), strategy="grid",
            survivors=2, repeats=1, session=session, records=False,
            include=[{"format": "bsr", "block_size": 8}],
        )
        assert result.best_config["format"] == "csr"

    def test_tuned_flag_without_record_keeps_defaults(self, graph, session):
        x = np.random.default_rng(0).standard_normal((graph.cols, 8)).astype(np.float32)
        out = session.spmm(graph, x, tuned=True)  # no record: plain csr path
        np.testing.assert_allclose(out, graph.to_scipy() @ x, atol=1e-4)

    def test_run_many_tuned_lookups_are_memoised(self, graph, tmp_path):
        """A tuned=True run-many loop hits the record store exactly once —
        both the fingerprint and the (possibly negative) lookup are cached."""
        store = TuningRecordStore(tmp_path)
        session = Session(persistent=False, tuning_records=store)
        x = np.ones((graph.cols, 8), dtype=np.float32)
        for _ in range(5):
            session.spmm(graph, x, tuned=True)
        assert store.stats.misses == 1  # negative lookup cached after call 1
        assert len(session._fingerprints) == 1  # one hash per structure

        session.autotune("spmm", SpMMProblem(graph, 8), max_trials=6,
                         survivors=1, repeats=1)
        misses_after_tune = store.stats.misses
        for _ in range(5):
            session.spmm(graph, x, tuned=True)
        assert store.stats.misses == misses_after_tune  # served from memory


_REPLAY_SCRIPT = """
import numpy as np
from repro.runtime.session import Session
from repro.tune import SpMMProblem
from repro.workloads.graphs import generate_adjacency

graph = generate_adjacency(250, 1800, "powerlaw", seed=11)
session = Session(persistent=False)
result = session.autotune("spmm", SpMMProblem(graph, 8), max_trials=10,
                          survivors=2, repeats=1, seed=0)
x = np.ones((graph.cols, 8), dtype=np.float32)
out = session.spmm(graph, x, tuned=True)
assert np.allclose(out, graph.to_scipy() @ x, atol=1e-4)
print("REPLAY", int(result.replayed), result.evaluated, session.stats.runs)
"""


class TestColdProcessReplay:
    def test_fresh_process_replays_with_zero_measurement(self, tmp_path):
        """Acceptance: a cold process re-uses the persisted TuningRecord —
        no cost-model evaluations, no wallclock measurements; only the one
        tuned=True operator call touches the runtime."""
        from repro.tune.records import RECORDS_ENV_VAR

        env = dict(os.environ, **{RECORDS_ENV_VAR: str(tmp_path)})
        env.pop("REPRO_KERNEL_CACHE", None)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")

        def run_once():
            proc = subprocess.run(
                [sys.executable, "-c", _REPLAY_SCRIPT],
                env=env, capture_output=True, text=True, timeout=240,
            )
            assert proc.returncode == 0, proc.stderr
            line = [ln for ln in proc.stdout.splitlines() if ln.startswith("REPLAY")][0]
            return [int(v) for v in line.split()[1:]]

        replayed, evaluated, runs = run_once()
        assert replayed == 0 and evaluated > 0 and runs > 1

        replayed, evaluated, runs = run_once()
        assert replayed == 1, "second process re-tuned instead of replaying"
        assert evaluated == 0, "replay must not re-evaluate the cost model"
        assert runs == 1, "replay must not re-measure (only the tuned call runs)"


class TestTunedBitExactness:
    """Every paper workload: the tuned configuration computes the reference."""

    def test_spmm(self, graph, session):
        problem = SpMMProblem(graph, 16)
        session.autotune("spmm", problem, max_trials=12, survivors=3, repeats=1)
        x = np.random.default_rng(1).standard_normal((graph.cols, 16)).astype(np.float32)
        tuned = session.spmm(graph, x, tuned=True)
        np.testing.assert_allclose(tuned, graph.to_scipy() @ x, atol=1e-3)
        # And the tuned decomposition is exactly equivalent to the default.
        np.testing.assert_allclose(tuned, session.spmm(graph, x), atol=1e-3)

    def test_sddmm(self, graph, session):
        from repro.ops.sddmm import sddmm_reference

        problem = SDDMMProblem(graph, 8)
        session.autotune("sddmm", problem, max_trials=8, survivors=2, repeats=1)
        rng = np.random.default_rng(2)
        x = rng.standard_normal((graph.rows, 8)).astype(np.float32)
        y = rng.standard_normal((8, graph.cols)).astype(np.float32)
        tuned = session.sddmm(graph, x, y, tuned=True)
        np.testing.assert_allclose(tuned, sddmm_reference(graph, x, y), atol=1e-3)

    def test_attention(self, session):
        from repro.ops.batched import batched_sddmm_reference, batched_spmm_reference

        mask = block_mask(size=48, block=8, seed=3)
        problem = AttentionProblem(mask, 2, 8)
        result = session.autotune(
            "attention", problem, strategy="grid", survivors=4, repeats=1
        )
        rng = np.random.default_rng(3)
        q = rng.standard_normal((2, mask.rows, 8)).astype(np.float32)
        k = rng.standard_normal((2, 8, mask.cols)).astype(np.float32)
        v = rng.standard_normal((2, mask.cols, 8)).astype(np.float32)
        scores = session.batched_sddmm(mask, q, k, tuned=True)
        out = session.batched_spmm(mask, v, tuned=True)
        np.testing.assert_allclose(scores, batched_sddmm_reference(mask, q, k), atol=1e-3)
        np.testing.assert_allclose(out, batched_spmm_reference(mask, v), atol=1e-3)
        assert result.best_config["format"] in ("csr", "bsr")

    def test_rgms(self, session):
        rng = np.random.default_rng(4)
        adjacency = CSFTensor.from_dense(
            (rng.random((3, 24, 24)) < 0.15).astype(np.float32)
        )
        problem = RGMSProblem(adjacency, 8, 6)
        session.autotune("rgms", problem, strategy="grid", survivors=2, repeats=1)
        x = rng.standard_normal((24, 8)).astype(np.float32)
        w = rng.standard_normal((3, 8, 6)).astype(np.float32)
        tuned = session.rgms(adjacency, x, w, tuned=True)
        np.testing.assert_allclose(tuned, rgms_reference(adjacency, x, w), atol=1e-3)

    def test_sparse_conv(self, session):
        rng = np.random.default_rng(5)
        maps = []
        for _ in range(7):
            count = int(rng.integers(0, 30))
            pairs = (
                np.stack([rng.integers(0, 40, count), rng.integers(0, 40, count)], axis=1)
                if count
                else np.zeros((0, 2), dtype=np.int64)
            )
            maps.append(pairs)
        problem = SparseConvProblem(40, 40, 6, 5, maps)
        session.autotune("sparse_conv", problem, strategy="grid", survivors=2, repeats=1)
        features = rng.standard_normal((40, 6)).astype(np.float32)
        weights = rng.standard_normal((7, 6, 5)).astype(np.float32)
        tuned = session.sparse_conv(problem, features, weights, tuned=True)
        np.testing.assert_allclose(
            tuned, sparse_conv_reference(problem, features, weights), atol=1e-3
        )

    def test_pruned_spmm(self, graph, session):
        from repro.ops.pruned_spmm import pruned_spmm_reference

        rng = np.random.default_rng(6)
        weights = (rng.random((64, 48)) < 0.2).astype(np.float32)
        weights *= rng.standard_normal((64, 48)).astype(np.float32)
        csr = CSRMatrix.from_dense(weights)
        problem = PrunedSpMMProblem(csr, 8)
        result = session.autotune(
            "pruned_spmm", problem, strategy="grid", survivors=3, repeats=1
        )
        block = result.best_config["block_size"] if result.best_config["format"] != "srbcrs" else 16
        bsr = session.decompose_bsr(csr, block)
        x = rng.standard_normal((bsr.shape[1], 8)).astype(np.float32)
        out = session.pruned_spmm(bsr, x)
        np.testing.assert_allclose(out, pruned_spmm_reference(bsr, x), atol=1e-3)
