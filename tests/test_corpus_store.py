"""The measurement-corpus layer of the tuning-record store.

Mirrors the record-store fault battery (``test_tuning_records.py``):
truncated or corrupt corpus files are misses not crashes, schema and
feature-version skew discard the file, writes are atomic even against a
concurrent reader in another process, and training over a fixed corpus is
deterministic down to byte-identical weights.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.sim.learned import FEATURE_VERSION, RidgeCostModel
from repro.tune import SpMMProblem, autotune
from repro.tune.records import (
    CORPUS_MAX_ENTRIES,
    CORPUS_SCHEMA_VERSION,
    TuningRecordStore,
)
from repro.tune.transfer import train_from_corpus
from repro.workloads.graphs import generate_adjacency

FP = "c" * 16


def entry(i, features=None):
    return {
        "features": features if features is not None else [float(i), float(i) + 0.5, 1.0],
        "predicted_us": 10.0 + i,
        "measured_s": 0.001 * (i + 1),
        "config": {"format": "csr", "threads_per_block": 64 + i},
    }


def fill(store, count, fingerprint=FP, workload="spmm"):
    store.add_corpus(
        fingerprint,
        workload,
        [entry(i) for i in range(count)],
        task_features=[1.0, 2.0, 3.0],
        feature_version=FEATURE_VERSION,
    )


class TestRoundTrip:
    def test_add_get(self, tmp_path):
        store = TuningRecordStore(tmp_path)
        fill(store, 3)
        payload = store.get_corpus(FP, FEATURE_VERSION)
        assert payload is not None
        assert payload["workload"] == "spmm"
        assert payload["task_features"] == [1.0, 2.0, 3.0]
        assert len(payload["entries"]) == 3
        assert payload["entries"][0]["predicted_us"] == 10.0
        assert store.stats.corpus_writes == 1 and store.stats.corpus_hits == 1
        assert store.corpus_fingerprints() == [FP]
        assert store.corpus_size() == 1

    def test_append_accumulates_and_caps(self, tmp_path):
        store = TuningRecordStore(tmp_path)
        fill(store, 2)
        fill(store, 2)
        payload = store.get_corpus(FP)
        assert len(payload["entries"]) == 4
        store.add_corpus(
            FP, "spmm", [entry(i) for i in range(5)],
            feature_version=FEATURE_VERSION, cap=3,
        )
        payload = store.get_corpus(FP)
        assert len(payload["entries"]) == 3  # most recent kept
        assert payload["entries"][-1]["predicted_us"] == 14.0

    def test_miss_returns_none(self, tmp_path):
        store = TuningRecordStore(tmp_path)
        assert store.get_corpus("missing") is None
        assert store.stats.corpus_misses == 1
        assert store.corpus_fingerprints() == []

    def test_workload_mismatch_resets(self, tmp_path):
        store = TuningRecordStore(tmp_path)
        fill(store, 4, workload="spmm")
        fill(store, 1, workload="sddmm")
        payload = store.get_corpus(FP)
        assert payload["workload"] == "sddmm"
        assert len(payload["entries"]) == 1

    def test_records_and_corpus_are_separate_namespaces(self, tmp_path):
        store = TuningRecordStore(tmp_path)
        fill(store, 1)
        assert store.get(FP) is None  # no tuning record, only corpus
        assert len(store) == 0
        store.clear()
        assert store.get_corpus(FP) is None

    def test_default_cap_is_bounded(self):
        assert 0 < CORPUS_MAX_ENTRIES <= 4096


class TestCorruptionTolerance:
    def test_truncated_json_is_a_miss_and_removed(self, tmp_path):
        store = TuningRecordStore(tmp_path)
        fill(store, 2)
        path = store.corpus_dir / f"{FP}.json"
        path.write_text(path.read_text()[:40])
        cold = TuningRecordStore(tmp_path)
        assert cold.get_corpus(FP) is None
        assert cold.stats.corpus_errors == 1
        assert not path.exists()

    def test_schema_skew_is_a_miss(self, tmp_path):
        store = TuningRecordStore(tmp_path)
        fill(store, 2)
        path = store.corpus_dir / f"{FP}.json"
        payload = json.loads(path.read_text())
        payload["schema"] = CORPUS_SCHEMA_VERSION + 1
        path.write_text(json.dumps(payload))
        assert TuningRecordStore(tmp_path).get_corpus(FP) is None
        assert not path.exists()

    def test_feature_version_skew_is_a_miss(self, tmp_path):
        store = TuningRecordStore(tmp_path)
        store.add_corpus(FP, "spmm", [entry(0)], feature_version=FEATURE_VERSION + 7)
        assert store.get_corpus(FP, FEATURE_VERSION) is None
        assert store.stats.corpus_errors == 1
        # without a version pin the payload is still readable
        store.add_corpus(FP, "spmm", [entry(0)], feature_version=99)
        assert store.get_corpus(FP)["feature_version"] == 99

    def test_renamed_corpus_rejected(self, tmp_path):
        store = TuningRecordStore(tmp_path)
        fill(store, 1)
        src = store.corpus_dir / f"{FP}.json"
        dst = store.corpus_dir / ("0" * 16 + ".json")
        dst.write_text(src.read_text())
        cold = TuningRecordStore(tmp_path)
        assert cold.get_corpus("0" * 16) is None
        assert cold.stats.corpus_errors == 1

    def test_malformed_entries_rejected(self, tmp_path):
        store = TuningRecordStore(tmp_path)
        fill(store, 1)
        path = store.corpus_dir / f"{FP}.json"
        payload = json.loads(path.read_text())
        payload["entries"][0]["measured_s"] = "fast"
        path.write_text(json.dumps(payload))
        assert TuningRecordStore(tmp_path).get_corpus(FP) is None

    def test_unserialisable_entry_swallowed(self, tmp_path):
        store = TuningRecordStore(tmp_path)
        bad = entry(0)
        bad["config"] = {"callback": object()}
        store.add_corpus(FP, "spmm", [bad], feature_version=FEATURE_VERSION)
        assert store.stats.corpus_errors >= 1
        assert store.get_corpus(FP) is None


_WRITER_SCRIPT = """
import sys
from repro.sim.learned import FEATURE_VERSION
from repro.tune.records import TuningRecordStore

root, rounds = sys.argv[1], int(sys.argv[2])
store = TuningRecordStore(root)
for i in range(rounds):
    store.add_corpus(
        "c" * 16,
        "spmm",
        [{
            "features": [float(i)] * 8,
            "predicted_us": 1.0 + i,
            "measured_s": 0.001 * (i + 1),
            "config": {"threads_per_block": 64},
        }],
        task_features=[1.0] * 8,
        feature_version=FEATURE_VERSION,
    )
print("DONE", store.stats.corpus_writes)
"""


class TestAtomicWrites:
    def test_concurrent_reader_never_sees_partial_state(self, tmp_path):
        """A reader polling while another process rewrites the corpus sees
        either a miss or a fully valid payload — never a torn file."""
        rounds = 40
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-c", _WRITER_SCRIPT, str(tmp_path), str(rounds)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        reader = TuningRecordStore(tmp_path)
        observed = []
        try:
            while proc.poll() is None:
                payload = reader.get_corpus(FP, FEATURE_VERSION)
                if payload is not None:
                    # get_corpus validated the whole payload; record growth.
                    observed.append(len(payload["entries"]))
        finally:
            stdout, stderr = proc.communicate(timeout=120)
        assert proc.returncode == 0, stderr
        assert f"DONE {rounds}" in stdout
        # A validation failure would have *deleted* the file mid-run and the
        # writer's next read-extend-rewrite would restart from scratch; a
        # monotone entry count proves every observed snapshot was complete.
        assert observed == sorted(observed)
        final = TuningRecordStore(tmp_path).get_corpus(FP, FEATURE_VERSION)
        assert final is not None and len(final["entries"]) == rounds
        assert not list(TuningRecordStore(tmp_path).corpus_dir.glob("*.tmp"))


class TestDeterministicTraining:
    def test_same_corpus_yields_byte_identical_weights(self, tmp_path):
        rng = np.random.default_rng(3)
        store = TuningRecordStore(tmp_path)
        for fp_index in range(3):
            entries = [
                entry(i, features=[float(v) for v in rng.standard_normal(6)])
                for i in range(8)
            ]
            store.add_corpus(
                f"{fp_index}" * 16, "spmm", entries,
                task_features=[float(fp_index)] * 6,
                feature_version=FEATURE_VERSION,
            )
        a = train_from_corpus(TuningRecordStore(tmp_path), "spmm", min_samples=4)
        b = train_from_corpus(TuningRecordStore(tmp_path), "spmm", min_samples=4)
        assert a is not None and b is not None
        assert np.array_equal(a.weights, b.weights)
        assert json.dumps(a.to_json(), sort_keys=True) == json.dumps(
            b.to_json(), sort_keys=True
        )

    def test_training_skips_other_workloads_and_small_corpora(self, tmp_path):
        store = TuningRecordStore(tmp_path)
        fill(store, 6, workload="sddmm")
        assert train_from_corpus(store, "spmm", min_samples=4) is None
        assert train_from_corpus(None) is None
        assert train_from_corpus(store, "sddmm", min_samples=4) is not None


class TestAutotuneIntegration:
    def test_phase2_runs_populate_the_corpus(self, tmp_path):
        graph = generate_adjacency(120, 700, "powerlaw", seed=5)
        store = TuningRecordStore(tmp_path)
        result = autotune(
            "spmm", SpMMProblem(graph, 8), records=store,
            strategy="random", max_trials=8, survivors=3, repeats=1, seed=0,
        )
        assert result.measured_configs > 0
        assert result.timed_runs >= result.measured_configs
        payload = store.get_corpus(result.fingerprint, FEATURE_VERSION)
        assert payload is not None
        assert payload["workload"] == "spmm"
        assert len(payload["entries"]) == result.measured_configs
        assert payload["task_features"] is not None
        for item in payload["entries"]:
            assert item["predicted_us"] > 0 and item["measured_s"] > 0

    def test_predict_only_runs_write_no_corpus(self, tmp_path):
        graph = generate_adjacency(120, 700, "powerlaw", seed=5)
        store = TuningRecordStore(tmp_path)
        result = autotune(
            "spmm", SpMMProblem(graph, 8), records=store,
            strategy="random", max_trials=8, survivors=0, seed=0,
        )
        assert result.measured_configs == 0 and result.timed_runs == 0
        assert store.get_corpus(result.fingerprint) is None

    def test_replay_with_corpus_trains_nothing(self, tmp_path):
        graph = generate_adjacency(120, 700, "powerlaw", seed=5)
        store = TuningRecordStore(tmp_path)
        problem = SpMMProblem(graph, 8)
        autotune("spmm", problem, records=store, strategy="random",
                 max_trials=8, survivors=3, repeats=1, seed=0)
        before = RidgeCostModel.fit_count
        replay = autotune("spmm", problem, records=store, cost_model="hybrid")
        assert replay.replayed
        assert RidgeCostModel.fit_count == before, "replay must not retrain"
