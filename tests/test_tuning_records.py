"""The persistent tuning-record store: round trips, corruption, environment."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.runtime.session import Session
from repro.tune import SpMMProblem, get_workload, task_fingerprint
from repro.tune.records import (
    RECORD_SCHEMA_VERSION,
    RECORDS_ENV_VAR,
    TuningRecord,
    TuningRecordStore,
    resolve_record_store,
)
from repro.workloads.graphs import generate_adjacency


@pytest.fixture
def record():
    return TuningRecord(
        fingerprint="f" * 16,
        workload="spmm",
        config={"format": "hyb", "num_col_parts": 4, "num_buckets": None},
        predicted_us=12.5,
        measured_s=0.0003,
        evaluated=40,
        strategy="evolutionary",
        seed=7,
        metadata={"device": "V100"},
    )


class TestRoundTrip:
    def test_put_get(self, record, tmp_path):
        store = TuningRecordStore(tmp_path)
        store.put(record)
        assert record.fingerprint in store
        assert len(store) == 1
        loaded = store.get(record.fingerprint)
        assert loaded is not None
        assert loaded.config == record.config
        assert loaded.predicted_us == record.predicted_us
        assert loaded.measured_s == record.measured_s
        assert loaded.strategy == "evolutionary"
        assert store.stats.writes == 1 and store.stats.hits == 1

    def test_json_is_human_readable(self, record, tmp_path):
        store = TuningRecordStore(tmp_path)
        store.put(record)
        path = store.dir / f"{record.fingerprint}.json"
        payload = json.loads(path.read_text())
        assert payload["schema"] == RECORD_SCHEMA_VERSION
        assert payload["workload"] == "spmm"
        assert payload["config"]["num_buckets"] is None

    def test_tuple_configs_normalise_to_lists(self, tmp_path):
        store = TuningRecordStore(tmp_path)
        record = TuningRecord("a" * 8, "rgms", {"widths": (1, 2, 4)})
        store.put(record)
        assert store.get("a" * 8).config["widths"] == [1, 2, 4]

    def test_miss_returns_none(self, tmp_path):
        store = TuningRecordStore(tmp_path)
        assert store.get("missing") is None
        assert store.stats.misses == 1

    def test_numpy_scalar_configs_persist(self, tmp_path):
        """Configs assembled from numpy candidates serialise like plain ints."""
        import numpy as np

        store = TuningRecordStore(tmp_path)
        record = TuningRecord(
            "d" * 8,
            "spmm",
            {
                "num_col_parts": np.int64(4),
                "scale": np.float32(0.5),
                "widths": np.array([1, 2, 4]),
            },
        )
        store.put(record)
        assert store.stats.errors == 0 and store.stats.writes == 1
        loaded = store.get("d" * 8)
        assert loaded.config == {"num_col_parts": 4, "scale": 0.5, "widths": [1, 2, 4]}

    def test_unserialisable_config_is_swallowed(self, tmp_path):
        """put() is best-effort: a bad config costs the record, not the run."""
        store = TuningRecordStore(tmp_path)
        store.put(TuningRecord("e" * 8, "spmm", {"callback": object()}))
        assert store.stats.errors == 1 and store.stats.writes == 0
        assert store.get("e" * 8) is None


class TestCorruptionTolerance:
    def test_truncated_json_is_a_miss_and_removed(self, record, tmp_path):
        store = TuningRecordStore(tmp_path)
        store.put(record)
        path = store.dir / f"{record.fingerprint}.json"
        path.write_text(path.read_text()[:25])
        cold = TuningRecordStore(tmp_path)
        assert cold.get(record.fingerprint) is None
        assert cold.stats.errors == 1
        assert not path.exists()

    def test_schema_skew_is_a_miss(self, record, tmp_path):
        store = TuningRecordStore(tmp_path)
        store.put(record)
        path = store.dir / f"{record.fingerprint}.json"
        payload = json.loads(path.read_text())
        payload["schema"] = RECORD_SCHEMA_VERSION + 1
        path.write_text(json.dumps(payload))
        assert TuningRecordStore(tmp_path).get(record.fingerprint) is None

    def test_renamed_record_rejected(self, record, tmp_path):
        store = TuningRecordStore(tmp_path)
        store.put(record)
        src = store.dir / f"{record.fingerprint}.json"
        dst = store.dir / ("0" * 16 + ".json")
        dst.write_text(src.read_text())
        cold = TuningRecordStore(tmp_path)
        assert cold.get("0" * 16) is None
        assert cold.stats.errors == 1


class TestEnvironmentControl:
    def test_env_var_disables_and_enables(self, monkeypatch, tmp_path):
        monkeypatch.delenv(RECORDS_ENV_VAR, raising=False)
        assert TuningRecordStore.from_env() is None
        monkeypatch.setenv(RECORDS_ENV_VAR, "off")
        assert TuningRecordStore.from_env() is None
        monkeypatch.setenv(RECORDS_ENV_VAR, str(tmp_path))
        store = TuningRecordStore.from_env()
        assert store is not None and store.root == tmp_path

    def test_resolve_record_store(self, monkeypatch, tmp_path):
        monkeypatch.delenv(RECORDS_ENV_VAR, raising=False)
        assert resolve_record_store(None) is None
        assert resolve_record_store(False) is None
        assert resolve_record_store(tmp_path).root == tmp_path
        explicit = TuningRecordStore(tmp_path)
        assert resolve_record_store(explicit) is explicit
        monkeypatch.setenv(RECORDS_ENV_VAR, str(tmp_path / "env"))
        assert resolve_record_store(None).root == tmp_path / "env"
        # False wins over the environment.
        assert resolve_record_store(False) is None


_WRITER_SCRIPT = """
import sys
from repro.tune.records import TuningRecord, TuningRecordStore

root, rounds = sys.argv[1], int(sys.argv[2])
store = TuningRecordStore(root)
for i in range(rounds):
    store.put(TuningRecord("c" * 16, "spmm", {"format": "csr"}, evaluated=i + 1))
print("DONE", store.stats.writes)
"""


class TestAtomicWrites:
    def test_concurrent_reader_never_sees_partial_state(self, tmp_path):
        """A reader polling while another process rewrites a record sees
        either a miss or a whole record — never a torn file."""
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
                record = reader.get("c" * 16)
                if record is not None:
                    observed.append(record.evaluated)
        finally:
            stdout, stderr = proc.communicate(timeout=120)
        assert proc.returncode == 0, stderr
        assert f"DONE {rounds}" in stdout
        # get() validates the whole payload and discards a file it rejects,
        # so a torn read would show as an error and a missing later record.
        assert reader.stats.errors == 0
        assert observed and observed == sorted(observed)
        final = TuningRecordStore(tmp_path).get("c" * 16)
        assert final is not None and final.evaluated == rounds
        assert not list(tmp_path.rglob("*.tmp"))


class TestOlderStore:
    def test_store_with_learned_metadata_and_corpus_replays(self, tmp_path):
        """A root written before the learned cost model was removed: its record
        carries that model's metadata and a ``corpus-v1/`` sits beside it."""
        problem = SpMMProblem(generate_adjacency(120, 700, "powerlaw", seed=5), 8)
        spec = get_workload("spmm")
        fingerprint = task_fingerprint(spec, problem)
        config = {"format": "hyb", "num_col_parts": 1, "num_buckets": None,
                  "threads_per_block": 128}
        assert spec.space(problem).contains(config)
        record = {
            "schema": 1, "fingerprint": fingerprint, "workload": "spmm",
            "config": config, "predicted_us": 12.5, "measured_s": 0.0003,
            "evaluated": 24, "strategy": "evolutionary", "seed": 0,
            "metadata": {
                "device": "V100", "space_size": 96, "cost_model": "hybrid",
                "corpus_samples": 12, "transfer_from": "a" * 64,
                "transfer_distance": 0.05, "transferred": False,
            },
        }
        corpus = {
            "schema": 1, "fingerprint": fingerprint, "workload": "spmm",
            "feature_version": 1, "task_features": [1.0] * 18,
            "entries": [{"features": [0.5] * 18, "predicted_us": 12.5,
                         "measured_s": 0.0003, "config": config}],
        }
        for directory, payload in (("v1", record), ("corpus-v1", corpus)):
            (tmp_path / directory).mkdir()
            (tmp_path / directory / f"{fingerprint}.json").write_text(json.dumps(payload))

        store = TuningRecordStore(tmp_path)
        session = Session(persistent=False, tuning_records=store)
        result = session.autotune("spmm", problem)
        assert result.replayed and result.evaluated == 0
        assert result.timed_runs == 0 and session.stats.runs == 0
        assert result.best_config == config and result.best_measured_s == 0.0003
        assert result.record.metadata["cost_model"] == "hybrid"
        assert len(store) == 1
        store.clear()
        assert list(store.dir.iterdir()) == []
        assert (tmp_path / "corpus-v1" / f"{fingerprint}.json").exists()
