"""The persistent on-disk kernel cache: warm starts, corruption, versioning."""

import json
import os
import pickle
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.core.codegen.build import build
from repro.core.codegen.cache import (
    CACHE_ENV_VAR,
    DISK_SCHEMA_VERSION,
    DiskKernelCache,
    KernelCache,
    structural_fingerprint,
)
from repro.core.codegen.emit_c import toolchain_available
from repro.formats.csr import CSRMatrix
from repro.ops.spmm import build_spmm_program, spmm_reference
from repro.runtime.session import Session
from repro.tune.records import TuningRecord, TuningRecordStore


@pytest.fixture
def csr():
    return CSRMatrix.random(rows=16, cols=12, density=0.3, seed=5)


def _build_once(csr, cache, feat=4, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((csr.cols, feat)).astype(np.float32)
    return build(build_spmm_program(csr, feat, x), cache=cache), x


class TestRoundTrip:
    def test_fresh_cache_loads_from_disk(self, csr, tmp_path):
        warm = KernelCache(disk=DiskKernelCache(tmp_path))
        kernel, x = _build_once(csr, warm)
        # Building lowers; NumPy source is emitted when that tier first runs.
        assert warm.stats.lowerings == 1 and warm.stats.emissions == 0
        kernel.run(engine="emitted")
        assert warm.stats.emissions == 1

        cold = KernelCache(disk=DiskKernelCache(tmp_path))
        kernel2, x2 = _build_once(csr, cold, seed=1)
        assert cold.stats.disk_hits == 1 and cold.stats.hits == 1
        # What came back is the structural loop nest; this caller's operands
        # are its kernel's defaults, never the shared entry's.
        assert all(buf.data is None for buf in kernel2.func.buffers)
        assert np.shares_memory(kernel2.defaults["B"], x2)
        out = kernel2.run()["C"].reshape(csr.rows, 4)
        assert kernel2.last_engine in ("native", "emitted")
        assert np.allclose(out, spmm_reference(csr, x2), atol=1e-4)
        # ... and so does the stored source: the emitted tier re-emits nothing.
        assert np.array_equal(kernel2.run(engine="emitted")["C"].reshape(csr.rows, 4), out)
        assert cold.stats.lowerings == 0 and cold.stats.emissions == 0

    def test_entry_files_and_metadata(self, csr, tmp_path):
        cache = KernelCache(disk=DiskKernelCache(tmp_path))
        kernel, _ = _build_once(csr, cache)
        disk = cache.disk
        pkls = list(disk.dir.glob("*.pkl"))
        assert len(pkls) == 1
        key = pkls[0].stem
        meta = json.loads((disk.dir / f"{key}.json").read_text())
        assert meta["schema"] == DISK_SCHEMA_VERSION
        assert meta["fingerprint"] == key
        # The pickle is the program alone; the source is its own file,
        # written when the emitted tier is first asked for.
        assert "source" not in pickle.loads(pkls[0].read_bytes())
        assert not (disk.dir / f"{key}.py").exists()
        source = kernel.emitted_source()
        listing = (disk.dir / f"{key}.py").read_text()
        assert listing.startswith(f"# fingerprint: {key}")
        assert listing.partition("\n")[2] == source and "def make_kernel" in source

    def test_value_arrays_never_persisted(self, csr, tmp_path):
        """Disk entries are structural: no feature/weight data on disk."""
        cache = KernelCache(disk=DiskKernelCache(tmp_path))
        _build_once(csr, cache)
        payload = pickle.loads(next(cache.disk.dir.glob("*.pkl")).read_bytes())
        assert all(buf.data is None for buf in payload["program"].buffers)


class TestCorruptionTolerance:
    def test_truncated_payload_is_a_miss_and_removed(self, csr, tmp_path):
        cache = KernelCache(disk=DiskKernelCache(tmp_path))
        _build_once(csr, cache)
        pkl = next(cache.disk.dir.glob("*.pkl"))
        key = pkl.stem
        pkl.write_bytes(pkl.read_bytes()[: 40])

        cold = DiskKernelCache(tmp_path)
        assert cold.get(key) is None
        assert cold.stats.errors == 1
        assert not pkl.exists()
        # The builder recovers by re-lowering and re-writing the entry.
        fresh = KernelCache(disk=DiskKernelCache(tmp_path))
        kernel, x = _build_once(csr, fresh, seed=2)
        assert fresh.stats.lowerings == 1
        assert np.allclose(
            kernel.run()["C"].reshape(csr.rows, 4), spmm_reference(csr, x), atol=1e-4
        )

    def test_garbage_and_mismatched_payloads(self, csr, tmp_path):
        disk = DiskKernelCache(tmp_path)
        disk.dir.mkdir(parents=True)
        (disk.dir / ("a" * 8 + ".pkl")).write_bytes(b"not a pickle at all")
        assert disk.get("a" * 8) is None
        # A valid pickle of the wrong shape is rejected too.
        (disk.dir / ("b" * 8 + ".pkl")).write_bytes(pickle.dumps(["nonsense"]))
        assert disk.get("b" * 8) is None
        # A renamed (fingerprint-mismatched) entry is rejected.
        cache = KernelCache(disk=DiskKernelCache(tmp_path))
        _build_once(csr, cache)
        real = next(p for p in cache.disk.dir.glob("*.pkl") if p.stem not in ("a" * 8, "b" * 8))
        moved = real.with_name("c" * 8 + ".pkl")
        moved.write_bytes(real.read_bytes())
        assert disk.get("c" * 8) is None
        assert disk.stats.errors == 3

    def test_disk_errors_is_the_disk_layers_own_counter(self, csr, tmp_path):
        """An error counted on a path that passes none of the cache's own
        lookups (here: ``get_source`` and a failing write, called directly) is
        visible through ``cache.stats`` — it reads the counter, it holds no copy."""
        cache = KernelCache(disk=DiskKernelCache(tmp_path))
        kernel, _ = _build_once(csr, cache)
        assert cache.stats.disk_errors == 0
        cache.disk.put_source(kernel._key, "print('x')")
        path = cache.disk._path(kernel._key, ".py")
        path.write_text(path.read_text()[:-3])
        assert cache.disk.get_source(kernel._key) is None
        assert cache.disk.stats.errors == 1 == cache.stats.disk_errors
        cache.clear()
        assert cache.stats.hits == 0 and cache.stats.disk_errors == 1

    def test_disk_events_are_counted_under_a_lock(self, tmp_path):
        """Serving reads the disk layer from several threads at once, outside
        the memory cache's lock: no miss may be lost."""
        disk = DiskKernelCache(tmp_path)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=lambda: [disk.get(f"{n:064d}") for n in range(300)])
                for _ in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert (disk.stats.misses, disk.stats.hits, disk.stats.errors) == (1200, 0, 0)

    def test_tuning_store_events_are_counted_under_a_lock(self, tmp_path):
        """A served session with ``tuned=True`` reads the tuning store from the
        batcher thread and inline threads alike: it counts like the kernel
        store, so no record event may be lost either."""
        store = TuningRecordStore(tmp_path)
        store.put(TuningRecord(fingerprint="f" * 64, workload="spmm", config={"format": "csr"}))
        start = threading.Barrier(4)

        def reads():
            start.wait()
            for n in range(5000):
                assert store.get("f" * 64) is not None
                assert store.get(f"{n:064d}") is None

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=reads) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        stats = store.stats
        assert (stats.hits, stats.misses, stats.errors, stats.writes) == (20000, 20000, 0, 1)

    def test_schema_version_skew_is_a_miss(self, csr, tmp_path):
        cache = KernelCache(disk=DiskKernelCache(tmp_path))
        _build_once(csr, cache)
        pkl = next(cache.disk.dir.glob("*.pkl"))
        payload = pickle.loads(pkl.read_bytes())
        payload["schema"] = DISK_SCHEMA_VERSION + 1
        pkl.write_bytes(pickle.dumps(payload))
        assert DiskKernelCache(tmp_path).get(pkl.stem) is None


class TestEnvironmentControl:
    def test_env_var_disables_and_enables(self, monkeypatch, tmp_path):
        monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
        assert DiskKernelCache.from_env() is None
        monkeypatch.setenv(CACHE_ENV_VAR, "off")
        assert DiskKernelCache.from_env() is None
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path))
        disk = DiskKernelCache.from_env()
        assert disk is not None and disk.root == tmp_path

    def test_session_persistent_flag(self, csr, tmp_path, monkeypatch):
        monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
        session = Session(persistent=tmp_path)
        x = np.ones((csr.cols, 2), dtype=np.float32)
        session.spmm(csr, x)
        assert len(session.cache.disk) == 1
        # persistent=False never touches disk even with the env var set.
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "other"))
        hermetic = Session(persistent=False)
        hermetic.spmm(csr, x)
        assert hermetic.cache.disk is None
        assert not (tmp_path / "other").exists()


_COLD_START_SCRIPT = """
import numpy as np
from repro.formats.csr import CSRMatrix
from repro.runtime.session import Session

rng = np.random.default_rng(0)
dense = (rng.random((40, 30)) < 0.2).astype(np.float32) * rng.standard_normal((40, 30)).astype(np.float32)
csr = CSRMatrix.from_dense(dense)
session = Session()

x = rng.standard_normal((30, 8)).astype(np.float32)
out = session.spmm(csr, x)
assert np.allclose(out, csr.to_scipy() @ x, atol=1e-4)
scores = session.sddmm(csr, rng.standard_normal((40, 4)).astype(np.float32),
                       rng.standard_normal((4, 30)).astype(np.float32))
assert scores.shape == (csr.nnz,)

cache = session.cache.stats
print("STATS", cache.lowerings, cache.emissions, cache.disk_hits,
      session.stats.fast_runs, session.stats.interpreted_runs)
"""


class TestColdProcessWarmStart:
    def test_second_process_recompiles_nothing(self, tmp_path):
        """Acceptance: a cold-process re-run of a paper workload hits the
        on-disk cache with zero lowering and zero emission, and still serves
        every run from a fast tier (native or emitted)."""
        env = dict(os.environ, **{CACHE_ENV_VAR: str(tmp_path)})
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")

        def run_once():
            proc = subprocess.run(
                [sys.executable, "-c", _COLD_START_SCRIPT],
                env=env,
                capture_output=True,
                text=True,
                timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            stats = [
                line for line in proc.stdout.splitlines() if line.startswith("STATS")
            ][0].split()[1:]
            return [int(v) for v in stats]

        # NumPy source is emitted for the kernels the emitted tier serves:
        # both of them without a toolchain, neither with one.
        kernels = 0 if toolchain_available() else 2
        lowerings, emissions, disk_hits, fast_runs, interpreted = run_once()
        assert lowerings == 2 and emissions == kernels and disk_hits == 0
        assert fast_runs == 2 and interpreted == 0
        assert len(list(tmp_path.glob("v*/*.py"))) == kernels

        lowerings, emissions, disk_hits, fast_runs, interpreted = run_once()
        assert lowerings == 0 and emissions == 0, "warm start recompiled something"
        assert disk_hits == 2
        assert fast_runs == 2 and interpreted == 0


class TestFingerprintStability:
    def test_fingerprint_survives_disk_round_trip(self, csr, tmp_path):
        """The persisted program re-fingerprints to its own key (sanity for
        corruption detection based on the fingerprint field)."""
        cache = KernelCache(disk=DiskKernelCache(tmp_path))
        rng = np.random.default_rng(0)
        x = rng.standard_normal((csr.cols, 4)).astype(np.float32)
        func = build_spmm_program(csr, 4, x)
        key = structural_fingerprint(func, {"horizontal_fusion": True})
        build(func, cache=cache)
        assert key in cache.disk
