"""Fault injection for the serving runtime: stampedes, death, corruption.

The claims under test:

* **Single flight** — N threads of one process building one cold structure
  perform exactly *one* lowering between them, and a lowering that raises
  frees the structure for the next builder.  Spawned worker processes
  sharing a disk cache directory each lower for themselves, agree bit for
  bit and leave one set of files.
* **Worker death** — a worker killed mid-request is detected, its in-flight
  tasks are resubmitted to survivors, and when nobody survives the pool
  degrades to inline execution on the calling process.  The queue never
  wedges: ``run_tasks`` always returns (or raises :class:`WorkerDied`).
* **Corruption** — a garbage payload in the shared disk cache is detected,
  counted, and rebuilt around.
"""

import threading
import time

import numpy as np
import pytest

from repro.core.codegen.build import build
from repro.core.codegen.cache import DiskKernelCache, KernelCache
from repro.core.codegen.native import toolchain_available
from repro.formats.csr import CSRMatrix
from repro.ops.spmm import build_spmm_program, spmm_reference
from repro.runtime.session import Session
from repro.serve import WorkerDied, WorkerPool, spmm_sharded
from repro.serve.workers import _csr_payload


def _csr(seed=0, rows=40, cols=32, density=0.2):
    rng = np.random.default_rng(seed)
    dense = (rng.random((rows, cols)) < density).astype(np.float32)
    dense *= rng.random((rows, cols)).astype(np.float32)
    return CSRMatrix.from_dense(dense)


def _sync_pool(pool, workers, deadline_s=30.0):
    """Wait until every worker process has booted and served a ping.

    Spawned workers import the package cold, so the first seconds of a
    pool's life are racy: one fast worker could otherwise swallow several
    tasks meant to land one-per-worker.  Rounds of held pings (``delay_s``)
    are re-issued until one round comes back from *workers* distinct pids.
    """
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        results = pool.run_tasks(
            [{"kind": "ping", "delay_s": 0.3} for _ in range(workers)], timeout=30
        )
        pids = {res["pid"] for res in results if res["ok"]}
        if len(pids) == workers:
            return pids
    raise AssertionError(f"pool never reached {workers} live workers")


class TestThreadStampede:
    def test_cold_threads_share_one_lowering(self):
        """8 threads racing a cold session: exactly one lowering happens."""
        csr = _csr(seed=1)
        session = Session(persistent=False)
        rng = np.random.default_rng(2)
        x = rng.standard_normal((csr.cols, 4)).astype(np.float32)
        expected = spmm_reference(csr, x)
        threads_n = 8
        barrier = threading.Barrier(threads_n)
        errors = []

        def worker():
            try:
                barrier.wait()
                out = session.spmm(csr, x)
                assert np.allclose(out, expected, atol=1e-4)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(repr(exc))

        threads = [threading.Thread(target=worker) for _ in range(threads_n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors
        stats = session.cache.stats
        assert stats.lowerings == 1
        # Every call is a kernel-cache lookup, or (a thread scheduled after
        # the first one finished) a hit on the handle that one memoised.
        assert stats.hits + stats.misses + session.stats.handle_hits == threads_n

    def test_failed_lowering_frees_its_key(self, monkeypatch):
        """The first lowering raises while a second thread waits on its key:
        the waiter is not stranded, it lowers the program itself."""
        import repro.core.stage2.lowering as lowering

        real = lowering.lower_sparse_iterations
        entered, release = threading.Event(), threading.Event()
        calls = []

        def fails_first(func):
            calls.append(threading.current_thread().name)
            if len(calls) == 1:
                entered.set()
                release.wait(timeout=30)
                raise RuntimeError("injected lowering failure")
            return real(func)

        monkeypatch.setattr(lowering, "lower_sparse_iterations", fails_first)
        csr = _csr(seed=15)
        x = np.random.default_rng(16).standard_normal((csr.cols, 4)).astype(np.float32)
        cache = KernelCache(disk=None)
        outcome = {}

        def builder(who):
            try:
                outcome[who] = build(build_spmm_program(csr, 4, x), cache=cache)
            except Exception as exc:
                outcome[who] = exc

        owner = threading.Thread(target=builder, args=("owner",), daemon=True)
        owner.start()
        assert entered.wait(timeout=30)
        waiter = threading.Thread(target=builder, args=("waiter",), daemon=True)
        waiter.start()
        # Let the waiter miss and queue on the key's lock before the owner fails.
        deadline = time.monotonic() + 30
        while cache.stats.misses < 2 and time.monotonic() < deadline:
            time.sleep(0.001)
        release.set()
        owner.join(timeout=30)
        waiter.join(timeout=30)
        assert not waiter.is_alive(), "a failed lowering kept its key locked"
        assert isinstance(outcome["owner"], RuntimeError)
        assert not outcome["waiter"].cache_hit and len(calls) == 2
        out = outcome["waiter"].run()["C"].reshape(csr.rows, 4)
        assert np.allclose(out, spmm_reference(csr, x), atol=1e-4)
        assert cache.stats.lowerings == 1 and cache._lowerings == {}
        # The stored entry serves the next build.
        assert build(build_spmm_program(csr, 4, x), cache=cache).cache_hit


class TestProcessStampede:
    def test_cold_workers_agree_and_share_one_set_of_files(self, tmp_path):
        """4 cold worker processes, one shared cache dir, simultaneous
        release: each may lower for itself, but every answer is correct and
        identical, and the directory holds one file of each kind."""
        workers = 4
        csr = _csr(seed=3)
        rng = np.random.default_rng(4)
        x = rng.standard_normal((csr.cols, 4)).astype(np.float32)
        with WorkerPool(workers, cache_dir=tmp_path) as pool:
            pids = _sync_pool(pool, workers)
            barrier = time.time() + 0.5
            tasks = [
                {
                    "kind": "spmm",
                    "csr": _csr_payload(csr),
                    "features": x,
                    "not_before": barrier,
                }
                for _ in range(workers)
            ]
            results = pool.run_tasks(tasks, timeout=120)
        assert all(res["ok"] for res in results), results
        assert {res["pid"] for res in results} == pids
        assert len(pids) == workers
        assert all(res["lowerings"] <= 1 for res in results)
        baseline = results[0]["out"]
        for res in results[1:]:
            assert np.array_equal(res["out"], baseline)
        assert np.allclose(baseline, spmm_reference(csr, x), atol=1e-4)
        # Atomic writes and a text-named shared object: however many workers
        # lowered and compiled, one program, one record, one artifact.
        artifact = ".so" if toolchain_available() else ".py"
        files = sorted(path.suffix for path in DiskKernelCache(tmp_path).dir.iterdir())
        assert files == sorted([".pkl", ".json", artifact]), files


class TestWorkerDeath:
    def test_killed_worker_requests_are_retried(self, tmp_path):
        """Kill one of two workers mid-request: both requests still complete
        (the survivor picks up the resubmitted task) and nothing wedges."""
        csr = _csr(seed=5)
        rng = np.random.default_rng(6)
        x = rng.standard_normal((csr.cols, 3)).astype(np.float32)
        expected = spmm_reference(csr, x)
        with WorkerPool(2, cache_dir=tmp_path) as pool:
            _sync_pool(pool, 2)
            victim = pool.processes[0]
            killer = threading.Timer(0.5, victim.kill)
            killer.start()
            try:
                tasks = [
                    {
                        "kind": "spmm",
                        "csr": _csr_payload(csr),
                        "features": x,
                        "delay_s": 1.5,
                    }
                    for _ in range(2)
                ]
                results = pool.run_tasks(tasks, timeout=60)
            finally:
                killer.cancel()
            assert not victim.is_alive()
            assert pool.retries >= 1
        assert all(res["ok"] for res in results), results
        for res in results:
            assert np.allclose(res["out"], expected, atol=1e-4)
            assert res["pid"] != victim.pid  # the survivor answered both

    def test_all_workers_dead_degrades_inline(self, tmp_path):
        """Kill the whole pool mid-request: the fallback executes every task
        inline on the calling process instead of wedging the queue."""
        csr = _csr(seed=7)
        rng = np.random.default_rng(8)
        x = rng.standard_normal((csr.cols, 3)).astype(np.float32)
        expected = spmm_reference(csr, x)
        with WorkerPool(2, cache_dir=tmp_path) as pool:
            _sync_pool(pool, 2)
            for proc in pool.processes:
                proc.kill()
            for proc in pool.processes:
                proc.join(timeout=10)
            assert pool.alive() == 0
            out = spmm_sharded(csr, x, num_col_parts=2, pool=pool, timeout=60)
        assert np.allclose(out, expected, rtol=1e-5, atol=1e-6)

    def test_all_workers_dead_without_fallback_raises(self, tmp_path):
        with WorkerPool(1, cache_dir=tmp_path) as pool:
            _sync_pool(pool, 1)
            pool.processes[0].kill()
            with pytest.raises(WorkerDied):
                pool.run_tasks([{"kind": "ping"}], timeout=30)

    def test_crash_task_kills_worker_but_not_pool(self, tmp_path):
        """A task that hard-exits its worker is itself retried-then-degraded;
        later tasks still run (on survivors or inline)."""
        csr = _csr(seed=9)
        rng = np.random.default_rng(10)
        x = rng.standard_normal((csr.cols, 2)).astype(np.float32)
        with WorkerPool(1, cache_dir=tmp_path) as pool:
            _sync_pool(pool, 1)
            fell_back = []

            def fallback(task):
                fell_back.append(task["kind"])
                if task["kind"] == "crash":
                    return None
                raise AssertionError("only the crash task should degrade")

            results = pool.run_tasks([{"kind": "crash"}], timeout=30, fallback=fallback)
            assert results[0]["ok"] and results[0].get("degraded")
            assert fell_back == ["crash"]
            # The pool is dead but spmm_sharded still answers (inline path).
            out = spmm_sharded(csr, x, num_col_parts=2, pool=pool, timeout=30)
        assert np.allclose(out, spmm_reference(csr, x), rtol=1e-5, atol=1e-6)


class TestDiskCorruption:
    def test_corrupt_entry_is_rebuilt(self, tmp_path):
        """Garbage bytes in a shared cache entry: detected, counted, rebuilt."""
        csr = _csr(seed=11)
        rng = np.random.default_rng(12)
        x = rng.standard_normal((csr.cols, 4)).astype(np.float32)
        warm = Session(persistent=tmp_path)
        expected = warm.spmm(csr, x)
        payloads = list(warm.cache.disk.dir.glob("*.pkl"))
        assert payloads
        for payload in payloads:
            payload.write_bytes(b"not a pickle")
        cold = Session(persistent=tmp_path)
        out = cold.spmm(csr, x)
        assert np.array_equal(out, expected)
        assert cold.cache.disk.stats.errors >= 1
        assert cold.cache.stats.lowerings == 1  # rebuilt around the corruption
        # The rebuilt entry replaced the garbage: a third session warm-starts.
        rebuilt = Session(persistent=tmp_path)
        assert np.array_equal(rebuilt.spmm(csr, x), expected)
        assert rebuilt.cache.stats.lowerings == 0

    def test_corrupt_entry_in_worker_pool(self, tmp_path):
        """Workers sharing a poisoned cache dir still answer correctly."""
        csr = _csr(seed=13)
        rng = np.random.default_rng(14)
        x = rng.standard_normal((csr.cols, 3)).astype(np.float32)
        warm = Session(persistent=tmp_path)
        expected = warm.spmm(csr, x)
        poisoned = list(warm.cache.disk.dir.glob("*.pkl"))
        assert poisoned
        for payload in poisoned:
            payload.write_bytes(b"\x00garbage\x00")
        with WorkerPool(2, cache_dir=tmp_path) as pool:
            _sync_pool(pool, 2)
            results = pool.run_tasks(
                [
                    {"kind": "spmm", "csr": _csr_payload(csr), "features": x}
                    for _ in range(2)
                ],
                timeout=60,
            )
        assert all(res["ok"] for res in results)
        for res in results:
            assert np.array_equal(res["out"], expected)
