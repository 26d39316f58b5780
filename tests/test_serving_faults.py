"""Fault injection for the serving runtime: stampedes, death, corruption.

The claims under test:

* **Single flight** — N cold builders of one structure (threads of one
  process, or spawned worker processes sharing a disk cache directory)
  perform exactly *one* lowering between them; everyone else adopts the
  built entry.
* **Worker death** — a worker killed mid-request is detected, its in-flight
  tasks are resubmitted to survivors, and when nobody survives the pool
  degrades to inline execution on the calling process.  The queue never
  wedges: ``run_tasks`` always returns (or raises :class:`WorkerDied`).
* **Corruption** — a garbage payload in the shared disk cache is detected,
  counted, and rebuilt around; a held flight lock can only ever delay a
  builder (duplicate lowering after the timeout), never deadlock it.
"""

import os
import threading
import time

import numpy as np
import pytest

from repro.core.codegen.cache import DiskKernelCache, KernelCache
from repro.formats.csr import CSRMatrix
from repro.ops.spmm import spmm_reference
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
        assert stats.flight_builds == 1


class TestProcessStampede:
    def test_cold_workers_share_one_lowering(self, tmp_path):
        """4 cold worker processes, one shared cache dir, simultaneous
        release: exactly one lowering total; everyone's answer is identical."""
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
        # The heart of the claim: one lowering across all four processes.
        assert sum(res["lowerings"] for res in results) == 1
        baseline = results[0]["out"]
        for res in results[1:]:
            assert np.array_equal(res["out"], baseline)
        assert np.allclose(baseline, spmm_reference(csr, x), atol=1e-4)
        # The shared directory holds the single built entry (plus its
        # never-unlinked .flight lock file).
        disk = DiskKernelCache(tmp_path)
        assert len(disk) == 1


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


class TestFlightTimeout:
    def test_held_flight_lock_times_out_to_duplicate_build(self, tmp_path):
        """A flight lock held elsewhere (e.g. a hung process) delays a waiter
        at most `timeout` seconds, after which it proceeds as owner —
        degradation is a duplicate lowering, never a deadlock."""
        cache = KernelCache(disk=DiskKernelCache(tmp_path))
        holder = DiskKernelCache(tmp_path)
        handle = holder.try_lock_flight("deadbeef")
        assert isinstance(handle, int)
        try:
            start = time.monotonic()
            flight = cache.begin_flight("deadbeef", timeout=0.2)
            waited = time.monotonic() - start
            assert flight.owner and flight.entry is None
            flight.done()
            assert waited < 5.0
            assert cache.stats.flight_timeouts == 1
        finally:
            holder.unlock_flight(handle)

    def test_flight_lock_released_on_done(self, tmp_path):
        cache = KernelCache(disk=DiskKernelCache(tmp_path))
        flight = cache.begin_flight("cafef00d")
        assert flight.owner
        flight.done()
        # The lock is free again: a second claimant succeeds immediately.
        second = DiskKernelCache(tmp_path)
        handle = second.try_lock_flight("cafef00d")
        assert isinstance(handle, int)
        second.unlock_flight(handle)
        # Lock files survive (never unlinked) but are not cache entries.
        assert len(DiskKernelCache(tmp_path)) == 0
        assert (cache.disk.dir / "cafef00d.flight").exists()
