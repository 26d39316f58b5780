"""Concurrency: threads sharing a Session / KernelCache must never corrupt it.

The kernel cache is hit from model code (one session shared across layers),
the tuner, and benchmark sweeps; any of those may run under a thread pool.
These tests hammer the same cache from multiple threads — same structure
(racing on one entry, including the lazy emitted-runner compile) and mixed
structures (racing on LRU bookkeeping and disk write-through) — and assert
that every thread saw bit-correct results and the cache ended consistent.
"""

import sys
import threading

import numpy as np

from repro.core.codegen.build import build
from repro.core.codegen.cache import DiskKernelCache, KernelCache
from repro.core.program import STAGE_LOOP
from repro.formats.csr import CSRMatrix
from repro.ops.spmm import build_spmm_program, spmm_reference
from repro.runtime.session import Session

THREADS = 8
ROUNDS = 10


def _run_threads(worker):
    errors = []
    barrier = threading.Barrier(THREADS)

    def wrapped(tid):
        try:
            barrier.wait()
            worker(tid)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append((tid, repr(exc)))

    threads = [threading.Thread(target=wrapped, args=(tid,)) for tid in range(THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors, errors


class TestSharedSession:
    def test_same_structure_from_many_threads(self):
        csr = CSRMatrix.random(rows=20, cols=16, density=0.25, seed=0)
        session = Session(persistent=False)
        rng = np.random.default_rng(1)
        features = [rng.standard_normal((16, 4)).astype(np.float32) for _ in range(THREADS)]
        expected = [spmm_reference(csr, x) for x in features]

        def worker(tid):
            for _ in range(ROUNDS):
                out = session.spmm(csr, features[tid])
                assert np.allclose(out, expected[tid], atol=1e-4)

        _run_threads(worker)
        # Every thread raced on ONE structural entry; the cache must hold it
        # exactly once and every call is accounted for — by a cache lookup
        # or by a hit on the bound-kernel handle a lookup produced.
        assert len(session.cache) == 1
        stats = session.cache.stats
        assert stats.hits + stats.misses + session.stats.handle_hits == THREADS * ROUNDS
        assert stats.misses >= 1
        assert session.stats.builds == THREADS * ROUNDS
        assert (
            session.stats.kernel_cache_hits + session.stats.kernel_cache_misses
            == THREADS * ROUNDS
        )
        assert session.stats.runs == THREADS * ROUNDS

    def test_mixed_structures_with_eviction(self):
        session = Session(persistent=False)
        session.cache.capacity = 4  # force LRU churn under contention
        matrices = [
            CSRMatrix.random(rows=10 + i, cols=12, density=0.3, seed=i) for i in range(6)
        ]
        rng = np.random.default_rng(2)
        feats = rng.standard_normal((12, 3)).astype(np.float32)
        expected = [spmm_reference(m, feats) for m in matrices]

        def worker(tid):
            for round_ in range(ROUNDS):
                index = (tid + round_) % len(matrices)
                out = session.spmm(matrices[index], feats)
                assert np.allclose(out, expected[index], atol=1e-4)

        _run_threads(worker)
        assert len(session.cache) <= 4


class TestDiskWriteThrough:
    def test_concurrent_writers_leave_no_partial_entries(self, tmp_path):
        """Atomic write-rename: concurrent put/get of the same keys must only
        ever observe complete payloads."""
        csr = CSRMatrix.random(rows=18, cols=14, density=0.3, seed=3)
        feats = np.ones((14, 2), dtype=np.float32)
        func = build_spmm_program(csr, 2, feats)

        def worker(tid):
            # Each thread gets its own in-memory cache but shares the disk
            # directory, so every round exercises the disk read/write paths.
            cache = KernelCache(disk=DiskKernelCache(tmp_path))
            session = Session(cache=cache)
            for _ in range(ROUNDS):
                out = session.run(func)["C"].reshape(csr.rows, 2)
                assert np.allclose(out, spmm_reference(csr, feats), atol=1e-4)

        _run_threads(worker)
        disk = DiskKernelCache(tmp_path)
        assert len(disk) == 1
        # No temp files left behind, and the surviving entry loads cleanly.
        leftovers = [p for p in disk.dir.iterdir() if p.suffix == ".tmp"]
        assert not leftovers
        key = next(iter(disk.dir.glob("*.pkl"))).stem
        entry = disk.get(key)
        assert entry is not None and entry.lowered.stage == STAGE_LOOP
        assert disk.stats.errors == 0


class TestFirstDispatch:
    def test_threads_racing_on_one_entry_emit_once(self, tmp_path):
        """Eight kernels over one cache entry first-dispatch the emitted tier
        together: the entry lock lets one of them emit, store and plan; the
        rest reuse its runner."""
        csr = CSRMatrix.random(rows=18, cols=14, density=0.3, seed=5)
        feats = np.ones((14, 2), dtype=np.float32)
        cache = KernelCache(disk=DiskKernelCache(tmp_path))
        kernels = [build(build_spmm_program(csr, 2, feats), cache=cache) for _ in range(THREADS)]
        assert cache.stats.lowerings == 1 and cache.stats.emissions == 0
        outs = [None] * THREADS

        def worker(tid):
            outs[tid] = kernels[tid].run(engine="emitted")["C"]

        _run_threads(worker)
        assert cache.stats.emissions == 1
        assert len({id(kernel._runner("emitted")) for kernel in kernels}) == 1
        assert len(list(cache.disk.dir.glob("*.py"))) == 1
        expected = kernels[0].run(engine="interpret")["C"]
        assert all(np.array_equal(out, expected) for out in outs)


class TestCompileSideCounters:
    def test_counters_bumped_from_many_threads_lose_no_update(self):
        """``lowerings`` / ``emissions`` / ``native_hits`` / ``native_rebuilds``
        are bumped on whichever thread builds, and tests and the benchmark's
        traced pass assert exact values: they go through ``KernelCache.count``,
        under the cache lock.  More threads than cores and a switch interval
        short enough that an unlocked read-modify-write would drop counts."""
        cache = KernelCache(disk=None)
        per_thread = 4000
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            def worker(tid):
                for n in range(per_thread):
                    cache.count("emissions" if n % 2 else "lowerings")
                    cache.count("native_hits", by=2)

            _run_threads(worker)
        finally:
            sys.setswitchinterval(interval)
        stats = cache.stats
        assert stats.lowerings == stats.emissions == THREADS * per_thread // 2
        assert stats.native_hits == 2 * THREADS * per_thread
