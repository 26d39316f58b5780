"""``repro.obs.Counters``: the one way the package counts events.

The session, the kernel cache, the persistent stores and each serving tenant
count through a :class:`Counters` subclass.  These tests pin what the
benchmark reads off them (the key sets) and that no update is lost when
several threads count at once.
"""

import runpy
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro._files import StoreStats
from repro.core.codegen.cache import CacheStats
from repro.formats.csr import CSRMatrix
from repro.obs import Counters
from repro.runtime.session import Session, SessionStats
from repro.serve import Server, ServerConfig
from repro.serve.stats import STAGES, ServingStats, TenantStats

ROOT = Path(__file__).resolve().parent.parent
THREADS = 8

#: The keys of ``SessionStats.as_dict()``: ``bench/harness.py`` reports each
#: as ``session.<name>``.
SESSION_NAMES = {
    "builds", "kernel_cache_hits", "kernel_cache_misses", "format_cache_hits",
    "format_cache_misses", "native_runs", "emitted_runs", "interpreted_runs",
    "graph_nodes_fused", "graph_nodes_unfused", "table_rebinds", "stale_plan_reuses",
    "retunes_triggered", "handle_hits", "handle_misses",
}

#: The keys of one tenant of ``Server.snapshot()``, which ``bench/wl_serve.py``
#: reads.
TENANT_KEYS = {
    "requests", "batched_requests", "batches", "mean_occupancy", "cache_hits",
    "degraded_eager", "degraded_inline", "degraded_reasons", "errors", "latency_count",
    "p50_s", "p99_s",
    *(f"{stage}_p{q}_s" for stage in STAGES for q in (50, 99)),
}


def _hammer(worker):
    """Run *worker* on ``THREADS`` threads at a switch interval short enough
    that an unlocked read-modify-write would drop counts."""
    errors = []
    barrier = threading.Barrier(THREADS)

    def wrapped():
        try:
            barrier.wait()
            worker()
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(repr(exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=wrapped) for _ in range(THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors


class TestCounters:
    def test_an_unknown_name_raises_and_counts_nothing(self):
        stats = SessionStats()
        stats.count("builds")
        with pytest.raises(KeyError):
            stats.count("builds", "no_such")
        assert stats.builds == 1

    def test_counters_read_as_attributes_and_a_copy(self):
        stats = CacheStats()
        stats.count("hits", "lowerings", by=3)
        snapshot = stats.as_dict()
        stats.count("hits")
        assert (stats.hits, snapshot["hits"], snapshot["lowerings"]) == (4, 3, 3)
        assert stats.lookups == 4 and stats.hit_rate == 1.0
        assert getattr(stats, "unknown", 0) == 0  # how bench/harness.py reads
        assert repr(stats).startswith("CacheStats(hits=4, misses=0,")

    def test_every_stats_class_is_one_counters(self):
        for cls in (SessionStats, CacheStats, StoreStats, TenantStats):
            assert issubclass(cls, Counters) and len(set(cls.NAMES)) == len(cls.NAMES)


class TestNoLostUpdate:
    PER_THREAD = 2000

    def test_session_stats_from_many_threads(self):
        stats = SessionStats()

        def worker():
            for n in range(self.PER_THREAD):
                stats.count("handle_hits", "builds", "native_runs" if n % 2 else "emitted_runs")
                stats.count("graph_nodes_fused", by=3)

        _hammer(worker)
        total = THREADS * self.PER_THREAD
        assert stats.handle_hits == stats.builds == stats.runs == total
        assert stats.native_runs == stats.emitted_runs == total // 2
        assert stats.graph_nodes_fused == 3 * total

    def test_tenant_stats_from_many_threads(self):
        stats = ServingStats()

        def worker():
            for n in range(self.PER_THREAD):
                stats.record_request(
                    "default", 1e-3, batch_size=2, cache_hit=bool(n % 2),
                    degraded="eager" if n % 4 == 0 else None, reason="E",
                    stages=(0.0, 0.0, 1e-3, 0.0),
                )
                stats.record_batch(["default"], 2)

        _hammer(worker)
        total = THREADS * self.PER_THREAD
        tenant = stats.tenant()
        assert tenant.requests == tenant.batched_requests == tenant.batches == total
        assert tenant.occupancy_sum == 2 * total and tenant.mean_occupancy == 2.0
        assert tenant.cache_hits == total // 2
        assert tenant.degraded_eager == tenant.degraded_reasons["E"] == total // 4
        assert tenant.latency.count == total


class TestBenchmarkKeys:
    """The names the benchmark reads off the counters do not move."""

    def test_session_stats_keys(self):
        session = Session(persistent=False)
        assert set(SessionStats.NAMES) == set(session.stats.as_dict()) == SESSION_NAMES

    def test_cache_counters_are_cache_stats_names(self):
        harness = runpy.run_path(str(ROOT / "bench" / "harness.py"))
        assert set(harness["CACHE_COUNTERS"]) <= set(CacheStats.NAMES)

    def test_server_snapshot_keys(self):
        csr = CSRMatrix.from_dense(np.eye(4, dtype=np.float32))
        x = np.ones((4, 2), dtype=np.float32)
        with Server(session=Session(), config=ServerConfig(linger_s=0.0)) as server:
            server.spmm(csr, x).result(timeout=30)
            assert server.flush(timeout=10)
            assert set(server.snapshot()["default"]) == TENANT_KEYS
