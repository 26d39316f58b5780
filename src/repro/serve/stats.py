"""Per-tenant serving statistics.

The serving runtime attributes every request to a *tenant* (an opaque
string, default ``"default"``) and keeps one :class:`TenantStats` record per
tenant: request and batch counters, degradation counters (with the reason a
coalesced launch degraded), kernel-cache attribution and bounded reservoirs
of request latency and of its four stages from which p50/p99 are read.
:class:`ServingStats` is the thread-safe registry the server and the
batching helpers write through; :meth:`ServingStats.snapshot` renders
everything into plain dictionaries for logging or benchmark payloads.
"""

from __future__ import annotations

import threading
from collections import Counter
from typing import Dict, Optional, Sequence

import numpy as np

#: Size of each per-tenant latency reservoir (ring buffer).
DEFAULT_RESERVOIR = 4096

#: The stages a request's latency splits into, in the order it crosses them:
#: submitted -> dequeued by the batcher -> launch started -> launch ended ->
#: its future resolved.  The four sum to the request's latency.
STAGES = ("queue_wait", "linger", "launch", "resolve")


class LatencyReservoir:
    """A fixed-size ring buffer of latency samples (seconds).

    Percentiles are computed over the retained window, so long-running
    servers report *recent* latency rather than an all-time aggregate, and
    memory stays bounded no matter how many requests flow through.
    """

    __slots__ = ("_buf", "_count")

    def __init__(self, capacity: int = DEFAULT_RESERVOIR):
        if capacity <= 0:
            raise ValueError("reservoir capacity must be positive")
        self._buf = np.empty(capacity, dtype=np.float64)
        self._count = 0

    def add(self, seconds: float) -> None:
        self._buf[self._count % len(self._buf)] = seconds
        self._count += 1

    @property
    def count(self) -> int:
        """Total samples ever recorded (not the retained window size)."""
        return self._count

    def percentile(self, q: float) -> Optional[float]:
        """The *q*-th percentile of the retained window (``None`` if empty)."""
        filled = min(self._count, len(self._buf))
        if filled == 0:
            return None
        return float(np.percentile(self._buf[:filled], q))


class TenantStats:
    """Counters and latency for a single tenant."""

    __slots__ = (
        "requests",
        "batched_requests",
        "batches",
        "occupancy_sum",
        "cache_hits",
        "degraded_eager",
        "degraded_inline",
        "degraded_reasons",
        "errors",
        "latency",
        "stages",
    )

    def __init__(self):
        #: Requests completed (successfully or not) for this tenant.
        self.requests = 0
        #: Requests that executed inside a coalesced batch of size > 1.
        self.batched_requests = 0
        #: Coalesced batch launches that contained at least one of this
        #: tenant's requests.
        self.batches = 0
        #: Sum of batch sizes over ``batches`` (mean occupancy = sum/batches).
        self.occupancy_sum = 0
        #: Requests whose group build was served from the kernel cache.
        self.cache_hits = 0
        #: Requests that fell back from a failed batch to eager execution.
        self.degraded_eager = 0
        #: Requests executed inline on the caller thread (queue full, or
        #: left on the queue by ``close()``).
        self.degraded_inline = 0
        #: ``degraded_eager`` split by why the coalesced launch failed: the
        #: type name of the exception it raised.
        self.degraded_reasons: Counter = Counter()
        #: Requests that completed with an exception.
        self.errors = 0
        self.latency = LatencyReservoir()
        #: One reservoir per entry of :data:`STAGES`.
        self.stages = {stage: LatencyReservoir() for stage in STAGES}

    @property
    def mean_occupancy(self) -> Optional[float]:
        if self.batches == 0:
            return None
        return self.occupancy_sum / self.batches

    @property
    def p50(self) -> Optional[float]:
        return self.latency.percentile(50)

    @property
    def p99(self) -> Optional[float]:
        return self.latency.percentile(99)

    def as_dict(self) -> Dict[str, object]:
        stages = {
            f"{stage}_p{q}_s": samples.percentile(q)
            for stage, samples in self.stages.items()
            for q in (50, 99)
        }
        return {
            "requests": self.requests,
            "batched_requests": self.batched_requests,
            "batches": self.batches,
            "mean_occupancy": self.mean_occupancy,
            "cache_hits": self.cache_hits,
            "degraded_eager": self.degraded_eager,
            "degraded_inline": self.degraded_inline,
            "degraded_reasons": dict(self.degraded_reasons),
            "errors": self.errors,
            "latency_count": self.latency.count,
            "p50_s": self.p50,
            "p99_s": self.p99,
            **stages,
        }


class ServingStats:
    """Thread-safe per-tenant statistics registry.

    Every mutation happens under one lock; the batcher thread, inline
    fallbacks on caller threads and the benchmark harness all write through
    the same instance.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._tenants: Dict[str, TenantStats] = {}

    def _tenant(self, tenant: str) -> TenantStats:
        stats = self._tenants.get(tenant)
        if stats is None:
            stats = self._tenants[tenant] = TenantStats()
        return stats

    def tenant(self, tenant: str = "default") -> TenantStats:
        """The (live) stats record for *tenant*, created on first use."""
        with self._lock:
            return self._tenant(tenant)

    def record_request(
        self,
        tenant: str,
        latency_s: float,
        *,
        batch_size: int = 1,
        cache_hit: bool = False,
        degraded: Optional[str] = None,
        reason: Optional[str] = None,
        error: bool = False,
        stages: Sequence[float],
    ) -> None:
        """Record one completed request.

        ``batch_size`` is the size of the coalesced group the request ran
        in (1 for eager/inline execution); ``degraded`` is ``None``,
        ``"eager"`` or ``"inline"``, and ``reason`` says why a coalesced
        launch degraded to eager.  ``stages`` are the seconds spent in each
        of :data:`STAGES`.
        """
        with self._lock:
            stats = self._tenant(tenant)
            stats.requests += 1
            if batch_size > 1:
                stats.batched_requests += 1
            if cache_hit:
                stats.cache_hits += 1
            if degraded == "eager":
                stats.degraded_eager += 1
                if reason is not None:
                    stats.degraded_reasons[reason] += 1
            elif degraded == "inline":
                stats.degraded_inline += 1
            if error:
                stats.errors += 1
            stats.latency.add(latency_s)
            for samples, seconds in zip(stats.stages.values(), stages):
                samples.add(seconds)

    def record_batch(self, tenants, size: int) -> None:
        """Record one coalesced batch launch touching the given *tenants*.

        Each distinct tenant in the batch counts the launch once, with the
        full batch size as its occupancy sample.
        """
        with self._lock:
            for tenant in set(tenants):
                stats = self._tenant(tenant)
                stats.batches += 1
                stats.occupancy_sum += size

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """All tenants' stats as plain dictionaries (JSON-ready)."""
        with self._lock:
            return {name: stats.as_dict() for name, stats in self._tenants.items()}
