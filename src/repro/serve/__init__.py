"""Serving runtime: async request batching in one process.

A serving layer in front of :class:`~repro.runtime.session.Session` /
:class:`~repro.graph.compile.CompiledGraph` (see ``docs/serving.md``):

* :class:`Server` — async front-end with a bounded request queue and a
  coalescing batcher thread: concurrent same-structure requests execute as
  one launch (``spmm`` over their concatenated feature columns,
  ``batched_sddmm``), bit-exact with sequential eager execution, with
  graceful degradation (eager, then inline) when a batch fails or the
  queue is full.
* :class:`ServingStats` — per-tenant request/batch/cache counters, why
  batches degraded, and latency split into its stages.

Threads of the process share one lowering per structure; processes that
share a persistent cache directory share its artifacts
(``docs/runtime.md``).
"""

from .batching import (
    DEFAULT_MAX_BATCH,
    DEFAULT_MAX_LANES,
    ServeRequest,
    coalesce,
    execute_eager,
    make_call_request,
    make_sddmm_request,
    make_spmm_request,
    run_group,
)
from .server import Server, ServerConfig
from .stats import LatencyReservoir, ServingStats, TenantStats

__all__ = [
    "DEFAULT_MAX_BATCH",
    "DEFAULT_MAX_LANES",
    "LatencyReservoir",
    "ServeRequest",
    "Server",
    "ServerConfig",
    "ServingStats",
    "TenantStats",
    "coalesce",
    "execute_eager",
    "make_call_request",
    "make_sddmm_request",
    "make_spmm_request",
    "run_group",
]
