"""Serving runtime: async request batching + multi-process sharding.

A serving layer in front of :class:`~repro.runtime.session.Session` /
:class:`~repro.graph.compile.CompiledGraph` (see ``docs/serving.md``):

* :class:`Server` — async front-end with a bounded request queue and a
  coalescing batcher thread: concurrent same-structure requests execute as
  one launch (``spmm`` over their concatenated feature columns,
  ``batched_sddmm``), bit-exact with sequential eager execution, with
  graceful degradation (eager, then inline) when a batch fails or the
  queue saturates.
* :class:`WorkerPool` / :func:`spmm_sharded` — multi-process sharding of
  large workloads over contiguous column ranges (``num_col_parts`` as the
  shard key), with the persistent kernel cache as shared warm state: the
  workers share its artifacts, and each lowers a cold structure for itself.
* :class:`ServingStats` — per-tenant request/batch/cache counters, why
  batches degraded, and latency split into its stages.
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
from .server import Server, ServerConfig, ServerSaturated
from .stats import LatencyReservoir, ServingStats, TenantStats
from .workers import (
    WorkerDied,
    WorkerPool,
    csr_col_slice,
    split_col_parts,
    spmm_sharded,
)

__all__ = [
    "DEFAULT_MAX_BATCH",
    "DEFAULT_MAX_LANES",
    "LatencyReservoir",
    "ServeRequest",
    "Server",
    "ServerConfig",
    "ServerSaturated",
    "ServingStats",
    "TenantStats",
    "WorkerDied",
    "WorkerPool",
    "coalesce",
    "csr_col_slice",
    "execute_eager",
    "make_call_request",
    "make_sddmm_request",
    "make_spmm_request",
    "run_group",
    "split_col_parts",
    "spmm_sharded",
]
