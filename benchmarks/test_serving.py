"""Serving contract: a coalesced burst answers exactly what eager calls answer.

A burst of same-structure requests through the coalescing
:class:`~repro.serve.Server` is one ``Session.spmm`` launch per group over
the requests' packed feature columns, where eager :meth:`Session.spmm` is
one call per request.  Each workload offers one wave
of N requests over a fig-13 graph to a server and the same N to an eager
session: every served result must be ``np.array_equal`` to its eager
counterpart, and the server must actually have coalesced
(``mean_occupancy > 1``).

Batching is not free at every size: past roughly 1.5M total lanes the
coalesced working set falls out of cache — the server's lane budget chunks
groups to stay inside the winning regime, and the configurations below are the
burst shapes serving coalesces in practice (small-to-medium graphs, narrow
features).

``test_serving_smoke`` runs one scaled-down wave, ``test_serving_full`` the
fig-13 bursts (``slow``).  Nothing here is timed: open-loop latency next to a
SciPy loop is ``python3 bench/run.py --workload serve-burst`` / ``serve-trickle``.
"""

import numpy as np
import pytest

from repro.runtime.session import Session
from repro.serve import Server, ServerConfig
from repro.workloads.graphs import synthetic_graph

# graph, feat, requests per wave, max_batch
SMOKE_WORKLOADS = [("cora", 4, 16, 16)]

# The per-workload max_batch keeps each launch inside its graph's lane budget
# (pubmed's nnz is ~8x cora's, so its groups stay smaller).
FULL_WORKLOADS = [
    ("cora", 4, 32, 16),
    ("cora", 8, 32, 8),
    ("citeseer", 4, 32, 16),
    ("citeseer", 8, 32, 8),
    ("pubmed", 4, 16, 8),
]


def _check_wave(graph_name, feat, requests, max_batch):
    workload = f"{graph_name}-f{feat}-n{requests}"
    csr = synthetic_graph(graph_name).csr
    rng = np.random.default_rng(42)
    feats = [rng.standard_normal((csr.cols, feat)).astype(np.float32) for _ in range(requests)]
    eager = Session(persistent=False)
    server = Server(
        session=Session(persistent=False),
        config=ServerConfig(linger_s=0.001, max_batch=max_batch),
    )
    try:
        # The whole wave is offered before any result is awaited.
        futures = [server.spmm(csr, x) for x in feats]
        served = [future.result(timeout=300) for future in futures]
        occupancy = server.snapshot()["default"]["mean_occupancy"]
    finally:
        server.close()
    for out, x in zip(served, feats):
        assert np.array_equal(out, eager.spmm(csr, x, dtype="float32")), workload
    assert occupancy and occupancy > 1.0, workload


@pytest.mark.figure("serving")
def test_serving_smoke():
    """One scaled-down wave: the CI ``contracts-smoke`` lane."""
    for workload in SMOKE_WORKLOADS:
        _check_wave(*workload)


@pytest.mark.slow
@pytest.mark.figure("serving")
def test_serving_full():
    """Fig-13-graph burst workloads."""
    for workload in FULL_WORKLOADS:
        _check_wave(*workload)
