"""Dynamic-update contract: the incremental overlay equals a cold rebuild, on a warm kernel.

Each workload streams *update rounds* over a fig-13 graph.  A round inserts
``k`` fresh edges (and, from the second round on, deletes ``k/4`` previously
inserted ones), then executes one SpMM on the updated matrix.  Two sides apply
the *same* edit script:

* **incremental** — edits go through :meth:`CSRMatrix.insert_edges` /
  :meth:`~CSRMatrix.delete_edges` (delta log, epoch bump) and the SpMM runs as
  base plan + row patch of one bound kernel (the edit volume stays under the
  auto-compaction threshold, so the base snapshot never changes);
* **reference** — what a user of the vendor library does with a changing
  graph: ``np.insert`` / ``np.delete`` on sorted ``row * cols + col`` keys,
  then ``scipy.sparse.csr_matrix`` from the rebuilt triplet and ``a @ x``;
  nothing on this side imports ``repro``.

Every round's incremental output must be bit-exact against a cold rebuild — a
fresh ``CSRMatrix`` over the reference's edge list through a session that has
never seen it — and within tolerance of the reference.  After the first
(warm-up) round the incremental session must serve every round from the
kernel cache with no lowering at all: the patch runs through the base's own
kernel.

``test_dynamic_smoke`` runs one scaled-down stream, ``test_dynamic_full`` the
fig-13 streams (``slow``).  Nothing here is timed: edit windows next to the
SciPy rebuild are ``python3 bench/run.py --workload dynamic-mix``.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.formats.csr import CSRMatrix
from repro.runtime.session import Session
from repro.workloads.graphs import synthetic_graph

# graph, feat, edits per round, rounds
SMOKE_STREAMS = [("cora", 4, 32, 3)]

# Small edit batches (well under the 25% auto-compaction threshold across the
# whole run) at the narrow feature widths dynamic graphs live in.
FULL_STREAMS = [
    ("cora", 4, 64, 7),
    ("cora", 8, 64, 7),
    ("citeseer", 4, 64, 7),
    ("citeseer", 8, 64, 7),
    ("pubmed", 4, 128, 7),
]


def _fresh_copy(csr):
    """A private mutable CSRMatrix over the (frozen, shared) graph arrays."""
    return CSRMatrix(csr.shape, csr.indptr, csr.indices, csr.data, dtype=csr.dtype)


def _edit_stream(csr, edits_per_round, rounds, seed):
    """Deterministic per-round edit scripts: (inserts, deletes) coordinate lists.

    Inserts target coordinates absent from the evolving edge set; deletes
    (from the second round on) remove a quarter of the previous round's
    inserts — the churn pattern of a streaming-graph window.
    """
    rng = np.random.default_rng(seed)
    rows = np.repeat(np.arange(csr.rows), np.diff(csr.indptr))
    present = set(zip(rows.tolist(), csr.indices.tolist()))
    scripts = []
    previous = []
    for _ in range(rounds):
        inserts = []
        while len(inserts) < edits_per_round:
            r = int(rng.integers(csr.rows))
            c = int(rng.integers(csr.cols))
            if (r, c) not in present:
                present.add((r, c))
                inserts.append((r, c))
        deletes = previous[: edits_per_round // 4]
        for rc in deletes:
            present.discard(rc)
        scripts.append((inserts, deletes))
        previous = inserts
    return scripts


def _apply(matrix, inserts, deletes, values):
    if inserts:
        matrix.insert_edges([r for r, _ in inserts], [c for _, c in inserts], values)
    if deletes:
        matrix.delete_edges([r for r, _ in deletes], [c for _, c in deletes])


class _EdgeList:
    """The reference's matrix: sorted ``row * cols + col`` keys plus values."""

    def __init__(self, csr):
        self.shape = csr.shape
        rows = np.repeat(np.arange(csr.rows, dtype=np.int64), np.diff(csr.indptr))
        self.keys = rows * csr.cols + csr.indices
        self.vals = np.array(csr.data, copy=True)

    def apply(self, inserts, deletes, values):
        if inserts:
            keys = np.array([r * self.shape[1] + c for r, c in inserts], dtype=np.int64)
            order = np.argsort(keys, kind="stable")
            at = np.searchsorted(self.keys, keys[order])
            self.keys = np.insert(self.keys, at, keys[order])
            self.vals = np.insert(self.vals, at, values[order])
        if deletes:
            keys = np.array([r * self.shape[1] + c for r, c in deletes], dtype=np.int64)
            at = np.searchsorted(self.keys, keys)
            self.keys, self.vals = np.delete(self.keys, at), np.delete(self.vals, at)

    def csr_arrays(self):
        indptr = np.zeros(self.shape[0] + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.keys // self.shape[1], minlength=self.shape[0]), out=indptr[1:])
        return indptr, self.keys % self.shape[1], self.vals


def _check_stream(graph_name, feat, edits, rounds, seed=42):
    workload = f"{graph_name}-f{feat}-k{edits}"
    base = synthetic_graph(graph_name).csr
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((base.cols, feat)).astype(np.float32)
    # One warm-up round plus the checked rounds, same scripts for both sides.
    scripts = _edit_stream(base, edits, rounds + 1, seed)
    values = [rng.standard_normal(len(ins)).astype(np.float32) for ins, _ in scripts]

    session = Session(persistent=False)
    inc = _fresh_copy(base)
    ref = _EdgeList(base)

    def check_round(index):
        _apply(inc, *scripts[index], values[index])
        out = session.spmm(inc, x)
        ref.apply(*scripts[index], values[index])
        indptr, indices, vals = ref.csr_arrays()
        expected = sp.csr_matrix((vals, indices, indptr), shape=ref.shape) @ x
        assert np.allclose(out, expected, rtol=1e-4, atol=1e-4), (workload, index)
        rebuilt = CSRMatrix(ref.shape, indptr, indices, vals, dtype=base.dtype)
        assert np.array_equal(out, Session(persistent=False).spmm(rebuilt, x)), (workload, index)

    # Warm-up: compile the base kernel (and bind the handle the patch reuses).
    check_round(0)
    misses_before = session.stats.kernel_cache_misses
    hits_before = session.stats.kernel_cache_hits
    lowerings_before = session.cache.stats.lowerings
    for index in range(1, rounds + 1):
        check_round(index)

    # Every later round ran against the warm base kernel — base plan and
    # patch alike — with zero compiles.
    assert session.stats.kernel_cache_misses == misses_before, workload
    assert session.cache.stats.lowerings == lowerings_before, workload
    assert session.stats.kernel_cache_hits - hits_before >= rounds, workload


@pytest.mark.figure("dynamic")
def test_dynamic_smoke():
    """One scaled-down update stream: the CI ``contracts-smoke`` lane."""
    for stream in SMOKE_STREAMS:
        _check_stream(*stream)


@pytest.mark.slow
@pytest.mark.figure("dynamic")
def test_dynamic_full():
    """Fig-13-graph update streams."""
    for stream in FULL_STREAMS:
        _check_stream(*stream)
