"""Dynamic-update harness: the incremental overlay against an outside reference.

This harness measures the *dynamic-sparsity tentpole*: a structure-update
window (a batch of edge edits followed by an SpMM on the updated matrix)
through the epoch-versioned delta path — array-at-a-time edits on the row
patch, then the base plan plus one patch call of the same bound kernel — next
to what a user of the vendor library does with a changing graph: keep a
sorted edge list, rebuild a SciPy CSR from it and multiply.  (Until PR 16 the
denominator was our own cold-structure rebuild; a ratio of two of our own
paths is the kind of gate ``ROADMAP.md`` retires.)

Methodology: each workload streams *update rounds* over a fig-13 graph.
A round inserts ``k`` fresh edges (and, from the second round on, deletes
``k/4`` previously inserted ones), then executes one SpMM on the updated
matrix.  Both sides apply the *same* edit script:

* **incremental** — edits go through :meth:`CSRMatrix.insert_edges` /
  :meth:`~CSRMatrix.delete_edges` (delta log, epoch bump) and the SpMM
  runs as base plan + row patch in a persistent session whose base kernel
  stays warm (the edit volume stays under the auto-compaction threshold,
  so the base snapshot never changes during the window);
* **reference** — edits are ``np.insert`` / ``np.delete`` on sorted
  ``row * cols + col`` keys, then ``scipy.sparse.csr_matrix`` from the
  rebuilt triplet and ``a @ x``; nothing on this side imports ``repro``.

Rounds run in interleaved pairs (incremental, then reference, same edits)
so allocator/cache drift biases neither side; per round each side's cost
is ``edit + execute`` wall time; the per-workload ratio is
``median(incremental) / median(reference)`` (lower is better, absolute ms of
both are reported next to it).  Every round's incremental output is asserted
bit-exact against an untimed cold rebuild — a fresh ``CSRMatrix`` over the
reference's edge list through a session that has never seen it — and within
tolerance of the reference.  The incremental session must serve every
measured round from the kernel cache with no lowering at all (asserted, not
assumed): the patch runs through the base's own kernel.

``test_dynamic_smoke`` runs one scaled-down workload for the CI
``dynamic-smoke`` lane (writes ``BENCH_dynamic.smoke.json``);
``test_dynamic_full`` commits ``BENCH_dynamic.json`` with a geomean gate of
at most 2.5x the reference's window.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from repro.formats.csr import CSRMatrix
from repro.runtime.session import Session
from repro.workloads.graphs import synthetic_graph

_ROOT = Path(__file__).resolve().parent.parent
#: The committed perf-trajectory file; only the full-mode run writes it.
OUTPUT = _ROOT / "BENCH_dynamic.json"
#: Smoke runs write a sibling (gitignored) file so a local smoke run never
#: clobbers the committed full-mode numbers; CI renames it before upload.
SMOKE_OUTPUT = _ROOT / "BENCH_dynamic.smoke.json"

SMOKE_CONFIG = {
    # graph, feat, edits per round
    "workloads": [("cora", 4, 32)],
    "rounds": 3,
}

FULL_CONFIG = {
    # Update-window shapes on the fig-13 graphs: small edit batches (well
    # under the 25% auto-compaction threshold across the whole run) and the
    # narrow feature widths where per-window compile cost is not amortised
    # away by a huge execute — exactly the regime dynamic graphs live in.
    "workloads": [
        ("cora", 4, 64),
        ("cora", 8, 64),
        ("citeseer", 4, 64),
        ("citeseer", 8, 64),
        ("pubmed", 4, 128),
    ],
    "rounds": 7,
}


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
    present = set(
        (int(r), int(c))
        for r, c in zip(
            np.repeat(np.arange(csr.rows), np.diff(csr.indptr)), csr.indices
        )
    )
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
        matrix.insert_edges(
            [r for r, _ in inserts], [c for _, c in inserts], values
        )
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


def _bench_workload(graph_name, feat, edits, rounds, seed=42):
    base = synthetic_graph(graph_name).csr
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((base.cols, feat)).astype(np.float32)
    # One warmup round plus the measured rounds, same scripts for both sides.
    scripts = _edit_stream(base, edits, rounds + 1, seed)
    values = [
        rng.standard_normal(len(ins)).astype(np.float32) for ins, _ in scripts
    ]

    session = Session(persistent=False)
    inc = _fresh_copy(base)
    ref = _EdgeList(base)

    def ours(index):
        _apply(inc, *scripts[index], values[index])
        return session.spmm(inc, x)

    def reference(index):
        ref.apply(*scripts[index], values[index])
        indptr, indices, vals = ref.csr_arrays()
        return sp.csr_matrix((vals, indices, indptr), shape=ref.shape) @ x

    def cold_rebuild():
        indptr, indices, vals = ref.csr_arrays()
        rebuilt = CSRMatrix(ref.shape, indptr, indices, vals, dtype=base.dtype)
        return Session(persistent=False).spmm(rebuilt, x)

    # Warmup: compile the base kernel (and bind the handle the patch reuses).
    out, expected = ours(0), reference(0)
    exact = np.array_equal(out, cold_rebuild())
    close = np.allclose(out, expected, rtol=1e-4, atol=1e-4)

    misses_before = session.stats.kernel_cache_misses
    hits_before = session.stats.kernel_cache_hits
    lowerings_before = session.cache.stats.lowerings
    inc_s, ref_s = [], []
    for index in range(1, rounds + 1):
        start = time.perf_counter()
        out = ours(index)
        inc_s.append(time.perf_counter() - start)

        start = time.perf_counter()
        expected = reference(index)
        ref_s.append(time.perf_counter() - start)
        exact = exact and np.array_equal(out, cold_rebuild())
        close = close and np.allclose(out, expected, rtol=1e-4, atol=1e-4)

    # The dynamic contract: every measured incremental round ran against the
    # warm base kernel — base plan and patch alike — with zero compiles.
    warm = session.stats.kernel_cache_misses == misses_before
    kernel_hits = session.stats.kernel_cache_hits - hits_before
    inc_ms = float(np.median(inc_s)) * 1e3
    ref_ms = float(np.median(ref_s)) * 1e3
    return {
        "workload": f"{graph_name}-f{feat}-k{edits}",
        "graph": graph_name,
        "nnz": int(base.nnz),
        "feat": feat,
        "edits_per_round": edits,
        "final_drift": round(inc.drift_ratio, 4),
        "incremental_ms": inc_ms,
        "reference_ms": ref_ms,
        "ref_ratio": inc_ms / ref_ms,
        "overlay_runs": session.stats.overlay_runs,
        "warm_kernel_hits": int(kernel_hits),
        "kernel_stayed_warm": bool(warm),
        "lowerings_in_rounds": int(session.cache.stats.lowerings - lowerings_before),
        "bit_exact": bool(exact),
        "matches_reference": bool(close),
    }


def _run_suite(mode, config, output):
    results = []
    for graph_name, feat, edits in config["workloads"]:
        entry = _bench_workload(graph_name, feat, edits, config["rounds"])
        results.append(entry)
        print(
            f"{entry['workload']:20s} incremental {entry['incremental_ms']:7.3f} ms  "
            f"scipy rebuild {entry['reference_ms']:7.3f} ms  ours/ref {entry['ref_ratio']:.2f}   "
            f"warm={entry['kernel_stayed_warm']} hits={entry['warm_kernel_hits']} "
            f"exact={entry['bit_exact']}"
        )
        assert entry["bit_exact"], entry["workload"]
        assert entry["matches_reference"], entry["workload"]
        assert entry["kernel_stayed_warm"], entry["workload"]
        assert entry["lowerings_in_rounds"] == 0, entry["workload"]
        assert entry["warm_kernel_hits"] >= config["rounds"]
    ratios = [r["ref_ratio"] for r in results]
    payload = {
        "schema": 2,
        "harness": "benchmarks/test_dynamic_updates.py",
        "mode": mode,
        "numpy": np.__version__,
        "methodology": (
            "interleaved paired update rounds (same edit script both sides); "
            "per-round cost = edits + one SpMM; incremental = delta log + "
            "base plan and row patch through one bound kernel on a warm "
            "session, reference = np.insert/np.delete on a sorted edge list + "
            "scipy.sparse.csr_matrix rebuild + a @ x; ref_ratio = "
            "median(incremental ms) / median(reference ms), lower is better; "
            "outputs asserted bit-exact per round against an untimed cold "
            "rebuild and within tolerance of the reference"
        ),
        "results": results,
        "summary": {
            "geomean_ref_ratio": float(np.exp(np.mean(np.log(ratios)))),
            "min_ref_ratio": float(min(ratios)),
            "max_ref_ratio": float(max(ratios)),
        },
    }
    output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {output} (geomean ours / SciPy edge-list rebuild: "
          f"x{payload['summary']['geomean_ref_ratio']:.2f})")
    return payload


@pytest.mark.figure("dynamic")
def test_dynamic_smoke():
    """One scaled-down update stream for the CI ``dynamic-smoke`` job.

    Smoke asserts the dynamic contract (bit-exact rounds, warm kernel
    cache, no lowering) but not the ratio gate: at toy sizes the ratio is
    noise-dominated.
    """
    payload = _run_suite("smoke", SMOKE_CONFIG, SMOKE_OUTPUT)
    assert SMOKE_OUTPUT.exists()
    for row in payload["results"]:
        assert row["incremental_ms"] > 0 and row["reference_ms"] > 0


@pytest.mark.slow
@pytest.mark.bench  # also auto-applied by benchmarks/conftest.py; explicit here
@pytest.mark.figure("dynamic")
def test_dynamic_full(bench_output):
    """Fig-13-graph update streams; the committed ``BENCH_dynamic.json``
    comes from this run under ``pytest --write-bench``.  An incremental
    window must stay within 2.5x (geomean) of the SciPy edge-list rebuild of
    the same window."""
    payload = _run_suite("full", FULL_CONFIG, bench_output(OUTPUT))
    assert payload["summary"]["geomean_ref_ratio"] <= 2.5
