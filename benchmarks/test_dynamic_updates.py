"""Dynamic-update harness: incremental overlay vs full rebuild.

This harness measures the *dynamic-sparsity tentpole*: the claim that a
structure-update window (a batch of edge edits followed by an SpMM on the
updated matrix) is cheaper through the epoch-versioned delta path —
O(delta) edits plus a base-plan + overlay execution against the *warm*
cached kernel — than through the classical full-rebuild path, which
re-canonicalises the matrix and pays a cold lower/compile for the new
structure every window.

Methodology: each workload streams *update rounds* over a fig-13 graph.
A round inserts ``k`` fresh edges (and, from the second round on, deletes
``k/4`` previously inserted ones), then executes one SpMM on the updated
matrix.  Both modes apply the *same* edit script to their own matrix:

* **incremental** — edits go through :meth:`CSRMatrix.insert_edges` /
  :meth:`~CSRMatrix.delete_edges` (delta log, epoch bump) and the SpMM
  runs as base plan + overlay in a persistent session whose base kernel
  stays warm (the edit volume stays under the auto-compaction threshold,
  so the base snapshot never changes during the window);
* **rebuild** — edits are folded into a fresh canonical ``CSRMatrix``
  (merge + re-validation) and the SpMM runs through a session that has
  never seen the new structure, paying the cold kernel lowering that any
  epoch-unaware cache would pay per mutation.

Rounds run in interleaved pairs (incremental, then rebuild, same edits)
so allocator/cache drift biases neither side; per round each mode's cost
is ``edit + execute`` wall time; the per-workload ratio is
``median(rebuild) / median(incremental)``; every round's two outputs are
asserted bit-exact against each other (the overlay's conformance claim,
see ``tests/test_dynamic.py``).  The incremental session must serve every
measured round from the kernel cache — unchanged-epoch execution does no
compilation — which is asserted, not assumed.

``test_dynamic_smoke`` runs one scaled-down workload for the CI
``dynamic-smoke`` lane (writes ``BENCH_dynamic.smoke.json``);
``test_dynamic_full`` commits ``BENCH_dynamic.json`` with an incremental
speedup geomean gate of 1.3x.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

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


def _bench_workload(graph_name, feat, edits, rounds, seed=42):
    base = synthetic_graph(graph_name).csr
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((base.cols, feat)).astype(np.float32)
    # One warmup round plus the measured rounds, same scripts for both modes.
    scripts = _edit_stream(base, edits, rounds + 1, seed)
    values = [
        rng.standard_normal(len(ins)).astype(np.float32) for ins, _ in scripts
    ]

    inc_session = Session(persistent=False)
    reb_session = Session(persistent=False)
    inc = _fresh_copy(base)
    reb = _fresh_copy(base)

    # Warmup: compile the incremental base kernel and one rebuild kernel.
    _apply(inc, *scripts[0], values[0])
    inc_out = inc_session.spmm(inc, x)
    _apply(reb, *scripts[0], values[0])
    reb.compact()
    reb_out = reb_session.spmm(_fresh_copy(reb), x)
    exact = np.array_equal(inc_out, reb_out)

    misses_before = inc_session.stats.kernel_cache_misses
    hits_before = inc_session.stats.kernel_cache_hits
    inc_s, reb_s = [], []
    for (inserts, deletes), vals in zip(scripts[1:], values[1:]):
        start = time.perf_counter()
        _apply(inc, inserts, deletes, vals)
        inc_out = inc_session.spmm(inc, x)
        inc_s.append(time.perf_counter() - start)

        start = time.perf_counter()
        _apply(reb, inserts, deletes, vals)
        reb.compact()
        rebuilt = _fresh_copy(reb)
        reb_out = reb_session.spmm(rebuilt, x)
        reb_s.append(time.perf_counter() - start)
        exact = exact and np.array_equal(inc_out, reb_out)

    # The dynamic contract: every measured incremental round ran against the
    # warm base kernel — unchanged epoch of the base snapshot, zero compiles.
    warm = inc_session.stats.kernel_cache_misses == misses_before
    kernel_hits = inc_session.stats.kernel_cache_hits - hits_before
    inc_ms = float(np.median(inc_s)) * 1e3
    reb_ms = float(np.median(reb_s)) * 1e3
    return {
        "workload": f"{graph_name}-f{feat}-k{edits}",
        "graph": graph_name,
        "nnz": int(base.nnz),
        "feat": feat,
        "edits_per_round": edits,
        "final_drift": round(inc.drift_ratio, 4),
        "incremental_ms": inc_ms,
        "rebuild_ms": reb_ms,
        "speedup": reb_ms / inc_ms,
        "overlay_runs": inc_session.stats.overlay_runs,
        "warm_kernel_hits": int(kernel_hits),
        "kernel_stayed_warm": bool(warm),
        "bit_exact": bool(exact),
    }


def _run_suite(mode, config, output):
    results = []
    for graph_name, feat, edits in config["workloads"]:
        entry = _bench_workload(graph_name, feat, edits, config["rounds"])
        results.append(entry)
        print(
            f"{entry['workload']:20s} incremental {entry['incremental_ms']:7.2f} ms  "
            f"rebuild {entry['rebuild_ms']:7.2f} ms  x{entry['speedup']:.2f}   "
            f"warm={entry['kernel_stayed_warm']} hits={entry['warm_kernel_hits']} "
            f"exact={entry['bit_exact']}"
        )
        assert entry["bit_exact"], entry["workload"]
        assert entry["kernel_stayed_warm"], entry["workload"]
        assert entry["warm_kernel_hits"] >= config["rounds"]
    speedups = [r["speedup"] for r in results]
    payload = {
        "schema": 1,
        "harness": "benchmarks/test_dynamic_updates.py",
        "mode": mode,
        "numpy": np.__version__,
        "methodology": (
            "interleaved paired update rounds (same edit script both modes); "
            "per-round cost = edits + one SpMM; incremental = delta log + "
            "base-plan/overlay on a warm session, rebuild = compact + fresh "
            "CSRMatrix + cold-structure SpMM; ratio = median(rebuild ms) / "
            "median(incremental ms); outputs asserted bit-exact per round"
        ),
        "results": results,
        "summary": {
            "geomean_incremental_speedup": float(np.exp(np.mean(np.log(speedups)))),
            "min_incremental_speedup": float(min(speedups)),
            "max_incremental_speedup": float(max(speedups)),
        },
    }
    output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {output} (geomean incremental speedup: "
          f"x{payload['summary']['geomean_incremental_speedup']:.2f})")
    return payload


@pytest.mark.figure("dynamic")
def test_dynamic_smoke():
    """One scaled-down update stream for the CI ``dynamic-smoke`` job.

    Smoke asserts the dynamic contract (bit-exact rounds, warm kernel
    cache) but not the speedup gate: at toy sizes the ratio is
    noise-dominated.
    """
    payload = _run_suite("smoke", SMOKE_CONFIG, SMOKE_OUTPUT)
    assert SMOKE_OUTPUT.exists()
    for row in payload["results"]:
        assert row["incremental_ms"] > 0 and row["rebuild_ms"] > 0


@pytest.mark.slow
@pytest.mark.bench  # also auto-applied by benchmarks/conftest.py; explicit here
@pytest.mark.figure("dynamic")
def test_dynamic_full(bench_output):
    """Fig-13-graph update streams; the committed ``BENCH_dynamic.json``
    comes from this run under ``pytest --write-bench``.  Incremental updates
    must beat full rebuilds by >= 1.3x geomean per-round wall time across the
    workloads."""
    payload = _run_suite("full", FULL_CONFIG, bench_output(OUTPUT))
    assert payload["summary"]["geomean_incremental_speedup"] >= 1.3
