"""Backend-tier wall-clock harness: interpreter / emitted / native.

Unlike the other benchmark modules (which drive the GPU *performance model*),
this harness measures real execution time of the three dispatch tiers on the
executable fig-13 (graph SpMM), fig-14 (graph SDDMM) and fig-16
(sparse-attention) workloads, and writes ``BENCH_backends.json`` at the
repository root — the perf trajectory the CI ``bench-smoke`` job uploads as
an artifact.

Two entry points share one implementation: ``test_backend_smoke`` runs tiny
shapes (seconds; the CI smoke lane), ``test_backend_full`` runs the
paper-scale shapes and is additionally marked ``slow``.  Kernels are built
once per structure through a :class:`Session` (compile-once), then each tier
is timed on the cached kernel; the interpreter is skipped (reported as
``null``) above a lane budget where a single scalar-interpreted run would
dominate the whole harness.

The native (compiled C) column needs care the slower tiers do not: its
margin over the emitted tier is the one this harness gates on, and both
closures co-reside in one process whose allocator/cache state drifts over a
run.  Native and emitted are therefore measured in *interleaved paired
rounds* (alternate single runs, median per tier) and the reported ratio is
``median(emitted) / median(native)`` — the same methodology as
``benchmarks/test_graph_fusion.py``.  On a machine without a C toolchain
the native column is recorded as ``null`` and the harness still passes
(graceful fallback is part of the acceptance contract).  Every workload
with a native run also asserts bit-exact (``np.array_equal``) agreement
with the emitted tier.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.codegen import UnsupportedForEmission
from repro.ops.batched import build_batched_sddmm_program, build_batched_spmm_program
from repro.ops.sddmm import build_sddmm_program
from repro.ops.spmm import build_spmm_hyb_program, build_spmm_program
from repro.runtime.session import Session
from repro.workloads.attention import band_mask
from repro.workloads.graphs import generate_adjacency

_ROOT = Path(__file__).resolve().parent.parent
#: The committed perf-trajectory file; only the full-mode run writes it.
OUTPUT = _ROOT / "BENCH_backends.json"
#: Smoke runs write a sibling (gitignored) file so a local smoke run never
#: clobbers the committed full-mode numbers; CI renames it before upload.
SMOKE_OUTPUT = _ROOT / "BENCH_backends.smoke.json"

#: Above this many lanes (iteration-space points) a scalar-interpreted run is
#: minutes long; the harness reports ``null`` for the interpreter instead.
INTERPRETER_LANE_BUDGET = 600_000

SMOKE_SHAPES = {
    "fig13-spmm": [(200, 1_600, 16)],
    "fig14-sddmm": [(200, 1_600, 16)],
    "fig16-attention": [(128, 16, 2, 8)],  # seq, band, heads, feat
}

FULL_SHAPES = {
    # The first fig-13 shape stays under INTERPRETER_LANE_BUDGET so the
    # committed JSON carries a measured interpreter column too.
    "fig13-spmm": [(1_000, 15_000, 16), (2_000, 30_000, 32), (5_000, 60_000, 32)],
    "fig14-sddmm": [(2_000, 30_000, 32)],
    "fig16-attention": [(512, 64, 4, 32)],
}


def _best_seconds(fn, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _paired_medians(fn_a, fn_b, rounds):
    """Interleaved paired timing; returns (median a, median b) seconds.

    Alternating single runs sample both closures under the same
    allocator/cache conditions; a block of one then a block of the other
    picks up process drift as a spurious bias in either direction.
    """
    a_times, b_times = [], []
    for _ in range(rounds):
        start = time.perf_counter()
        fn_a()
        a_times.append(time.perf_counter() - start)
        start = time.perf_counter()
        fn_b()
        b_times.append(time.perf_counter() - start)
    return float(np.median(a_times)), float(np.median(b_times))


def _time_tiers(kernel, lanes, repeats=3, rounds=9):
    """Seconds per tier on an already-built kernel.

    Emitted / interpreter report best-of-N (the historical columns);
    native vs emitted is measured in interleaved paired rounds
    and reported as per-tier medians (``native_s`` / ``emitted_paired_s``).
    ``native_s`` is ``None`` when the tier is unavailable — no toolchain,
    or a program outside the C emitter's fragment.
    """
    timings = {}
    kernel.run(engine="emitted")  # warm-up compiles the plan once
    timings["emitted_s"] = _best_seconds(lambda: kernel.run(engine="emitted"), repeats)
    if lanes <= INTERPRETER_LANE_BUDGET:
        timings["interpreter_s"] = _best_seconds(lambda: kernel.run(engine="interpret"), 1)
    else:
        timings["interpreter_s"] = None
    try:
        kernel.run(engine="native")  # warm-up: compile (or load) the .so once
    except UnsupportedForEmission:
        timings["native_s"] = None
        timings["emitted_paired_s"] = None
        return timings
    native_s, emitted_s = _paired_medians(
        lambda: kernel.run(engine="native"),
        lambda: kernel.run(engine="emitted"),
        rounds,
    )
    timings["native_s"] = native_s
    timings["emitted_paired_s"] = emitted_s
    return timings


def _record(results, figure, workload, kernel, lanes, repeats=3, rounds=9):
    timings = _time_tiers(kernel, lanes, repeats, rounds)
    native_speedup = bit_exact = None
    if timings["native_s"] is not None:
        # Acceptance contract: the native tier is bit-exact with the
        # emitted tier on every measured workload.
        emitted_out = kernel.run(engine="emitted")
        native_out = kernel.run(engine="native")
        for name in native_out:
            assert emitted_out[name].dtype == native_out[name].dtype, (workload, name)
            assert np.array_equal(emitted_out[name], native_out[name]), (workload, name)
        bit_exact = True
        native_speedup = timings["emitted_paired_s"] / timings["native_s"]
    entry = {
        "figure": figure,
        "workload": workload,
        "lanes": int(lanes),
        **timings,
        "speedup_emitted_vs_interpreter": (
            timings["interpreter_s"] / timings["emitted_s"]
            if timings["interpreter_s"]
            else None
        ),
        "speedup_native_vs_emitted": native_speedup,
        # True when measured (asserted above); null when the tier is absent.
        "native_bit_exact": bit_exact,
    }
    results.append(entry)
    native_col = (
        f"native {timings['native_s'] * 1e3:8.2f} ms   x{native_speedup:.2f} vs emitted"
        if native_speedup is not None
        else "native     (unavailable)"
    )
    print(
        f"{figure:18s} {workload:38s} emitted {timings['emitted_s'] * 1e3:8.2f} ms   {native_col}"
    )


def _run_suite(mode, shapes, output):
    session = Session(persistent=False)
    results = []
    rng = np.random.default_rng(0)

    for nodes, edges, feat in shapes["fig13-spmm"]:
        graph = generate_adjacency(nodes, edges, "powerlaw", seed=1)
        feats = rng.standard_normal((graph.cols, feat)).astype(np.float32)
        kernel = session.build(build_spmm_program(graph, feat, feats))
        _record(results, "fig13-spmm", f"powerlaw-n{nodes}-e{edges}-f{feat}-csr",
                kernel, graph.nnz * feat)
        hyb = session.decompose_hyb(graph, num_col_parts=1)
        kernel = session.build(build_spmm_hyb_program(hyb, feat, feats))
        _record(results, "fig13-spmm", f"powerlaw-n{nodes}-e{edges}-f{feat}-hyb",
                kernel, sum(b.stored for b in hyb.buckets) * feat)

    for nodes, edges, feat in shapes["fig14-sddmm"]:
        graph = generate_adjacency(nodes, edges, "powerlaw", seed=2)
        x = rng.standard_normal((graph.rows, feat)).astype(np.float32)
        y = rng.standard_normal((feat, graph.cols)).astype(np.float32)
        kernel = session.build(build_sddmm_program(graph, feat, x, y, fuse_ij=True))
        _record(results, "fig14-sddmm", f"powerlaw-n{nodes}-e{edges}-f{feat}",
                kernel, graph.nnz * feat)

    for seq, band, heads, feat in shapes["fig16-attention"]:
        mask = band_mask(seq, band)
        q = rng.standard_normal((heads, seq, feat)).astype(np.float32)
        k = rng.standard_normal((heads, feat, seq)).astype(np.float32)
        kernel = session.build(
            build_batched_sddmm_program(mask, heads, feat, q, k, scale=1.0 / np.sqrt(feat))
        )
        _record(results, "fig16-attention", f"band-s{seq}-b{band}-h{heads}-f{feat}-sddmm",
                kernel, heads * mask.nnz * feat)
        v = rng.standard_normal((heads, seq, feat)).astype(np.float32)
        kernel = session.build(build_batched_spmm_program(mask, heads, feat, v))
        _record(results, "fig16-attention", f"band-s{seq}-b{band}-h{heads}-f{feat}-spmm",
                kernel, heads * mask.nnz * feat)

    from repro.core.codegen.emit_c import toolchain_available

    native = [r["speedup_native_vs_emitted"] for r in results
              if r["speedup_native_vs_emitted"] is not None]
    native_fig13 = [r["speedup_native_vs_emitted"] for r in results
                    if r["figure"] == "fig13-spmm" and r["speedup_native_vs_emitted"] is not None]

    def _geomean(values):
        return float(np.exp(np.mean(np.log(values)))) if values else None

    payload = {
        "schema": 3,
        "harness": "benchmarks/test_backends.py",
        "mode": mode,
        "numpy": np.__version__,
        "tiers": ["native", "emitted", "interpreter"],
        "native_toolchain": toolchain_available(),
        "methodology": {
            "emitted/interpreter": "best-of-N single runs",
            "native_vs_emitted": "interleaved paired rounds; "
                                 "ratio = median(emitted)/median(native)",
        },
        "results": results,
        "summary": {
            "geomean_native_vs_emitted": _geomean(native),
            "geomean_native_vs_emitted_fig13": _geomean(native_fig13),
            "min_native_vs_emitted": float(min(native)) if native else None,
        },
    }
    output.write_text(json.dumps(payload, indent=2) + "\n")
    native_note = (
        f"geomean native vs emitted: x{payload['summary']['geomean_native_vs_emitted']:.2f}"
        if native
        else "native tier unavailable (no C toolchain)"
    )
    print(f"\nwrote {output} ({native_note})")
    return payload


@pytest.mark.figure("backends")
def test_backend_smoke():
    """Tiny-shape run for the CI ``bench-smoke`` job (artifact upload).

    Smoke asserts structure (positive timings, bit-exact native when
    present) but no speedup gates: toy shapes are noise-dominated.  With no
    C toolchain every native column is ``null`` and the run still passes.
    """
    payload = _run_suite("smoke", SMOKE_SHAPES, SMOKE_OUTPUT)
    assert SMOKE_OUTPUT.exists()
    for row in payload["results"]:
        assert row["emitted_s"] > 0
        assert row["interpreter_s"] is None or row["interpreter_s"] > 0
        assert row["native_s"] is None or row["native_s"] > 0
        if not payload["native_toolchain"]:
            assert row["native_s"] is None


@pytest.mark.slow
@pytest.mark.bench  # also auto-applied by benchmarks/conftest.py; explicit here
@pytest.mark.figure("backends")
def test_backend_full(bench_output):
    """Paper-scale shapes; the committed ``BENCH_backends.json`` comes from
    this run under ``pytest --write-bench``.  When a C toolchain is
    present the native tier must beat emitted by >= 1.5x geomean on the
    fig-13 SpMM shapes (paired-median ratios)."""
    payload = _run_suite("full", FULL_SHAPES, bench_output(OUTPUT))
    if payload["native_toolchain"]:
        assert payload["summary"]["geomean_native_vs_emitted_fig13"] >= 1.5
