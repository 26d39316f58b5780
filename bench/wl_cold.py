"""``cold-start``: time to first result, from an empty and from a warm disk cache.

A fixed zoo of distinct structural fingerprints — every eager operator kind
on cora in float32 and float64, a second graph, banded batched attention in
CSR and BSR, a BSR pruned SpMM, RGMS, a sparse convolution and one fused
RGCN graph — is run once each in a fresh process:

* with ``REPRO_KERNEL_CACHE`` pointing at an empty directory: lowering,
  emission and the C compiler do all the work and the kernels none.  Three
  such processes give this workload's ``setup_s`` (child start to all zoo
  results, cold);
* again on the populated directory: the unit is child start to all
  zoo results with every kernel loaded from disk.  The reference is a child
  that computes the same zoo with SciPy/NumPy only: it unpickles the
  reference calls (plain arrays and SciPy matrices, written by this process)
  and never imports the system under test, so no cost of ours sits in the
  denominator.  The window is a fixed number of such pairs (see
  ``PAIRS_PER_SECOND``).

The other workloads are the opposite: there the kernels do the work and the
compiler none.  A change to the emitters or the tier ladder must report here
what it does to time-to-first-result, to artifact size (``artifact_kb``)
and to compiler memory (``peak_rss_mb`` includes the C compiler).
"""

from __future__ import annotations

import operator
import os
import pickle
import sys
import time
from functools import partial
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

CASE = "zoo-warm-cache"
REFS_FILE = "zoo-refs.pkl"     # in the run directory, for the reference children
MAX_FAILED_CHILDREN = 2        # in a row, before the window is given up
#: The window is a fixed number of (ours, reference) process pairs per second
#: of --seconds, not a deadline: a fresh process varies by about 0.05 from one
#: start to the next, and it takes nine pairs for the median ratio to repeat
#: within 0.03.  A deadline gave three pairs when the machine was slow and
#: five when it was fast.  About 1.3 s a pair on the box this was sized on.
PAIRS_PER_SECOND = 1.5


def build_zoo(seed: int) -> List[Tuple[str, Callable[[Any], Any], Callable[[], Any], str]]:
    """``(name, ours(session), reference(), dtype)`` per zoo entry.

    Every reference is a ``partial`` of a ``refs`` / NumPy / ``operator``
    function over plain arrays and SciPy matrices, so the list pickles
    without a trace of the system under test.
    """
    import numpy as np

    import inputs
    import refs
    from repro.formats.bsr import BSRMatrix
    from repro.workloads.attention import band_mask
    from repro.workloads.pointcloud import PointCloudConfig, sparse_conv_problem
    from repro.workloads.pruning import block_pruned_weight

    zoo: List[Tuple[str, Callable[[Any], Any], Callable[[], Any], str]] = []
    gen = inputs.rng(seed, "zoo")

    def normal(shape, dtype):
        return gen.standard_normal(shape).astype(dtype)

    for graph, dtypes in (("cora", ("float32", "float64")), ("citeseer", ("float32",))):
        csr = inputs.graph(graph, seed)
        rows, cols = refs.edge_rows(csr.indptr), np.asarray(csr.indices)
        for dtype in dtypes:
            a = refs.to_scipy(csr, dtype)
            data = np.asarray(csr.data, dtype=dtype)
            x, p, q = normal((csr.cols, 8), dtype), normal((csr.rows, 8), dtype), normal((8, csr.cols), dtype)
            tag = f"{graph}-{'f32' if dtype == 'float32' else 'f64'}"
            zoo.append((f"spmm-csr-{tag}", lambda s, csr=csr, x=x, dtype=dtype:
                        s.spmm(csr, x, dtype=dtype), partial(operator.matmul, a, x), dtype))
            zoo.append((f"sddmm-{tag}", lambda s, csr=csr, p=p, q=q, dtype=dtype:
                        s.sddmm(csr, p, q, dtype=dtype),
                        partial(refs.sddmm, data, rows, cols, p, q), dtype))
            if graph != "cora":
                continue
            scores = normal((2, csr.nnz), dtype)
            w = normal((8, 8), dtype)
            zoo.append((f"spmm-hyb-{tag}", lambda s, csr=csr, x=x, dtype=dtype:
                        s.spmm(csr, x, format="hyb", dtype=dtype), partial(operator.matmul, a, x),
                        dtype))
            zoo.append((f"edge-softmax-{tag}", lambda s, csr=csr, scores=scores, dtype=dtype:
                        s.edge_softmax(csr, scores, dtype=dtype),
                        partial(refs.edge_softmax, np.asarray(csr.indptr), scores), dtype))
            zoo.append((f"gemm-{tag}", lambda s, p=p, w=w, dtype=dtype: s.gemm(p, w, dtype=dtype),
                        partial(operator.matmul, p, w), dtype))
            if dtype == "float32":
                zoo.append((f"add-{tag}", lambda s, p=p, x=x: s.add(p, x), partial(operator.add, p, x), dtype))
                zoo.append((f"relu-{tag}", lambda s, p=p: s.relu(p), partial(np.maximum, p, 0), dtype))

    mask = band_mask(128, 32, 16)
    a = refs.to_scipy(mask, np.float32)
    rows, cols, data = refs.edge_rows(mask.indptr), np.asarray(mask.indices), np.asarray(mask.data)
    feats, qq, kk = normal((2, 128, 8), "float32"), normal((2, 128, 8), "float32"), normal((2, 8, 128), "float32")
    for fmt in ("csr", "bsr"):
        zoo.append((f"bspmm-band128-{fmt}", lambda s, fmt=fmt: s.batched_spmm(mask, feats, format=fmt),
                    partial(refs.batched_spmm, a, feats), "float32"))
        zoo.append((f"bsddmm-band128-{fmt}", lambda s, fmt=fmt: s.batched_sddmm(mask, qq, kk, format=fmt),
                    partial(refs.batched_sddmm, data, rows, cols, qq, kk), "float32"))

    bsr = BSRMatrix.from_csr(block_pruned_weight(128, 128, 16, 0.25, seed=seed), 16)
    act, dense = normal((128, 16), "float32"), bsr.to_scipy()
    zoo.append(("pruned-spmm-bsr128", lambda s: s.pruned_spmm(bsr, act), partial(operator.matmul, dense, act),
                "float32"))

    adjacency = inputs.split_relations(inputs.graph("cora", seed), 4, seed)
    slices = [refs.to_scipy(m, np.float32) for m in adjacency.slices]
    nodes, weights = normal((adjacency.shape[1], 8), "float32"), normal((4, 8, 8), "float32")
    zoo.append(("rgms-cora-R4", lambda s: s.rgms(adjacency, nodes, weights),
                partial(refs.rgms, slices, nodes, weights), "float32"))

    problem = sparse_conv_problem(
        4, 4, PointCloudConfig(num_points=150, extent=(4.0, 2.0, 0.8), seed=seed))
    voxels, kernel = normal((problem.num_in_points, 4), "float32"), normal((27, 4, 4), "float32")
    zoo.append(("sparse-conv-pts150", lambda s: s.sparse_conv(problem, voxels, kernel),
                partial(refs.sparse_conv_stack,
                        [([np.asarray(pairs) for pairs in problem.kernel_maps], kernel,
                          problem.num_out_points)], voxels), "float32"))

    from repro.models.rgcn import RGCN

    model = RGCN(adjacency, in_feats=8, hidden=8, num_classes=4, seed=seed)
    layers = [(l.params.relation_weights, l.params.self_weight) for l in (model.layer1, model.layer2)]
    zoo.append(("graph-rgcn-cora-R4", lambda s: model.compile(s, nodes, fuse=True)(),
                partial(refs.rgcn, slices, layers, nodes), "float32"))
    return zoo


def run_zoo(ctx: Any, session: Any, zoo: list) -> Dict[str, float]:
    """Every entry once through *session*, then every reference; counts failures."""
    import refs

    begin = time.perf_counter()
    first_op = None
    outputs = []
    for name, ours, _ref, _dtype in zoo:
        outputs.append(ctx.ours(name, lambda ours=ours: ours(session)))
        if first_op is None:
            first_op = time.perf_counter() - begin
    results_s = time.perf_counter() - begin
    for (name, _ours, ref, dtype), out in zip(zoo, outputs):
        ctx.check(name, refs.close(out, ctx.faulty(ref()), dtype))
    return {"zoo_s": results_s, "first_op_ms": (first_op or 0.0) * 1e3}


# -- in the benchmark process ------------------------------------------------------

def setup(ctx: Any) -> Any:
    """One cold pass over the zoo (this process's kernel cache starts empty)."""
    from repro.runtime.session import Session

    session = Session()
    zoo = build_zoo(ctx.seed)
    timing = run_zoo(ctx, session, zoo)
    ctx.case_info[CASE] = {"macs": 0, "entries": len(zoo)}
    ctx.extra["cold.zoo_size"] = len(zoo)
    ctx.extra["cold.first_op_ms"] = timing["first_op_ms"]
    return {"session": session, "refs": [ref for _name, _ours, ref, _dtype in zoo]}


def measure(ctx: Any, state: Any) -> None:
    """Warm-cache children and SciPy-only children, alternating."""
    from harness import run_child

    env = dict(os.environ)   # the children share this run's populated kernel cache
    base = ["--workload", ctx.workload, "--seed", str(ctx.seed)]
    traced = ["--trace", "1"] if ctx.tracer is not None else []
    unit = ["--child", "unit", *base, *traced]
    if ctx.fault == "failing-child":     # injected by the self-test: exits 2 at once
        unit = ["--child", "unit", "--workload", "no-such-workload"]
    (ctx.run_dir / REFS_FILE).write_bytes(pickle.dumps(state["refs"]))
    reports: List[Dict[str, Any]] = []
    failed_in_a_row = 0
    ctx.start_timed()
    # A child that keeps failing ends the window early, and the failures it
    # recorded surface in the summary as ``failed`` > 0.
    for _ in range(max(2, round(ctx.seconds * PAIRS_PER_SECOND))):
        report = ctx.ours(CASE, lambda: run_child(unit, env, timeout=60))
        clean = ctx.ref(CASE, lambda: run_child(["--child", "ref", *base], env, timeout=60))
        ctx.check(CASE, clean["independent"], "the reference child imported the system under test")
        if report is None:
            failed_in_a_row += 1
            if failed_in_a_row == MAX_FAILED_CHILDREN:
                break
            continue
        failed_in_a_row = 0
        reports.append(report)
        ctx.attempted += report["attempted"]
        ctx.failed += report["failed"]
        ctx.failures.extend(report["failures"])
    ctx.stop_timed()
    if ctx.tracer is not None and reports:
        for report in reports:
            for key, value in report["spans"].items():
                ctx.child_spans[key] = ctx.child_spans.get(key, 0.0) + value
            for key, value in report["counters"].items():
                ctx.child_counters[key] = ctx.child_counters.get(key, 0) + value
        ctx.child_facts = {"py_calls": reports[-1]["py_calls"], "alloc_kb": reports[-1]["alloc_kb"]}


def steps(state: Any) -> list:
    return []   # the unit is a process; its exact counts come from the child


# -- in a child process --------------------------------------------------------------

def reference_child(run_dir: Path) -> Dict[str, Any]:
    """Every zoo reference once, from the pickle: SciPy and NumPy only."""
    for ref in pickle.loads((run_dir / REFS_FILE).read_bytes()):
        ref()
    return {"independent": not any(name.split(".")[0] == "repro" for name in sys.modules)}


def unit_child(seed: int, trace: bool) -> Dict[str, Any]:
    """Every zoo entry once through a fresh ``Session`` (kernels come from disk)."""
    from harness import Context, peak_rss_mb, session_counters
    from repro.runtime.session import Session

    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.phase = "timed"
    ctx = Context("cold-start", seed, 0.0, tracer=tracer)
    session = Session()
    zoo = build_zoo(seed)
    timing = run_zoo(ctx, session, zoo)
    report: Dict[str, Any] = {
        **timing, "attempted": ctx.attempted, "failed": ctx.failed, "failures": ctx.failures,
        "rss_mb": peak_rss_mb(), "spans": {}, "counters": {}, "py_calls": 0, "alloc_kb": 0.0,
    }
    if tracer is not None:
        tracer.uninstall()
        report["spans"] = {f"{phase}|{name}": value
                           for (phase, name), value in tracer.self_times().items()}
        report["counters"] = session_counters(session)
        ctx.tracer = None
        report.update(ctx.probe_units(
            [lambda ours=ours, name=name: ctx.ours(name, lambda: ours(session))
             for name, ours, _ref, _dtype in zoo]))
    return report
