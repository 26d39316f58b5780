"""``eager-small`` and ``eager-large``: warm public ``Session.<op>`` calls.

Closed loop, one client.  The two workloads run the same code on inputs
chosen so that different layers dominate:

* ``eager-small`` — cora/citeseer at width 4-16.  The kernel is about a
  quarter of the call; op preparation, fingerprinting and ``Kernel``
  construction do most of the work.  A change to per-call overhead must show
  here; a change to the kernels must not.
* ``eager-large`` — pubmed/arxiv/band/BSR cases whose kernel is most of the
  call.  A change to the kernels (index traffic) must show here; a change to
  per-call overhead is predicted to move it by less than a tenth.

Every case runs its SciPy/NumPy reference on identical inputs in the same
interleaved loop, so ``ref_ratio`` cancels shifts in machine speed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List

import numpy as np

import inputs
import refs
from harness import Context, closed_loop


@dataclass
class Case:
    name: str
    ours: Callable[[], Any]
    ref: Callable[[], Any]
    dtype: str
    macs: int            # exact multiply-adds of one call
    digest: str          # content hash of the generated inputs


def _spmm(session, seed, name, graph, k, dtype, fmt) -> Case:
    csr = inputs.graph(graph, seed)
    x = inputs.rng(seed, name).standard_normal((csr.cols, k)).astype(dtype)
    a = refs.to_scipy(csr, dtype)
    return Case(
        name, lambda: session.spmm(csr, x, format=fmt, dtype=dtype), lambda: a @ x,
        dtype, csr.nnz * k, inputs.digest(csr.indptr, csr.indices, csr.data, x),
    )


def _sddmm(session, seed, name, graph, k) -> Case:
    csr = inputs.graph(graph, seed)
    gen = inputs.rng(seed, name)
    x = gen.standard_normal((csr.rows, k)).astype(np.float32)
    y = gen.standard_normal((k, csr.cols)).astype(np.float32)
    rows, cols, data = refs.edge_rows(csr.indptr), np.asarray(csr.indices), np.asarray(csr.data)
    return Case(
        name, lambda: session.sddmm(csr, x, y), lambda: refs.sddmm(data, rows, cols, x, y),
        "float32", csr.nnz * k, inputs.digest(csr.indptr, csr.indices, x, y),
    )


def _edge_softmax(session, seed, name, graph, heads) -> Case:
    csr = inputs.graph(graph, seed)
    scores = inputs.rng(seed, name).standard_normal((heads, csr.nnz)).astype(np.float32)
    indptr = np.asarray(csr.indptr)
    return Case(
        name, lambda: session.edge_softmax(csr, scores), lambda: refs.edge_softmax(indptr, scores),
        "float32", csr.nnz * heads, inputs.digest(csr.indptr, scores),
    )


def _gemm(session, seed, name, graph, k) -> Case:
    rows = inputs.graph(graph, seed).rows
    gen = inputs.rng(seed, name)
    a = gen.standard_normal((rows, k)).astype(np.float32)
    w = gen.standard_normal((k, k)).astype(np.float32)
    return Case(
        name, lambda: session.gemm(a, w), lambda: np.matmul(a, w),
        "float32", rows * k * k, inputs.digest(a, w),
    )


def _band(seq: int):
    from repro.workloads.attention import band_mask

    return band_mask(seq, 64, 16)


def _batched_spmm(session, seed, name, seq, heads, k, fmt) -> Case:
    mask = _band(seq)
    features = inputs.rng(seed, name).standard_normal((heads, seq, k)).astype(np.float32)
    a = refs.to_scipy(mask, np.float32)
    return Case(
        name, lambda: session.batched_spmm(mask, features, format=fmt),
        lambda: refs.batched_spmm(a, features),
        "float32", mask.nnz * heads * k, inputs.digest(mask.indices, features),
    )


def _batched_sddmm(session, seed, name, seq, heads, k, fmt) -> Case:
    mask = _band(seq)
    gen = inputs.rng(seed, name)
    q = gen.standard_normal((heads, seq, k)).astype(np.float32)
    kk = gen.standard_normal((heads, k, seq)).astype(np.float32)
    rows, cols, data = refs.edge_rows(mask.indptr), np.asarray(mask.indices), np.asarray(mask.data)
    return Case(
        name, lambda: session.batched_sddmm(mask, q, kk, format=fmt),
        lambda: refs.batched_sddmm(data, rows, cols, q, kk),
        "float32", mask.nnz * heads * k, inputs.digest(mask.indices, q, kk),
    )


def _pruned_spmm(session, seed, name, size, block, density, seq) -> Case:
    from repro.formats.bsr import BSRMatrix
    from repro.workloads.pruning import block_pruned_weight

    bsr = BSRMatrix.from_csr(block_pruned_weight(size, size, block, density, seed=seed), block)
    x = inputs.rng(seed, name).standard_normal((size, seq)).astype(np.float32)
    a = bsr.to_scipy()
    return Case(
        name, lambda: session.pruned_spmm(bsr, x), lambda: a @ x,
        "float32", bsr.nnz_stored * seq, inputs.digest(a.indptr, a.indices, a.data, x),
    )


#: name -> (builder, arguments).  Sizes are fixed; the seed picks the content.
CASES = {
    "eager-small": (
        ("spmm-csr-cora-k4-f32", _spmm, ("cora", 4, "float32", "csr")),
        ("spmm-hyb-cora-k4-f32", _spmm, ("cora", 4, "float32", "hyb")),
        ("spmm-csr-citeseer-k8-f32", _spmm, ("citeseer", 8, "float32", "csr")),
        ("sddmm-citeseer-k8-f32", _sddmm, ("citeseer", 8)),
        # The one program with ``exp``: the only case served by the emitted tier.
        ("edge-softmax-cora-h2-f32", _edge_softmax, ("cora", 2)),
        ("gemm-cora-k4-f32", _gemm, ("cora", 4)),
    ),
    # Sized so the kernel is >= 0.7 of the call while the cold compile of the
    # whole set stays within the set-up budget (it is repeated three times).
    "eager-large": (
        ("spmm-csr-pubmed-k24-f32", _spmm, ("pubmed", 24, "float32", "csr")),
        ("spmm-hyb-pubmed-k24-f32", _spmm, ("pubmed", 24, "float32", "hyb")),
        ("spmm-csr-arxiv-k24-f64", _spmm, ("ogbn-arxiv", 24, "float64", "csr")),
        ("sddmm-pubmed-k16-f32", _sddmm, ("pubmed", 16)),
        ("bspmm-band256-h2-k16-f32", _batched_spmm, (256, 2, 16, "bsr")),
        ("bsddmm-band256-h2-k16-f32", _batched_sddmm, (256, 2, 16, "csr")),
        ("pruned-spmm-bsr256-b16-s64-f32", _pruned_spmm, (256, 16, 0.25, 64)),
    ),
}

#: The case whose output must also equal the scalar interpreter bit for bit.
ORACLE_CASE = "spmm-csr-cora-k4-f32"


def build_cases(workload: str, seed: int, session: Any) -> List[Case]:
    return [build(session, seed, name, *args) for name, build, args in CASES[workload]]


def _step(ctx: Context, case: Case) -> Callable[[], None]:
    def step() -> None:
        out = ctx.ours(case.name, case.ours)
        expected = ctx.ref(case.name, case.ref)
        ctx.check(case.name, refs.close(out, expected, case.dtype))
    return step


def setup(ctx: Context) -> Any:
    from repro.runtime.session import Session

    session = Session()
    cases = build_cases(ctx.workload, ctx.seed, session)
    steps = [_step(ctx, case) for case in cases]
    for case, step in zip(cases, steps):
        ctx.case_info[case.name] = {"macs": case.macs, "inputs": case.digest}
        for _ in range(4):  # the first call compiles; the rest warm the path
            step()
    return {"session": session, "cases": cases, "steps": steps}


def measure(ctx: Context, state: Any) -> None:
    closed_loop(ctx, state["steps"], block=3)


def steps(state: Any) -> List[Callable[[], None]]:
    return state["steps"]


def verify(ctx: Context, state: Any) -> None:
    """Bit-exactness against the scalar interpreter (the repo's oracle)."""
    from repro.runtime.session import Session

    for name, build, args in CASES[ctx.workload]:
        if name != ORACLE_CASE:
            continue
        oracle = build(Session(engine="interpret", persistent=False), ctx.seed, name, *args)
        ours = next(case for case in state["cases"] if case.name == name)
        ctx.attempted += 1
        ctx.check(name, np.array_equal(ours.ours(), oracle.ours()), "differs from the interpreter")

