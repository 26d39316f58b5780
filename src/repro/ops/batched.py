"""Batched (multi-head) SpMM and SDDMM for sparse attention (Section 4.3.1).

Sparse transformers share one manually designed sparse structure (band /
butterfly) across all attention heads; the heavy operators are a batched
SpMM (``O[h] = S[h] @ V[h]``) and a batched SDDMM (``S[h] = Q[h] K[h]^T``
sampled at the mask).  What the BSR (Tensor Core) and CSR variants cost on the
simulated GPU — Figure 16 — is :mod:`repro.sim.ops.batched`.

Both operators are executable end-to-end: ``build_batched_*_program`` emit
stage-I programs whose head axis is a plain dense batch loop (flattened into
lanes by the compiled tiers), and :func:`batched_spmm` /
:func:`batched_sddmm` run them through a compile-once/run-many
:class:`~repro.runtime.session.Session` in CSR or BSR form.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..core.buffers import SparseBuffer
from ..core.expr import Call
from ..core.program import PrimFunc
from ..core.script import EmitContext, ProgramBuilder
from ..core.sparse_iteration import fuse
from ..formats.bsr import BSRMatrix
from ..formats.csr import CSRMatrix
from .sddmm import sddmm_reference
from .spmm import spmm_reference


# ---------------------------------------------------------------------------
# Reference implementations
# ---------------------------------------------------------------------------

def batched_spmm_reference(csr: CSRMatrix, features: np.ndarray) -> np.ndarray:
    """``out[h] = A @ X[h]`` for every head; ``features`` is (heads, n, d)."""
    features = np.asarray(features, dtype=np.float32)
    if features.ndim != 3:
        raise ValueError("features must be (heads, cols, feat)")
    return np.stack([spmm_reference(csr, features[h]) for h in range(features.shape[0])])


def batched_sddmm_reference(csr: CSRMatrix, q: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Per-head SDDMM; ``q`` is (heads, rows, d) and ``k`` is (heads, d, cols)."""
    q = np.asarray(q, dtype=np.float32)
    k = np.asarray(k, dtype=np.float32)
    if q.ndim != 3 or k.ndim != 3:
        raise ValueError("q and k must be 3-D (heads, ., .)")
    return np.stack([sddmm_reference(csr, q[h], k[h]) for h in range(q.shape[0])])


# ---------------------------------------------------------------------------
# Executable operators (compile-once/run-many Session path)
# ---------------------------------------------------------------------------

def batched_spmm(
    csr: CSRMatrix,
    features: np.ndarray,
    format: str = "csr",
    block_size: int = 16,
    *,
    session=None,
    **options,
) -> np.ndarray:
    """Run the multi-head SpMM ``O[h] = A @ X[h]``; ``features`` is ``(heads, cols, feat)``.

    ``format`` is ``"csr"`` or ``"bsr"`` (with ``block_size``); options: see
    ``Session.batched_spmm``.
    """
    from ..runtime.session import get_default_session

    return (session or get_default_session()).batched_spmm(
        csr, features, format=format, block_size=block_size, **options
    )


def batched_sddmm(
    csr: CSRMatrix,
    q: np.ndarray,
    k: np.ndarray,
    format: str = "csr",
    block_size: int = 16,
    scale: Optional[float] = None,
    *,
    session=None,
    **options,
) -> np.ndarray:
    """Run the multi-head SDDMM; ``q`` is ``(heads, rows, feat)``, ``k`` ``(heads, feat, cols)``.

    ``format`` is ``"csr"`` or ``"bsr"`` (with ``block_size``), ``scale`` an
    optional score scaling; options: see ``Session.batched_sddmm``.
    """
    from ..runtime.session import get_default_session

    return (session or get_default_session()).batched_sddmm(
        csr, q, k, format=format, block_size=block_size, scale=scale, **options
    )


# ---------------------------------------------------------------------------
# SparseTIR programs (compiled through the full pipeline)
# ---------------------------------------------------------------------------

def build_batched_spmm_program(
    csr: CSRMatrix,
    num_heads: int,
    feat_size: int,
    features: Optional[np.ndarray] = None,
    dtype: str = "float32",
) -> PrimFunc:
    """The CSR multi-head SpMM program: Figure 3 plus a leading batch axis.

    The head axis ``H`` is an ordinary dense-fixed loop, so the compiled
    tiers flatten it into lanes exactly like the row/feature axes; the
    sparsity structure (and the edge-value buffer ``A``) is shared by all
    heads, matching the attention masks of Section 4.3.1.
    """
    ctx = EmitContext(ProgramBuilder("batched_spmm"))
    emit_batched_spmm(ctx, csr, num_heads, feat_size, features, dtype=dtype)
    return ctx.builder.finish()


def emit_batched_spmm(
    ctx: EmitContext,
    csr: CSRMatrix,
    num_heads: int,
    feat_size: int,
    features: Optional[np.ndarray] = None,
    dtype: str = "float32",
    bind: Optional[Dict[str, SparseBuffer]] = None,
) -> Dict[str, SparseBuffer]:
    """Append the multi-head SpMM iteration; ``bind`` may supply ``features``."""
    bind = bind or {}
    h_axis = ctx.dense_fixed("H", num_heads)
    i_axis, j_axis = ctx.csr_axes(csr)
    b_buf = bind.get("features")
    if b_buf is None:
        j_dense = ctx.dense_fixed("J_", csr.cols)
    k_axis = ctx.dense_fixed("K", feat_size)
    a_buf = ctx.buffer("A", [i_axis, j_axis], dtype=dtype, data=csr.data)
    if b_buf is None:
        b_buf = ctx.buffer(
            "B", [h_axis, j_dense, k_axis], dtype=dtype,
            data=None if features is None else np.asarray(features, dtype=dtype).reshape(-1),
        )
    c_buf = ctx.buffer("C", [h_axis, i_axis, k_axis], dtype=dtype)
    with ctx.sp_iter([h_axis, i_axis, j_axis, k_axis], "SSRS", "batched_spmm") as (h, i, j, k):
        ctx.init(c_buf[h, i, k], 0.0)
        ctx.compute(c_buf[h, i, k], c_buf[h, i, k] + a_buf[i, j] * b_buf[h, j, k])
    return {"out": c_buf, "features": b_buf, "values": a_buf}


def emit_batched_spmm_bsr(
    ctx: EmitContext,
    bsr: BSRMatrix,
    num_heads: int,
    feat_size: int,
    features: Optional[np.ndarray] = None,
) -> Dict[str, SparseBuffer]:
    """Append the BSR multi-head SpMM iteration; returns its buffers by role.

    ``(IB, JB)`` walk the block structure, ``(BI, BJ)`` the dense interior of
    each block, and the leading ``H`` axis batches the heads.
    """
    b = bsr.block_size
    h_axis = ctx.dense_fixed("H", num_heads)
    ib_axis, jb_axis = ctx.bsr_axes(bsr)
    bi_axis = ctx.dense_fixed("BI", b)
    bj_axis = ctx.dense_fixed("BJ", b)
    k_axis = ctx.dense_fixed("K", feat_size)
    i_dense = ctx.dense_fixed("I_", bsr.shape[0])
    j_dense = ctx.dense_fixed("J_", bsr.shape[1])
    a_buf = ctx.buffer("A", [ib_axis, jb_axis, bi_axis, bj_axis], data=bsr.data.reshape(-1))
    b_buf = ctx.buffer(
        "B", [h_axis, j_dense, k_axis],
        data=None if features is None else np.asarray(features, dtype=np.float32).reshape(-1),
    )
    c_buf = ctx.buffer("C", [h_axis, i_dense, k_axis])
    with ctx.sp_iter(
        [h_axis, ib_axis, jb_axis, bi_axis, bj_axis, k_axis], "SSRSRS", "batched_spmm_bsr"
    ) as (h, ib, jb, bi, bj, k):
        ctx.init(c_buf[h, ib * b + bi, k], 0.0)
        ctx.compute(
            c_buf[h, ib * b + bi, k],
            c_buf[h, ib * b + bi, k] + a_buf[ib, jb, bi, bj] * b_buf[h, jb * b + bj, k],
        )
    return {"out": c_buf, "features": b_buf}


def build_batched_spmm_bsr_program(
    bsr: BSRMatrix,
    num_heads: int,
    feat_size: int,
    features: Optional[np.ndarray] = None,
) -> PrimFunc:
    """The BSR multi-head SpMM program (the Tensor-Core variant of Figure 16)."""
    ctx = EmitContext(ProgramBuilder("batched_spmm_bsr"))
    emit_batched_spmm_bsr(ctx, bsr, num_heads, feat_size, features)
    return ctx.builder.finish()


def build_batched_sddmm_program(
    csr: CSRMatrix,
    num_heads: int,
    feat_size: int,
    q: Optional[np.ndarray] = None,
    k: Optional[np.ndarray] = None,
    fuse_ij: bool = True,
    scale: Optional[float] = None,
    dtype: str = "float32",
) -> PrimFunc:
    """The batched SDDMM program over the shared mask.

    The output buffer ``OUT[H, I, J]`` places a dense batch axis *before* a
    sparse axis — the batched flattening case of equation (8): one segment of
    ``nnz`` slots per head.  With ``scale`` a second, pointwise iteration
    rescales every stored score (the ``1/sqrt(d)`` step of attention), which
    the compiled tiers run as an in-place ``multiply.at`` reduction.
    """
    ctx = EmitContext(ProgramBuilder("batched_sddmm"))
    emit_batched_sddmm(
        ctx, csr, num_heads, feat_size, q, k, fuse_ij=fuse_ij, scale=scale, dtype=dtype
    )
    return ctx.builder.finish()


def emit_batched_sddmm(
    ctx: EmitContext,
    csr: CSRMatrix,
    num_heads: int,
    feat_size: int,
    q: Optional[np.ndarray] = None,
    k: Optional[np.ndarray] = None,
    fuse_ij: bool = True,
    scale: Optional[float] = None,
    dtype: str = "float32",
    bind: Optional[Dict[str, SparseBuffer]] = None,
) -> Dict[str, SparseBuffer]:
    """Append the batched SDDMM iterations; ``bind`` may supply ``q``/``k``."""
    bind = bind or {}
    h_axis = ctx.dense_fixed("H", num_heads)
    i_axis, j_axis = ctx.csr_axes(csr)
    q_buf = bind.get("q")
    k_buf = bind.get("k")
    if q_buf is None:
        i_dense = ctx.dense_fixed("I_", csr.rows)
    if k_buf is None:
        j_dense = ctx.dense_fixed("J_", csr.cols)
    k_axis = ctx.dense_fixed("K", feat_size)
    a_buf = ctx.buffer("A", [i_axis, j_axis], dtype=dtype, data=csr.data)
    out_buf = ctx.buffer("OUT", [h_axis, i_axis, j_axis], dtype=dtype)
    if q_buf is None:
        q_buf = ctx.buffer(
            "Q", [h_axis, i_dense, k_axis], dtype=dtype,
            data=None if q is None else np.asarray(q, dtype=dtype).reshape(-1),
        )
    if k_buf is None:
        k_buf = ctx.buffer(
            "Kv", [h_axis, k_axis, j_dense], dtype=dtype,
            data=None if k is None else np.asarray(k, dtype=dtype).reshape(-1),
        )
    axes = (
        [h_axis, fuse(i_axis, j_axis), k_axis] if fuse_ij
        else [h_axis, i_axis, j_axis, k_axis]
    )
    with ctx.sp_iter(axes, "SSSR", "batched_sddmm") as (h, i, j, kk):
        ctx.init(out_buf[h, i, j], 0.0)
        ctx.compute(
            out_buf[h, i, j],
            out_buf[h, i, j] + a_buf[i, j] * q_buf[h, i, kk] * k_buf[h, kk, j],
        )
    if scale is not None:
        scale_axes = [h_axis, fuse(i_axis, j_axis)] if fuse_ij else [h_axis, i_axis, j_axis]
        with ctx.sp_iter(scale_axes, "SSS", "scale_scores") as (h, i, j):
            ctx.compute(out_buf[h, i, j], out_buf[h, i, j] * float(scale))
    return {"out": out_buf, "q": q_buf, "k": k_buf, "values": a_buf}


def emit_batched_sddmm_bsr(
    ctx: EmitContext,
    bsr: BSRMatrix,
    num_heads: int,
    feat_size: int,
    q: Optional[np.ndarray] = None,
    k: Optional[np.ndarray] = None,
    scale: Optional[float] = None,
) -> Dict[str, SparseBuffer]:
    """Append the BSR batched SDDMM iterations; returns their buffers by role.

    Every stored block is a small Q x K^T matmul.  The output buffer
    ``OUT[H, IB, JB, BI, BJ]`` stores per-head block values in block order;
    :func:`bsr_element_permutation` maps them back to the CSR element order
    of the mask.
    """
    b = bsr.block_size
    h_axis = ctx.dense_fixed("H", num_heads)
    ib_axis, jb_axis = ctx.bsr_axes(bsr)
    bi_axis = ctx.dense_fixed("BI", b)
    bj_axis = ctx.dense_fixed("BJ", b)
    k_axis = ctx.dense_fixed("K", feat_size)
    i_dense = ctx.dense_fixed("I_", bsr.shape[0])
    j_dense = ctx.dense_fixed("J_", bsr.shape[1])
    a_buf = ctx.buffer("A", [ib_axis, jb_axis, bi_axis, bj_axis], data=bsr.data.reshape(-1))
    out_buf = ctx.buffer("OUT", [h_axis, ib_axis, jb_axis, bi_axis, bj_axis])
    q_buf = ctx.buffer(
        "Q", [h_axis, i_dense, k_axis],
        data=None if q is None else np.asarray(q, dtype=np.float32).reshape(-1),
    )
    k_buf = ctx.buffer(
        "Kv", [h_axis, k_axis, j_dense],
        data=None if k is None else np.asarray(k, dtype=np.float32).reshape(-1),
    )
    with ctx.sp_iter(
        [h_axis, ib_axis, jb_axis, bi_axis, bj_axis, k_axis], "SSSSSR", "batched_sddmm_bsr"
    ) as (h, ib, jb, bi, bj, kk):
        ctx.init(out_buf[h, ib, jb, bi, bj], 0.0)
        ctx.compute(
            out_buf[h, ib, jb, bi, bj],
            out_buf[h, ib, jb, bi, bj]
            + a_buf[ib, jb, bi, bj] * q_buf[h, ib * b + bi, kk] * k_buf[h, kk, jb * b + bj],
        )
    if scale is not None:
        with ctx.sp_iter(
            [h_axis, ib_axis, jb_axis, bi_axis, bj_axis], "SSSSS", "scale_scores"
        ) as (h, ib, jb, bi, bj):
            ctx.compute(out_buf[h, ib, jb, bi, bj], out_buf[h, ib, jb, bi, bj] * float(scale))
    return {"out": out_buf, "q": q_buf, "k": k_buf}


def build_batched_sddmm_bsr_program(
    bsr: BSRMatrix,
    num_heads: int,
    feat_size: int,
    q: Optional[np.ndarray] = None,
    k: Optional[np.ndarray] = None,
    scale: Optional[float] = None,
) -> PrimFunc:
    """The standalone BSR batched SDDMM program."""
    ctx = EmitContext(ProgramBuilder("batched_sddmm_bsr"))
    emit_batched_sddmm_bsr(ctx, bsr, num_heads, feat_size, q, k, scale=scale)
    return ctx.builder.finish()


def bsr_element_permutation(csr: CSRMatrix, bsr: BSRMatrix) -> np.ndarray:
    """Map CSR element order to flat BSR value order for a block-aligned mask.

    ``perm[e]`` is the index into the flat ``(num_blocks * b * b)`` BSR value
    array holding the ``e``-th CSR non-zero.  Requires the mask to be exactly
    block-aligned (every stored block fully dense), which holds for the
    paper's band/butterfly attention masks.
    """
    import scipy.sparse as sp

    b = bsr.block_size
    if bsr.nnz_stored != csr.nnz:
        raise ValueError(
            f"mask is not block-aligned: {csr.nnz} non-zeros vs "
            f"{bsr.nnz_stored} stored block elements"
        )
    tagged = sp.bsr_matrix(
        (
            np.arange(bsr.nnz_stored, dtype=np.int64).reshape(-1, b, b),
            bsr.indices,
            bsr.indptr,
        ),
        shape=bsr.shape,
        blocksize=(b, b),
    ).tocsr()
    tagged.sort_indices()
    perm = tagged.data.astype(np.int64)
    if perm.size != csr.nnz:
        raise ValueError("mask is not block-aligned: stored patterns differ")
    return perm


# ---------------------------------------------------------------------------
# Attention-chain operators (edge softmax, SpMM with per-head edge values)
# ---------------------------------------------------------------------------

def edge_softmax_reference(csr: CSRMatrix, scores: np.ndarray) -> np.ndarray:
    """Row-wise softmax over the stored edges, per head.

    ``scores`` is ``(heads, nnz)`` in CSR element order; no max-subtraction,
    mirroring the generated program (the attention scores of the paper's
    masks are O(1), so the plain ``exp`` is well-conditioned).
    """
    scores = np.asarray(scores, dtype=np.float32)
    if scores.ndim != 2 or scores.shape[1] != csr.nnz:
        raise ValueError("scores must be (heads, nnz)")
    ex = np.exp(scores)
    out = np.empty_like(ex)
    for row in range(csr.rows):
        lo, hi = csr.indptr[row], csr.indptr[row + 1]
        if hi > lo:
            seg = ex[:, lo:hi]
            out[:, lo:hi] = seg / seg.sum(axis=1, keepdims=True)
    return out


def batched_spmm_edges_reference(
    csr: CSRMatrix, edge_values: np.ndarray, features: np.ndarray
) -> np.ndarray:
    """``out[h] = A_h @ X[h]`` where ``A_h`` carries per-head edge values."""
    edge_values = np.asarray(edge_values, dtype=np.float32)
    features = np.asarray(features, dtype=np.float32)
    if edge_values.ndim != 2 or edge_values.shape[1] != csr.nnz:
        raise ValueError("edge_values must be (heads, nnz)")
    out = np.zeros((edge_values.shape[0], csr.rows, features.shape[-1]), dtype=np.float32)
    for h in range(edge_values.shape[0]):
        headed = CSRMatrix(csr.shape, csr.indptr, csr.indices, data=edge_values[h])
        out[h] = spmm_reference(headed, features[h])
    return out


def emit_edge_softmax(
    ctx: EmitContext,
    csr: CSRMatrix,
    num_heads: int,
    scores: Optional[np.ndarray] = None,
    dtype: str = "float32",
    bind: Optional[Dict[str, SparseBuffer]] = None,
) -> Dict[str, SparseBuffer]:
    """Append a row-wise edge softmax: exp, per-row sum, normalise.

    Three iterations over the shared ``(H, I, J)`` space — a pointwise
    ``exp``, a row-sum reduction into ``Z[H, I]`` and the division.  All
    three stay on the fast tiers (no max-subtraction), and fusing them with
    the producing SDDMM / consuming SpMM shares the sparse axes so the
    intermediate scores never leave the merged kernel.
    """
    bind = bind or {}
    h_axis = ctx.dense_fixed("H", num_heads)
    i_axis, j_axis = ctx.csr_axes(csr)
    e_buf = bind.get("scores")
    if e_buf is None:
        e_buf = ctx.buffer(
            "E", [h_axis, i_axis, j_axis], dtype=dtype,
            data=None if scores is None else np.asarray(scores).reshape(-1),
        )
    ex_buf = ctx.buffer("EX", [h_axis, i_axis, j_axis], dtype=dtype)
    z_buf = ctx.buffer("Z", [h_axis, i_axis], dtype=dtype)
    p_buf = ctx.buffer("P", [h_axis, i_axis, j_axis], dtype=dtype)
    with ctx.sp_iter([h_axis, i_axis, j_axis], "SSS", "exp_scores") as (h, i, j):
        ctx.compute(ex_buf[h, i, j], Call("exp", [e_buf[h, i, j]], dtype=dtype))
    with ctx.sp_iter([h_axis, i_axis, j_axis], "SSR", "row_sums") as (h, i, j):
        ctx.init(z_buf[h, i], 0.0)
        ctx.compute(z_buf[h, i], z_buf[h, i] + ex_buf[h, i, j])
    with ctx.sp_iter([h_axis, i_axis, j_axis], "SSS", "normalise") as (h, i, j):
        ctx.compute(p_buf[h, i, j], ex_buf[h, i, j] / z_buf[h, i])
    return {"out": p_buf, "scores": e_buf}


def build_edge_softmax_program(
    csr: CSRMatrix,
    num_heads: int,
    scores: Optional[np.ndarray] = None,
    dtype: str = "float32",
) -> PrimFunc:
    """Standalone row-wise edge-softmax program."""
    ctx = EmitContext(ProgramBuilder("edge_softmax"))
    emit_edge_softmax(ctx, csr, num_heads, scores, dtype=dtype)
    return ctx.builder.finish()


def emit_batched_spmm_edges(
    ctx: EmitContext,
    csr: CSRMatrix,
    num_heads: int,
    feat_size: int,
    edge_values: Optional[np.ndarray] = None,
    features: Optional[np.ndarray] = None,
    dtype: str = "float32",
    bind: Optional[Dict[str, SparseBuffer]] = None,
) -> Dict[str, SparseBuffer]:
    """Append a multi-head SpMM whose edge values are per-head (``S[H, I, J]``).

    The attention-probability consumer: unlike :func:`emit_batched_spmm`,
    the sparse value buffer carries one value per (head, edge), so the
    softmax output feeds it directly.
    """
    bind = bind or {}
    h_axis = ctx.dense_fixed("H", num_heads)
    i_axis, j_axis = ctx.csr_axes(csr)
    s_buf = bind.get("edge_values")
    b_buf = bind.get("features")
    if b_buf is None:
        j_dense = ctx.dense_fixed("J_", csr.cols)
    k_axis = ctx.dense_fixed("K", feat_size)
    if s_buf is None:
        s_buf = ctx.buffer(
            "S", [h_axis, i_axis, j_axis], dtype=dtype,
            data=None if edge_values is None else np.asarray(edge_values).reshape(-1),
        )
    if b_buf is None:
        b_buf = ctx.buffer(
            "B", [h_axis, j_dense, k_axis], dtype=dtype,
            data=None if features is None else np.asarray(features).reshape(-1),
        )
    c_buf = ctx.buffer("C", [h_axis, i_axis, k_axis], dtype=dtype)
    with ctx.sp_iter(
        [h_axis, i_axis, j_axis, k_axis], "SSRS", "batched_spmm_edges"
    ) as (h, i, j, k):
        ctx.init(c_buf[h, i, k], 0.0)
        ctx.compute(c_buf[h, i, k], c_buf[h, i, k] + s_buf[h, i, j] * b_buf[h, j, k])
    return {"out": c_buf, "edge_values": s_buf, "features": b_buf}
