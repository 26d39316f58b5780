"""SpMM: sparse matrix x dense matrix (Section 4.2.1).

``Y[i, k] = sum_j A[i, j] * X[j, k]`` with ``A`` sparse and ``X``/``Y`` dense.

Two layers are provided:

* :func:`spmm_reference` — NumPy ground truth;
* :func:`build_spmm_program` / :func:`build_spmm_hyb_program` — SparseTIR
  stage-I programs compiled and executed through the full pipeline.

What the scheduled kernels cost on the simulated V100 (Figures 12 and 13) is
:mod:`repro.sim.ops.spmm`.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

import numpy as np

from ..core.buffers import SparseBuffer
from ..core.program import PrimFunc
from ..core.script import EmitContext, ProgramBuilder
from ..formats.csr import CSRMatrix
from ..formats.hyb import HybFormat


# ---------------------------------------------------------------------------
# Reference implementation
# ---------------------------------------------------------------------------

def spmm_reference(csr: CSRMatrix, features: np.ndarray) -> np.ndarray:
    """Dense ground truth: ``A @ X``."""
    features = np.asarray(features, dtype=np.float32)
    if features.shape[0] != csr.cols:
        raise ValueError(
            f"feature matrix has {features.shape[0]} rows, expected {csr.cols}"
        )
    return csr.to_scipy() @ features


def spmm_hyb_reference(hyb: HybFormat, features: np.ndarray) -> np.ndarray:
    """Ground truth computed bucket by bucket (validates the decomposition)."""
    features = np.asarray(features, dtype=np.float32)
    out = np.zeros((hyb.source.rows, features.shape[1]), dtype=np.float32)
    for bucket in hyb.buckets:
        ell = bucket.ell
        for local_row in range(ell.num_rows):
            target = int(ell.row_map[local_row])
            acc = np.zeros(features.shape[1], dtype=np.float32)
            for slot in range(ell.nnz_cols):
                col = ell.indices[local_row, slot]
                if col >= 0:
                    acc += ell.data[local_row, slot] * features[bucket.col_offset + col]
            out[target] += acc
    return out


# ---------------------------------------------------------------------------
# Executable operator (compile-once/run-many Session path)
# ---------------------------------------------------------------------------

def spmm(
    csr: CSRMatrix,
    features: np.ndarray,
    format: str = "csr",
    num_col_parts: int = 1,
    num_buckets: Optional[int] = None,
    *,
    session=None,
    **options,
) -> np.ndarray:
    """Run ``A @ X`` for ``features`` of shape ``(cols, feat)``.

    ``format`` is ``"csr"`` or ``"hyb"`` (decomposed by ``num_col_parts`` /
    ``num_buckets``); options: see ``Session.spmm``.
    """
    from ..runtime.session import get_default_session

    return (session or get_default_session()).spmm(
        csr, features, format=format, num_col_parts=num_col_parts,
        num_buckets=num_buckets, **options,
    )


# ---------------------------------------------------------------------------
# SparseTIR programs (compiled through the full pipeline)
# ---------------------------------------------------------------------------

def emit_spmm(
    ctx: EmitContext,
    csr: CSRMatrix,
    feat_size: int,
    features: Optional[np.ndarray] = None,
    dtype: str = "float32",
    bind: Optional[Dict[str, SparseBuffer]] = None,
) -> Dict[str, SparseBuffer]:
    """Append the Figure-3 CSR SpMM iteration to a shared program.

    ``bind`` may map ``"features"`` to an already-emitted buffer (the output
    of a fused producer), in which case no fresh input buffer is created.
    Returns the operator's buffers by logical role (``"out"``,
    ``"features"``, and ``"values"`` for the matrix's own value array).
    """
    bind = bind or {}
    i_axis, j_axis = ctx.csr_axes(csr)
    b_buf = bind.get("features")
    if b_buf is None:
        j_dense = ctx.dense_fixed("J_", csr.cols)
    k_axis = ctx.dense_fixed("K", feat_size)
    a_buf = ctx.buffer("A", [i_axis, j_axis], dtype=dtype, data=csr.data)
    if b_buf is None:
        b_buf = ctx.buffer("B", [j_dense, k_axis], dtype=dtype, data=features)
    c_buf = ctx.buffer("C", [i_axis, k_axis], dtype=dtype)
    with ctx.sp_iter([i_axis, j_axis, k_axis], "SRS", "spmm") as (i, j, k):
        ctx.init(c_buf[i, k], 0.0)
        ctx.compute(c_buf[i, k], c_buf[i, k] + a_buf[i, j] * b_buf[j, k])
    return {"out": c_buf, "features": b_buf, "values": a_buf}


def build_spmm_program(
    csr: CSRMatrix,
    feat_size: int,
    features: Optional[np.ndarray] = None,
    dtype: str = "float32",
) -> PrimFunc:
    """The CSR SpMM program of Figure 3."""
    ctx = EmitContext(ProgramBuilder("spmm"))
    emit_spmm(ctx, csr, feat_size, features, dtype=dtype)
    return ctx.builder.finish()


def emit_spmm_hyb(
    ctx: EmitContext,
    hyb: HybFormat,
    feat_size: int,
    features: Optional[np.ndarray] = None,
    dtype: str = "float32",
    bind: Optional[Dict[str, SparseBuffer]] = None,
) -> Dict[str, SparseBuffer]:
    """Append the composable hyb SpMM iterations (init + one per bucket)."""
    bind = bind or {}
    rows, cols = hyb.source.shape
    i_axis = ctx.dense_fixed("I", rows)
    k_axis = ctx.dense_fixed("K", feat_size)
    b_buf = bind.get("features")
    if b_buf is None:
        j_dense = ctx.dense_fixed("J_", cols)
        b_buf = ctx.buffer("B", [j_dense, k_axis], dtype=dtype, data=features)
    c_buf = ctx.buffer("C", [i_axis, k_axis], dtype=dtype)

    with ctx.sp_iter([i_axis, k_axis], "SS", "init_output") as (i, k):
        ctx.compute(c_buf[i, k], 0.0)

    for index, bucket in enumerate(hyb.buckets):
        ell = bucket.ell
        name = f"p{bucket.partition}_w{bucket.width}_{index}"
        row_axis = ctx.dense_fixed(f"I_{name}", ell.num_rows)
        col_axis = ctx.builder.sparse_fixed(
            ctx.name(f"J_{name}"), parent=row_axis, length=cols, nnz_cols=ell.nnz_cols,
            indices=(ell.indices + np.where(ell.indices >= 0, bucket.col_offset, 0)).reshape(-1),
        )
        k_local = ctx.dense_fixed(f"K_{name}", feat_size)
        values = ctx.buffer(
            f"A_{name}", [row_axis, col_axis], dtype=dtype, data=ell.data.reshape(-1)
        )
        row_map = ctx.buffer(f"rowmap_{name}", [row_axis], dtype="int32", data=ell.row_map)
        with ctx.sp_iter([row_axis, col_axis, k_local], "SRS", f"spmm_{name}") as (i, j, k):
            ctx.compute(
                c_buf[row_map[i], k], c_buf[row_map[i], k] + values[i, j] * b_buf[j, k]
            )
    return {"out": c_buf, "features": b_buf}


def build_spmm_hyb_program(
    hyb: HybFormat,
    feat_size: int,
    features: Optional[np.ndarray] = None,
    dtype: str = "float32",
) -> PrimFunc:
    """SpMM decomposed over the buckets of a hyb format.

    One sparse iteration is generated per ELL bucket; each iteration gathers
    the bucket's rows through its ``row_map`` buffer (the non-affine indirect
    indexing SparseTIR supports, Section 3.1) and accumulates into the shared
    output.  Zero-initialisation of the output is a separate spatial
    iteration, mirroring how the generated kernels accumulate across buckets.
    """
    ctx = EmitContext(ProgramBuilder("spmm_hyb"))
    emit_spmm_hyb(ctx, hyb, feat_size, features, dtype=dtype)
    return ctx.builder.finish()


def choose_hyb_parameters(csr: CSRMatrix) -> Tuple[int, int]:
    """Default hyb parameters: ``c = 16``, ``k = ceil(log2(max(nnz/n, 1))) + 1``.

    The bucket count is one more than the paper's stated
    ``ceil(log2(avg_degree))`` so the widest bucket width ``2^(k-1)`` covers
    the average degree without row splitting (matches
    :meth:`repro.formats.hyb.HybFormat.from_csr`).
    """
    average_degree = max(csr.nnz / max(csr.rows, 1), 1.0)
    num_buckets = max(1, int(math.ceil(math.log2(average_degree))) + 1)
    candidate_parts = [1, 2, 4, 8, 16]
    return candidate_parts[-1], num_buckets
