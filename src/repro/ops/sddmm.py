"""SDDMM: sampled dense-dense matrix multiplication (Section 4.2.2).

``B[i, j] = sum_k A[i, j] * X[i, k] * Y[k, j]`` evaluated only at the
non-zero positions of ``A``.  In GNNs this computes per-edge scores from node
embeddings.

The SparseTIR schedule fuses the ``(i, j)`` iteration into a single loop over
non-zeros (``sparse_fuse``), vectorises the feature loads and performs a
two-stage (``rfactor``) reduction — the PRedS optimisations expressed as
composable transformations.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..core.buffers import SparseBuffer
from ..core.program import PrimFunc
from ..core.script import EmitContext, ProgramBuilder
from ..core.sparse_iteration import fuse
from ..formats.csr import CSRMatrix


# ---------------------------------------------------------------------------
# Reference implementation
# ---------------------------------------------------------------------------

def sddmm_reference(csr: CSRMatrix, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-edge dot products scaled by the sparse values.

    Returns the new edge values in CSR order: ``out[e] = A[e] * <X[i], Y[:, j]>``.
    """
    x = np.asarray(x, dtype=np.float32)
    y = np.asarray(y, dtype=np.float32)
    if x.shape[0] != csr.rows:
        raise ValueError(f"X has {x.shape[0]} rows, expected {csr.rows}")
    if y.shape[1] != csr.cols:
        raise ValueError(f"Y has {y.shape[1]} columns, expected {csr.cols}")
    if x.shape[1] != y.shape[0]:
        raise ValueError("inner dimensions of X and Y do not match")
    out = np.zeros(csr.nnz, dtype=np.float32)
    for row in range(csr.rows):
        for pos in range(csr.indptr[row], csr.indptr[row + 1]):
            col = csr.indices[pos]
            out[pos] = csr.data[pos] * float(x[row] @ y[:, col])
    return out


# ---------------------------------------------------------------------------
# Executable operator (compile-once/run-many Session path)
# ---------------------------------------------------------------------------

def sddmm(
    csr: CSRMatrix,
    x: np.ndarray,
    y: np.ndarray,
    fuse_ij: bool = True,
    *,
    session=None,
    **options,
) -> np.ndarray:
    """Run the SDDMM of ``x`` ``(rows, feat)`` and ``y`` ``(feat, cols)`` at ``csr``'s non-zeros.

    ``fuse_ij`` iterates (row, edge) as one loop; options: see ``Session.sddmm``.
    """
    from ..runtime.session import get_default_session

    return (session or get_default_session()).sddmm(csr, x, y, fuse_ij=fuse_ij, **options)


# ---------------------------------------------------------------------------
# SparseTIR program
# ---------------------------------------------------------------------------

def build_sddmm_program(
    csr: CSRMatrix,
    feat_size: int,
    x: Optional[np.ndarray] = None,
    y: Optional[np.ndarray] = None,
    fuse_ij: bool = True,
    dtype: str = "float32",
) -> PrimFunc:
    """The SDDMM program; with ``fuse_ij`` the (i, j) axes iterate as one loop."""
    ctx = EmitContext(ProgramBuilder("sddmm"))
    emit_sddmm(ctx, csr, feat_size, x, y, fuse_ij=fuse_ij, dtype=dtype)
    return ctx.builder.finish()


def emit_sddmm(
    ctx: EmitContext,
    csr: CSRMatrix,
    feat_size: int,
    x: Optional[np.ndarray] = None,
    y: Optional[np.ndarray] = None,
    fuse_ij: bool = True,
    dtype: str = "float32",
    bind: Optional[Dict[str, SparseBuffer]] = None,
) -> Dict[str, SparseBuffer]:
    """Append the SDDMM iteration; ``bind`` may supply the ``x``/``y`` buffers."""
    bind = bind or {}
    i_axis, j_axis = ctx.csr_axes(csr)
    x_buf = bind.get("x")
    y_buf = bind.get("y")
    if x_buf is None:
        i_dense = ctx.dense_fixed("I_", csr.rows)
    if y_buf is None:
        j_dense = ctx.dense_fixed("J_", csr.cols)
    k_axis = ctx.dense_fixed("K", feat_size)
    a_buf = ctx.buffer("A", [i_axis, j_axis], dtype=dtype, data=csr.data)
    out_buf = ctx.buffer("OUT", [i_axis, j_axis], dtype=dtype)
    if x_buf is None:
        x_buf = ctx.buffer("X", [i_dense, k_axis], dtype=dtype, data=x)
    if y_buf is None:
        y_buf = ctx.buffer("Y", [k_axis, j_dense], dtype=dtype, data=y)
    axes = [fuse(i_axis, j_axis), k_axis] if fuse_ij else [i_axis, j_axis, k_axis]
    with ctx.sp_iter(axes, "SSR", "sddmm") as (i, j, k):
        ctx.init(out_buf[i, j], 0.0)
        ctx.compute(out_buf[i, j], out_buf[i, j] + a_buf[i, j] * x_buf[i, k] * y_buf[k, j])
    return {"out": out_buf, "x": x_buf, "y": y_buf, "values": a_buf}
