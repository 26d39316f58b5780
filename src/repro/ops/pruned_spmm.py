"""SpMM over pruned transformer weights (Section 4.3.2, Figures 17 and 19).

The operator is ``Y = W X`` where ``W`` is a pruned (sparse) weight matrix
and ``X`` a dense activation of shape (in_features, sequence_length).  The BSR
program is executable; what the BSR / DBSR / SR-BCRS tensor-core kernels cost
on the simulated GPU is :mod:`repro.sim.ops.pruned_spmm`.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..core.buffers import SparseBuffer
from ..core.program import PrimFunc
from ..core.script import EmitContext, ProgramBuilder
from ..formats.bsr import BSRMatrix


# ---------------------------------------------------------------------------
# Reference implementation and executable operator
# ---------------------------------------------------------------------------

def pruned_spmm_reference(bsr: BSRMatrix, x: np.ndarray) -> np.ndarray:
    """Dense ground truth ``W @ X`` for a block-pruned weight matrix."""
    x = np.asarray(x, dtype=np.float32)
    if x.shape[0] != bsr.shape[1]:
        raise ValueError(f"activation has {x.shape[0]} rows, expected {bsr.shape[1]}")
    return (bsr.to_scipy() @ x).astype(np.float32)


def pruned_spmm(bsr: BSRMatrix, x: np.ndarray, *, session=None, **options) -> np.ndarray:
    """Run ``W @ X`` (``x`` is ``(in_features, seq_len)``); options: see ``Session.pruned_spmm``."""
    from ..runtime.session import get_default_session

    return (session or get_default_session()).pruned_spmm(bsr, x, **options)


# ---------------------------------------------------------------------------
# SparseTIR program (compiled through the full pipeline)
# ---------------------------------------------------------------------------

def emit_pruned_spmm_bsr(
    ctx: EmitContext, bsr: BSRMatrix, seq_len: int, x: Optional[np.ndarray] = None
) -> Dict[str, SparseBuffer]:
    """Append the BSR pruned-SpMM iteration; returns its buffers by role.

    ``Y[ib*b + bi, k] = sum_{jb, bj} W[ib, jb, bi, bj] * X[jb*b + bj, k]``
    where ``(ib, jb)`` walk the block sparsity structure and ``(bi, bj)``
    the dense interior of each ``b x b`` block.
    """
    b = bsr.block_size
    ib_axis, jb_axis = ctx.bsr_axes(bsr)
    bi_axis = ctx.dense_fixed("BI", b)
    bj_axis = ctx.dense_fixed("BJ", b)
    k_axis = ctx.dense_fixed("K", seq_len)
    i_dense = ctx.dense_fixed("I_", bsr.shape[0])
    j_dense = ctx.dense_fixed("J_", bsr.shape[1])
    w_buf = ctx.buffer("W", [ib_axis, jb_axis, bi_axis, bj_axis], data=bsr.data.reshape(-1))
    x_buf = ctx.buffer("X", [j_dense, k_axis], data=x)
    y_buf = ctx.buffer("Y", [i_dense, k_axis])
    with ctx.sp_iter(
        [ib_axis, jb_axis, bi_axis, bj_axis, k_axis], "SRSRS", "pruned_spmm"
    ) as (ib, jb, bi, bj, k):
        ctx.init(y_buf[ib * b + bi, k], 0.0)
        ctx.compute(
            y_buf[ib * b + bi, k],
            y_buf[ib * b + bi, k] + w_buf[ib, jb, bi, bj] * x_buf[jb * b + bj, k],
        )
    return {"out": y_buf, "x": x_buf, "values": w_buf}


def build_pruned_spmm_bsr_program(
    bsr: BSRMatrix, seq_len: int, x: Optional[np.ndarray] = None
) -> PrimFunc:
    """The standalone BSR pruned-SpMM program of Section 4.3.2."""
    ctx = EmitContext(ProgramBuilder("pruned_spmm_bsr"))
    emit_pruned_spmm_bsr(ctx, bsr, seq_len, x)
    return ctx.builder.finish()
