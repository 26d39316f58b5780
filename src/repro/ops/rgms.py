"""RGMS: Relational Gather-Matmul-Scatter (Section 4.4).

``Y[i, l] = sum_r sum_j sum_k A[r, i, j] * X[j, k] * W[r, k, l]``

where ``A`` is a 3-D sparse tensor (one adjacency matrix per relation), ``X``
is the node feature matrix and ``W`` holds one dense weight matrix per
relation.  RGCN layers and sparse convolutions are both instances of RGMS.

What its execution strategies (two-stage versus the fused schedule of
Figure 21) cost on the simulated GPU is :mod:`repro.sim.ops.rgms`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from ..core.buffers import SparseBuffer
from ..core.program import PrimFunc
from ..core.script import EmitContext, ProgramBuilder
from ..formats.csf import CSFTensor


# ---------------------------------------------------------------------------
# Reference implementation
# ---------------------------------------------------------------------------

def rgms_reference(adjacency: CSFTensor, x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Dense ground truth of the RGMS operator.

    ``adjacency`` has shape (R, n, n), ``x`` is (n, d_in), ``w`` is
    (R, d_in, d_out); the result is (n, d_out).
    """
    x = np.asarray(x, dtype=np.float32)
    w = np.asarray(w, dtype=np.float32)
    num_relations, rows, _ = adjacency.shape
    if w.shape[0] != num_relations:
        raise ValueError("weight tensor must have one matrix per relation")
    out = np.zeros((rows, w.shape[2]), dtype=np.float32)
    for r in range(num_relations):
        matrix = adjacency.slices[r]
        if matrix is None or matrix.nnz == 0:
            continue
        out += matrix.to_scipy() @ (x @ w[r])
    return out


def rgms_two_stage_reference(adjacency: CSFTensor, x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The frameworks' two-stage formulation (equations 9-10); same result."""
    x = np.asarray(x, dtype=np.float32)
    w = np.asarray(w, dtype=np.float32)
    num_relations = adjacency.shape[0]
    t = np.stack([x @ w[r] for r in range(num_relations)])
    out = np.zeros((adjacency.shape[1], w.shape[2]), dtype=np.float32)
    for r in range(num_relations):
        matrix = adjacency.slices[r]
        if matrix is None or matrix.nnz == 0:
            continue
        out += matrix.to_scipy() @ t[r]
    return out


# ---------------------------------------------------------------------------
# Executable operator (compile-once/run-many Session path)
# ---------------------------------------------------------------------------

def rgms(
    adjacency: CSFTensor, x: np.ndarray, w: np.ndarray, *, session=None, **options
) -> np.ndarray:
    """Run RGMS over ``adjacency`` ``(R, n, n)``, ``x`` ``(n, d_in)``, ``w`` ``(R, d_in, d_out)``.

    Options: see ``Session.rgms``.
    """
    from ..runtime.session import get_default_session

    return (session or get_default_session()).rgms(adjacency, x, w, **options)


def build_rgms_program(
    adjacency: CSFTensor,
    in_feats: int,
    out_feats: int,
    x: Optional[np.ndarray] = None,
    w: Optional[np.ndarray] = None,
) -> PrimFunc:
    """The fused RGMS program over the CSF (per-relation) decomposition.

    Following the decomposition of Section 4.4, the dense relation dimension
    of the CSF tensor unrolls into one sparse iteration per non-empty
    relation; every iteration gathers the relation's neighbour rows of ``X``,
    contracts them with the relation's weight matrix and accumulates into the
    shared output ``Y`` (initialised by a separate spatial iteration, the
    idiom of the composable ``hyb`` SpMM).  One build covers the whole
    operator, so the per-relation lowering work is amortised by the
    structural kernel cache across layers and forward passes.
    """
    ctx = EmitContext(ProgramBuilder("rgms"))
    emit_rgms(ctx, adjacency, in_feats, out_feats, x, w)
    return ctx.builder.finish()


def emit_rgms(
    ctx: EmitContext,
    adjacency: CSFTensor,
    in_feats: int,
    out_feats: int,
    x: Optional[np.ndarray] = None,
    w: Optional[np.ndarray] = None,
    bind: Optional[Dict[str, SparseBuffer]] = None,
) -> Dict[str, SparseBuffer]:
    """Append the per-relation RGMS iterations; ``bind`` may supply ``x``."""
    bind = bind or {}
    num_relations, rows, cols = adjacency.shape
    if w is not None and np.asarray(w).shape[0] != num_relations:
        raise ValueError("weight tensor must have one matrix per relation")
    i_axis = ctx.dense_fixed("I", rows)
    x_buf = bind.get("x")
    if x_buf is None:
        j_dense = ctx.dense_fixed("J_", cols)
        k_axis = ctx.dense_fixed("K", in_feats)
    l_axis = ctx.dense_fixed("L", out_feats)
    if x_buf is None:
        x_buf = ctx.buffer(
            "X", [j_dense, k_axis],
            data=None if x is None else np.asarray(x, dtype=np.float32).reshape(-1),
        )
    y_buf = ctx.buffer("Y", [i_axis, l_axis])

    with ctx.sp_iter([i_axis, l_axis], "SS", "init_output") as (i, l):
        ctx.compute(y_buf[i, l], 0.0)

    w_arr = None if w is None else np.asarray(w, dtype=np.float32)
    for relation, matrix in enumerate(adjacency.slices):
        if matrix is None or matrix.nnz == 0:
            continue
        j_axis = ctx.builder.sparse_variable(
            ctx.name(f"J{relation}"), parent=i_axis, length=cols, nnz=matrix.nnz,
            indptr=matrix.indptr, indices=matrix.indices,
        )
        k_local = ctx.dense_fixed(f"K{relation}", in_feats)
        l_local = ctx.dense_fixed(f"L{relation}", out_feats)
        a_buf = ctx.buffer(f"A{relation}", [i_axis, j_axis], data=matrix.data)
        w_buf = ctx.buffer(
            f"W{relation}", [k_local, l_local],
            data=None if w_arr is None else w_arr[relation].reshape(-1),
        )
        with ctx.sp_iter(
            [i_axis, j_axis, k_local, l_local], "SRRS", f"rgms_r{relation}"
        ) as (i, j, k, l):
            ctx.compute(
                y_buf[i, l], y_buf[i, l] + a_buf[i, j] * x_buf[j, k] * w_buf[k, l]
            )
    return {"out": y_buf, "x": x_buf}


# ---------------------------------------------------------------------------
# The problem description (read by the tuner and by ``repro.sim``)
# ---------------------------------------------------------------------------

@dataclass
class RGMSProblem:
    """Shapes and structure of one RGMS instance."""

    adjacency: CSFTensor
    in_feats: int
    out_feats: int

    @property
    def num_relations(self) -> int:
        return self.adjacency.shape[0]

    @property
    def num_nodes(self) -> int:
        return self.adjacency.shape[1]

    @property
    def nnz(self) -> int:
        return self.adjacency.nnz
