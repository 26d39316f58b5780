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

from typing import Dict, Optional, TYPE_CHECKING

import numpy as np

from ..core.buffers import SparseBuffer
from ..core.program import PrimFunc
from ..core.script import EmitContext, ProgramBuilder
from ..core.sparse_iteration import fuse
from ..formats.csr import CSRMatrix
from .common import INDEX_BYTES, ceil_div, dense_reuse_miss_rate, value_bytes

if TYPE_CHECKING:  # the GPU model is imported by the ``*_workload`` functions that price with it
    from ..perf.device import DeviceSpec
    from ..perf.workload import KernelWorkload


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


# ---------------------------------------------------------------------------
# Workload models
# ---------------------------------------------------------------------------

def sddmm_workload(
    csr: CSRMatrix,
    feat_size: int,
    device: DeviceSpec,
    nnz_per_block: int = 32,
    threads_per_block: int = 256,
    vector_width: int = 4,
    two_stage_reduction: bool = True,
    name: str = "sparsetir_sddmm",
    dtype: str = "float32",
    compute_efficiency: float = 0.9,
    memory_efficiency: float = 1.0,
) -> KernelWorkload:
    """The fused SparseTIR SDDMM: blocks own fixed-size slices of the edge list.

    Work per non-zero is identical, so there is no load-balancing concern; the
    schedule quality comes from vectorised loads of the feature rows and the
    two-stage (rfactor) reduction that keeps all lanes busy for large feature
    sizes.
    """
    from ..perf.workload import BlockGroup, KernelWorkload

    vbytes = value_bytes(dtype)
    num_blocks = max(1, ceil_div(csr.nnz, nnz_per_block))
    flops = 2.0 * nnz_per_block * feat_size

    # X rows are reused by all edges of the same row; Y columns are gathered.
    touched = 2.0 * csr.nnz * feat_size * vbytes
    unique = (csr.rows + csr.cols) * feat_size * vbytes
    miss = dense_reuse_miss_rate(unique, touched, device)
    reads = (
        nnz_per_block * (2 * INDEX_BYTES + vbytes)          # coo-style edge list + values
        + nnz_per_block * 2 * feat_size * vbytes * miss     # X row + Y column per edge
    )
    writes = nnz_per_block * vbytes

    reduction_efficiency = compute_efficiency if two_stage_reduction else compute_efficiency * 0.55

    workload = KernelWorkload(name=name, num_launches=1)
    workload.memory_footprint_bytes = csr.nbytes() + unique + csr.nnz * vbytes
    workload.metadata["feature_miss_rate"] = miss
    workload.add(
        BlockGroup(
            name="edge_slices",
            num_blocks=num_blocks,
            threads_per_block=threads_per_block,
            flops_per_block=flops,
            dram_read_bytes_per_block=reads,
            dram_write_bytes_per_block=writes,
            vector_width=vector_width,
            register_caching=True,
            unrolled=True,
            dtype=dtype,
            compute_efficiency=reduction_efficiency,
            memory_efficiency=memory_efficiency,
        )
    )
    return workload


def sddmm_flops(csr: CSRMatrix, feat_size: int) -> float:
    """Useful floating point operations of the SDDMM."""
    return 2.0 * csr.nnz * feat_size
