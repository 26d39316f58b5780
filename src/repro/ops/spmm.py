"""SpMM: sparse matrix x dense matrix (Section 4.2.1).

``Y[i, k] = sum_j A[i, j] * X[j, k]`` with ``A`` sparse and ``X``/``Y`` dense.

Three layers are provided:

* :func:`spmm_reference` — NumPy ground truth;
* :func:`build_spmm_program` / :func:`build_spmm_hyb_program` — SparseTIR
  stage-I programs compiled and executed through the full pipeline;
* :func:`spmm_csr_workload` / :func:`spmm_hyb_workload` — analytic kernel
  workload models of the SparseTIR schedules (GE-SpMM-style row mapping for
  CSR, bucketed ELL thread-block mapping for ``hyb(c, k)``) used by the
  performance model to regenerate Figures 12 and 13.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, TYPE_CHECKING, Tuple

import numpy as np

from ..core.buffers import SparseBuffer
from ..core.program import PrimFunc
from ..core.script import EmitContext, ProgramBuilder
from ..formats.csr import CSRMatrix
from ..formats.hyb import HybFormat
from .common import (
    INDEX_BYTES,
    ceil_div,
    dense_reuse_miss_rate,
    split_row_blocks,
    value_bytes,
)

if TYPE_CHECKING:  # the GPU model is imported by the ``*_workload`` functions that price with it
    from ..perf.device import DeviceSpec
    from ..perf.workload import KernelWorkload


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


# ---------------------------------------------------------------------------
# Workload models of the scheduled kernels
# ---------------------------------------------------------------------------

def spmm_csr_workload(
    csr: CSRMatrix,
    feat_size: int,
    device: DeviceSpec,
    rows_per_block: int = 1,
    threads_per_block: int = 128,
    vector_width: int = 4,
    register_caching: bool = True,
    unrolled: bool = True,
    name: str = "sparsetir_spmm_csr",
    dtype: str = "float32",
    memory_efficiency: float = 1.0,
    compute_efficiency: float = 0.9,
    max_nnz_per_block: Optional[int] = None,
) -> KernelWorkload:
    """GE-SpMM-style CSR SpMM: a group of rows per thread block.

    The per-block work follows the actual row lengths, so the model sees the
    load imbalance of skewed (power-law) graphs — the phenomenon that the
    ``hyb`` format removes.  ``max_nnz_per_block`` enables long-row splitting
    for baselines whose kernels bound the per-block work.
    """
    from ..perf.workload import BlockGroup, KernelWorkload

    vbytes = value_bytes(dtype)
    lengths = csr.row_lengths()
    per_block_nnz = split_row_blocks(lengths, rows_per_block, max_nnz_per_block)
    num_blocks = len(per_block_nnz)
    flops = 2.0 * per_block_nnz * feat_size

    touched_x = csr.nnz * feat_size * vbytes
    unique_x = csr.cols * feat_size * vbytes
    x_miss = dense_reuse_miss_rate(unique_x, touched_x, device)
    reads = (
        per_block_nnz * (INDEX_BYTES + vbytes)              # indices + values
        + per_block_nnz * feat_size * vbytes * x_miss       # gathered X rows
        + INDEX_BYTES * (rows_per_block + 1)                # indptr
    )
    writes = np.full(num_blocks, rows_per_block * feat_size * vbytes, dtype=np.float64)

    workload = KernelWorkload(name=name, num_launches=1)
    workload.memory_footprint_bytes = (
        csr.nbytes() + (csr.cols + csr.rows) * feat_size * vbytes
    )
    workload.metadata["x_miss_rate"] = x_miss
    workload.add(
        BlockGroup(
            name="csr_rows",
            num_blocks=num_blocks,
            threads_per_block=threads_per_block,
            flops_per_block=flops,
            dram_read_bytes_per_block=reads,
            dram_write_bytes_per_block=writes,
            vector_width=vector_width,
            register_caching=register_caching,
            unrolled=unrolled,
            dtype=dtype,
            memory_efficiency=memory_efficiency,
            compute_efficiency=compute_efficiency,
        )
    )
    return workload


def spmm_hyb_workload(
    hyb: HybFormat,
    feat_size: int,
    device: DeviceSpec,
    threads_per_block: int = 128,
    horizontal_fusion: bool = True,
    name: str = "sparsetir_spmm_hyb",
    dtype: str = "float32",
) -> KernelWorkload:
    """SpMM over ``hyb(c, k)``: one balanced block group per ELL bucket.

    Following Section 4.2.1, bucket ``i`` (width ``2^i``) groups ``2^(k-i)``
    rows per thread block so every block processes ``2^k`` stored elements.
    Column partitioning improves the locality of the dense operand (the
    partition's slice of ``X`` is what must stay cached) at the cost of
    updating the output once per partition.
    """
    from ..perf.workload import BlockGroup, KernelWorkload

    vbytes = value_bytes(dtype)
    csr = hyb.source
    max_width = hyb.bucket_widths[-1]
    num_parts = hyb.num_col_parts
    partition_cols = ceil_div(csr.cols, num_parts)

    # Reuse of the dense operand happens across all buckets of one column
    # partition (they gather from the same slice of X), so the miss rate is
    # computed per partition, not per bucket.
    stored_per_partition: Dict[int, int] = {}
    for bucket in hyb.buckets:
        stored_per_partition[bucket.partition] = (
            stored_per_partition.get(bucket.partition, 0) + bucket.stored
        )
    partition_miss = {
        part: dense_reuse_miss_rate(
            partition_cols * feat_size * vbytes, stored * feat_size * vbytes, device
        )
        for part, stored in stored_per_partition.items()
    }

    workload = KernelWorkload(name=name)
    for bucket in hyb.buckets:
        ell = bucket.ell
        rows_per_block = max(1, max_width // bucket.width)
        num_blocks = ceil_div(ell.num_rows, rows_per_block)
        stored_per_block = rows_per_block * bucket.width
        flops = 2.0 * stored_per_block * feat_size
        x_miss = partition_miss[bucket.partition]
        reads = (
            stored_per_block * (INDEX_BYTES + vbytes)
            + stored_per_block * feat_size * vbytes * x_miss
            + rows_per_block * INDEX_BYTES                     # row_map
        )
        # With more than one column partition the output row is read-modify-
        # written once per partition.
        output_traffic = rows_per_block * feat_size * vbytes
        reads += output_traffic if num_parts > 1 else 0.0
        writes = output_traffic

        workload.add(
            BlockGroup(
                name=f"ell_p{bucket.partition}_w{bucket.width}",
                num_blocks=num_blocks,
                threads_per_block=threads_per_block,
                flops_per_block=flops,
                dram_read_bytes_per_block=reads,
                dram_write_bytes_per_block=writes,
                vector_width=4,
                register_caching=True,
                unrolled=True,
                dtype=dtype,
                compute_efficiency=0.9,
                metadata={"x_miss_rate": x_miss, "width": bucket.width},
            )
        )
    workload.num_launches = 1 if horizontal_fusion else max(1, len(hyb.buckets))
    workload.memory_footprint_bytes = (
        hyb.nbytes() + (csr.cols + csr.rows) * feat_size * vbytes
    )
    workload.metadata["padding_ratio"] = hyb.padding_ratio
    return workload


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


def spmm_flops(csr: CSRMatrix, feat_size: int) -> float:
    """Useful floating point operations of the SpMM."""
    return 2.0 * csr.nnz * feat_size
