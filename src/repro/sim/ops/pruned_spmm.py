"""What pruned-weight SpMM costs on the simulated GPU (Figures 17 and 19).

Three SparseTIR kernel strategies are modelled:

* **BSR + Tensor Cores** — one thread block per weight block row; empty block
  rows still cost a (small) tile visit because plain BSR cannot skip them.
* **DBSR + Tensor Cores** — the doubly-compressed format enumerates only the
  non-empty block rows, so the kernel launches proportionally fewer blocks.
* **SR-BCRS + Tensor Cores** — groups of ``t x 1`` tiles feed ``m8n32k16``
  MMA instructions; fragmentation is bounded by ``1/t`` instead of ``1/b^2``.
"""

from __future__ import annotations

import numpy as np

from ...formats.bsr import BSRMatrix
from ...formats.dbsr import DBSRMatrix
from ...formats.srbcrs import SRBCRSMatrix
from ..common import INDEX_BYTES, dense_reuse_miss_rate, value_bytes
from ..device import DeviceSpec
from ..workload import BlockGroup, KernelWorkload


#: Bytes of fixed work a thread block performs even when its block row is
#: empty (reading the row extent, exiting).
_EMPTY_ROW_VISIT_BYTES = 64.0


def pruned_spmm_bsr_workload(
    bsr: BSRMatrix,
    seq_len: int,
    device: DeviceSpec,
    mma_efficiency: float = 0.70,
    name: str = "sparsetir_pruned_bsr",
) -> KernelWorkload:
    """BSR SpMM with tensorized blocks; empty block rows are still visited."""
    vbytes = value_bytes("float16")
    b = bsr.block_size
    lengths = bsr.block_row_lengths.astype(np.float64)
    flops = 2.0 * lengths * b * b * seq_len
    x_miss = dense_reuse_miss_rate(
        bsr.shape[1] * seq_len * vbytes, bsr.nnz_stored / b * seq_len * vbytes, device
    )
    reads = (
        lengths * (b * b * vbytes + INDEX_BYTES)
        + lengths * b * seq_len * vbytes * x_miss
        + _EMPTY_ROW_VISIT_BYTES
    )
    writes = np.where(lengths > 0, b * seq_len * vbytes, 0.0)
    workload = KernelWorkload(name=name, num_launches=1)
    workload.memory_footprint_bytes = bsr.nbytes(value_bytes=vbytes) + (
        bsr.shape[1] + bsr.shape[0]
    ) * seq_len * vbytes
    workload.add(
        BlockGroup(
            name="bsr_block_rows",
            num_blocks=bsr.block_rows,
            threads_per_block=4 * device.warp_size,
            flops_per_block=flops,
            dram_read_bytes_per_block=reads,
            dram_write_bytes_per_block=writes,
            shared_mem_bytes=2 * b * min(seq_len, 128) * vbytes,
            uses_tensor_core=True,
            dtype="float16",
            vector_width=8,
            compute_efficiency=mma_efficiency,
        )
    )
    return workload


def pruned_spmm_dbsr_workload(
    dbsr: DBSRMatrix,
    seq_len: int,
    device: DeviceSpec,
    mma_efficiency: float = 0.70,
    name: str = "sparsetir_pruned_dbsr",
) -> KernelWorkload:
    """DBSR SpMM: only the non-empty block rows launch work."""
    vbytes = value_bytes("float16")
    b = dbsr.block_size
    lengths = np.diff(dbsr.indptr).astype(np.float64)
    flops = 2.0 * lengths * b * b * seq_len
    x_miss = dense_reuse_miss_rate(
        dbsr.shape[1] * seq_len * vbytes, dbsr.nnz_stored / b * seq_len * vbytes, device
    )
    reads = (
        lengths * (b * b * vbytes + INDEX_BYTES)
        + lengths * b * seq_len * vbytes * x_miss
        + INDEX_BYTES  # row_indices entry
    )
    writes = np.full(len(lengths), b * seq_len * vbytes)
    workload = KernelWorkload(name=name, num_launches=1)
    workload.memory_footprint_bytes = dbsr.nbytes(value_bytes=vbytes) + (
        dbsr.shape[1] + dbsr.shape[0]
    ) * seq_len * vbytes
    workload.add(
        BlockGroup(
            name="dbsr_block_rows",
            num_blocks=dbsr.num_stored_block_rows,
            threads_per_block=4 * device.warp_size,
            flops_per_block=flops,
            dram_read_bytes_per_block=reads,
            dram_write_bytes_per_block=writes,
            shared_mem_bytes=2 * b * min(seq_len, 128) * vbytes,
            uses_tensor_core=True,
            dtype="float16",
            vector_width=8,
            compute_efficiency=mma_efficiency,
        )
    )
    return workload


def pruned_spmm_srbcrs_workload(
    sr: SRBCRSMatrix,
    seq_len: int,
    device: DeviceSpec,
    mma_efficiency: float = 0.65,
    name: str = "sparsetir_pruned_srbcrs",
) -> KernelWorkload:
    """SR-BCRS SpMM: each tile group feeds one m8n32k16 MMA pipeline."""
    vbytes = value_bytes("float16")
    t, g = sr.tile_rows, sr.group_size
    groups_per_row = np.diff(sr.group_indptr).astype(np.float64)
    active = groups_per_row[groups_per_row > 0]
    if active.size == 0:
        active = np.zeros(1)
    flops = 2.0 * active * g * t * seq_len
    x_miss = dense_reuse_miss_rate(
        sr.source.cols * seq_len * vbytes, sr.num_stored_tiles * seq_len * vbytes, device
    )
    reads = (
        active * g * (t * vbytes + INDEX_BYTES)       # tile values + tile column ids
        + active * g * seq_len * vbytes * x_miss      # gathered dense rows (L2 reuse)
    )
    writes = np.full(active.size, t * seq_len * vbytes)
    workload = KernelWorkload(name=name, num_launches=1)
    workload.memory_footprint_bytes = sr.nbytes() + (
        sr.source.cols + sr.source.rows
    ) * seq_len * vbytes
    workload.add(
        BlockGroup(
            name="srbcrs_tile_rows",
            num_blocks=int(active.size),
            threads_per_block=4 * device.warp_size,
            flops_per_block=flops,
            dram_read_bytes_per_block=reads,
            dram_write_bytes_per_block=writes,
            shared_mem_bytes=g * t * vbytes + g * min(seq_len, 128) * vbytes,
            uses_tensor_core=True,
            dtype="float16",
            vector_width=8,
            compute_efficiency=mma_efficiency,
            metadata={"intrin": "mma_m8n32k16"},
        )
    )
    return workload
