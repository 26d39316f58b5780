"""What the multi-head attention kernels cost on the simulated GPU (Figure 16).

The block-sparse structure lets the BSR variants run on Tensor Cores with
half-precision inputs, which is where the speedups of Figure 16 come from; the
CSR variants fall back to scalar CUDA cores and lose badly (0.04-0.08x in the
paper), which the model reproduces.
"""

from __future__ import annotations

import numpy as np

from ...formats.bsr import BSRMatrix
from ...formats.csr import CSRMatrix
from ..common import INDEX_BYTES, ceil_div, value_bytes
from ..device import DeviceSpec
from ..tensor_core import MMA_SHAPES
from ..workload import BlockGroup, KernelWorkload


def batched_spmm_bsr_workload(
    bsr: BSRMatrix,
    feat_size: int,
    num_heads: int,
    device: DeviceSpec,
    intrin: str = "mma_m16n16k16",
    name: str = "sparsetir_bsr_spmm",
    mma_efficiency: float = 0.70,
) -> KernelWorkload:
    """Multi-head SpMM on BSR using tensorized (MMA) blocks.

    One thread block handles one block-row of one head; the block's tiles are
    multiplied on Tensor Cores with the corresponding feature tiles staged
    through shared memory.
    """
    vbytes = value_bytes("float16")
    b = bsr.block_size
    lengths = bsr.block_row_lengths.astype(np.float64)
    flops = 2.0 * lengths * b * b * feat_size
    reads = (
        lengths * b * b * vbytes                      # block values
        + lengths * INDEX_BYTES                       # block column indices
        + lengths * b * feat_size * vbytes            # gathered feature tiles
    )
    writes = np.full(len(lengths), b * feat_size * vbytes, dtype=np.float64)

    workload = KernelWorkload(name=name, num_launches=1)
    workload.memory_footprint_bytes = num_heads * (
        bsr.nbytes(value_bytes=vbytes) + 2 * bsr.shape[1] * feat_size * vbytes
    )
    workload.add(
        BlockGroup(
            name="bsr_block_rows",
            num_blocks=int(len(lengths)) * num_heads,
            threads_per_block=4 * device.warp_size,
            flops_per_block=np.tile(flops, num_heads),
            dram_read_bytes_per_block=np.tile(reads, num_heads),
            dram_write_bytes_per_block=np.tile(writes, num_heads),
            shared_mem_bytes=2 * b * feat_size * vbytes,
            uses_tensor_core=True,
            dtype="float16",
            vector_width=8,
            compute_efficiency=mma_efficiency,
            metadata={"intrin": intrin, "mma_shape": MMA_SHAPES[intrin]},
        )
    )
    return workload


def batched_spmm_csr_workload(
    csr: CSRMatrix,
    feat_size: int,
    num_heads: int,
    device: DeviceSpec,
    name: str = "sparsetir_csr_spmm",
) -> KernelWorkload:
    """Multi-head SpMM in scalar CSR form: no tensor cores, element-wise loads.

    The block-sparse structure degenerates to per-element indices, which both
    inflates index traffic and prevents MMA use — the reason the CSR variant
    is ~20x slower than the BSR variant in Figure 16.
    """
    vbytes = value_bytes("float16")
    lengths = csr.row_lengths().astype(np.float64)
    flops = 2.0 * lengths * feat_size
    reads = lengths * (INDEX_BYTES + vbytes) + lengths * feat_size * vbytes
    writes = np.full(len(lengths), feat_size * vbytes, dtype=np.float64)

    workload = KernelWorkload(name=name, num_launches=1)
    workload.memory_footprint_bytes = num_heads * (
        csr.nbytes(value_bytes=vbytes) + 2 * csr.cols * feat_size * vbytes
    )
    workload.add(
        BlockGroup(
            name="csr_rows",
            num_blocks=int(len(lengths)) * num_heads,
            threads_per_block=device.warp_size,
            flops_per_block=np.tile(flops, num_heads),
            dram_read_bytes_per_block=np.tile(reads, num_heads),
            dram_write_bytes_per_block=np.tile(writes, num_heads),
            uses_tensor_core=False,
            dtype="float16",
            vector_width=1,
            compute_efficiency=0.5,
        )
    )
    return workload


def batched_sddmm_bsr_workload(
    bsr: BSRMatrix,
    feat_size: int,
    num_heads: int,
    device: DeviceSpec,
    intrin: str = "mma_m16n16k16",
    name: str = "sparsetir_bsr_sddmm",
    mma_efficiency: float = 0.70,
) -> KernelWorkload:
    """Multi-head SDDMM on BSR: each stored block is a small Q x K^T matmul."""
    vbytes = value_bytes("float16")
    b = bsr.block_size
    blocks_per_tb = max(1, 64 // b)
    num_tb = ceil_div(bsr.num_blocks, blocks_per_tb)
    flops = 2.0 * blocks_per_tb * b * b * feat_size
    reads = blocks_per_tb * (2 * b * feat_size * vbytes + INDEX_BYTES * 2)
    writes = blocks_per_tb * b * b * vbytes

    workload = KernelWorkload(name=name, num_launches=1)
    workload.memory_footprint_bytes = num_heads * (
        bsr.nbytes(value_bytes=vbytes) + 2 * bsr.shape[0] * feat_size * vbytes
    )
    workload.add(
        BlockGroup(
            name="bsr_blocks",
            num_blocks=num_tb * num_heads,
            threads_per_block=4 * device.warp_size,
            flops_per_block=flops,
            dram_read_bytes_per_block=reads,
            dram_write_bytes_per_block=writes,
            shared_mem_bytes=2 * b * feat_size * vbytes,
            uses_tensor_core=True,
            dtype="float16",
            vector_width=8,
            compute_efficiency=mma_efficiency,
            metadata={"intrin": intrin},
        )
    )
    return workload


def batched_sddmm_csr_workload(
    csr: CSRMatrix,
    feat_size: int,
    num_heads: int,
    device: DeviceSpec,
    name: str = "sparsetir_csr_sddmm",
) -> KernelWorkload:
    """Scalar multi-head SDDMM over the element-wise mask (no tensor cores)."""
    vbytes = value_bytes("float16")
    nnz_per_block = 16
    num_tb = ceil_div(csr.nnz, nnz_per_block)
    flops = 2.0 * nnz_per_block * feat_size
    reads = nnz_per_block * (2 * feat_size * vbytes + 2 * INDEX_BYTES)
    writes = nnz_per_block * vbytes
    workload = KernelWorkload(name=name, num_launches=1)
    workload.memory_footprint_bytes = num_heads * (
        csr.nbytes(value_bytes=vbytes) + 2 * csr.rows * feat_size * vbytes
    )
    workload.add(
        BlockGroup(
            name="csr_edges",
            num_blocks=num_tb * num_heads,
            threads_per_block=device.warp_size,
            flops_per_block=flops,
            dram_read_bytes_per_block=reads,
            dram_write_bytes_per_block=writes,
            uses_tensor_core=False,
            dtype="float16",
            vector_width=1,
            compute_efficiency=0.5,
        )
    )
    return workload
