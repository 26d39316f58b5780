"""What SparseTIR's SpMM kernels cost on the simulated GPU (Figures 12 and 13).

:func:`spmm_csr_workload` / :func:`spmm_hyb_workload` describe the scheduled
kernels of :mod:`repro.ops.spmm` — GE-SpMM-style row mapping for CSR, bucketed
ELL thread-block mapping for ``hyb(c, k)`` — as analytic
:class:`~repro.sim.workload.KernelWorkload` objects the GPU model prices.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ...formats.csr import CSRMatrix
from ...formats.hyb import HybFormat
from ..common import INDEX_BYTES, ceil_div, dense_reuse_miss_rate, split_row_blocks, value_bytes
from ..device import DeviceSpec
from ..workload import BlockGroup, KernelWorkload


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



def spmm_flops(csr: CSRMatrix, feat_size: int) -> float:
    """Useful floating point operations of the SpMM."""
    return 2.0 * csr.nnz * feat_size
