"""cuSPARSE baseline (vendor library).

Modelled characteristics:

* **SpMM (csrmm2 / SpMM_ALG2):** row-split mapping, one warp per row within
  128-thread blocks, scalar or 2-wide loads of the dense operand.  There is
  no bucketing, so the per-block work follows the raw row-length distribution
  and power-law graphs cause load imbalance.
* **SDDMM:** tuned for moderately sparse matrices; for the hyper-sparse
  graph adjacencies of GNNs its tiling wastes most of each tile, which the
  paper reports as near-zero relative performance.
* **CSRMM for pruned weights (Figure 19):** scalar CSR kernel; only beats a
  dense GEMM at extremely low density.
"""

from __future__ import annotations

import numpy as np

from ...formats.csr import CSRMatrix
from ...ops.sddmm import sddmm_reference
from ...ops.spmm import spmm_reference
from ..common import INDEX_BYTES, ceil_div, value_bytes
from ..device import DeviceSpec
from ..ops.spmm import spmm_csr_workload
from ..workload import BlockGroup, KernelWorkload

#: Relative efficiency of cuSPARSE's generic SpMM inner loop (no per-matrix
#: tuning) compared with a hand-tuned kernel.
SPMM_COMPUTE_EFFICIENCY = 0.85
SPMM_MEMORY_EFFICIENCY = 0.95


def spmm(csr: CSRMatrix, features: np.ndarray) -> np.ndarray:
    """Numerical reference (cuSPARSE computes the same values)."""
    return spmm_reference(csr, features)


def spmm_workload(csr: CSRMatrix, feat_size: int, device: DeviceSpec) -> KernelWorkload:
    """cuSPARSE csrmm: warp-per-row, 4 rows per 128-thread block.

    The library splits very long rows across blocks (its ALG2 path performs
    merge-style balancing), so the per-block work is capped.
    """
    return spmm_csr_workload(
        csr,
        feat_size,
        device,
        rows_per_block=4,
        threads_per_block=128,
        vector_width=2,
        register_caching=True,
        unrolled=True,
        compute_efficiency=SPMM_COMPUTE_EFFICIENCY,
        memory_efficiency=SPMM_MEMORY_EFFICIENCY,
        max_nnz_per_block=512,
        name="cusparse_spmm",
    )


def sddmm(csr: CSRMatrix, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return sddmm_reference(csr, x, y)


def sddmm_workload(csr: CSRMatrix, feat_size: int, device: DeviceSpec) -> KernelWorkload:
    """cuSPARSE SDDMM (constrained dense-dense tiling).

    The kernel tiles the dense operands as if the output were moderately
    dense; on graph adjacencies (density well below 1%) almost every tile is
    wasted, modelled as streaming a large fraction of the dense operands.
    """
    vbytes = value_bytes("float32")
    tile = 32
    row_tiles = ceil_div(csr.rows, tile)
    col_tiles = ceil_div(csr.cols, tile)
    occupied = np.zeros(row_tiles * col_tiles, dtype=bool)
    for row in range(csr.rows):
        start, end = csr.indptr[row], csr.indptr[row + 1]
        cols = csr.indices[start:end]
        occupied[(row // tile) * col_tiles + cols // tile] = True
    active_tiles = max(1, int(occupied.sum()))
    flops = 2.0 * tile * tile * feat_size
    reads = 2 * tile * feat_size * vbytes + tile * tile * INDEX_BYTES
    writes = tile * tile * vbytes
    workload = KernelWorkload(name="cusparse_sddmm", num_launches=1)
    workload.add(
        BlockGroup(
            name="dense_tiles",
            num_blocks=active_tiles,
            threads_per_block=128,
            flops_per_block=flops,
            dram_read_bytes_per_block=reads,
            dram_write_bytes_per_block=writes,
            vector_width=2,
            compute_efficiency=0.6,
            memory_efficiency=0.8,
        )
    )
    workload.memory_footprint_bytes = csr.nbytes() + (csr.rows + csr.cols) * feat_size * vbytes
    return workload


def csrmm_pruned_workload(
    csr: CSRMatrix, dense_cols: int, device: DeviceSpec, dtype: str = "float16"
) -> KernelWorkload:
    """cuSPARSE CSRMM over a pruned weight matrix (Figure 19 baseline)."""
    return spmm_csr_workload(
        csr,
        dense_cols,
        device,
        rows_per_block=4,
        threads_per_block=128,
        vector_width=2,
        register_caching=True,
        unrolled=False,
        compute_efficiency=SPMM_COMPUTE_EFFICIENCY,
        memory_efficiency=SPMM_MEMORY_EFFICIENCY,
        max_nnz_per_block=512,
        dtype=dtype,
        name="cusparse_csrmm",
    )
