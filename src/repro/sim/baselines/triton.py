"""Triton block-sparse baseline.

Triton's block-sparse matmul kernels (used by sparse attention
implementations) run on Tensor Cores with a fixed block size and a generic
tile pipeline.  Compared with a SparseTIR kernel specialised to the concrete
sparse structure, the generic kernel has lower sustained MMA efficiency
(software pipelining tuned for dense-ish tile streams, look-up-table
indirection per tile) and launches one kernel per operator without
structure-specific fusion.  It is the normalisation baseline of Figure 16 and
a comparison point of Figure 17.
"""

from __future__ import annotations


from ...formats.bsr import BSRMatrix
from ..device import DeviceSpec
from ..ops.batched import batched_sddmm_bsr_workload, batched_spmm_bsr_workload
from ..workload import KernelWorkload

#: Sustained fraction of Tensor Core peak for Triton's generic block-sparse
#: kernels on the evaluated shapes.
MMA_EFFICIENCY = 0.45


def blocksparse_spmm_workload(
    bsr: BSRMatrix, feat_size: int, num_heads: int, device: DeviceSpec
) -> KernelWorkload:
    """Triton block-sparse SpMM (one launch per head in the library wrapper)."""
    workload = batched_spmm_bsr_workload(
        bsr, feat_size, num_heads, device, mma_efficiency=MMA_EFFICIENCY,
        name="triton_blocksparse_spmm",
    )
    workload.num_launches = num_heads
    return workload


def blocksparse_sddmm_workload(
    bsr: BSRMatrix, feat_size: int, num_heads: int, device: DeviceSpec
) -> KernelWorkload:
    """Triton block-sparse SDDMM."""
    workload = batched_sddmm_bsr_workload(
        bsr, feat_size, num_heads, device, mma_efficiency=MMA_EFFICIENCY,
        name="triton_blocksparse_sddmm",
    )
    workload.num_launches = num_heads
    return workload


def bsrmm_workload(
    bsr: BSRMatrix, dense_cols: int, device: DeviceSpec
) -> KernelWorkload:
    """Triton BSRMM for block-pruned weights (Figure 17).

    The kernel cannot skip all-zero block rows (no doubly-compressed row
    index), so empty block rows still launch tiles that immediately exit —
    modelled as per-block-row work that includes a fixed tile overhead.
    """
    workload = batched_spmm_bsr_workload(
        bsr, dense_cols, 1, device, mma_efficiency=MMA_EFFICIENCY, name="triton_bsrmm"
    )
    return workload
