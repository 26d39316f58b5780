"""dgSPARSE baseline: GE-SpMM for SpMM and PRedS for SDDMM.

Modelled characteristics (from the GE-SpMM and PRedS papers):

* **SpMM (GE-SpMM):** coalesced row-split with shared-memory staging of the
  column indices, one row per thread block row-group, warp-wide coalesced
  access of the dense operand.  No bucketing and no column partitioning, so
  load imbalance and dense-operand cache behaviour are those of plain CSR.
* **SDDMM (PRedS):** vectorised (float4/float2) loads and a two-stage
  intra/inter-group reduction — the optimisations SparseTIR expresses as
  ``vectorize`` + ``rfactor``, but with fixed (untuned) parameters.
"""

from __future__ import annotations

import numpy as np

from ...formats.csr import CSRMatrix
from ...ops.sddmm import sddmm_reference
from ...ops.spmm import spmm_reference
from ..device import DeviceSpec
from ..ops.sddmm import sddmm_workload
from ..ops.spmm import spmm_csr_workload
from ..workload import KernelWorkload


def spmm(csr: CSRMatrix, features: np.ndarray) -> np.ndarray:
    return spmm_reference(csr, features)


def spmm_workload(csr: CSRMatrix, feat_size: int, device: DeviceSpec) -> KernelWorkload:
    """GE-SpMM: one row per block, coalesced feature access, shared-memory indices."""
    return spmm_csr_workload(
        csr,
        feat_size,
        device,
        rows_per_block=1,
        threads_per_block=128,
        vector_width=4,
        register_caching=True,
        unrolled=True,
        compute_efficiency=0.88,
        memory_efficiency=0.95,
        max_nnz_per_block=1024,
        name="dgsparse_gespmm",
    )


def sddmm(csr: CSRMatrix, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return sddmm_reference(csr, x, y)


def sddmm_workload_csr(csr: CSRMatrix, feat_size: int, device: DeviceSpec) -> KernelWorkload:
    """PRedS on the CSR layout (dgSPARSE-csr in Figure 14)."""
    return sddmm_workload(
        csr,
        feat_size,
        device,
        nnz_per_block=32,
        threads_per_block=256,
        vector_width=4,
        two_stage_reduction=True,
        compute_efficiency=0.80,
        memory_efficiency=0.92,
        name="dgsparse_preds_csr",
    )


def sddmm_workload_coo(csr: CSRMatrix, feat_size: int, device: DeviceSpec) -> KernelWorkload:
    """PRedS on the COO layout (dgSPARSE-coo in Figure 14): better balance,
    slightly more index traffic."""
    return sddmm_workload(
        csr,
        feat_size,
        device,
        nnz_per_block=32,
        threads_per_block=256,
        vector_width=4,
        two_stage_reduction=True,
        compute_efficiency=0.85,
        memory_efficiency=0.95,
        name="dgsparse_preds_coo",
    )
