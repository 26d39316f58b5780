"""Sputnik baseline (Gale et al., SC'20): sparse kernels for deep learning.

Modelled characteristics:

* **SpMM:** 1-D tiling with row-splitting across subwarps, vector loads and
  residue handling.  Designed for the moderate sparsity of pruned networks
  (70-95%); on hyper-sparse power-law graph adjacencies the per-row tiles are
  mostly empty and the row-length skew causes imbalance, which is why Sputnik
  trails the GNN-specific libraries in Figure 13.
* **SDDMM:** same tiling philosophy; very low relative performance on graph
  workloads (Figure 14).
* Sputnik does not use Tensor Cores.
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
    """Sputnik SpMM: row-split 1-D tiling tuned for moderate sparsity.

    The 1-D tile residue handling wastes lanes on very short rows (graph
    adjacencies average a handful of non-zeros per row), modelled as a lower
    compute efficiency than the GNN-specific kernels.
    """
    average_degree = csr.mean_row_length()
    short_row_penalty = min(1.0, max(0.40, average_degree / 32.0))
    return spmm_csr_workload(
        csr,
        feat_size,
        device,
        rows_per_block=2,
        threads_per_block=64,
        vector_width=4,
        register_caching=True,
        unrolled=True,
        compute_efficiency=0.9 * short_row_penalty,
        memory_efficiency=0.65 + 0.3 * short_row_penalty,
        max_nnz_per_block=512,  # row-swizzle load balancing
        name="sputnik_spmm",
    )


def sddmm(csr: CSRMatrix, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return sddmm_reference(csr, x, y)


def sddmm_workload_graph(csr: CSRMatrix, feat_size: int, device: DeviceSpec) -> KernelWorkload:
    """Sputnik SDDMM on graph adjacencies: 1-D tiles are mostly wasted."""
    return sddmm_workload(
        csr,
        feat_size,
        device,
        nnz_per_block=8,
        threads_per_block=64,
        vector_width=2,
        two_stage_reduction=False,
        compute_efficiency=0.25,
        memory_efficiency=0.6,
        name="sputnik_sddmm",
    )
