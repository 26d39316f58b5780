"""TACO baseline (Kjolstad et al.) with the sparse-iteration-space scheduling
of Senanayake et al. (auto-scheduling enabled, as in the paper's evaluation).

Modelled characteristics:

* **SpMM:** TACO's GPU schedule achieves compile-time load balancing by
  splitting the non-zero space evenly across thread blocks (``pos`` split).
  However, as the paper notes, TACO cannot cache the partially aggregated
  output row in registers (every update is written through) and the
  irregularity of CSR prevents unrolling of the inner loop — both modelled
  explicitly (``register_caching=False``, ``unrolled=False``).
* **SDDMM:** the provenance-graph IR cannot express ``rfactor``-style
  two-stage reductions or vectorised loads, so the generated kernel is a
  straightforward per-edge reduction.
"""

from __future__ import annotations

import numpy as np

from ...formats.csr import CSRMatrix
from ...ops.sddmm import sddmm_reference
from ...ops.spmm import spmm_reference
from ..common import INDEX_BYTES, ceil_div, dense_reuse_miss_rate, value_bytes
from ..device import DeviceSpec
from ..ops.sddmm import sddmm_workload
from ..workload import BlockGroup, KernelWorkload


def spmm(csr: CSRMatrix, features: np.ndarray) -> np.ndarray:
    return spmm_reference(csr, features)


def spmm_workload(
    csr: CSRMatrix, feat_size: int, device: DeviceSpec, nnz_per_block: int = 64
) -> KernelWorkload:
    """TACO SpMM: nnz-balanced blocks, write-through accumulation, no unrolling."""
    vbytes = value_bytes("float32")
    num_blocks = max(1, ceil_div(csr.nnz, nnz_per_block))
    flops = 2.0 * nnz_per_block * feat_size
    touched_x = csr.nnz * feat_size * vbytes
    unique_x = csr.cols * feat_size * vbytes
    x_miss = dense_reuse_miss_rate(unique_x, touched_x, device)
    # Without register caching of the output row the accumulation is
    # read-modify-written per non-zero.  Most of those round trips are
    # absorbed by the L2 cache; the fraction below spills to DRAM.
    write_through_spill = 0.03
    writeback = nnz_per_block * feat_size * vbytes * write_through_spill
    reads = (
        nnz_per_block * (INDEX_BYTES + vbytes)
        + nnz_per_block * feat_size * vbytes * x_miss
        + writeback
    )
    writes = writeback + (csr.rows / num_blocks) * feat_size * vbytes

    workload = KernelWorkload(name="taco_spmm", num_launches=1)
    workload.memory_footprint_bytes = csr.nbytes() + (csr.rows + csr.cols) * feat_size * vbytes
    workload.add(
        BlockGroup(
            name="pos_split",
            num_blocks=num_blocks,
            threads_per_block=128,
            flops_per_block=flops,
            dram_read_bytes_per_block=reads,
            dram_write_bytes_per_block=writes,
            vector_width=1,
            register_caching=True,  # spill traffic is modelled explicitly above
            unrolled=False,
            compute_efficiency=0.65,
            memory_efficiency=0.85,
        )
    )
    return workload


def sddmm(csr: CSRMatrix, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return sddmm_reference(csr, x, y)


def sddmm_workload_scheduled(csr: CSRMatrix, feat_size: int, device: DeviceSpec) -> KernelWorkload:
    """TACO SDDMM: per-edge reduction without vectorisation or rfactor."""
    return sddmm_workload(
        csr,
        feat_size,
        device,
        nnz_per_block=32,
        threads_per_block=128,
        vector_width=1,
        two_stage_reduction=False,
        compute_efficiency=0.75,
        memory_efficiency=0.8,
        name="taco_sddmm",
    )
