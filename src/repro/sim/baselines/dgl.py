"""DGL / FeatGraph baseline.

DGL's sparse kernels for SpMM delegate to cuSPARSE (or a built-in kernel with
similar structure); its SDDMM uses the FeatGraph optimisations
(feature-dimension parallelism, no vectorised loads, no two-stage reduction)
and is the normalisation baseline of Figure 14.  End-to-end model execution
adds per-operator framework overhead (kernel dispatch, autograd bookkeeping,
graph-object handling), which is what SparseTIR's integration into PyTorch
avoids only partially — the end-to-end speedups of Figure 15 are therefore
smaller than the kernel-level speedups of Figure 13.
"""

from __future__ import annotations

import numpy as np

from ...formats.csr import CSRMatrix
from ...ops.sddmm import sddmm_reference
from ...ops.spmm import spmm_reference
from ..device import DeviceSpec
from ..ops.sddmm import sddmm_workload
from ..workload import KernelWorkload
from . import cusparse

#: Per-operator framework overhead of DGL's message-passing execution, in
#: microseconds (kernel dispatch + graph bookkeeping on the host).
FRAMEWORK_OVERHEAD_US = 30.0


def spmm(csr: CSRMatrix, features: np.ndarray) -> np.ndarray:
    return spmm_reference(csr, features)


def spmm_workload(csr: CSRMatrix, feat_size: int, device: DeviceSpec) -> KernelWorkload:
    """DGL's SpMM: cuSPARSE-backed kernel."""
    workload = cusparse.spmm_workload(csr, feat_size, device)
    workload.name = "dgl_spmm"
    return workload


def sddmm(csr: CSRMatrix, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return sddmm_reference(csr, x, y)


def sddmm_workload_featgraph(csr: CSRMatrix, feat_size: int, device: DeviceSpec) -> KernelWorkload:
    """DGL 0.9 SDDMM with the FeatGraph schedule (the Figure 14 baseline).

    Edges are parallelised across threads and the feature dimension across a
    thread block, but loads are scalar and the reduction is single-stage.
    """
    return sddmm_workload(
        csr,
        feat_size,
        device,
        nnz_per_block=32,
        threads_per_block=256,
        vector_width=1,
        two_stage_reduction=False,
        compute_efficiency=0.85,
        memory_efficiency=0.85,
        name="dgl_featgraph_sddmm",
    )
