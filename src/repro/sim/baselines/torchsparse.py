"""TorchSparse baseline (point-cloud sparse convolution).

TorchSparse executes sparse convolution as explicit gather -> adaptive
grouped cuBLAS GEMM -> scatter, materialising both the gathered inputs and
the per-offset GEMM outputs in HBM (it does not fuse the three phases
on-chip, unlike the SparseTIR schedule of Figure 21).  The GEMM phase runs at
cuBLAS efficiency, which is why TorchSparse wins once the channel count makes
the matmul dominate (Figure 23's crossover above ~128 channels).
"""

from __future__ import annotations

from ...ops.sparse_conv import SparseConvProblem
from ..device import DeviceSpec
from ..ops.sparse_conv import sparse_conv_gather_gemm_scatter_workload
from ..workload import KernelWorkload

GEMM_EFFICIENCY = 0.90


def sparse_conv_workload(problem: SparseConvProblem, device: DeviceSpec) -> KernelWorkload:
    """TorchSparse's gather-GEMM-scatter sparse convolution."""
    workload = sparse_conv_gather_gemm_scatter_workload(
        problem, device, gemm_efficiency=GEMM_EFFICIENCY, name="torchsparse_conv"
    )
    return workload
