"""MinkowskiNet layers on the simulated GPU (Section 4.4.2, Figure 23):
SparseTIR's fused Tensor-Core kernel versus TorchSparse's gather-GEMM-scatter."""

from __future__ import annotations

from typing import Dict

from ...ops.sparse_conv import SparseConvProblem
from ..baselines import torchsparse
from ..device import DeviceSpec
from ..gpu_model import GPUModel
from ..ops.sparse_conv import sparse_conv_fused_tc_workload


def estimate_layer_times(
    problem: SparseConvProblem, device: DeviceSpec
) -> Dict[str, float]:
    """Per-layer execution time (us) of SparseTIR(TC) and TorchSparse."""
    model = GPUModel(device)
    ours = model.estimate(sparse_conv_fused_tc_workload(problem, device))
    baseline = model.estimate(torchsparse.sparse_conv_workload(problem, device))
    return {
        "sparsetir_tc_us": ours.duration_us,
        "torchsparse_us": baseline.duration_us,
        "speedup": baseline.duration_us / ours.duration_us,
    }
