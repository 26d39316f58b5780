"""Graphiler baseline (the state-of-the-art GNN compiler for RGCN inference).

Graphiler compiles user-defined message functions into a message-passing
data-flow graph and emits fused, template-based kernels.  For RGCN it still
follows the two-stage formulation (dense per-relation feature transforms with
a materialised intermediate, then gather/scatter aggregation), but with far
lower framework overhead than DGL/PyG because the whole layer is compiled.
It is the normalisation baseline of Figure 20.
"""

from __future__ import annotations

from ...ops.rgms import RGMSProblem
from ..device import DeviceSpec
from ..ops.rgms import rgms_two_stage_workload
from ..workload import KernelWorkload

#: Interpreting the compiled message-passing data-flow graph has a fixed
#: per-forward-pass cost (graph walking, tensor bookkeeping) that dominates
#: on small graphs — the reason SparseTIR's single fused kernel wins by the
#: largest margins on AIFB/MUTAG in Figure 20.
FIXED_OVERHEAD_US = 1000.0


def rgcn_layer_workload(problem: RGMSProblem, device: DeviceSpec) -> KernelWorkload:
    """Graphiler's compiled two-stage RGCN layer."""
    workload = rgms_two_stage_workload(
        problem,
        device,
        gemm_efficiency=0.85,
        scatter_efficiency=0.8,
        name="graphiler_rgcn",
    )
    # The compiled graph fuses the per-relation kernels into a small number
    # of launches, but walking the data-flow graph costs a fixed overhead.
    workload.num_launches = 3
    workload.metadata["framework_overhead_us"] = FIXED_OVERHEAD_US
    return workload
