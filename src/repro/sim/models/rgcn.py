"""RGCN inference on the simulated GPU (Figure 20).

Composes the operator workloads of the six compared systems (PyG, DGL,
Graphiler, SparseTIR naive / hyb / hyb+TC) and reports both inference time and
GPU memory footprint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ...formats.csf import CSFTensor
from ...ops.rgms import RGMSProblem
from ..baselines import graphiler
from ..device import DeviceSpec
from ..gpu_model import GPUModel
from ..ops.rgms import rgms_fused_hyb_workload, rgms_naive_workload, rgms_two_stage_workload
from ..workload import KernelWorkload


#: The systems compared in Figure 20, in plotting order.
RGCN_SYSTEMS = (
    "pyg",
    "dgl",
    "graphiler",
    "sparsetir_naive",
    "sparsetir_hyb",
    "sparsetir_hyb_tc",
)


@dataclass
class RGCNEstimate:
    """Inference time and memory footprint of one system on one graph."""

    system: str
    device: str
    duration_us: float
    memory_footprint_bytes: float

    @property
    def memory_footprint_gib(self) -> float:
        return self.memory_footprint_bytes / 2 ** 30


def rgcn_layer_workload(problem: RGMSProblem, system: str, device: DeviceSpec) -> KernelWorkload:
    """The kernel workload of one RGCN layer under the given system."""
    if system == "pyg":
        workload = rgms_two_stage_workload(
            problem, device, gemm_efficiency=0.8, scatter_efficiency=0.55,
            name="pyg_rgcn",
        )
        # PyG launches one transform and one aggregation per relation from
        # Python, and additionally materialises per-edge messages.
        active = sum(1 for m in problem.adjacency.slices if m is not None and m.nnz)
        workload.num_launches = 2 * max(active, 1)
        workload.memory_footprint_bytes += problem.nnz * problem.out_feats * 4
        workload.metadata["framework_overhead_us"] = 40.0 * workload.num_launches
        return workload
    if system == "dgl":
        workload = rgms_two_stage_workload(
            problem, device, gemm_efficiency=0.85, scatter_efficiency=0.7,
            name="dgl_rgcn",
        )
        active = sum(1 for m in problem.adjacency.slices if m is not None and m.nnz)
        workload.num_launches = 1 + max(active, 1)
        workload.metadata["framework_overhead_us"] = 30.0 * workload.num_launches
        return workload
    if system == "graphiler":
        return graphiler.rgcn_layer_workload(problem, device)
    if system == "sparsetir_naive":
        return rgms_naive_workload(problem, device)
    if system == "sparsetir_hyb":
        return rgms_fused_hyb_workload(problem, device, use_tensor_cores=False,
                                       name="sparsetir_rgms_hyb")
    if system == "sparsetir_hyb_tc":
        return rgms_fused_hyb_workload(problem, device, use_tensor_cores=True,
                                       name="sparsetir_rgms_hyb_tc")
    raise ValueError(f"unknown RGCN system {system!r}; available: {RGCN_SYSTEMS}")


def estimate_rgcn_inference(
    adjacency: CSFTensor,
    feat_size: int,
    device: DeviceSpec,
    system: str,
    num_layers: int = 1,
) -> RGCNEstimate:
    """Estimate end-to-end RGCN inference (Figure 20 uses feature size 32)."""
    problem = RGMSProblem(adjacency, in_feats=feat_size, out_feats=feat_size)
    model = GPUModel(device)
    workload = rgcn_layer_workload(problem, system, device)
    report = model.estimate(workload)
    # framework_overhead_us is the total host-side cost per forward pass,
    # already aggregated over the system's operator launches.
    overhead = float(workload.metadata.get("framework_overhead_us", 0.0))
    duration = num_layers * (report.duration_us + overhead)
    return RGCNEstimate(
        system=system,
        device=device.name,
        duration_us=duration,
        memory_footprint_bytes=report.memory_footprint_bytes,
    )


def rgcn_speedup_table(
    adjacency: CSFTensor, feat_size: int, device: DeviceSpec
) -> Dict[str, RGCNEstimate]:
    """Estimates for every system of Figure 20 on one graph."""
    return {
        system: estimate_rgcn_inference(adjacency, feat_size, device, system)
        for system in RGCN_SYSTEMS
    }
