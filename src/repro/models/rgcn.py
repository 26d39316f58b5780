"""Relational Graph Convolutional Network (RGCN) inference — Figure 20.

The RGCN layer is exactly the RGMS operator plus a self-loop transformation.
The NumPy implementation provides correctness ground truth; passing a
:class:`~repro.runtime.session.Session` to :meth:`RGCN.forward` instead runs
every layer's aggregation through the compiled RGMS kernel (compile-once/
run-many: both layers and repeated forward passes reuse the session's cached
builds).  The end-to-end estimator composes the operator workloads of the six
compared systems (PyG, DGL, Graphiler, SparseTIR naive / hyb / hyb+TC) and
reports both inference time and GPU memory footprint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, TYPE_CHECKING

import numpy as np

from ..formats.csf import CSFTensor
from ..ops.rgms import (
    RGMSProblem,
    rgms_fused_hyb_workload,
    rgms_naive_workload,
    rgms_reference,
    rgms_two_stage_workload,
)
from .shared import CompiledForward, relu

if TYPE_CHECKING:  # the simulated world is imported by the ``estimate_*`` functions that price with it
    from ..perf.device import DeviceSpec
    from ..perf.workload import KernelWorkload


@dataclass
class RGCNParams:
    """Weights of a single RGCN layer."""

    relation_weights: np.ndarray  # (R, d_in, d_out)
    self_weight: np.ndarray       # (d_in, d_out)

    @classmethod
    def init(cls, num_relations: int, in_feats: int, out_feats: int, seed: int = 0) -> "RGCNParams":
        rng = np.random.default_rng(seed)
        scale = np.sqrt(6.0 / (in_feats + out_feats))
        return cls(
            relation_weights=rng.uniform(
                -scale, scale, size=(num_relations, in_feats, out_feats)
            ).astype(np.float32),
            self_weight=rng.uniform(-scale, scale, size=(in_feats, out_feats)).astype(np.float32),
        )


class RGCNLayer:
    """One RGCN layer: per-relation aggregation plus a self-loop transform."""

    def __init__(self, adjacency: CSFTensor, params: RGCNParams):
        self.adjacency = adjacency
        self.params = params

    def forward(self, features: np.ndarray, activation: bool = True, session=None) -> np.ndarray:
        """One layer: relational aggregation, self-loop transform, activation.

        Args:
            features: Node features of shape ``(n, d_in)``.
            activation: Apply ReLU to the layer output.
            session: When given, aggregate through the session's compiled
                RGMS kernel instead of the NumPy reference.

        Returns:
            The layer output, shape ``(n, d_out)``.
        """
        if session is not None:
            aggregated = session.rgms(self.adjacency, features, self.params.relation_weights)
        else:
            aggregated = rgms_reference(self.adjacency, features, self.params.relation_weights)
        out = aggregated + features @ self.params.self_weight
        return relu(out) if activation else out


class RGCN:
    """A two-layer RGCN for node classification (inference only)."""

    def __init__(self, adjacency: CSFTensor, in_feats: int, hidden: int, num_classes: int, seed: int = 0):
        num_relations = adjacency.shape[0]
        self.layer1 = RGCNLayer(adjacency, RGCNParams.init(num_relations, in_feats, hidden, seed))
        self.layer2 = RGCNLayer(adjacency, RGCNParams.init(num_relations, hidden, num_classes, seed + 1))

    def forward(self, features: np.ndarray, session=None) -> np.ndarray:
        """Full forward pass; ``session`` selects the compiled RGMS path."""
        hidden = self.layer1.forward(features, activation=True, session=session)
        return self.layer2.forward(hidden, activation=False, session=session)

    def compile(self, session, features: np.ndarray, fuse: bool = True) -> CompiledForward:
        """Capture both layers as one dataflow graph and lower it.

        Each layer is captured as a *per-relation RGMS chain*: every active
        adjacency slice records its own single-relation gather-matmul-scatter
        node, chained by accumulating adds, plus the self-loop transform and
        (first layer) activation.  Unfused that is one kernel launch per node
        — the relation-by-relation dispatch a framework performs; with
        ``fuse=True`` the whole two-layer chain merges into a single emitted
        kernel.  The wrapper reruns on new ``features`` of the same shape.
        """
        g = session.graph()
        x = g.input("features", np.asarray(features, dtype=np.float32))
        out = x
        for layer, activation in ((self.layer1, True), (self.layer2, False)):
            weights = layer.params.relation_weights
            _, rows, cols = layer.adjacency.shape
            aggregated = None
            for rel, matrix in enumerate(layer.adjacency.slices):
                if matrix is None or matrix.nnz == 0:
                    continue
                relation = CSFTensor((1, rows, cols), [matrix])
                gathered = g.rgms(relation, out, weights[rel : rel + 1])
                aggregated = (
                    gathered if aggregated is None else g.add(aggregated, gathered)
                )
            self_loop = g.gemm(out, layer.params.self_weight)
            out = self_loop if aggregated is None else g.add(aggregated, self_loop)
            if activation:
                out = g.relu(out)
        g.output(out)
        return CompiledForward(g.compile(fuse=fuse), "features", out.name)


# ---------------------------------------------------------------------------
# End-to-end inference estimation (Figure 20)
# ---------------------------------------------------------------------------

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
    from ..baselines import graphiler

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
    from ..perf.gpu_model import GPUModel

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
