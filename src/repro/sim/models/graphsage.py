"""GraphSAGE training time on the simulated GPU (Section 4.2.3, Figure 15).

The experiment integrates SparseTIR's SpMM kernels into a PyTorch GraphSAGE
model and compares full-graph training throughput against DGL.  Epoch time is
estimated by composing the SpMM workload of the chosen backend with the dense
GEMMs and per-operator framework overhead that both systems share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ...formats.csr import CSRMatrix
from ...formats.hyb import HybFormat
from ..baselines import dgl
from ..baselines.cublas import gemm_workload
from ..device import DeviceSpec
from ..gpu_model import GPUModel
from ..ops.spmm import spmm_hyb_workload
from ..workload import KernelWorkload


def gemm_workload_for_model(
    m: int, k: int, n: int, device: DeviceSpec, dtype: str = "float32"
) -> KernelWorkload:
    """A dense (m x k) @ (k x n) GEMM as executed by the framework (cuBLAS)."""
    return gemm_workload(
        m, n, k, device, dtype=dtype, use_tensor_cores=dtype == "float16",
        name=f"gemm_{m}x{k}x{n}",
    )


@dataclass
class TrainingTimeEstimate:
    """Epoch-time breakdown of one GraphSAGE training configuration."""

    backend: str
    device: str
    spmm_us: float
    gemm_us: float
    overhead_us: float

    @property
    def total_us(self) -> float:
        return self.spmm_us + self.gemm_us + self.overhead_us


def _spmm_passes(feat_sizes: Tuple[int, int, int]) -> List[int]:
    """Feature widths of the SpMM calls in one training iteration.

    Two aggregations forward (per layer) and two in the backward pass (the
    transposed aggregation applied to the gradients).
    """
    in_feats, hidden, num_classes = feat_sizes
    return [in_feats, hidden, num_classes, hidden]


def estimate_training_time(
    graph: CSRMatrix,
    feat_sizes: Tuple[int, int, int],
    device: DeviceSpec,
    backend: str = "dgl",
    hyb: Optional[HybFormat] = None,
) -> TrainingTimeEstimate:
    """Estimate one training iteration (forward + backward + update).

    ``backend`` selects how the aggregation SpMMs execute: ``"dgl"`` uses the
    cuSPARSE-backed kernels plus DGL's per-operator overhead;
    ``"sparsetir"`` uses the hyb SpMM kernels integrated into PyTorch (same
    dense GEMMs, same autograd overhead structure).
    """
    in_feats, hidden, num_classes = feat_sizes
    model = GPUModel(device)

    spmm_us = 0.0
    for width in _spmm_passes(feat_sizes):
        if backend == "dgl":
            workload = dgl.spmm_workload(graph, width, device)
            overhead_per_op = dgl.FRAMEWORK_OVERHEAD_US
        elif backend == "sparsetir":
            if hyb is None:
                hyb = HybFormat.from_csr(graph, num_col_parts=1)
            workload = spmm_hyb_workload(hyb, width, device)
            overhead_per_op = 20.0  # PyTorch custom-op dispatch, no graph object
        else:
            raise ValueError(f"unknown backend {backend!r}")
        spmm_us += model.estimate(workload).duration_us

    # Dense GEMMs: identical in both backends (PyTorch/cuBLAS executes them).
    n = graph.rows
    gemm_shapes = [
        (n, hidden, in_feats), (n, hidden, in_feats),          # layer 1 fwd
        (n, num_classes, hidden), (n, num_classes, hidden),    # layer 2 fwd
        (n, hidden, num_classes), (n, in_feats, hidden),       # backward matmuls
        (hidden, num_classes, n), (in_feats, hidden, n),       # weight gradients
    ]
    gemm_us = sum(
        model.estimate(gemm_workload_for_model(m, k, c, device)).duration_us
        for (m, c, k) in gemm_shapes
    )

    num_sparse_ops = len(_spmm_passes(feat_sizes))
    num_dense_ops = len(gemm_shapes) + 6  # activations, loss, optimiser steps
    overhead_us = num_sparse_ops * overhead_per_op + num_dense_ops * 15.0
    return TrainingTimeEstimate(
        backend=backend,
        device=device.name,
        spmm_us=spmm_us,
        gemm_us=gemm_us,
        overhead_us=overhead_us,
    )


def end_to_end_speedup(
    graph: CSRMatrix,
    feat_sizes: Tuple[int, int, int],
    device: DeviceSpec,
    hyb: Optional[HybFormat] = None,
) -> float:
    """Speedup of PyTorch+SparseTIR over DGL on one training iteration."""
    baseline = estimate_training_time(graph, feat_sizes, device, backend="dgl")
    ours = estimate_training_time(graph, feat_sizes, device, backend="sparsetir", hyb=hyb)
    return baseline.total_us / ours.total_us
