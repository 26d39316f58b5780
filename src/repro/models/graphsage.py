"""GraphSAGE (mean aggregator) — NumPy implementation and training-time model.

The end-to-end experiment of Section 4.2.3 integrates SparseTIR's SpMM
kernels into a PyTorch GraphSAGE model and compares full-graph training
throughput against DGL.  Here the model itself (forward and backward passes)
is implemented in NumPy for correctness, and epoch time is estimated by
composing the SpMM workload of the chosen backend with the dense GEMMs and
per-operator framework overhead that both systems share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, TYPE_CHECKING, Tuple

import numpy as np

from ..formats.csr import CSRMatrix
from ..formats.hyb import HybFormat
from ..ops.spmm import spmm_hyb_workload, spmm_reference
from .shared import (
    CompiledForward,
    gemm_workload_for_model,
    relu,
    relu_grad,
    softmax_cross_entropy,
)

if TYPE_CHECKING:  # the simulated world is imported by the ``estimate_*`` functions that price with it
    from ..perf.device import DeviceSpec


@dataclass
class GraphSAGEParams:
    """Weights of a two-layer GraphSAGE with mean aggregation."""

    w_self_1: np.ndarray
    w_neigh_1: np.ndarray
    w_self_2: np.ndarray
    w_neigh_2: np.ndarray

    @classmethod
    def init(cls, in_feats: int, hidden: int, num_classes: int, seed: int = 0) -> "GraphSAGEParams":
        rng = np.random.default_rng(seed)

        def glorot(rows: int, cols: int) -> np.ndarray:
            scale = np.sqrt(6.0 / (rows + cols))
            return rng.uniform(-scale, scale, size=(rows, cols)).astype(np.float32)

        return cls(
            w_self_1=glorot(in_feats, hidden),
            w_neigh_1=glorot(in_feats, hidden),
            w_self_2=glorot(hidden, num_classes),
            w_neigh_2=glorot(hidden, num_classes),
        )


def normalized_adjacency(csr: CSRMatrix) -> CSRMatrix:
    """Row-normalised adjacency (the mean aggregator as an SpMM).

    GraphSAGE's mean aggregator averages neighbour features, so every stored
    entry becomes ``1 / degree`` regardless of the original edge weight.
    """
    lengths = np.maximum(csr.row_lengths(), 1).astype(np.float32)
    data = 1.0 / np.repeat(lengths, csr.row_lengths())
    return CSRMatrix(csr.shape, csr.indptr, csr.indices, data.astype(np.float32))


class GraphSAGE:
    """A two-layer GraphSAGE model (mean aggregator) in NumPy."""

    def __init__(self, graph: CSRMatrix, params: GraphSAGEParams):
        self.adjacency = normalized_adjacency(graph)
        self.adjacency_t = self.adjacency.transpose()
        self.params = params
        self._cache: Dict[str, np.ndarray] = {}

    # -- forward ---------------------------------------------------------------
    def forward(self, features: np.ndarray) -> np.ndarray:
        p = self.params
        h_neigh_1 = spmm_reference(self.adjacency, features)
        z1 = features @ p.w_self_1 + h_neigh_1 @ p.w_neigh_1
        h1 = relu(z1)
        h_neigh_2 = spmm_reference(self.adjacency, h1)
        logits = h1 @ p.w_self_2 + h_neigh_2 @ p.w_neigh_2
        self._cache = {
            "features": features,
            "h_neigh_1": h_neigh_1,
            "z1": z1,
            "h1": h1,
            "h_neigh_2": h_neigh_2,
        }
        return logits

    def compile(self, session, features: np.ndarray, fuse: bool = True) -> CompiledForward:
        """Capture the forward pass as a dataflow graph and lower it.

        The captured graph runs both aggregations, all four dense transforms
        and the activation through the session's compiled kernels; with
        ``fuse=True`` adjacent nodes merge into single launches (see
        :mod:`repro.graph`).  The returned wrapper is compile-once/run-many:
        call it with new ``features`` of the same shape to rerun.
        """
        p = self.params
        g = session.graph()
        x = g.input("features", np.asarray(features, dtype=np.float32))
        h_neigh_1 = g.spmm(self.adjacency, x)
        h1 = g.relu(g.add(g.gemm(x, p.w_self_1), g.gemm(h_neigh_1, p.w_neigh_1)))
        h_neigh_2 = g.spmm(self.adjacency, h1)
        logits = g.add(g.gemm(h1, p.w_self_2), g.gemm(h_neigh_2, p.w_neigh_2))
        g.output(logits)
        return CompiledForward(g.compile(fuse=fuse), "features", logits.name)

    # -- loss + backward -----------------------------------------------------------
    def training_step(
        self, features: np.ndarray, labels: np.ndarray, learning_rate: float = 1e-2
    ) -> float:
        """One full-graph gradient-descent step; returns the loss."""
        logits = self.forward(features)
        loss, grad_logits = softmax_cross_entropy(logits, labels)
        self._backward(grad_logits, learning_rate)
        return loss

    def _backward(self, grad_logits: np.ndarray, learning_rate: float) -> None:
        p = self.params
        cache = self._cache
        h1, h_neigh_2 = cache["h1"], cache["h_neigh_2"]
        features, h_neigh_1 = cache["features"], cache["h_neigh_1"]

        grad_w_self_2 = h1.T @ grad_logits
        grad_w_neigh_2 = h_neigh_2.T @ grad_logits
        grad_h1 = grad_logits @ p.w_self_2.T + spmm_reference(
            self.adjacency_t, grad_logits
        ) @ p.w_neigh_2.T
        grad_z1 = grad_h1 * relu_grad(cache["z1"])
        grad_w_self_1 = features.T @ grad_z1
        grad_w_neigh_1 = h_neigh_1.T @ grad_z1

        p.w_self_2 -= learning_rate * grad_w_self_2
        p.w_neigh_2 -= learning_rate * grad_w_neigh_2
        p.w_self_1 -= learning_rate * grad_w_self_1
        p.w_neigh_1 -= learning_rate * grad_w_neigh_1


# ---------------------------------------------------------------------------
# End-to-end training-time estimation (Figure 15)
# ---------------------------------------------------------------------------

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
    from ..baselines import dgl
    from ..perf.gpu_model import GPUModel

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
