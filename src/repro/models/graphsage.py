"""GraphSAGE (mean aggregator) — NumPy implementation.

The end-to-end experiment of Section 4.2.3 integrates SparseTIR's SpMM
kernels into a PyTorch GraphSAGE model and compares full-graph training
throughput against DGL.  Here the model itself (forward and backward passes)
is implemented in NumPy for correctness; what an epoch costs on the simulated
GPU is :mod:`repro.sim.models.graphsage`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from ..formats.csr import CSRMatrix
from ..ops.spmm import spmm_reference
from .shared import CompiledForward, relu, relu_grad, softmax_cross_entropy


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
