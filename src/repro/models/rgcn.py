"""Relational Graph Convolutional Network (RGCN) inference — Figure 20.

The RGCN layer is exactly the RGMS operator plus a self-loop transformation.
The NumPy implementation provides correctness ground truth; passing a
:class:`~repro.runtime.session.Session` to :meth:`RGCN.forward` instead runs
every layer's aggregation through the compiled RGMS kernel (compile-once/
run-many: both layers and repeated forward passes reuse the session's cached
builds).  What inference costs on the simulated GPU under the six compared
systems is :mod:`repro.sim.models.rgcn`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..formats.csf import CSFTensor
from ..ops.rgms import rgms_reference
from .shared import CompiledForward, relu


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
