"""A MinkowskiNet-style sparse-convolution backbone (Section 4.4.2).

The paper extracts every sparse-convolution operator of MinkowskiNet on
SemanticKITTI.  This module stacks submanifold 3x3x3 sparse-convolution
layers over a synthetic voxelised scan and provides a NumPy forward pass;
per-layer time on the simulated GPU is :mod:`repro.sim.models.minkowski`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..formats.csr import CSRMatrix
from ..ops.sparse_conv import SparseConvProblem, sparse_conv_reference
from ..workloads.pointcloud import PointCloudConfig, sparse_conv_problem
from .shared import CompiledForward, relu


def _gather_matrix(pairs: np.ndarray, num_in_points: int) -> CSRMatrix:
    """One-hot ``(num_pairs, num_in_points)`` CSR selecting each pair's input."""
    num_pairs = len(pairs)
    return CSRMatrix(
        (num_pairs, num_in_points),
        np.arange(num_pairs + 1, dtype=np.int64),
        np.asarray(pairs[:, 0], dtype=np.int64),
        np.ones(num_pairs, dtype=np.float32),
    )


def _scatter_matrix(pairs: np.ndarray, num_out_points: int) -> CSRMatrix:
    """One-hot ``(num_out_points, num_pairs)`` CSR scatter-adding pair outputs."""
    num_pairs = len(pairs)
    out_index = np.asarray(pairs[:, 1], dtype=np.int64)
    order = np.argsort(out_index, kind="stable")
    counts = np.bincount(out_index, minlength=num_out_points)
    indptr = np.zeros(num_out_points + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return CSRMatrix(
        (num_out_points, num_pairs),
        indptr,
        order.astype(np.int64),
        np.ones(num_pairs, dtype=np.float32),
    )


@dataclass
class SparseConvLayer:
    """One submanifold sparse-convolution layer with its weights."""

    problem: SparseConvProblem
    weights: np.ndarray  # (kernel_volume, in_channels, out_channels)

    @classmethod
    def create(cls, problem: SparseConvProblem, seed: int = 0) -> "SparseConvLayer":
        rng = np.random.default_rng(seed)
        scale = np.sqrt(2.0 / (problem.in_channels * problem.kernel_volume))
        weights = (
            rng.standard_normal(
                (problem.kernel_volume, problem.in_channels, problem.out_channels)
            )
            * scale
        ).astype(np.float32)
        return cls(problem, weights)

    def forward(self, features: np.ndarray, activation: bool = True, session=None) -> np.ndarray:
        """One layer forward pass.

        Args:
            features: Input voxel features ``(num_in_points, in_channels)``.
            activation: Apply ReLU to the layer output.
            session: When given, convolve through the session's compiled
                gather-GEMM-scatter kernel instead of the NumPy reference.

        Returns:
            Output voxel features ``(num_out_points, out_channels)``.
        """
        if session is not None:
            out = session.sparse_conv(self.problem, features, self.weights)
        else:
            out = sparse_conv_reference(self.problem, features, self.weights)
        return relu(out) if activation else out


class MinkowskiBackbone:
    """A stack of sparse-convolution layers over one voxelised scan."""

    def __init__(
        self,
        channel_plan: Sequence[Tuple[int, int]],
        config: Optional[PointCloudConfig] = None,
        seed: int = 0,
    ):
        self.config = config or PointCloudConfig()
        self.layers: List[SparseConvLayer] = []
        for index, (cin, cout) in enumerate(channel_plan):
            problem = sparse_conv_problem(cin, cout, self.config)
            self.layers.append(SparseConvLayer.create(problem, seed=seed + index))

    def forward(self, features: np.ndarray, session=None) -> np.ndarray:
        """Backbone forward pass; ``session`` selects the compiled kernels."""
        out = features
        for index, layer in enumerate(self.layers):
            last = index == len(self.layers) - 1
            out = layer.forward(out, activation=not last, session=session)
        return out

    def compile(self, session, features: np.ndarray, fuse: bool = True) -> CompiledForward:
        """Capture the backbone as one dataflow graph and lower it.

        Every layer is captured as its *per-offset* gather-GEMM-scatter batch:
        each non-empty kernel offset records a gather (SpMM with a one-hot
        selection matrix over the offset's input points), a GEMM with that
        offset's weight slice, and a scatter-add (SpMM with the output-side
        selection matrix), chained by accumulating adds — the launch-per-offset
        execution a TorchSparse-style runtime performs.  With ``fuse=True``
        the whole batch (and adjacent layers, interior ReLUs included) merges
        into a single emitted kernel.  The wrapper reruns on new ``features``
        of the same shape.
        """
        g = session.graph()
        out = g.input("features", np.asarray(features, dtype=np.float32))
        for index, layer in enumerate(self.layers):
            problem, weights = layer.problem, layer.weights
            accumulated = None
            for offset, pairs in enumerate(problem.kernel_maps):
                if len(pairs) == 0:
                    continue
                gathered = g.spmm(_gather_matrix(pairs, problem.num_in_points), out)
                transformed = g.gemm(gathered, weights[offset])
                scattered = g.spmm(
                    _scatter_matrix(pairs, problem.num_out_points), transformed
                )
                accumulated = (
                    scattered
                    if accumulated is None
                    else g.add(accumulated, scattered)
                )
            if accumulated is None:  # no offset has any pair: all-zero output
                accumulated = g.sparse_conv(problem, out, weights)
            out = accumulated
            if index != len(self.layers) - 1:
                out = g.relu(out)
        g.output(out)
        return CompiledForward(g.compile(fuse=fuse), "features", out.name)
