"""Sparse (submanifold) convolution as an RGMS instance (Section 4.4.2).

Figure 22 of the paper shows the equivalence: every relative offset of the
convolution kernel (27 offsets for a 3x3x3 kernel) forms a relation whose
adjacency is a bipartite mapping from input voxels to output voxels with at
most one non-zero per row — an ``ELL(1)`` matrix, so no composable-format
decomposition is needed.

The evaluated comparison against TorchSparse's gather -> GEMM -> scatter on
the simulated GPU is :mod:`repro.sim.ops.sparse_conv`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..core.buffers import SparseBuffer
from ..core.program import PrimFunc
from ..core.script import EmitContext, ProgramBuilder


@dataclass
class SparseConvProblem:
    """One sparse convolution layer extracted from a point-cloud network.

    ``kernel_maps[r]`` holds, for kernel offset ``r``, the (input_index,
    output_index) pairs that offset connects — the bipartite ELL(1) relation.
    """

    num_in_points: int
    num_out_points: int
    in_channels: int
    out_channels: int
    kernel_maps: List[np.ndarray]

    @property
    def kernel_volume(self) -> int:
        return len(self.kernel_maps)

    @property
    def total_pairs(self) -> int:
        return int(sum(len(pairs) for pairs in self.kernel_maps))

    def pairs_per_offset(self) -> np.ndarray:
        return np.array([len(pairs) for pairs in self.kernel_maps], dtype=np.int64)


# ---------------------------------------------------------------------------
# Reference implementation
# ---------------------------------------------------------------------------

def sparse_conv_reference(problem: SparseConvProblem, features: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Ground truth: scatter-accumulate ``X[in] @ W[r]`` into each output voxel.

    ``features`` is (num_in_points, in_channels); ``weights`` is
    (kernel_volume, in_channels, out_channels).
    """
    features = np.asarray(features, dtype=np.float32)
    weights = np.asarray(weights, dtype=np.float32)
    if features.shape != (problem.num_in_points, problem.in_channels):
        raise ValueError("features shape does not match the problem")
    if weights.shape != (problem.kernel_volume, problem.in_channels, problem.out_channels):
        raise ValueError("weights shape does not match the problem")
    out = np.zeros((problem.num_out_points, problem.out_channels), dtype=np.float32)
    for r, pairs in enumerate(problem.kernel_maps):
        if len(pairs) == 0:
            continue
        in_idx = pairs[:, 0]
        out_idx = pairs[:, 1]
        contribution = features[in_idx] @ weights[r]
        np.add.at(out, out_idx, contribution)
    return out


# ---------------------------------------------------------------------------
# Executable operator (compile-once/run-many Session path)
# ---------------------------------------------------------------------------

def sparse_conv(
    problem: SparseConvProblem,
    features: np.ndarray,
    weights: np.ndarray,
    *,
    session=None,
    **options,
) -> np.ndarray:
    """Run the sparse convolution of ``features`` ``(num_in_points, in_channels)``.

    ``weights`` is ``(kernel_volume, in_channels, out_channels)``; options: see
    ``Session.sparse_conv``.
    """
    from ..runtime.session import get_default_session

    return (session or get_default_session()).sparse_conv(problem, features, weights, **options)


def build_sparse_conv_program(
    problem: SparseConvProblem,
    features: Optional[np.ndarray] = None,
    weights: Optional[np.ndarray] = None,
) -> PrimFunc:
    """The fused gather-GEMM-scatter sparse-convolution program (Figure 22).

    Every kernel offset is an ``ELL(1)`` relation: its (input, output) pair
    list becomes a pair of int32 gather/scatter map buffers, and one sparse
    iteration per non-empty offset gathers the input rows, multiplies them
    with the offset's weight matrix and scatter-accumulates into the output
    voxels — no intermediate is ever materialised, matching the fused RGMS
    schedule the paper evaluates against TorchSparse.
    """
    ctx = EmitContext(ProgramBuilder("sparse_conv"))
    emit_sparse_conv(ctx, problem, features, weights)
    return ctx.builder.finish()


def emit_sparse_conv(
    ctx: EmitContext,
    problem: SparseConvProblem,
    features: Optional[np.ndarray] = None,
    weights: Optional[np.ndarray] = None,
    bind: Optional[Dict[str, SparseBuffer]] = None,
) -> Dict[str, SparseBuffer]:
    """Append the per-offset conv iterations; ``bind`` may supply ``features``."""
    bind = bind or {}
    cin, cout = problem.in_channels, problem.out_channels
    if features is not None:
        features = np.asarray(features, dtype=np.float32)
        if features.shape != (problem.num_in_points, cin):
            raise ValueError("features shape does not match the problem")
    w_arr = None
    if weights is not None:
        w_arr = np.asarray(weights, dtype=np.float32)
        if w_arr.shape != (problem.kernel_volume, cin, cout):
            raise ValueError("weights shape does not match the problem")

    x_buf = bind.get("features")
    if x_buf is None:
        in_axis = ctx.dense_fixed("NIN", problem.num_in_points)
    out_axis = ctx.dense_fixed("NOUT", problem.num_out_points)
    if x_buf is None:
        ci_axis = ctx.dense_fixed("CI", cin)
    co_axis = ctx.dense_fixed("CO", cout)
    if x_buf is None:
        x_buf = ctx.buffer(
            "X", [in_axis, ci_axis],
            data=None if features is None else features.reshape(-1),
        )
    y_buf = ctx.buffer("Y", [out_axis, co_axis])

    with ctx.sp_iter([out_axis, co_axis], "SS", "init_output") as (o, co):
        ctx.compute(y_buf[o, co], 0.0)

    for offset, pairs in enumerate(problem.kernel_maps):
        if len(pairs) == 0:
            continue
        p_axis = ctx.dense_fixed(f"P{offset}", len(pairs))
        ci_local = ctx.dense_fixed(f"CI{offset}", cin)
        co_local = ctx.dense_fixed(f"CO{offset}", cout)
        in_map = ctx.buffer(f"inmap{offset}", [p_axis], dtype="int32", data=pairs[:, 0])
        out_map = ctx.buffer(f"outmap{offset}", [p_axis], dtype="int32", data=pairs[:, 1])
        w_buf = ctx.buffer(
            f"W{offset}", [ci_local, co_local],
            data=None if w_arr is None else w_arr[offset].reshape(-1),
        )
        with ctx.sp_iter(
            [p_axis, ci_local, co_local], "SRS", f"conv_offset{offset}"
        ) as (p, ci, co):
            ctx.compute(
                y_buf[out_map[p], co],
                y_buf[out_map[p], co] + x_buf[in_map[p], ci] * w_buf[ci, co],
            )
    return {"out": y_buf, "features": x_buf}
