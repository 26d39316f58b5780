"""Sparse (submanifold) convolution as an RGMS instance (Section 4.4.2).

Figure 22 of the paper shows the equivalence: every relative offset of the
convolution kernel (27 offsets for a 3x3x3 kernel) forms a relation whose
adjacency is a bipartite mapping from input voxels to output voxels with at
most one non-zero per row — an ``ELL(1)`` matrix, so no composable-format
decomposition is needed.

The evaluated comparison is against TorchSparse, which performs explicit
gather -> (grouped cuBLAS) GEMM -> scatter with materialised intermediates,
versus SparseTIR's fused Tensor-Core RGMS kernel.  The crossover at large
channel counts (cuBLAS wins once the GEMM dominates) emerges from the model
because the fused kernel's MMA efficiency is below cuBLAS's GEMM efficiency
while its gather/scatter traffic advantage is only linear in the channels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, TYPE_CHECKING

import numpy as np

from ..core.buffers import SparseBuffer
from ..core.program import PrimFunc
from ..core.script import EmitContext, ProgramBuilder
from .common import INDEX_BYTES, ceil_div, value_bytes

if TYPE_CHECKING:  # the GPU model is imported by the ``*_workload`` functions that price with it
    from ..perf.device import DeviceSpec
    from ..perf.workload import KernelWorkload


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


# ---------------------------------------------------------------------------
# Workload models
# ---------------------------------------------------------------------------

def sparse_conv_fused_tc_workload(
    problem: SparseConvProblem,
    device: DeviceSpec,
    pairs_per_block: int = 64,
    mma_efficiency: float = 0.60,
    name: str = "sparsetir_sparse_conv_tc",
) -> KernelWorkload:
    """SparseTIR's fused gather-matmul-scatter sparse convolution.

    Thread blocks own a slice of one offset's (input, output) pairs, keep the
    offset's weight matrix in shared memory, and never materialise the
    gathered/matmul intermediate in HBM.
    """
    from ..perf.workload import BlockGroup, KernelWorkload

    dtype = "float16"
    vbytes = value_bytes(dtype)
    cin, cout = problem.in_channels, problem.out_channels
    weight_tile = cin * cout * vbytes
    workload = KernelWorkload(name=name, num_launches=1)
    for r, pairs in enumerate(problem.kernel_maps):
        count = len(pairs)
        if count == 0:
            continue
        blocks = ceil_div(count, pairs_per_block)
        flops = 2.0 * pairs_per_block * cin * cout
        reads = (
            pairs_per_block * 2 * INDEX_BYTES          # in/out indices
            + pairs_per_block * cin * vbytes           # gathered input features
            + weight_tile                              # W[r] staged per block
        )
        writes = pairs_per_block * cout * vbytes
        workload.add(
            BlockGroup(
                name=f"offset{r}",
                num_blocks=blocks,
                threads_per_block=4 * device.warp_size,
                flops_per_block=flops,
                dram_read_bytes_per_block=reads,
                dram_write_bytes_per_block=writes,
                shared_mem_bytes=weight_tile + pairs_per_block * cin * vbytes,
                uses_tensor_core=True,
                dtype=dtype,
                vector_width=8,
                compute_efficiency=mma_efficiency,
            )
        )
    workload.memory_footprint_bytes = (
        problem.num_in_points * cin * vbytes
        + problem.num_out_points * cout * vbytes
        + problem.kernel_volume * cin * cout * vbytes
        + problem.total_pairs * 2 * INDEX_BYTES
    )
    return workload


def sparse_conv_gather_gemm_scatter_workload(
    problem: SparseConvProblem,
    device: DeviceSpec,
    gemm_efficiency: float = 0.90,
    name: str = "gather_gemm_scatter",
) -> KernelWorkload:
    """TorchSparse-style execution: gather, grouped cuBLAS GEMM, scatter.

    Both the gathered input copies and the per-offset GEMM outputs are
    materialised in HBM, so the operator pays their write+read traffic; the
    GEMM itself runs at high (cuBLAS) efficiency.
    """
    from ..perf.workload import BlockGroup, KernelWorkload

    vbytes = value_bytes("float16")
    cin, cout = problem.in_channels, problem.out_channels
    workload = KernelWorkload(name=name)
    pairs = problem.pairs_per_offset()
    total = int(pairs.sum())
    if total == 0:
        workload.num_launches = 0
        return workload

    # Gather kernel: copy input rows for every pair into a contiguous buffer.
    gather_blocks = ceil_div(total, 128)
    workload.add(
        BlockGroup(
            name="gather",
            num_blocks=gather_blocks,
            threads_per_block=128,
            flops_per_block=0.0,
            dram_read_bytes_per_block=128 * (cin * vbytes + INDEX_BYTES),
            dram_write_bytes_per_block=128 * cin * vbytes,
            dtype="float16",
            vector_width=4,
        )
    )
    # Grouped GEMM over the gathered rows (one GEMM per kernel offset).
    gemm_flops_total = 2.0 * total * cin * cout
    gemm_tiles = max(1, ceil_div(total, 128) * ceil_div(cout, 64))
    workload.add(
        BlockGroup(
            name="grouped_gemm",
            num_blocks=gemm_tiles,
            threads_per_block=256,
            flops_per_block=gemm_flops_total / gemm_tiles,
            dram_read_bytes_per_block=(total * cin * vbytes + problem.kernel_volume * cin * cout * vbytes)
            / gemm_tiles,
            dram_write_bytes_per_block=total * cout * vbytes / gemm_tiles,
            uses_tensor_core=True,
            dtype="float16",
            vector_width=8,
            compute_efficiency=gemm_efficiency,
        )
    )
    # Scatter kernel: accumulate the GEMM outputs into the output voxels.
    scatter_blocks = ceil_div(total, 128)
    workload.add(
        BlockGroup(
            name="scatter",
            num_blocks=scatter_blocks,
            threads_per_block=128,
            flops_per_block=128 * cout,
            dram_read_bytes_per_block=128 * (cout * vbytes + INDEX_BYTES) + 128 * cout * vbytes,
            dram_write_bytes_per_block=128 * cout * vbytes,
            dtype="float16",
            vector_width=4,
        )
    )
    workload.num_launches = 2 + problem.kernel_volume  # gather + per-offset GEMMs + scatter
    gathered_bytes = total * (cin + cout) * vbytes
    workload.memory_footprint_bytes = (
        problem.num_in_points * cin * vbytes
        + problem.num_out_points * cout * vbytes
        + problem.kernel_volume * cin * cout * vbytes
        + problem.total_pairs * 2 * INDEX_BYTES
        + gathered_bytes
    )
    workload.metadata["materialized_bytes"] = gathered_bytes
    return workload
