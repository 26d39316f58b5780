"""What the RGMS execution strategies cost on the simulated GPU (Figure 20).

Two strategies are modelled:

* the two-stage gather-matmul / scatter of existing GNN frameworks, which
  materialises the intermediate ``T[r] = X @ W[r]`` in HBM (large memory
  footprint, extra traffic);
* the fused SparseTIR schedule of Figure 21: per (relation, bucket) thread
  blocks pin ``W[r]`` in shared memory, gather the needed rows of ``X``,
  multiply on Tensor Cores and scatter directly to ``Y`` — no intermediate
  ever reaches HBM.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ...formats.hyb import HybFormat
from ...ops.rgms import RGMSProblem
from ..common import INDEX_BYTES, ceil_div, dense_reuse_miss_rate, value_bytes
from ..device import DeviceSpec
from ..workload import BlockGroup, KernelWorkload


def rgms_fused_hyb_workload(
    problem: RGMSProblem,
    device: DeviceSpec,
    bucket_widths: Sequence[int] = (1, 2, 4, 8, 16),
    use_tensor_cores: bool = True,
    rows_per_block: int = 16,
    name: str = "sparsetir_rgms_hyb_tc",
) -> KernelWorkload:
    """The fused RGMS kernel of Figure 21 on a 3-D hyb decomposition.

    Per-relation adjacency matrices are bucketed with ``hyb(1, k)``; each
    thread block owns a group of rows of one bucket, keeps the relation's
    weight matrix in shared memory, gathers the corresponding rows of ``X``
    to SRAM, multiplies on Tensor Cores (or CUDA cores when
    ``use_tensor_cores`` is off) and scatters to the output.
    """
    dtype = "float16" if use_tensor_cores else "float32"
    vbytes = value_bytes(dtype)
    d_in, d_out = problem.in_feats, problem.out_feats
    weight_tile = d_in * d_out * vbytes

    workload = KernelWorkload(name=name, num_launches=1)
    padded_total = 0
    nnz_total = 0
    for relation, matrix in enumerate(problem.adjacency.slices):
        if matrix is None or matrix.nnz == 0:
            continue
        hyb = HybFormat.from_csr(matrix, num_col_parts=1,
                                 num_buckets=len(bucket_widths))
        padded_total += hyb.stored
        nnz_total += hyb.nnz
        x_miss = dense_reuse_miss_rate(
            problem.num_nodes * d_in * vbytes, hyb.stored * d_in * vbytes, device
        )
        for bucket in hyb.buckets:
            ell = bucket.ell
            blocks = ceil_div(ell.num_rows, rows_per_block)
            stored = rows_per_block * bucket.width
            # Each gathered neighbour row of X feeds a (1 x d_in) x (d_in x d_out)
            # product, so a block performs `stored * d_in * d_out` multiply-adds.
            flops = 2.0 * stored * d_in * d_out
            reads = (
                stored * (INDEX_BYTES + vbytes)            # ELL indices + edge values
                + stored * d_in * vbytes * x_miss           # gathered X rows (L2 reuse)
                + weight_tile                               # W[r] staged once per block
                + rows_per_block * INDEX_BYTES              # row map
            )
            writes = rows_per_block * d_out * vbytes
            workload.add(
                BlockGroup(
                    name=f"r{relation}_w{bucket.width}",
                    num_blocks=blocks,
                    threads_per_block=4 * device.warp_size,
                    flops_per_block=flops,
                    dram_read_bytes_per_block=reads,
                    dram_write_bytes_per_block=writes,
                    shared_mem_bytes=weight_tile + rows_per_block * d_in * vbytes,
                    uses_tensor_core=use_tensor_cores,
                    dtype=dtype,
                    vector_width=8 if use_tensor_cores else 4,
                    compute_efficiency=0.6 if use_tensor_cores else 0.85,
                )
            )
    # Footprint: inputs + outputs + weights; no materialised intermediate.
    workload.memory_footprint_bytes = (
        problem.num_nodes * (d_in + d_out) * 4
        + problem.num_relations * d_in * d_out * 4
        + problem.adjacency.nbytes()
        + (padded_total - nnz_total) * vbytes
    )
    workload.metadata["padding_ratio"] = (
        1.0 - nnz_total / padded_total if padded_total else 0.0
    )
    return workload


def rgms_naive_workload(
    problem: RGMSProblem,
    device: DeviceSpec,
    name: str = "sparsetir_rgms_naive",
) -> KernelWorkload:
    """Fused RGMS without composable formats or tensor cores.

    One thread block per adjacency row per relation; per-block work follows
    the raw row lengths, so relation and degree imbalance hits the makespan.
    """
    vbytes = value_bytes("float32")
    d_in, d_out = problem.in_feats, problem.out_feats
    weight_tile = d_in * d_out * vbytes
    workload = KernelWorkload(name=name, num_launches=1)
    for relation, matrix in enumerate(problem.adjacency.slices):
        if matrix is None or matrix.nnz == 0:
            continue
        lengths = matrix.row_lengths().astype(np.float64)
        active = lengths[lengths > 0]
        if active.size == 0:
            continue
        x_miss = dense_reuse_miss_rate(
            problem.num_nodes * d_in * vbytes, matrix.nnz * d_in * vbytes, device
        )
        flops = 2.0 * active * d_in * d_out
        reads = (
            active * (INDEX_BYTES + vbytes)
            + active * d_in * vbytes * x_miss
            + weight_tile
        )
        writes = np.full(active.size, d_out * vbytes)
        workload.add(
            BlockGroup(
                name=f"r{relation}_rows",
                num_blocks=int(active.size),
                threads_per_block=2 * device.warp_size,
                flops_per_block=flops,
                dram_read_bytes_per_block=reads,
                dram_write_bytes_per_block=writes,
                uses_tensor_core=False,
                dtype="float32",
                vector_width=1,
                compute_efficiency=0.6,
            )
        )
    workload.memory_footprint_bytes = (
        problem.num_nodes * (d_in + d_out) * 4
        + problem.num_relations * d_in * d_out * 4
        + problem.adjacency.nbytes()
    )
    return workload


def rgms_two_stage_workload(
    problem: RGMSProblem,
    device: DeviceSpec,
    gemm_efficiency: float = 0.85,
    scatter_efficiency: float = 0.8,
    framework_overhead_us: float = 0.0,
    name: str = "two_stage_rgms",
) -> KernelWorkload:
    """The gather-matmul + scatter strategy of existing GNN frameworks.

    Stage 1 computes ``T[r] = X @ W[r]`` for every relation with dense GEMMs
    (cuBLAS-like efficiency) and materialises ``T`` in HBM; stage 2 runs one
    SpMM per relation over ``T``.  The materialised intermediate dominates the
    GPU memory footprint (Figure 20, right).
    """
    vbytes = 4
    d_in, d_out = problem.in_feats, problem.out_feats
    n = problem.num_nodes
    workload = KernelWorkload(name=name)
    # Stage 1: R dense GEMMs (n x d_in) @ (d_in x d_out).
    gemm_flops = 2.0 * n * d_in * d_out
    gemm_bytes = (n * d_in + d_in * d_out + n * d_out) * vbytes
    tiles = ceil_div(n, 128) * ceil_div(d_out, 64)
    active_relations = [m for m in problem.adjacency.slices if m is not None and m.nnz > 0]
    workload.add(
        BlockGroup(
            name="stage1_gemm",
            num_blocks=tiles * max(len(active_relations), 1),
            threads_per_block=256,
            flops_per_block=gemm_flops / max(tiles, 1),
            dram_read_bytes_per_block=(gemm_bytes - n * d_out * vbytes) / max(tiles, 1),
            dram_write_bytes_per_block=n * d_out * vbytes / max(tiles, 1),
            uses_tensor_core=False,
            dtype="float32",
            vector_width=4,
            compute_efficiency=gemm_efficiency,
        )
    )
    # Stage 2: one SpMM per relation gathering from the materialised T.
    for relation, matrix in enumerate(problem.adjacency.slices):
        if matrix is None or matrix.nnz == 0:
            continue
        lengths = matrix.row_lengths().astype(np.float64)
        active = lengths[lengths > 0]
        if active.size == 0:
            continue
        t_miss = dense_reuse_miss_rate(
            n * d_out * vbytes, matrix.nnz * d_out * vbytes, device
        )
        flops = 2.0 * active * d_out
        reads = active * (INDEX_BYTES + vbytes) + active * d_out * vbytes * t_miss
        writes = np.full(active.size, d_out * vbytes)
        workload.add(
            BlockGroup(
                name=f"stage2_scatter_r{relation}",
                num_blocks=int(active.size),
                threads_per_block=device.warp_size,
                flops_per_block=flops,
                dram_read_bytes_per_block=reads,
                dram_write_bytes_per_block=writes,
                uses_tensor_core=False,
                dtype="float32",
                vector_width=2,
                compute_efficiency=scatter_efficiency,
            )
        )
    workload.num_launches = 1 + len(active_relations)
    intermediate = len(active_relations) * n * d_out * vbytes
    workload.memory_footprint_bytes = (
        intermediate
        + n * (d_in + d_out) * vbytes
        + problem.num_relations * d_in * d_out * vbytes
        + problem.adjacency.nbytes()
    )
    workload.metadata["intermediate_bytes"] = intermediate
    workload.metadata["framework_overhead_us"] = framework_overhead_us
    return workload
