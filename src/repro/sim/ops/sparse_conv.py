"""What sparse convolution costs on the simulated GPU (Figure 23).

The evaluated comparison is against TorchSparse, which performs explicit
gather -> (grouped cuBLAS) GEMM -> scatter with materialised intermediates,
versus SparseTIR's fused Tensor-Core RGMS kernel.  The crossover at large
channel counts (cuBLAS wins once the GEMM dominates) emerges from the model
because the fused kernel's MMA efficiency is below cuBLAS's GEMM efficiency
while its gather/scatter traffic advantage is only linear in the channels.
"""

from __future__ import annotations

from ...ops.sparse_conv import SparseConvProblem
from ..common import INDEX_BYTES, ceil_div, value_bytes
from ..device import DeviceSpec
from ..workload import BlockGroup, KernelWorkload


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
