"""What SparseTIR's SDDMM kernel costs on the simulated GPU (Figure 14)."""

from __future__ import annotations

from ...formats.csr import CSRMatrix
from ..common import INDEX_BYTES, ceil_div, dense_reuse_miss_rate, value_bytes
from ..device import DeviceSpec
from ..workload import BlockGroup, KernelWorkload


def sddmm_workload(
    csr: CSRMatrix,
    feat_size: int,
    device: DeviceSpec,
    nnz_per_block: int = 32,
    threads_per_block: int = 256,
    vector_width: int = 4,
    two_stage_reduction: bool = True,
    name: str = "sparsetir_sddmm",
    dtype: str = "float32",
    compute_efficiency: float = 0.9,
    memory_efficiency: float = 1.0,
) -> KernelWorkload:
    """The fused SparseTIR SDDMM: blocks own fixed-size slices of the edge list.

    Work per non-zero is identical, so there is no load-balancing concern; the
    schedule quality comes from vectorised loads of the feature rows and the
    two-stage (rfactor) reduction that keeps all lanes busy for large feature
    sizes.
    """
    vbytes = value_bytes(dtype)
    num_blocks = max(1, ceil_div(csr.nnz, nnz_per_block))
    flops = 2.0 * nnz_per_block * feat_size

    # X rows are reused by all edges of the same row; Y columns are gathered.
    touched = 2.0 * csr.nnz * feat_size * vbytes
    unique = (csr.rows + csr.cols) * feat_size * vbytes
    miss = dense_reuse_miss_rate(unique, touched, device)
    reads = (
        nnz_per_block * (2 * INDEX_BYTES + vbytes)          # coo-style edge list + values
        + nnz_per_block * 2 * feat_size * vbytes * miss     # X row + Y column per edge
    )
    writes = nnz_per_block * vbytes

    reduction_efficiency = compute_efficiency if two_stage_reduction else compute_efficiency * 0.55

    workload = KernelWorkload(name=name, num_launches=1)
    workload.memory_footprint_bytes = csr.nbytes() + unique + csr.nnz * vbytes
    workload.metadata["feature_miss_rate"] = miss
    workload.add(
        BlockGroup(
            name="edge_slices",
            num_blocks=num_blocks,
            threads_per_block=threads_per_block,
            flops_per_block=flops,
            dram_read_bytes_per_block=reads,
            dram_write_bytes_per_block=writes,
            vector_width=vector_width,
            register_caching=True,
            unrolled=True,
            dtype=dtype,
            compute_efficiency=reduction_efficiency,
            memory_efficiency=memory_efficiency,
        )
    )
    return workload


def sddmm_flops(csr: CSRMatrix, feat_size: int) -> float:
    """Useful floating point operations of the SDDMM."""
    return 2.0 * csr.nnz * feat_size
