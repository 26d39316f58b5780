"""cuBLAS dense GEMM baseline.

For pruned-weight workloads (Figures 17 and 19) the dense baseline simply
runs the un-pruned GEMM; for sparse convolution it is the matmul engine
TorchSparse calls after gathering.  cuBLAS sustains a high fraction of Tensor
Core peak on the evaluated shapes, which is exactly why sparse kernels only
win when density (and therefore useful FLOPs) is low enough.
"""

from __future__ import annotations

import numpy as np

from ..common import ceil_div, value_bytes
from ..device import DeviceSpec
from ..workload import BlockGroup, KernelWorkload

#: Sustained fraction of peak for a well-shaped half-precision GEMM.
GEMM_TC_EFFICIENCY = 0.85
GEMM_FP32_EFFICIENCY = 0.90


def gemm_reference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.asarray(a, dtype=np.float32) @ np.asarray(b, dtype=np.float32)


def gemm_workload(
    m: int,
    n: int,
    k: int,
    device: DeviceSpec,
    dtype: str = "float16",
    use_tensor_cores: bool = True,
    name: str = "cublas_gemm",
) -> KernelWorkload:
    """A dense (m x k) @ (k x n) GEMM with cuBLAS-grade tiling."""
    vbytes = value_bytes(dtype)
    tile_m, tile_n = 128, 64
    tiles = max(1, ceil_div(m, tile_m) * ceil_div(n, tile_n))
    total_flops = 2.0 * m * n * k
    # Tiled GEMM reads each operand roughly once per tile wave.
    read_bytes = (m * k + k * n) * vbytes * max(1.0, min(4.0, (m / 2048 + n / 2048)))
    write_bytes = m * n * vbytes
    efficiency = GEMM_TC_EFFICIENCY if use_tensor_cores else GEMM_FP32_EFFICIENCY
    workload = KernelWorkload(name=name, num_launches=1)
    workload.add(
        BlockGroup(
            name="gemm_tiles",
            num_blocks=tiles,
            threads_per_block=256,
            flops_per_block=total_flops / tiles,
            dram_read_bytes_per_block=read_bytes / tiles,
            dram_write_bytes_per_block=write_bytes / tiles,
            shared_mem_bytes=48 * 1024,
            uses_tensor_core=use_tensor_cores and dtype == "float16",
            dtype=dtype,
            vector_width=8,
            compute_efficiency=efficiency,
        )
    )
    workload.memory_footprint_bytes = (m * k + k * n + m * n) * vbytes
    return workload
