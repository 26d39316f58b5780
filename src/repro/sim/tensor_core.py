"""Tensor-core (MMA) execution model.

The paper uses ``tensorize`` to map block computations onto Tensor Core MMA
instructions (``m16n16k16`` for BSR operators, ``m8n32k16`` for SR-BCRS).
Here each intrinsic is described by its tile shape; the model computes how
many MMA tiles a block computation needs (including padding waste when the
problem shape does not divide the tile shape) and charges them at the
device's tensor-core throughput.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

from ..core.stage2.schedule import TENSOR_INTRINSICS
from .device import DeviceSpec


@dataclass(frozen=True)
class MMAShape:
    """One warp-level matrix-multiply-accumulate tile."""

    m: int
    n: int
    k: int
    dtype: str = "float16"

    @property
    def flops(self) -> int:
        return 2 * self.m * self.n * self.k


#: The intrinsics ``Schedule.tensorize`` accepts, as priceable tiles.
MMA_SHAPES: Dict[str, MMAShape] = {
    name: MMAShape(*tile) for name, tile in TENSOR_INTRINSICS.items()
}


def mma_tiles(m: int, n: int, k: int, shape: MMAShape) -> int:
    """Number of MMA tiles needed to cover an (m, n, k) matrix multiply."""
    return math.ceil(m / shape.m) * math.ceil(n / shape.n) * math.ceil(k / shape.k)


def tensor_core_time_us(
    m: int, n: int, k: int, device: DeviceSpec, intrin: str = "mma_m16n16k16",
    efficiency: float = 0.75,
) -> float:
    """Execution time of an (m, n, k) matmul on tensor cores, in microseconds.

    ``efficiency`` accounts for issue overheads and fragment load/store; 0.75
    of peak is a typical sustained figure for well-formed WMMA kernels.
    """
    shape = MMA_SHAPES[intrin]
    tiles = mma_tiles(m, n, k, shape)
    effective_flops = tiles * shape.flops
    return effective_flops / (device.tensor_core_flops_per_us * efficiency)


def cuda_core_time_us(
    flops: float, device: DeviceSpec, dtype: str = "float32", efficiency: float = 0.7
) -> float:
    """Execution time of ``flops`` floating point operations on CUDA cores."""
    return flops / (device.flops_per_us(dtype) * efficiency)


def padding_waste(rows: int, cols: int, tile_rows: int, tile_cols: int) -> float:
    """Fraction of padded (wasted) multiply-accumulate work for a tiled shape."""
    padded = math.ceil(rows / tile_rows) * tile_rows * math.ceil(cols / tile_cols) * tile_cols
    if padded == 0:
        return 0.0
    return 1.0 - (rows * cols) / padded
