"""Kernel workload descriptions consumed by the GPU performance model.

A :class:`KernelWorkload` describes one logical operator launch as a list of
:class:`BlockGroup` items.  Each group corresponds to a set of thread blocks
sharing the same code (e.g. "one block per row bucket of the ELL sub-matrix")
and records the work each block performs.  Per-block arrays are used when the
work is data dependent (e.g. one CSR row per block), which is what lets the
model capture load imbalance — the central performance phenomenon behind the
hyb format of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

ArrayLike = Union[float, int, Sequence[float], np.ndarray]


@dataclass
class BlockGroup:
    """A homogeneous group of thread blocks within one kernel.

    Parameters
    ----------
    name:
        Human-readable identifier (shows up in reports).
    num_blocks:
        Number of thread blocks in the group.
    threads_per_block:
        CUDA threads per block.
    flops_per_block:
        Floating point operations per block; a scalar (uniform) or an array
        of length ``num_blocks`` (imbalanced).
    dram_read_bytes_per_block / dram_write_bytes_per_block:
        Bytes each block moves to/from HBM after accounting for on-chip reuse.
    shared_mem_bytes:
        Shared memory (SRAM) each block allocates.
    registers_per_thread:
        Register usage, limits occupancy.
    uses_tensor_core:
        Whether the block's inner product runs on tensor cores.
    dtype:
        Compute dtype ("float32", "float64" or "float16").
    vector_width:
        Width of vectorised global loads (1 = scalar, 4 = float4).
    register_caching:
        Whether partial results are accumulated in registers (saves write
        traffic and instruction overhead; TACO's generated SpMM lacks this).
    unrolled:
        Whether the inner loops are unrolled.
    compute_efficiency / memory_efficiency:
        Optional extra derating factors (0-1] applied to the peak rates, used
        by baselines to model known algorithmic inefficiencies.
    """

    name: str
    num_blocks: int
    threads_per_block: int
    flops_per_block: ArrayLike
    dram_read_bytes_per_block: ArrayLike
    dram_write_bytes_per_block: ArrayLike = 0.0
    shared_mem_bytes: int = 0
    registers_per_thread: int = 32
    uses_tensor_core: bool = False
    dtype: str = "float32"
    vector_width: int = 1
    register_caching: bool = True
    unrolled: bool = True
    compute_efficiency: float = 1.0
    memory_efficiency: float = 1.0
    metadata: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.num_blocks < 0:
            raise ValueError(f"group {self.name!r}: num_blocks must be >= 0")
        if self.threads_per_block <= 0:
            raise ValueError(f"group {self.name!r}: threads_per_block must be positive")
        if not 0.0 < self.compute_efficiency <= 1.0:
            raise ValueError(f"group {self.name!r}: compute_efficiency must be in (0, 1]")
        if not 0.0 < self.memory_efficiency <= 1.0:
            raise ValueError(f"group {self.name!r}: memory_efficiency must be in (0, 1]")

    # -- per-block arrays ----------------------------------------------------------
    def flops_array(self) -> np.ndarray:
        return _as_block_array(self.flops_per_block, self.num_blocks, "flops_per_block", self.name)

    def read_bytes_array(self) -> np.ndarray:
        return _as_block_array(
            self.dram_read_bytes_per_block, self.num_blocks, "dram_read_bytes_per_block", self.name
        )

    def write_bytes_array(self) -> np.ndarray:
        return _as_block_array(
            self.dram_write_bytes_per_block, self.num_blocks, "dram_write_bytes_per_block", self.name
        )

    # -- aggregates ----------------------------------------------------------------
    def total_flops(self) -> float:
        return float(self.flops_array().sum())

    def total_dram_bytes(self) -> float:
        return float(self.read_bytes_array().sum() + self.write_bytes_array().sum())


@dataclass
class KernelWorkload:
    """One operator launch: a list of block groups plus launch metadata."""

    name: str
    groups: List[BlockGroup] = field(default_factory=list)
    num_launches: int = 1
    memory_footprint_bytes: float = 0.0
    metadata: Dict[str, object] = field(default_factory=dict)

    def add(self, group: BlockGroup) -> "BlockGroup":
        self.groups.append(group)
        return group

    def total_flops(self) -> float:
        return sum(group.total_flops() for group in self.groups)

    def total_dram_bytes(self) -> float:
        return sum(group.total_dram_bytes() for group in self.groups)

    def total_blocks(self) -> int:
        return sum(group.num_blocks for group in self.groups)

    def merged(self, other: "KernelWorkload", name: Optional[str] = None) -> "KernelWorkload":
        """Concatenate two workloads (e.g. the kernels of a multi-format op)."""
        return KernelWorkload(
            name=name or f"{self.name}+{other.name}",
            groups=list(self.groups) + list(other.groups),
            num_launches=self.num_launches + other.num_launches,
            memory_footprint_bytes=self.memory_footprint_bytes + other.memory_footprint_bytes,
            metadata={**self.metadata, **other.metadata},
        )


def _as_block_array(value: ArrayLike, count: int, field_name: str, group: str) -> np.ndarray:
    if np.isscalar(value):
        return np.full(count, float(value), dtype=np.float64)
    array = np.asarray(value, dtype=np.float64).reshape(-1)
    if array.size != count:
        raise ValueError(
            f"group {group!r}: {field_name} has {array.size} entries for {count} blocks"
        )
    return array
