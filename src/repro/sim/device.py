"""Device specifications for the simulated GPUs used in the evaluation."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class DeviceSpec:
    """Architectural parameters of one GPU.

    The numbers below are public datasheet values; the performance model uses
    them to convert kernel workload descriptions into time estimates.  The
    evaluation only relies on *relative* numbers (speedups), so moderate
    inaccuracy in any single constant does not change which kernel wins.
    """

    name: str
    sm_count: int
    warp_size: int
    max_threads_per_sm: int
    max_threads_per_block: int
    max_blocks_per_sm: int
    shared_mem_per_sm_bytes: int
    registers_per_sm: int
    l1_bytes_per_sm: int
    l2_bytes: int
    l2_line_bytes: int
    hbm_bandwidth_gbs: float
    fp32_tflops: float
    fp16_tflops: float
    fp64_tflops: float
    tensor_core_tflops: float
    kernel_launch_us: float
    block_schedule_overhead_us: float
    dram_latency_us: float
    memory_gib: float

    # -- derived quantities ------------------------------------------------------
    @property
    def hbm_bandwidth_bytes_per_us(self) -> float:
        return self.hbm_bandwidth_gbs * 1e9 / 1e6

    @property
    def fp32_flops_per_us(self) -> float:
        return self.fp32_tflops * 1e12 / 1e6

    @property
    def fp16_flops_per_us(self) -> float:
        return self.fp16_tflops * 1e12 / 1e6

    @property
    def fp64_flops_per_us(self) -> float:
        return self.fp64_tflops * 1e12 / 1e6

    @property
    def tensor_core_flops_per_us(self) -> float:
        return self.tensor_core_tflops * 1e12 / 1e6

    def flops_per_us(self, dtype: str = "float32", tensor_core: bool = False) -> float:
        """Peak device throughput in FLOPs per microsecond."""
        if tensor_core:
            return self.tensor_core_flops_per_us
        if dtype == "float64":
            return self.fp64_flops_per_us
        if dtype in ("float16", "bfloat16"):
            return self.fp16_flops_per_us
        return self.fp32_flops_per_us


#: NVIDIA Tesla V100 (SXM2, 16/32 GB) — the datacentre GPU of the evaluation.
V100 = DeviceSpec(
    name="V100",
    sm_count=80,
    warp_size=32,
    max_threads_per_sm=2048,
    max_threads_per_block=1024,
    max_blocks_per_sm=32,
    shared_mem_per_sm_bytes=96 * 1024,
    registers_per_sm=65536,
    l1_bytes_per_sm=128 * 1024,
    l2_bytes=6 * 1024 * 1024,
    l2_line_bytes=64,
    hbm_bandwidth_gbs=900.0,
    fp32_tflops=15.7,
    fp16_tflops=31.4,
    fp64_tflops=7.8,
    tensor_core_tflops=125.0,
    kernel_launch_us=5.0,
    block_schedule_overhead_us=0.2,
    dram_latency_us=0.4,
    memory_gib=16.0,
)

#: NVIDIA GeForce RTX 3070 — the desktop (Ampere) GPU of the evaluation.
RTX3070 = DeviceSpec(
    name="RTX3070",
    sm_count=46,
    warp_size=32,
    max_threads_per_sm=1536,
    max_threads_per_block=1024,
    max_blocks_per_sm=16,
    shared_mem_per_sm_bytes=100 * 1024,
    registers_per_sm=65536,
    l1_bytes_per_sm=128 * 1024,
    l2_bytes=4 * 1024 * 1024,
    l2_line_bytes=64,
    hbm_bandwidth_gbs=448.0,
    fp32_tflops=20.3,
    fp16_tflops=20.3,
    fp64_tflops=0.317,
    tensor_core_tflops=81.3,
    kernel_launch_us=5.0,
    block_schedule_overhead_us=0.2,
    dram_latency_us=0.35,
    memory_gib=8.0,
)

ALL_DEVICES = (V100, RTX3070)


def device_by_name(name: str) -> DeviceSpec:
    """Look up a device spec by its name (case insensitive)."""
    for device in ALL_DEVICES:
        if device.name.lower() == name.lower():
            return device
    raise KeyError(f"unknown device {name!r}; available: {[d.name for d in ALL_DEVICES]}")
