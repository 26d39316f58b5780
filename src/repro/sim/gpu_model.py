"""The GPU cost model: from kernel workloads to execution-time estimates.

The model is a load-balance-aware roofline:

1. For every :class:`~repro.sim.workload.BlockGroup`, occupancy determines
   how many thread blocks run concurrently (limited by threads, shared
   memory, registers and the architectural block limit).
2. Every block's duration is the maximum of its compute time (FLOPs over its
   share of CUDA-core or tensor-core throughput) and its memory time (DRAM
   bytes over its share of HBM bandwidth), plus a small scheduling overhead.
3. A group's duration is the larger of two bounds — the whole-device
   roofline (all blocks overlap and share peak throughput) and the critical
   path (the heaviest single block at the rates one block can sustain alone)
   — plus a per-wave scheduling overhead.  The critical-path bound is what
   makes skewed per-block work (long CSR rows) slow — the load-balancing
   phenomenon the hyb format addresses.
4. Kernel-launch overhead is charged per launch, so composable formats
   without horizontal fusion pay for every sub-format kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from .device import DeviceSpec
from .kernel_features import extract_workload
from .workload import BlockGroup, KernelWorkload

_VECTOR_EFFICIENCY = {1: 0.70, 2: 0.85, 4: 1.0, 8: 1.0}


def _vector_efficiency(width: int) -> float:
    """Memory-efficiency factor for a vector width, floored to the nearest
    known width below it (width 3 prices like 2, widths 5-7 like 4) so that
    wider accesses never price *worse* than narrower ones."""
    width = max(1, int(width))
    known = [w for w in _VECTOR_EFFICIENCY if w <= width]
    return _VECTOR_EFFICIENCY[max(known)]

#: Fraction of the device's HBM bandwidth a single thread block can sustain
#: on its own (limits the critical path of a severely imbalanced kernel: a
#: lone block streaming a very long row is latency-bound, far below peak).
_SOLO_BANDWIDTH_FRACTION = 0.01


@dataclass
class PerfReport:
    """Estimated execution profile of one kernel workload on one device."""

    name: str
    device: str
    duration_us: float
    compute_us: float
    memory_us: float
    launch_us: float
    total_flops: float
    total_dram_bytes: float
    num_blocks: int
    num_launches: int
    occupancy: float
    memory_footprint_bytes: float
    l1_hit_rate: Optional[float] = None
    l2_hit_rate: Optional[float] = None
    metadata: Dict[str, object] = field(default_factory=dict)

    @property
    def duration_ms(self) -> float:
        return self.duration_us / 1e3

    @property
    def achieved_bandwidth_gbs(self) -> float:
        if self.duration_us <= 0:
            return 0.0
        return self.total_dram_bytes / (self.duration_us * 1e-6) / 1e9

    @property
    def achieved_tflops(self) -> float:
        if self.duration_us <= 0:
            return 0.0
        return self.total_flops / (self.duration_us * 1e-6) / 1e12

    def speedup_over(self, other: "PerfReport") -> float:
        """How much faster this kernel is than *other* (>1 means faster)."""
        if self.duration_us <= 0:
            return float("inf")
        return other.duration_us / self.duration_us

    def as_dict(self) -> Dict[str, object]:
        """A JSON-friendly summary (used by goldens and benchmark reports)."""
        return {
            "name": self.name,
            "device": self.device,
            "duration_us": self.duration_us,
            "compute_us": self.compute_us,
            "memory_us": self.memory_us,
            "launch_us": self.launch_us,
            "total_flops": self.total_flops,
            "total_dram_bytes": self.total_dram_bytes,
            "num_blocks": self.num_blocks,
            "num_launches": self.num_launches,
            "occupancy": self.occupancy,
            "memory_footprint_bytes": self.memory_footprint_bytes,
        }


class GPUModel:
    """Estimates kernel execution time on a :class:`DeviceSpec`."""

    def __init__(self, device: DeviceSpec):
        self.device = device

    # -- occupancy -----------------------------------------------------------------
    def blocks_per_sm(self, group: BlockGroup) -> int:
        device = self.device
        by_threads = max(1, device.max_threads_per_sm // group.threads_per_block)
        by_blocks = device.max_blocks_per_sm
        by_shared = (
            max(1, device.shared_mem_per_sm_bytes // group.shared_mem_bytes)
            if group.shared_mem_bytes > 0
            else device.max_blocks_per_sm
        )
        registers_per_block = group.registers_per_thread * group.threads_per_block
        by_registers = (
            max(1, device.registers_per_sm // registers_per_block)
            if registers_per_block > 0
            else device.max_blocks_per_sm
        )
        return max(1, min(by_threads, by_blocks, by_shared, by_registers))

    def occupancy(self, group: BlockGroup) -> float:
        per_sm = self.blocks_per_sm(group)
        return min(
            1.0, per_sm * group.threads_per_block / self.device.max_threads_per_sm
        )

    # -- per-group timing -------------------------------------------------------------
    def group_time_us(self, group: BlockGroup) -> Dict[str, float]:
        """Duration of one block group plus its compute/memory breakdown.

        The estimate combines a whole-device roofline (all blocks overlap and
        share peak compute/bandwidth) with a critical-path bound (the largest
        single block running with the resources one block can actually
        sustain).  Severely imbalanced kernels — the long rows of power-law
        graphs under row-split schedules — are limited by the critical path;
        balanced kernels by the roofline.
        """
        device = self.device
        if group.num_blocks == 0:
            return {
                "duration": 0.0, "roofline": 0.0, "critical": 0.0,
                "overhead": 0.0, "compute": 0.0, "memory": 0.0,
            }
        per_sm = self.blocks_per_sm(group)
        slots = max(1, device.sm_count * per_sm)
        occupancy = self.occupancy(group)

        compute_rate = device.flops_per_us(group.dtype, group.uses_tensor_core)
        compute_rate *= group.compute_efficiency
        if not group.unrolled:
            compute_rate *= 0.75
        if not group.register_caching:
            compute_rate *= 0.80
        # Low occupancy limits latency hiding and therefore achieved rates.
        utilisation = min(1.0, 0.25 + 0.75 * occupancy)
        device_compute_rate = compute_rate * utilisation

        memory_rate = device.hbm_bandwidth_bytes_per_us * group.memory_efficiency
        memory_rate *= _vector_efficiency(group.vector_width)
        device_memory_rate = memory_rate * utilisation

        flops = group.flops_array()
        bytes_moved = group.read_bytes_array() + group.write_bytes_array()
        if not group.register_caching:
            # Partial results spill to global memory between updates.
            bytes_moved = bytes_moved + group.write_bytes_array()

        total_flops = float(flops.sum())
        total_bytes = float(bytes_moved.sum())
        compute_us = total_flops / device_compute_rate
        memory_us = total_bytes / device_memory_rate
        roofline_us = max(compute_us, memory_us)

        # Critical path: the heaviest block with the throughput one block can
        # sustain by itself (one SM's compute, a bounded bandwidth share).
        solo_compute_rate = compute_rate / device.sm_count
        solo_memory_rate = memory_rate * _SOLO_BANDWIDTH_FRACTION
        critical_us = float(
            np.max(
                np.maximum(flops / solo_compute_rate, bytes_moved / solo_memory_rate)
            )
        )

        # Block-scheduling overhead is proportional to the number of waves the
        # grid needs; a group smaller than one wave costs a proportionally
        # smaller slice (several such groups share one wave after horizontal
        # fusion).
        waves = group.num_blocks / slots
        overhead_us = waves * device.block_schedule_overhead_us

        duration = max(roofline_us, critical_us) + overhead_us
        return {
            "duration": float(duration),
            "roofline": float(roofline_us),
            "critical": float(critical_us),
            "overhead": float(overhead_us),
            "compute": float(compute_us),
            "memory": float(memory_us),
        }

    # -- whole workload -----------------------------------------------------------------
    def estimate(self, workload: KernelWorkload) -> PerfReport:
        """Whole-workload estimate.

        The block groups of one workload execute on the device together (they
        are either phases of one horizontally fused grid or back-to-back
        launches of the same operator), so their roofline times — which model
        contention for the whole device's bandwidth and compute — add up,
        while their critical paths overlap and only the longest one matters.
        """
        compute_us = 0.0
        memory_us = 0.0
        roofline_us = 0.0
        overhead_us = 0.0
        critical_us = 0.0
        occupancies: List[float] = []
        for group in workload.groups:
            timing = self.group_time_us(group)
            roofline_us += timing["roofline"]
            overhead_us += timing["overhead"]
            critical_us = max(critical_us, timing["critical"])
            compute_us += timing["compute"]
            memory_us += timing["memory"]
            occupancies.append(self.occupancy(group))
        duration_us = max(roofline_us, critical_us) + overhead_us
        launch_us = workload.num_launches * self.device.kernel_launch_us
        duration_us += launch_us
        if workload.groups:
            # First-access DRAM latency is paid once per launched grid, not
            # once per block group.
            duration_us += self.device.dram_latency_us * max(1, workload.num_launches)
        return PerfReport(
            name=workload.name,
            device=self.device.name,
            duration_us=duration_us,
            compute_us=compute_us,
            memory_us=memory_us,
            launch_us=launch_us,
            total_flops=workload.total_flops(),
            total_dram_bytes=workload.total_dram_bytes(),
            num_blocks=workload.total_blocks(),
            num_launches=workload.num_launches,
            occupancy=float(np.mean(occupancies)) if occupancies else 0.0,
            memory_footprint_bytes=workload.memory_footprint_bytes,
            l1_hit_rate=workload.metadata.get("l1_hit_rate"),
            l2_hit_rate=workload.metadata.get("l2_hit_rate"),
            metadata=dict(workload.metadata),
        )


def estimate_us(workload: KernelWorkload, device: DeviceSpec) -> float:
    """Shorthand for ``GPUModel(device).estimate(workload).duration_us``.

    The format autoscheduler's phase-1 objective and the cost-model golden
    tests both price candidates through this single entry point, so a model
    change that reorders candidate rankings is caught in one place.
    """
    return GPUModel(device).estimate(workload).duration_us


# ---------------------------------------------------------------------------
# Profiling compiled kernels directly from their IR
# ---------------------------------------------------------------------------

def profile_kernel(kernel, device: DeviceSpec, feature_overrides: Optional[Dict] = None) -> PerfReport:
    """Estimate the execution time of a compiled :class:`Kernel` from its IR.

    The extraction walks each launch group of the stage-III program, derives
    grid/block dimensions from thread-bound loops, estimates trip counts of
    data-dependent loops from the bound sparse structure, and counts FLOPs and
    global memory traffic from the loads/stores of the innermost blocks.  It
    is intentionally coarse — the headline benchmarks build their workload
    descriptions analytically — but gives schedule-sensitive estimates for
    kernels built through the public compilation pipeline.
    """
    workload = extract_workload(kernel, feature_overrides or {})
    return GPUModel(device).estimate(workload)
