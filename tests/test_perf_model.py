"""Unit tests for the device specs, workload descriptions and GPU cost model."""

import dataclasses

import numpy as np
import pytest

from repro.core import Schedule, build, lower_sparse_iterations
from repro.ops.spmm import build_spmm_program
from repro.sim.cache import CacheHierarchy, LRUCache, reuse_distance_hit_rate
from repro.sim.device import RTX3070, V100, device_by_name
from repro.sim.gpu_model import GPUModel, PerfReport, profile_kernel
from repro.sim.kernel_features import extract_workload
from repro.sim.tensor_core import (
    MMA_SHAPES,
    cuda_core_time_us,
    mma_tiles,
    padding_waste,
    tensor_core_time_us,
)
from repro.sim.workload import BlockGroup, KernelWorkload


class TestDevice:
    def test_lookup_by_name(self):
        assert device_by_name("v100") is V100
        assert device_by_name("RTX3070") is RTX3070
        with pytest.raises(KeyError):
            device_by_name("h100")

    def test_derived_rates(self):
        assert V100.fp32_flops_per_us == pytest.approx(15.7e6)
        assert V100.hbm_bandwidth_bytes_per_us == pytest.approx(900e3)
        assert V100.flops_per_us("float16", tensor_core=True) == pytest.approx(125e6)
        assert V100.flops_per_us("float16") > V100.flops_per_us("float32")

    def test_v100_has_more_bandwidth_than_rtx3070(self):
        assert V100.hbm_bandwidth_gbs > RTX3070.hbm_bandwidth_gbs
        assert V100.tensor_core_tflops > RTX3070.tensor_core_tflops

    def test_float64_rate_below_float32(self):
        for device in (V100, RTX3070):
            assert device.flops_per_us("float64") < device.flops_per_us("float32")
        assert V100.flops_per_us("float64") == pytest.approx(7.8e6)


class TestWorkload:
    def test_block_group_arrays(self):
        group = BlockGroup("g", 4, 128, flops_per_block=[1, 2, 3, 4],
                           dram_read_bytes_per_block=10.0)
        assert group.total_flops() == 10
        assert group.read_bytes_array().shape == (4,)
        assert group.total_dram_bytes() == 40

    def test_block_group_validation(self):
        with pytest.raises(ValueError):
            BlockGroup("g", -1, 128, 1.0, 1.0)
        with pytest.raises(ValueError):
            BlockGroup("g", 1, 0, 1.0, 1.0)
        with pytest.raises(ValueError):
            BlockGroup("g", 1, 128, 1.0, 1.0, compute_efficiency=0.0)
        with pytest.raises(ValueError):
            BlockGroup("g", 2, 128, [1.0, 2.0, 3.0], 1.0).flops_array()

    def test_workload_aggregation_and_merge(self):
        a = KernelWorkload("a", [BlockGroup("g1", 2, 64, 100.0, 10.0)])
        b = KernelWorkload("b", [BlockGroup("g2", 3, 64, 50.0, 5.0)])
        merged = a.merged(b)
        assert merged.total_blocks() == 5
        assert merged.total_flops() == 2 * 100 + 3 * 50
        assert merged.num_launches == 2


class TestGPUModel:
    def make_group(self, **kwargs):
        defaults = dict(
            name="g", num_blocks=256, threads_per_block=128,
            flops_per_block=1e5, dram_read_bytes_per_block=1e4,
            dram_write_bytes_per_block=1e3,
        )
        defaults.update(kwargs)
        return BlockGroup(**defaults)

    def test_occupancy_limited_by_threads_and_shared_memory(self):
        model = GPUModel(V100)
        light = self.make_group()
        heavy_shared = self.make_group(shared_mem_bytes=48 * 1024)
        assert model.blocks_per_sm(light) > model.blocks_per_sm(heavy_shared)
        assert 0.0 < model.occupancy(light) <= 1.0

    def test_more_work_takes_longer(self):
        model = GPUModel(V100)
        small = KernelWorkload("s", [self.make_group()])
        big = KernelWorkload("b", [self.make_group(num_blocks=4096)])
        assert model.estimate(big).duration_us > model.estimate(small).duration_us

    def test_memory_bound_kernel_scales_with_bandwidth(self):
        group = self.make_group(flops_per_block=10.0, dram_read_bytes_per_block=1e6,
                                num_blocks=2048)
        workload = KernelWorkload("mem", [group])
        t_v100 = GPUModel(V100).estimate(workload).duration_us
        t_3070 = GPUModel(RTX3070).estimate(workload).duration_us
        assert t_3070 > t_v100
        ratio = t_3070 / t_v100
        assert 1.2 < ratio < 3.5  # roughly the bandwidth ratio

    def test_tensor_core_speeds_up_compute_bound_kernel(self):
        base = self.make_group(flops_per_block=5e6, dram_read_bytes_per_block=1e3,
                               dtype="float16")
        tc = self.make_group(flops_per_block=5e6, dram_read_bytes_per_block=1e3,
                             dtype="float16", uses_tensor_core=True)
        model = GPUModel(V100)
        assert (
            model.estimate(KernelWorkload("tc", [tc])).duration_us
            < model.estimate(KernelWorkload("no_tc", [base])).duration_us
        )

    def test_load_imbalance_increases_duration(self):
        balanced = self.make_group(flops_per_block=1e4,
                                   dram_read_bytes_per_block=np.full(256, 1e4))
        skewed_bytes = np.full(256, 1e4)
        skewed_bytes[0] = 256 * 1e4  # one block does everything extra
        skewed = self.make_group(flops_per_block=1e4, dram_read_bytes_per_block=skewed_bytes)
        model = GPUModel(V100)
        assert (
            model.estimate(KernelWorkload("skew", [skewed])).duration_us
            > model.estimate(KernelWorkload("flat", [balanced])).duration_us
        )

    def test_launch_overhead_charged_per_launch(self):
        group = self.make_group(num_blocks=16)
        one = KernelWorkload("one", [group], num_launches=1)
        many = KernelWorkload("many", [group], num_launches=10)
        model = GPUModel(V100)
        delta = model.estimate(many).duration_us - model.estimate(one).duration_us
        assert delta >= 9 * V100.kernel_launch_us * 0.99

    def test_report_properties(self):
        model = GPUModel(V100)
        report = model.estimate(KernelWorkload("w", [self.make_group()], memory_footprint_bytes=1e6))
        assert isinstance(report, PerfReport)
        assert report.duration_ms == pytest.approx(report.duration_us / 1e3)
        assert report.achieved_bandwidth_gbs > 0
        assert report.achieved_tflops > 0
        assert report.memory_footprint_bytes == 1e6
        assert report.speedup_over(report) == pytest.approx(1.0)

    def test_empty_group_costs_nothing(self):
        model = GPUModel(V100)
        empty = KernelWorkload("e", [BlockGroup("g", 0, 32, 0.0, 0.0)])
        assert model.estimate(empty).duration_us <= V100.kernel_launch_us + V100.dram_latency_us + 1e-6

    def test_vector_efficiency_monotonic_over_widths(self):
        # Widths 3/5/6/7 used to fall through to efficiency 1.0, pricing a
        # width-3 load *better* than width-4; the floored lookup makes wider
        # accesses never slower on a memory-bound group.
        model = GPUModel(V100)
        durations = []
        for width in range(1, 9):
            group = self.make_group(flops_per_block=10.0, dram_read_bytes_per_block=1e6,
                                    num_blocks=2048, vector_width=width)
            durations.append(model.estimate(KernelWorkload("v", [group])).duration_us)
        for narrow, wide in zip(durations, durations[1:]):
            assert wide <= narrow + 1e-9
        # And the known widths still differ (the factor is not flat).
        assert durations[0] > durations[3]


class TestKernelFeatureExtraction:
    """Regressions for the IR-based feature extraction bugfixes."""

    def _kernel(self, csr, rng, feat=8, dtype="float32", cache_write=False):
        features = rng.standard_normal((csr.cols, feat)).astype(dtype)
        func = build_spmm_program(csr, feat, features, dtype=dtype)
        if not cache_write:
            return build(func)
        schedule = Schedule(lower_sparse_iterations(func))
        schedule.cache_write("spmm_compute", "C", "local")
        return build(schedule.func)

    def test_register_caching_not_forced(self, small_csr, rng):
        # A kernel without cache_write must not report register caching
        # (``register_caching or True`` used to pin it on for every group).
        workload = extract_workload(self._kernel(small_csr, rng))
        assert workload.groups
        assert not any(group.register_caching for group in workload.groups)

    def test_cache_write_annotation_sets_register_caching(self, small_csr, rng):
        workload = extract_workload(self._kernel(small_csr, rng, cache_write=True))
        assert any(group.register_caching for group in workload.groups)

    def test_spill_traffic_raises_uncached_estimate(self, small_csr, rng):
        # With the flag honestly False the spill penalties in the GPU model
        # are live again: the same workload priced with register caching
        # switched on must be strictly cheaper.
        workload = extract_workload(self._kernel(small_csr, rng))
        model = GPUModel(V100)
        spilled = model.estimate(workload).duration_us
        cached = model.estimate(
            KernelWorkload(
                name=workload.name,
                groups=[dataclasses.replace(g, register_caching=True) for g in workload.groups],
                num_launches=workload.num_launches,
                memory_footprint_bytes=workload.memory_footprint_bytes,
            )
        ).duration_us
        assert spilled > cached

    def test_float64_spmm_estimate_exceeds_float32_twin(self, small_csr, rng):
        f32 = profile_kernel(self._kernel(small_csr, rng, dtype="float32"), V100)
        f64 = profile_kernel(self._kernel(small_csr, rng, dtype="float64"), V100)
        assert f64.duration_us > f32.duration_us
        workload = extract_workload(self._kernel(small_csr, rng, dtype="float64"))
        assert any(group.dtype == "float64" for group in workload.groups)


class TestCache:
    def test_lru_hits_on_repeated_access(self):
        cache = LRUCache(capacity_bytes=1024, line_bytes=64)
        cache.access(0)
        assert cache.access(8)          # same line
        assert not cache.access(4096)   # new line
        stats = cache.stats()
        assert stats.accesses == 3 and stats.hits == 1

    def test_lru_eviction(self):
        cache = LRUCache(capacity_bytes=128, line_bytes=64, associativity=1)
        cache.access(0)
        cache.access(64)     # maps to the other set
        cache.access(128)    # evicts line 0 (same set, associativity 1)
        assert not cache.access(0)

    def test_hierarchy_l1_miss_goes_to_l2(self):
        hierarchy = CacheHierarchy(l1_bytes=128, l2_bytes=4096, line_bytes=64)
        l1_hit, l2_hit = hierarchy.access(0)
        assert not l1_hit and l2_hit is False
        l1_hit, l2_hit = hierarchy.access(0)
        assert l1_hit and l2_hit is None

    def test_run_trace_statistics(self):
        hierarchy = CacheHierarchy(l1_bytes=256, l2_bytes=4096, line_bytes=64)
        stats = hierarchy.run_trace([0, 64, 0, 64, 128, 0])
        assert stats["l1"].accesses == 6
        assert 0.0 <= stats["l1"].hit_rate <= 1.0
        assert stats["l2"].accesses <= 6

    def test_invalid_cache_parameters(self):
        with pytest.raises(ValueError):
            LRUCache(0)

    def test_reuse_distance_model_bounds(self):
        assert reuse_distance_hit_rate(100, 1000, 1e6) == pytest.approx(0.9)
        assert reuse_distance_hit_rate(1e6, 2e6, 1e3) < 0.5
        assert reuse_distance_hit_rate(10, 0, 100) == 0.0


class TestTensorCore:
    def test_mma_tile_counting(self):
        shape = MMA_SHAPES["mma_m16n16k16"]
        assert mma_tiles(16, 16, 16, shape) == 1
        assert mma_tiles(17, 16, 16, shape) == 2
        assert mma_tiles(32, 32, 32, shape) == 8

    def test_tensor_core_faster_than_cuda_core(self):
        flops = 2 * 1024 * 1024 * 64
        assert tensor_core_time_us(1024, 1024, 64, V100) < cuda_core_time_us(flops, V100)

    def test_padding_waste(self):
        assert padding_waste(16, 16, 16, 16) == 0.0
        assert padding_waste(17, 16, 16, 16) == pytest.approx(1 - 17 * 16 / (32 * 16))
        assert padding_waste(0, 0, 16, 16) == 0.0
