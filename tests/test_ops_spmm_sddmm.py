"""Unit tests for the SpMM and SDDMM operator layers (references + workloads)."""

import numpy as np
import pytest

from repro.formats import HybFormat
from repro.ops import sddmm, spmm
from repro.sim.common import ceil_div, dense_reuse_miss_rate, split_row_blocks, value_bytes
from repro.sim.device import V100
from repro.sim.gpu_model import GPUModel
from repro.sim.ops import sddmm as sim_sddmm, spmm as sim_spmm


class TestCommonHelpers:
    def test_value_bytes(self):
        assert value_bytes("float32") == 4
        assert value_bytes("float16") == 2

    def test_ceil_div(self):
        assert ceil_div(10, 3) == 4
        with pytest.raises(ValueError):
            ceil_div(10, 0)

    def test_split_row_blocks_grouping(self):
        lengths = np.array([3, 1, 4, 2])
        assert list(split_row_blocks(lengths, 2)) == [4.0, 6.0]

    def test_split_row_blocks_with_cap(self):
        lengths = np.array([10, 1])
        blocks = split_row_blocks(lengths, 1, max_nnz_per_block=4)
        assert list(blocks) == [4.0, 4.0, 2.0, 1.0]

    def test_miss_rate_bounds(self):
        assert 0.0 <= dense_reuse_miss_rate(1e3, 1e6, V100) <= 1.0
        assert dense_reuse_miss_rate(1e9, 2e9, V100) > dense_reuse_miss_rate(1e3, 2e9, V100)


class TestSpMMReference:
    def test_matches_dense(self, small_csr, rng):
        x = rng.standard_normal((small_csr.cols, 5)).astype(np.float32)
        assert np.allclose(spmm.spmm_reference(small_csr, x), small_csr.to_dense() @ x, atol=1e-5)

    def test_shape_validation(self, small_csr, rng):
        with pytest.raises(ValueError):
            spmm.spmm_reference(small_csr, rng.standard_normal((small_csr.cols + 1, 3)))

    def test_hyb_reference_matches(self, small_csr, rng):
        x = rng.standard_normal((small_csr.cols, 3)).astype(np.float32)
        hyb = HybFormat.from_csr(small_csr, num_col_parts=2)
        assert np.allclose(
            spmm.spmm_hyb_reference(hyb, x), spmm.spmm_reference(small_csr, x), atol=1e-4
        )

    def test_flops_counter(self, small_csr):
        assert sim_spmm.spmm_flops(small_csr, 16) == 2 * small_csr.nnz * 16


class TestSpMMWorkloads:
    def test_csr_workload_totals(self, small_csr):
        workload = sim_spmm.spmm_csr_workload(small_csr, 8, V100)
        assert workload.total_flops() == pytest.approx(2 * small_csr.nnz * 8)
        assert workload.total_blocks() == small_csr.rows
        assert workload.total_dram_bytes() > 0

    def test_hyb_workload_groups_per_bucket(self, small_csr):
        hyb = HybFormat.from_csr(small_csr, num_col_parts=2)
        workload = sim_spmm.spmm_hyb_workload(hyb, 8, V100)
        assert len(workload.groups) == len(hyb.buckets)
        assert workload.num_launches == 1  # horizontally fused
        unfused = sim_spmm.spmm_hyb_workload(hyb, 8, V100, horizontal_fusion=False)
        assert unfused.num_launches == len(hyb.buckets)

    def test_hyb_flops_include_padding(self, small_csr):
        hyb = HybFormat.from_csr(small_csr, num_col_parts=1)
        workload = sim_spmm.spmm_hyb_workload(hyb, 8, V100)
        assert workload.total_flops() >= 2 * small_csr.nnz * 8

    def test_larger_feature_size_costs_more(self, small_csr):
        model = GPUModel(V100)
        t32 = model.estimate(sim_spmm.spmm_csr_workload(small_csr, 32, V100)).duration_us
        t256 = model.estimate(sim_spmm.spmm_csr_workload(small_csr, 256, V100)).duration_us
        assert t256 > t32

    def test_choose_hyb_parameters(self, small_csr):
        parts, buckets = spmm.choose_hyb_parameters(small_csr)
        assert parts in (1, 2, 4, 8, 16)
        assert buckets >= 1


class TestSpMMPrograms:
    def test_program_executes(self, tiny_csr, rng):
        x = rng.standard_normal((tiny_csr.cols, 2)).astype(np.float32)
        from repro.core import build

        out = build(spmm.build_spmm_program(tiny_csr, 2, x)).run()
        assert np.allclose(out["C"].reshape(tiny_csr.rows, 2), spmm.spmm_reference(tiny_csr, x), atol=1e-5)


class TestSDDMM:
    def test_reference_matches_manual(self, tiny_csr, rng):
        x = rng.standard_normal((tiny_csr.rows, 3)).astype(np.float32)
        y = rng.standard_normal((3, tiny_csr.cols)).astype(np.float32)
        out = sddmm.sddmm_reference(tiny_csr, x, y)
        dense_scores = x @ y
        expected = []
        for row in range(tiny_csr.rows):
            for pos in range(tiny_csr.indptr[row], tiny_csr.indptr[row + 1]):
                col = tiny_csr.indices[pos]
                expected.append(tiny_csr.data[pos] * dense_scores[row, col])
        assert np.allclose(out, expected, atol=1e-5)

    def test_reference_shape_validation(self, tiny_csr, rng):
        with pytest.raises(ValueError):
            sddmm.sddmm_reference(tiny_csr, rng.standard_normal((2, 3)), rng.standard_normal((3, 4)))
        with pytest.raises(ValueError):
            sddmm.sddmm_reference(
                tiny_csr, rng.standard_normal((4, 3)), rng.standard_normal((2, 4))
            )

    def test_workload_two_stage_reduction_helps(self, small_csr):
        model = GPUModel(V100)
        fast = model.estimate(sim_sddmm.sddmm_workload(small_csr, 512, V100, two_stage_reduction=True))
        slow = model.estimate(sim_sddmm.sddmm_workload(small_csr, 512, V100, two_stage_reduction=False))
        assert fast.duration_us <= slow.duration_us

    def test_workload_totals(self, small_csr):
        workload = sim_sddmm.sddmm_workload(small_csr, 64, V100, nnz_per_block=16)
        assert workload.total_blocks() == ceil_div(small_csr.nnz, 16)
        assert workload.total_flops() >= sim_sddmm.sddmm_flops(small_csr, 64)
