"""Unit tests for the RGMS, sparse convolution and batched attention operators."""

import numpy as np
import pytest

from repro.core.codegen.build import build
from repro.formats import BSRMatrix
from repro.ops import batched, rgms, sparse_conv
from repro.sim.device import V100
from repro.sim.gpu_model import GPUModel
from repro.sim.ops import batched as sim_batched, rgms as sim_rgms, sparse_conv as sim_sparse_conv
from repro.workloads.attention import band_mask
from repro.workloads.hetero_graphs import generate_relational_adjacency
from repro.workloads.pointcloud import sparse_conv_problem, PointCloudConfig


@pytest.fixture(scope="module")
def small_relational():
    return generate_relational_adjacency(num_nodes=64, num_edges=400, num_relations=5, seed=1)


@pytest.fixture(scope="module")
def small_conv_problem():
    config = PointCloudConfig(num_points=400, voxel_size=1.0, seed=2)
    return sparse_conv_problem(8, 16, config)


class TestRGMS:
    def test_fused_equals_two_stage(self, small_relational, rng):
        x = rng.standard_normal((64, 8)).astype(np.float32)
        w = rng.standard_normal((5, 8, 6)).astype(np.float32)
        fused = rgms.rgms_reference(small_relational, x, w)
        staged = rgms.rgms_two_stage_reference(small_relational, x, w)
        assert np.allclose(fused, staged, atol=1e-4)
        assert fused.shape == (64, 6)

    def test_reference_validates_relation_count(self, small_relational, rng):
        with pytest.raises(ValueError):
            rgms.rgms_reference(small_relational, rng.standard_normal((64, 8)),
                                rng.standard_normal((3, 8, 6)))

    def test_fused_workload_has_no_intermediate(self, small_relational):
        problem = rgms.RGMSProblem(small_relational, 16, 16)
        fused = sim_rgms.rgms_fused_hyb_workload(problem, V100)
        staged = sim_rgms.rgms_two_stage_workload(problem, V100)
        assert staged.metadata["intermediate_bytes"] > 0
        assert fused.memory_footprint_bytes < staged.memory_footprint_bytes

    def test_hyb_and_tensor_cores_both_help(self):
        # Use a graph large enough to fill the device; on tiny problems the
        # single-block critical path dominates and bucketing cannot help.
        adjacency = generate_relational_adjacency(
            num_nodes=512, num_edges=8000, num_relations=8, seed=3
        )
        problem = rgms.RGMSProblem(adjacency, 32, 32)
        model = GPUModel(V100)
        naive = model.estimate(sim_rgms.rgms_naive_workload(problem, V100)).duration_us
        hyb = model.estimate(
            sim_rgms.rgms_fused_hyb_workload(problem, V100, use_tensor_cores=False)
        ).duration_us
        hyb_tc = model.estimate(
            sim_rgms.rgms_fused_hyb_workload(problem, V100, use_tensor_cores=True)
        ).duration_us
        assert hyb < naive
        assert hyb_tc < hyb

    def test_two_stage_launches_per_relation(self, small_relational):
        problem = rgms.RGMSProblem(small_relational, 8, 8)
        workload = sim_rgms.rgms_two_stage_workload(problem, V100)
        active = sum(1 for m in small_relational.slices if m is not None and m.nnz)
        assert workload.num_launches == 1 + active


class TestSparseConv:
    def test_reference_matches_dense_computation(self, small_conv_problem, rng):
        problem = small_conv_problem
        features = rng.standard_normal((problem.num_in_points, problem.in_channels)).astype(np.float32)
        weights = rng.standard_normal(
            (problem.kernel_volume, problem.in_channels, problem.out_channels)
        ).astype(np.float32) * 0.1
        out = sparse_conv.sparse_conv_reference(problem, features, weights)
        # Manual accumulation over every pair.
        expected = np.zeros_like(out)
        for r, pairs in enumerate(problem.kernel_maps):
            for in_idx, out_idx in pairs:
                expected[out_idx] += features[in_idx] @ weights[r]
        assert np.allclose(out, expected, atol=1e-3)

    def test_reference_validates_shapes(self, small_conv_problem, rng):
        problem = small_conv_problem
        with pytest.raises(ValueError):
            sparse_conv.sparse_conv_reference(
                problem, rng.standard_normal((3, problem.in_channels)),
                rng.standard_normal((problem.kernel_volume, problem.in_channels, problem.out_channels)),
            )

    def test_identity_offset_covers_all_points(self, small_conv_problem):
        problem = small_conv_problem
        sizes = problem.pairs_per_offset()
        center = problem.kernel_volume // 2
        assert sizes[center] == problem.num_in_points

    def test_workloads_materialisation_difference(self, small_conv_problem):
        fused = sim_sparse_conv.sparse_conv_fused_tc_workload(small_conv_problem, V100)
        staged = sim_sparse_conv.sparse_conv_gather_gemm_scatter_workload(small_conv_problem, V100)
        assert staged.metadata["materialized_bytes"] > 0
        assert fused.memory_footprint_bytes < staged.memory_footprint_bytes
        assert staged.num_launches > fused.num_launches


class TestBatchedAttention:
    @pytest.fixture(scope="class")
    def small_mask(self):
        return band_mask(seq_len=64, band_size=16, block_size=8)

    def test_batched_spmm_reference(self, small_mask, rng):
        feats = rng.standard_normal((3, 64, 4)).astype(np.float32)
        out = batched.batched_spmm_reference(small_mask, feats)
        dense = small_mask.to_dense()
        assert np.allclose(out[1], dense @ feats[1], atol=1e-4)
        with pytest.raises(ValueError):
            batched.batched_spmm_reference(small_mask, feats[0])

    def test_batched_sddmm_reference(self, small_mask, rng):
        q = rng.standard_normal((2, 64, 4)).astype(np.float32)
        k = rng.standard_normal((2, 4, 64)).astype(np.float32)
        out = batched.batched_sddmm_reference(small_mask, q, k)
        assert out.shape == (2, small_mask.nnz)

    def test_bsr_tensor_cores_beat_scalar_csr(self, small_mask):
        bsr = BSRMatrix.from_csr(small_mask, 8)
        model = GPUModel(V100)
        t_bsr = model.estimate(sim_batched.batched_spmm_bsr_workload(bsr, 64, 12, V100)).duration_us
        t_csr = model.estimate(sim_batched.batched_spmm_csr_workload(small_mask, 64, 12, V100)).duration_us
        assert t_bsr < t_csr

    def test_workload_scales_with_heads(self, small_mask):
        bsr = BSRMatrix.from_csr(small_mask, 8)
        one = sim_batched.batched_spmm_bsr_workload(bsr, 64, 1, V100)
        many = sim_batched.batched_spmm_bsr_workload(bsr, 64, 8, V100)
        assert many.total_blocks() == 8 * one.total_blocks()
        assert many.total_flops() == pytest.approx(8 * one.total_flops())


def _run_compiled(kernel):
    """Default dispatch, which must land on a compiled tier."""
    out = kernel.run()
    assert kernel.last_engine in ("native", "emitted")
    return out


class TestExecutablePrograms:
    """The stage-I programs compiled and run through the full pipeline."""

    @pytest.fixture(scope="class")
    def small_mask(self):
        return band_mask(seq_len=48, band_size=12, block_size=6)

    def test_batched_spmm_program_both_engines(self, small_mask, rng):
        feats = rng.standard_normal((3, small_mask.cols, 4)).astype(np.float32)
        func = batched.build_batched_spmm_program(small_mask, 3, 4, feats)
        kernel = build(func, cache=False)
        fast = _run_compiled(kernel)["C"]
        slow = kernel.run(engine="interpret")["C"]
        assert np.array_equal(fast, slow)
        ref = batched.batched_spmm_reference(small_mask, feats)
        assert np.array_equal(fast.reshape(3, small_mask.rows, 4), ref)

    def test_batched_spmm_bsr_program(self, small_mask, rng):
        bsr = BSRMatrix.from_csr(small_mask, 6)
        feats = rng.standard_normal((2, bsr.shape[1], 4)).astype(np.float32)
        func = batched.build_batched_spmm_bsr_program(bsr, 2, 4, feats)
        kernel = build(func, cache=False)
        out = _run_compiled(kernel)["C"].reshape(2, bsr.shape[0], 4)
        ref = batched.batched_spmm_reference(small_mask, feats[:, : small_mask.cols])
        assert np.array_equal(out[:, : small_mask.rows], ref)

    @pytest.mark.parametrize("fuse_ij", [True, False])
    def test_batched_sddmm_program(self, small_mask, rng, fuse_ij):
        q = rng.standard_normal((2, small_mask.rows, 4)).astype(np.float32)
        k = rng.standard_normal((2, 4, small_mask.cols)).astype(np.float32)
        func = batched.build_batched_sddmm_program(small_mask, 2, 4, q, k, fuse_ij=fuse_ij)
        kernel = build(func, cache=False)
        fast = _run_compiled(kernel)["OUT"].reshape(2, small_mask.nnz)
        slow = kernel.run(engine="interpret")["OUT"].reshape(2, small_mask.nnz)
        assert np.array_equal(fast, slow)
        ref = batched.batched_sddmm_reference(small_mask, q, k)
        assert np.allclose(fast, ref, atol=1e-5)

    def test_bsr_element_permutation_roundtrip(self, small_mask):
        bsr = BSRMatrix.from_csr(small_mask, 6)
        perm = batched.bsr_element_permutation(small_mask, bsr)
        # Permuting the BSR value layout must recover the CSR value order.
        assert np.array_equal(bsr.data.reshape(-1)[perm], small_mask.data)

    def test_bsr_element_permutation_requires_alignment(self):
        from repro.formats import CSRMatrix

        csr = CSRMatrix.random(rows=12, cols=12, density=0.2, seed=3)
        with pytest.raises(ValueError):
            batched.bsr_element_permutation(csr, BSRMatrix.from_csr(csr, 4))

    def test_rgms_program_both_engines(self, small_relational, rng):
        x = rng.standard_normal((64, 8)).astype(np.float32)
        w = rng.standard_normal((5, 8, 6)).astype(np.float32)
        func = rgms.build_rgms_program(small_relational, 8, 6, x, w)
        kernel = build(func, cache=False)
        fast = _run_compiled(kernel)["Y"].reshape(64, 6)
        slow = kernel.run(engine="interpret")["Y"].reshape(64, 6)
        assert np.array_equal(fast, slow)
        assert np.allclose(fast, rgms.rgms_reference(small_relational, x, w), atol=1e-4)

    def test_rgms_program_validates_relation_count(self, small_relational, rng):
        with pytest.raises(ValueError):
            rgms.build_rgms_program(
                small_relational, 8, 6, rng.standard_normal((64, 8)),
                rng.standard_normal((2, 8, 6)),
            )

    def test_sparse_conv_program_both_engines(self, small_conv_problem, rng):
        problem = small_conv_problem
        feats = rng.standard_normal(
            (problem.num_in_points, problem.in_channels)
        ).astype(np.float32)
        weights = rng.standard_normal(
            (problem.kernel_volume, problem.in_channels, problem.out_channels)
        ).astype(np.float32)
        func = sparse_conv.build_sparse_conv_program(problem, feats, weights)
        kernel = build(func, cache=False)
        fast = _run_compiled(kernel)["Y"]
        slow = kernel.run(engine="interpret")["Y"]
        assert np.array_equal(fast, slow)
        ref = sparse_conv.sparse_conv_reference(problem, feats, weights)
        assert np.allclose(
            fast.reshape(problem.num_out_points, problem.out_channels), ref, atol=1e-4
        )

    def test_sparse_conv_program_validates_shapes(self, small_conv_problem, rng):
        problem = small_conv_problem
        with pytest.raises(ValueError):
            sparse_conv.build_sparse_conv_program(
                problem, rng.standard_normal((3, problem.in_channels)), None
            )
        with pytest.raises(ValueError):
            sparse_conv.build_sparse_conv_program(
                problem, None,
                rng.standard_normal((1, problem.in_channels, problem.out_channels)),
            )
