"""Unit tests for the baseline system models."""

import numpy as np
import pytest

from repro.formats import BSRMatrix
from repro.ops.rgms import RGMSProblem
from repro.ops.spmm import spmm_reference
from repro.sim.baselines import (
    cublas,
    cusparse,
    dgl,
    dgsparse,
    graphiler,
    pyg,
    sputnik,
    taco,
    torchsparse,
    triton,
)
from repro.sim.device import V100
from repro.sim.gpu_model import GPUModel
from repro.workloads.attention import band_mask
from repro.workloads.hetero_graphs import generate_relational_adjacency
from repro.workloads.pointcloud import PointCloudConfig, sparse_conv_problem


@pytest.fixture(scope="module")
def graph_csr():
    from repro.workloads.graphs import generate_adjacency

    # Large enough that the device is filled and roofline behaviour (rather
    # than small-problem critical paths) determines the comparison.
    return generate_adjacency(4000, 48000, "powerlaw", seed=5)


class TestNumericalAgreement:
    def test_all_spmm_baselines_compute_the_same_values(self, tiny_csr, rng):
        x = rng.standard_normal((tiny_csr.cols, 3)).astype(np.float32)
        expected = spmm_reference(tiny_csr, x)
        for module in (cusparse, dgsparse, sputnik, taco, dgl, pyg):
            assert np.allclose(module.spmm(tiny_csr, x), expected, atol=1e-5)

    def test_all_sddmm_baselines_compute_the_same_values(self, tiny_csr, rng):
        from repro.ops.sddmm import sddmm_reference

        x = rng.standard_normal((tiny_csr.rows, 3)).astype(np.float32)
        y = rng.standard_normal((3, tiny_csr.cols)).astype(np.float32)
        expected = sddmm_reference(tiny_csr, x, y)
        for module in (cusparse, dgsparse, sputnik, taco, dgl):
            assert np.allclose(module.sddmm(tiny_csr, x, y), expected, atol=1e-5)

    def test_cublas_gemm_reference(self, rng):
        a = rng.standard_normal((8, 4)).astype(np.float32)
        b = rng.standard_normal((4, 6)).astype(np.float32)
        assert np.allclose(cublas.gemm_reference(a, b), a @ b, atol=1e-5)


class TestSpMMWorkloadShapes:
    def test_total_flops_identical_across_csr_baselines(self, graph_csr):
        feat = 64
        expected = 2 * graph_csr.nnz * feat
        for module in (cusparse, dgsparse, sputnik):
            workload = module.spmm_workload(graph_csr, feat, V100)
            assert workload.total_flops() == pytest.approx(expected)

    def test_paper_ordering_on_power_law_graph(self, graph_csr):
        """dgSPARSE (GE-SpMM) should be at least as fast as cuSPARSE, and the
        untuned TACO kernel slower (Figure 13's general trend)."""
        model = GPUModel(V100)
        feat = 128
        t_cusparse = model.estimate(cusparse.spmm_workload(graph_csr, feat, V100)).duration_us
        t_dgsparse = model.estimate(dgsparse.spmm_workload(graph_csr, feat, V100)).duration_us
        t_taco = model.estimate(taco.spmm_workload(graph_csr, feat, V100)).duration_us
        assert t_dgsparse <= t_cusparse * 1.05
        assert t_taco >= t_dgsparse

    def test_dgl_spmm_is_cusparse_backed(self, graph_csr):
        workload = dgl.spmm_workload(graph_csr, 32, V100)
        assert workload.name == "dgl_spmm"
        assert workload.total_flops() == pytest.approx(2 * graph_csr.nnz * 32)

    def test_pyg_gather_scatter_materialises_messages(self, graph_csr):
        workload = pyg.gather_scatter_spmm_workload(graph_csr, 32, V100)
        assert workload.metadata["materialized_messages_bytes"] == graph_csr.nnz * 32 * 4
        assert len(workload.groups) == 2


class TestSDDMMBaselines:
    def test_vendor_sddmm_is_much_slower_than_preds(self, graph_csr):
        model = GPUModel(V100)
        feat = 64
        t_cusparse = model.estimate(cusparse.sddmm_workload(graph_csr, feat, V100)).duration_us
        t_preds = model.estimate(dgsparse.sddmm_workload_coo(graph_csr, feat, V100)).duration_us
        t_dgl = model.estimate(dgl.sddmm_workload_featgraph(graph_csr, feat, V100)).duration_us
        assert t_cusparse > t_dgl          # cuSPARSE not suited to hyper-sparse graphs
        assert t_preds <= t_dgl * 1.05     # PRedS beats the FeatGraph baseline


class TestTensorCoreBaselines:
    @pytest.fixture(scope="class")
    def mask_bsr(self):
        mask = band_mask(512, 64, 16)
        return mask, BSRMatrix.from_csr(mask, 16)

    def test_triton_blocksparse_launches_per_head(self, mask_bsr):
        _, bsr = mask_bsr
        workload = triton.blocksparse_spmm_workload(bsr, 64, 12, V100)
        assert workload.num_launches == 12

    def test_sparsetir_bsr_beats_triton(self, mask_bsr):
        from repro.sim.ops.batched import batched_spmm_bsr_workload

        _, bsr = mask_bsr
        model = GPUModel(V100)
        ours = model.estimate(batched_spmm_bsr_workload(bsr, 64, 12, V100)).duration_us
        theirs = model.estimate(triton.blocksparse_spmm_workload(bsr, 64, 12, V100)).duration_us
        assert ours < theirs

    def test_cublas_gemm_workload_scales_with_shape(self):
        model = GPUModel(V100)
        small = model.estimate(cublas.gemm_workload(512, 512, 512, V100)).duration_us
        large = model.estimate(cublas.gemm_workload(2048, 2048, 2048, V100)).duration_us
        assert large > small


class TestEndToEndBaselines:
    def test_graphiler_has_fixed_overhead(self):
        adjacency = generate_relational_adjacency(256, 2000, 6, seed=2)
        problem = RGMSProblem(adjacency, 16, 16)
        workload = graphiler.rgcn_layer_workload(problem, V100)
        assert workload.metadata["framework_overhead_us"] == graphiler.FIXED_OVERHEAD_US
        assert workload.num_launches == 3

    def test_torchsparse_materialises_gathered_features(self):
        problem = sparse_conv_problem(16, 16, PointCloudConfig(num_points=400, voxel_size=1.0, seed=1))
        workload = torchsparse.sparse_conv_workload(problem, V100)
        assert workload.metadata["materialized_bytes"] > 0
        assert workload.num_launches == 2 + problem.kernel_volume
