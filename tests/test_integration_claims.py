"""Integration tests of the paper's headline claims on reduced-size workloads.

These tests exercise the whole stack — workload generators, composable
formats, operator workload models, baselines and the GPU cost model — and
assert the *direction* of each headline result of the evaluation (who wins),
not the exact factors.
"""

import pytest

from repro.formats import BSRMatrix, DBSRMatrix, HybFormat, SRBCRSMatrix
from repro.sim.baselines import cusparse, dgl, graphiler, torchsparse, triton
from repro.sim.baselines.cublas import gemm_workload
from repro.sim.device import RTX3070, V100
from repro.sim.gpu_model import GPUModel
from repro.sim.models.rgcn import rgcn_speedup_table
from repro.sim.ops.batched import batched_sddmm_bsr_workload, batched_spmm_bsr_workload
from repro.sim.ops.sddmm import sddmm_workload
from repro.sim.ops.sparse_conv import sparse_conv_fused_tc_workload
from repro.sim.ops.spmm import spmm_csr_workload, spmm_hyb_workload
from repro.workloads.attention import band_mask
from repro.workloads.graphs import generate_adjacency
from repro.workloads.hetero_graphs import generate_relational_adjacency
from repro.workloads.pointcloud import PointCloudConfig, sparse_conv_problem
from repro.workloads.pruning import block_pruned_weight, unstructured_pruned_weight


@pytest.fixture(scope="module", params=["V100", "RTX3070"])
def device(request):
    return V100 if request.param == "V100" else RTX3070


@pytest.fixture(scope="module")
def powerlaw_graph():
    return generate_adjacency(6000, 80000, "powerlaw", seed=11)


class TestSpMMClaims:
    def test_hyb_spmm_beats_cusparse_on_power_law_graphs(self, powerlaw_graph, device):
        """Figure 13: SparseTIR(hyb) obtains a speedup over cuSPARSE."""
        model = GPUModel(device)
        hyb = HybFormat.from_csr(powerlaw_graph, num_col_parts=1)
        ours = model.estimate(spmm_hyb_workload(hyb, 128, device)).duration_us
        vendor = model.estimate(cusparse.spmm_workload(powerlaw_graph, 128, device)).duration_us
        assert vendor / ours > 1.0

    def test_composable_formats_matter(self, powerlaw_graph, device):
        """Figure 13 ablation: hyb beats the same kernel without decomposition."""
        model = GPUModel(device)
        hyb = HybFormat.from_csr(powerlaw_graph, num_col_parts=1)
        with_hyb = model.estimate(spmm_hyb_workload(hyb, 128, device)).duration_us
        without = model.estimate(spmm_csr_workload(powerlaw_graph, 128, device)).duration_us
        assert with_hyb < without


class TestSDDMMClaims:
    def test_composable_transformations_matter(self, powerlaw_graph, device):
        """Figure 14 ablation: vectorisation + rfactor beat the plain kernel."""
        model = GPUModel(device)
        tuned = model.estimate(
            sddmm_workload(powerlaw_graph, 256, device, vector_width=4, two_stage_reduction=True)
        ).duration_us
        plain = model.estimate(
            sddmm_workload(powerlaw_graph, 256, device, vector_width=1, two_stage_reduction=False)
        ).duration_us
        assert tuned < plain

    def test_sparsetir_sddmm_beats_featgraph_baseline(self, powerlaw_graph, device):
        model = GPUModel(device)
        ours = model.estimate(sddmm_workload(powerlaw_graph, 128, device)).duration_us
        baseline = model.estimate(
            dgl.sddmm_workload_featgraph(powerlaw_graph, 128, device)
        ).duration_us
        assert baseline / ours > 1.0


class TestSparseAttentionClaims:
    def test_bsr_tensorcore_kernels_beat_triton(self, device):
        """Figure 16: SparseTIR-BSR is at least on par with Triton block-sparse."""
        mask = band_mask(1024, 128, 16)
        bsr = BSRMatrix.from_csr(mask, 16)
        model = GPUModel(device)
        spmm_ratio = (
            model.estimate(triton.blocksparse_spmm_workload(bsr, 64, 12, device)).duration_us
            / model.estimate(batched_spmm_bsr_workload(bsr, 64, 12, device)).duration_us
        )
        sddmm_ratio = (
            model.estimate(triton.blocksparse_sddmm_workload(bsr, 64, 12, device)).duration_us
            / model.estimate(batched_sddmm_bsr_workload(bsr, 64, 12, device)).duration_us
        )
        assert spmm_ratio > 1.0
        assert sddmm_ratio > 1.0


class TestPrunedBertClaims:
    def test_dbsr_beats_bsr_when_block_rows_are_empty(self, device):
        """Figure 17: DBSR consistently outperforms BSR for block pruning."""
        from repro.sim.ops.pruned_spmm import pruned_spmm_bsr_workload, pruned_spmm_dbsr_workload

        weight = block_pruned_weight(768, 768, 32, density=2 ** -5, seed=0)
        model = GPUModel(device)
        bsr = BSRMatrix.from_csr(weight, 32)
        dbsr = DBSRMatrix.from_bsr(bsr)
        t_bsr = model.estimate(pruned_spmm_bsr_workload(bsr, 512, device)).duration_us
        t_dbsr = model.estimate(pruned_spmm_dbsr_workload(dbsr, 512, device)).duration_us
        assert t_dbsr < t_bsr

    def test_sparse_kernels_beat_dense_gemm_only_at_low_density(self, device):
        """Figures 17/19: the dense GEMM wins at high density, sparse at low."""
        from repro.sim.ops.pruned_spmm import pruned_spmm_srbcrs_workload

        model = GPUModel(device)
        dense_time = model.estimate(
            gemm_workload(768, 512, 768, device, dtype="float16")
        ).duration_us
        low = unstructured_pruned_weight(768, 768, density=2 ** -7, seed=1)
        high = unstructured_pruned_weight(768, 768, density=0.5, seed=1)
        t_low = model.estimate(
            pruned_spmm_srbcrs_workload(SRBCRSMatrix(low, 8, 32), 512, device)
        ).duration_us
        t_high = model.estimate(
            pruned_spmm_srbcrs_workload(SRBCRSMatrix(high, 8, 32), 512, device)
        ).duration_us
        assert t_low < dense_time
        assert t_high > t_low


class TestRGCNClaims:
    def test_rgcn_speedup_and_memory(self, device):
        """Figure 20: SparseTIR(hyb+TC) beats Graphiler and the GNN frameworks,
        and composable formats + tensorisation each contribute."""
        adjacency = generate_relational_adjacency(1200, 18000, 16, seed=7)
        table = rgcn_speedup_table(adjacency, 32, device)
        assert table["sparsetir_hyb_tc"].duration_us < table["graphiler"].duration_us
        assert table["sparsetir_hyb_tc"].duration_us < table["sparsetir_hyb"].duration_us
        assert table["sparsetir_hyb"].duration_us < table["sparsetir_naive"].duration_us
        assert (
            table["sparsetir_hyb_tc"].memory_footprint_bytes
            < table["dgl"].memory_footprint_bytes
        )


class TestSparseConvClaims:
    def test_crossover_with_channel_size(self, device):
        """Figure 23: SparseTIR wins at small channel counts, TorchSparse at large."""
        model = GPUModel(device)
        config = PointCloudConfig(num_points=4000, voxel_size=0.4, seed=3)
        small = sparse_conv_problem(32, 32, config)
        large = sparse_conv_problem(256, 256, config)
        speedup_small = (
            model.estimate(torchsparse.sparse_conv_workload(small, device)).duration_us
            / model.estimate(sparse_conv_fused_tc_workload(small, device)).duration_us
        )
        speedup_large = (
            model.estimate(torchsparse.sparse_conv_workload(large, device)).duration_us
            / model.estimate(sparse_conv_fused_tc_workload(large, device)).duration_us
        )
        assert speedup_small > 1.0
        assert speedup_large < speedup_small
