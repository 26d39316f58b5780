"""Unit tests for the end-to-end models (GraphSAGE, RGCN, MinkowskiNet)."""

import numpy as np
import pytest

from repro.models import graphsage, minkowski, rgcn
from repro.models.shared import relu, relu_grad, softmax, softmax_cross_entropy
from repro.sim.device import V100
from repro.sim.models import graphsage as sim_graphsage, minkowski as sim_minkowski, rgcn as sim_rgcn
from repro.workloads.graphs import generate_adjacency
from repro.workloads.hetero_graphs import generate_relational_adjacency
from repro.workloads.pointcloud import PointCloudConfig, sparse_conv_problem


@pytest.fixture(scope="module")
def training_graph():
    return generate_adjacency(200, 1600, "powerlaw", seed=3)


class TestSharedPrimitives:
    def test_relu_and_grad(self):
        x = np.array([-1.0, 0.0, 2.0], dtype=np.float32)
        assert np.allclose(relu(x), [0.0, 0.0, 2.0])
        assert np.allclose(relu_grad(x), [0.0, 0.0, 1.0])

    def test_softmax_rows_sum_to_one(self, rng):
        logits = rng.standard_normal((5, 3)).astype(np.float32)
        probs = softmax(logits)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-5)

    def test_cross_entropy_gradient_is_correct(self, rng):
        logits = rng.standard_normal((4, 3)).astype(np.float32)
        labels = np.array([0, 2, 1, 1])
        loss, grad = softmax_cross_entropy(logits, labels)
        # finite-difference check of one entry
        eps = 1e-3
        bumped = logits.copy()
        bumped[1, 2] += eps
        loss2, _ = softmax_cross_entropy(bumped, labels)
        assert (loss2 - loss) / eps == pytest.approx(grad[1, 2], abs=1e-2)


class TestGraphSAGE:
    def test_normalized_adjacency_rows_sum_to_one(self, training_graph):
        norm = graphsage.normalized_adjacency(training_graph)
        sums = np.asarray(norm.to_scipy().sum(axis=1)).reshape(-1)
        lengths = training_graph.row_lengths()
        assert np.allclose(sums[lengths > 0], 1.0, atol=1e-4)

    def test_forward_shapes(self, training_graph, rng):
        params = graphsage.GraphSAGEParams.init(8, 16, 4, seed=0)
        model = graphsage.GraphSAGE(training_graph, params)
        features = rng.standard_normal((training_graph.rows, 8)).astype(np.float32)
        logits = model.forward(features)
        assert logits.shape == (training_graph.rows, 4)

    def test_training_reduces_loss(self, training_graph, rng):
        params = graphsage.GraphSAGEParams.init(8, 16, 4, seed=0)
        model = graphsage.GraphSAGE(training_graph, params)
        features = rng.standard_normal((training_graph.rows, 8)).astype(np.float32)
        labels = rng.integers(0, 4, size=training_graph.rows)
        losses = [model.training_step(features, labels, learning_rate=0.05) for _ in range(8)]
        assert losses[-1] < losses[0]

    def test_training_time_estimate_structure(self, training_graph):
        estimate = sim_graphsage.estimate_training_time(training_graph, (32, 32, 8), V100, backend="dgl")
        assert estimate.total_us == pytest.approx(
            estimate.spmm_us + estimate.gemm_us + estimate.overhead_us
        )
        with pytest.raises(ValueError):
            sim_graphsage.estimate_training_time(training_graph, (32, 32, 8), V100, backend="jax")

    def test_sparsetir_backend_speeds_up_training(self):
        graph = generate_adjacency(3000, 36000, "powerlaw", seed=9)
        speedup = sim_graphsage.end_to_end_speedup(graph, (64, 64, 16), V100)
        assert speedup > 1.0
        # End-to-end gains are bounded by Amdahl's law (dense GEMMs dominate
        # part of the iteration), as in Figure 15.
        assert speedup < 3.0


class TestRGCN:
    @pytest.fixture(scope="class")
    def hetero(self):
        return generate_relational_adjacency(300, 3000, 8, seed=4)

    def test_layer_forward_matches_manual(self, hetero, rng):
        params = rgcn.RGCNParams.init(8, 6, 5, seed=0)
        layer = rgcn.RGCNLayer(hetero, params)
        x = rng.standard_normal((300, 6)).astype(np.float32)
        out = layer.forward(x, activation=False)
        from repro.ops.rgms import rgms_reference

        expected = rgms_reference(hetero, x, params.relation_weights) + x @ params.self_weight
        assert np.allclose(out, expected, atol=1e-4)

    def test_two_layer_model_shapes(self, hetero, rng):
        model = rgcn.RGCN(hetero, in_feats=6, hidden=12, num_classes=3)
        logits = model.forward(rng.standard_normal((300, 6)).astype(np.float32))
        assert logits.shape == (300, 3)

    def test_forward_through_session_matches_reference(self, hetero, rng):
        from repro.runtime import Session

        model = rgcn.RGCN(hetero, in_feats=6, hidden=8, num_classes=3)
        x = rng.standard_normal((300, 6)).astype(np.float32)
        session = Session()
        compiled = model.forward(x, session=session)
        reference = model.forward(x)
        assert np.allclose(compiled, reference, atol=1e-3)
        # Two layers -> two kernel builds, executed on the fast path.
        assert session.stats.builds == 2
        assert session.stats.fast_runs == 2
        # A second forward pass reuses both lowered kernels.
        model.forward(x, session=session)
        assert session.stats.kernel_cache_hits == 2

    def test_speedup_table_covers_all_systems(self, hetero):
        table = sim_rgcn.rgcn_speedup_table(hetero, 16, V100)
        assert set(table) == set(sim_rgcn.RGCN_SYSTEMS)
        for estimate in table.values():
            assert estimate.duration_us > 0
            assert estimate.memory_footprint_gib >= 0

    def test_sparsetir_beats_frameworks_and_uses_less_memory(self, hetero):
        table = sim_rgcn.rgcn_speedup_table(hetero, 32, V100)
        assert table["sparsetir_hyb_tc"].duration_us < table["graphiler"].duration_us
        assert table["sparsetir_hyb_tc"].duration_us < table["dgl"].duration_us
        assert (
            table["sparsetir_hyb_tc"].memory_footprint_bytes
            < table["graphiler"].memory_footprint_bytes
        )

    def test_unknown_system_rejected(self, hetero):
        with pytest.raises(ValueError):
            sim_rgcn.estimate_rgcn_inference(hetero, 16, V100, "tensorflow")


class TestMinkowski:
    @pytest.fixture(scope="class")
    def conv_problem(self):
        return sparse_conv_problem(4, 8, PointCloudConfig(num_points=300, voxel_size=1.0, seed=5))

    def test_layer_forward_shape(self, conv_problem, rng):
        layer = minkowski.SparseConvLayer.create(conv_problem, seed=0)
        features = rng.standard_normal((conv_problem.num_in_points, 4)).astype(np.float32)
        out = layer.forward(features)
        assert out.shape == (conv_problem.num_out_points, 8)
        assert (out >= 0).all()  # ReLU applied

    def test_backbone_stacks_layers(self):
        config = PointCloudConfig(num_points=200, voxel_size=1.0, seed=6)
        backbone = minkowski.MinkowskiBackbone([(4, 8), (8, 8)], config=config)
        rng = np.random.default_rng(0)
        features = rng.standard_normal(
            (backbone.layers[0].problem.num_in_points, 4)
        ).astype(np.float32)
        out = backbone.forward(features)
        assert out.shape[1] == 8

    def test_forward_through_session_matches_reference(self, conv_problem, rng):
        from repro.runtime import Session

        layer = minkowski.SparseConvLayer.create(conv_problem, seed=0)
        features = rng.standard_normal((conv_problem.num_in_points, 4)).astype(np.float32)
        session = Session()
        compiled = layer.forward(features, session=session)
        reference = layer.forward(features)
        assert np.allclose(compiled, reference, atol=1e-4)
        assert session.stats.fast_runs == 1

    def test_layer_time_estimates(self, conv_problem):
        times = sim_minkowski.estimate_layer_times(conv_problem, V100)
        assert times["sparsetir_tc_us"] > 0
        assert times["torchsparse_us"] > 0
        assert times["speedup"] == pytest.approx(
            times["torchsparse_us"] / times["sparsetir_tc_us"]
        )
