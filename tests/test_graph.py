"""Tests for the graph-level dataflow IR, fusion pass and compile Session API.

Correctness contract under test: a fused :class:`CompiledGraph` is **bit
exact** with its node-by-node unfused lowering (fusion never changes any
nest's computation or execution order), singleton graph nodes share kernel
cache entries with the eager ``Session`` methods, and every chain the
planner actually merges launches strictly fewer kernels than its unfused
counterpart (a merge is declined when it would demote native-capable
members to the emitted tier).
"""

import warnings

import numpy as np
import pytest

from repro.formats.csf import CSFTensor
from repro.formats.csr import CSRMatrix
from repro.graph import CompiledGraph, DataflowGraph, TensorRef, plan_groups
from repro.models.graphsage import GraphSAGE, GraphSAGEParams
from repro.models.minkowski import MinkowskiBackbone
from repro.models.rgcn import RGCN
from repro.runtime.session import Session
from repro.workloads.attention import (
    AttentionConfig,
    attention_inputs,
    band_mask,
    capture_sparse_attention,
    sparse_attention_reference,
)
from repro.workloads.pointcloud import PointCloudConfig


@pytest.fixture
def rng():
    return np.random.default_rng(42)


@pytest.fixture
def session():
    return Session(persistent=False)


@pytest.fixture
def csr(rng):
    return CSRMatrix.from_dense((rng.random((30, 30)) < 0.2).astype(np.float32))


def _spmm_chain(session, csr, x, depth=3):
    """Capture spmm -> relu -> ... alternating on one structure."""
    g = session.graph()
    ref = g.input("x", x)
    out = g.spmm(csr, ref)
    for _ in range(depth - 1):
        out = g.relu(out)
        out = g.spmm(csr, out)
    g.output(out)
    return g, out


class TestCapture:
    def test_nodes_and_refs(self, session, csr, rng):
        x = rng.standard_normal((30, 4)).astype(np.float32)
        g, out = _spmm_chain(session, csr, x)
        graph = g.graph()
        assert isinstance(out, TensorRef)
        assert len(graph.nodes) == 5
        assert list(graph.inputs) == ["x"]
        assert [ref.name for ref in graph.outputs] == [out.name]
        assert out.shape == (30, 4) and out.dtype == "float32"

    def test_default_outputs_are_unconsumed(self, session, csr, rng):
        x = rng.standard_normal((30, 4)).astype(np.float32)
        g = session.graph()
        ref = g.input("x", x)
        a = g.spmm(csr, ref)
        b = g.relu(a)  # consumes a
        graph = g.graph()
        assert [ref.name for ref in graph.outputs] == [b.name]

    def test_capture_closed_after_graph(self, session, csr, rng):
        x = rng.standard_normal((30, 4)).astype(np.float32)
        g, _ = _spmm_chain(session, csr, x)
        g.graph()
        with pytest.raises(RuntimeError):
            g.spmm(csr, np.ones((30, 2), dtype=np.float32))

    def test_duplicate_input_rejected(self, session):
        g = session.graph()
        g.input("x", np.ones((2, 2), dtype=np.float32))
        with pytest.raises(ValueError):
            g.input("x", np.ones((2, 2), dtype=np.float32))

    def test_placeholder_input_needs_shape(self, session):
        g = session.graph()
        with pytest.raises(ValueError):
            g.input("x")

    def test_non_topological_graph_rejected(self, session, csr):
        dangling = TensorRef("ghost", (30, 4), "float32")
        g = session.graph()
        node = g.spmm(csr, dangling)
        with pytest.raises(ValueError, match="topological"):
            DataflowGraph(g._nodes, {}, [node])

    def test_bsr_kinds_reject_graph_edges(self, session, csr, rng):
        """Eagerly-padding decompositions cannot consume symbolic edges."""
        g = session.graph()
        ref = g.input("q", rng.standard_normal((2, 30, 4)).astype(np.float32))
        k = rng.standard_normal((2, 4, 30)).astype(np.float32)
        with pytest.raises(ValueError, match="graph edges"):
            g.batched_sddmm(csr, ref, k, format="bsr", block_size=2)


class TestLivenessAndFingerprint:
    def test_liveness_last_consumer(self, session, csr, rng):
        x = rng.standard_normal((30, 4)).astype(np.float32)
        g, out = _spmm_chain(session, csr, x, depth=2)
        graph = g.graph()
        live = graph.liveness()
        # v0 (first spmm) is consumed by node 1 (relu).
        assert live["v0"] == 1
        # The output is pinned past the last node.
        assert live[out.name] == len(graph.nodes)

    def test_fingerprint_stable_across_captures(self, session, csr, rng):
        x = rng.standard_normal((30, 4)).astype(np.float32)
        g1, _ = _spmm_chain(session, csr, x)
        g2, _ = _spmm_chain(session, csr, x)
        assert g1.graph().fingerprint() == g2.graph().fingerprint()

    def test_fingerprint_sees_structure_and_shape(self, session, csr, rng):
        x = rng.standard_normal((30, 4)).astype(np.float32)
        base = _spmm_chain(session, csr, x)[0].graph().fingerprint()
        # Different feature width -> different per-node programs.
        wider = _spmm_chain(
            session, csr, rng.standard_normal((30, 8)).astype(np.float32)
        )[0].graph().fingerprint()
        assert wider != base
        # Different mask -> different structural arrays.
        other = CSRMatrix.from_dense(
            (np.random.default_rng(7).random((30, 30)) < 0.2).astype(np.float32)
        )
        assert _spmm_chain(session, other, x)[0].graph().fingerprint() != base

    def test_fingerprint_ignores_fusion_choice(self, session, csr, rng):
        x = rng.standard_normal((30, 4)).astype(np.float32)
        g1, _ = _spmm_chain(session, csr, x)
        graph = g1.graph()
        fused = CompiledGraph(session, graph, fuse=True)
        unfused = CompiledGraph(session, graph, fuse=False)
        assert fused.fingerprint() == unfused.fingerprint()


class TestFusionPlanning:
    def test_single_structure_chain_is_one_group(self, session, csr, rng):
        x = rng.standard_normal((30, 4)).astype(np.float32)
        g, _ = _spmm_chain(session, csr, x)
        groups = plan_groups(g.graph())
        assert len(groups) == 1 and len(groups[0]) == 5

    def test_fuse_false_yields_singletons(self, session, csr, rng):
        x = rng.standard_normal((30, 4)).astype(np.float32)
        g, _ = _spmm_chain(session, csr, x)
        groups = plan_groups(g.graph(), fuse=False)
        assert [len(group) for group in groups] == [1] * 5

    def test_structure_change_merges_groups(self, session, csr, rng):
        """Nodes over different sparsity structures fuse into one launch:
        each structure brings its own namespaced axes into the shared
        program (per-relation / per-offset chains rely on this)."""
        other = CSRMatrix.from_dense(
            (np.random.default_rng(3).random((30, 30)) < 0.2).astype(np.float32)
        )
        x = rng.standard_normal((30, 4)).astype(np.float32)
        g = session.graph()
        ref = g.input("x", x)
        a = g.spmm(csr, ref)
        b = g.spmm(other, a)  # different sparsity structure, same group
        g.output(b)
        graph = g.graph()
        groups = plan_groups(graph)
        assert [len(group) for group in groups] == [2]
        fused = CompiledGraph(session, graph, fuse=True)
        unfused = CompiledGraph(session, graph, fuse=False)
        assert fused.num_kernel_launches == 1
        assert unfused.num_kernel_launches == 2
        assert np.array_equal(fused.run()[b.name], unfused.run()[b.name])

    def test_dtype_change_splits_groups(self, session, csr, rng):
        x64 = rng.standard_normal((30, 4)).astype(np.float64)
        w32 = rng.standard_normal((4, 4)).astype(np.float32)
        g = session.graph()
        ref = g.input("x", x64)
        a = g.spmm(csr, ref)            # float64 chain
        b = g.gemm(w32, w32)            # float32 node
        g.output(a, b)
        groups = plan_groups(g.graph())
        assert [group.dtype for group in groups] == ["float64", "float32"]

    def test_unfusable_kind_stays_alone(self, session, csr, rng):
        x = rng.standard_normal((30, 4)).astype(np.float32)
        g = session.graph()
        ref = g.input("x", x)
        a = g.spmm(csr, ref, format="hyb", num_col_parts=1)  # not fusable
        b = g.relu(a)
        g.output(b)
        groups = plan_groups(g.graph())
        assert [len(group) for group in groups] == [1, 1]
        assert not groups[0].nodes[0].spec.fusable


class TestCompiledGraphExecution:
    def test_fused_bit_exact_and_fewer_launches(self, session, csr, rng):
        x = rng.standard_normal((30, 4)).astype(np.float32)
        g1, out1 = _spmm_chain(session, csr, x)
        g2, out2 = _spmm_chain(session, csr, x)
        fused = g1.compile(fuse=True)
        unfused = g2.compile(fuse=False)
        assert fused.num_kernel_launches < unfused.num_kernel_launches
        assert fused.num_kernel_launches == 1
        rf, ru = fused.run()[out1.name], unfused.run()[out2.name]
        assert rf.dtype == ru.dtype
        assert np.array_equal(rf, ru)

    def test_matches_eager_session_exactly(self, session, csr, rng):
        """Unfused singleton kernels are the very programs the eager path
        builds, so even the float results match bitwise."""
        x = rng.standard_normal((30, 4)).astype(np.float32)
        g, out = _spmm_chain(session, csr, x, depth=2)
        compiled = g.compile(fuse=False)
        eager = session.relu(session.spmm(csr, x))
        eager = session.spmm(csr, eager)
        assert np.array_equal(compiled.run()[out.name], eager)

    def test_singletons_share_kernel_cache_with_eager(self, csr, rng):
        session = Session(persistent=False)
        x = rng.standard_normal((30, 4)).astype(np.float32)
        session.spmm(csr, x)  # populate the cache
        misses = session.stats.kernel_cache_misses
        g = session.graph()
        ref = g.input("x", x)
        g.output(g.spmm(csr, ref))
        compiled = g.compile(fuse=False)
        assert session.stats.kernel_cache_misses == misses  # pure hit
        assert compiled.num_kernel_launches == 1

    def test_refeed_new_inputs(self, session, csr, rng):
        x = rng.standard_normal((30, 4)).astype(np.float32)
        g, out = _spmm_chain(session, csr, x, depth=2)
        compiled = g.compile()
        x2 = rng.standard_normal((30, 4)).astype(np.float32)
        expected = session.spmm(csr, session.relu(session.spmm(csr, x2)))
        assert np.allclose(compiled.run({"x": x2})[out.name], expected,
                           rtol=1e-5, atol=1e-6)

    def test_repeated_runs_with_changing_feeds_stay_exact(self, session, csr, rng):
        """The fused unit reuses its flat buffers across calls; every call
        must still see freshly copied inputs and re-zeroed scratch."""
        x = rng.standard_normal((30, 4)).astype(np.float32)
        g1, out1 = _spmm_chain(session, csr, x, depth=3)
        g2, out2 = _spmm_chain(session, csr, x, depth=3)
        fused = g1.compile(fuse=True)
        unfused = g2.compile(fuse=False)
        for seed in (0, 1, 2):
            feed = np.random.default_rng(seed).standard_normal((30, 4)).astype(np.float32)
            rf = fused.run({"x": feed})[out1.name]
            ru = unfused.run({"x": feed})[out2.name]
            assert np.array_equal(rf, ru)

    def test_returned_outputs_do_not_alias_reused_buffers(self, session, csr, rng):
        x = rng.standard_normal((30, 4)).astype(np.float32)
        g, out = _spmm_chain(session, csr, x, depth=2)
        compiled = g.compile(fuse=True)
        first = compiled.run()[out.name]
        snapshot = first.copy()
        compiled.run({"x": x + 1.0})  # must not mutate the earlier result
        assert np.array_equal(first, snapshot)
        first[:] = -1.0  # nor may the caller corrupt the next run
        again = compiled.run()[out.name]
        assert np.array_equal(again, snapshot)

    def test_unknown_feed_rejected(self, session, csr, rng):
        x = rng.standard_normal((30, 4)).astype(np.float32)
        g, _ = _spmm_chain(session, csr, x)
        compiled = g.compile()
        with pytest.raises(ValueError, match="unknown graph input"):
            compiled.run({"nope": x})

    def test_placeholder_requires_feed(self, session, csr):
        g = session.graph()
        ref = g.input("x", shape=(30, 4))
        g.output(g.spmm(csr, ref))
        compiled = g.compile()
        with pytest.raises(ValueError, match="missing feed"):
            compiled.run()
        out = compiled.run({"x": np.ones((30, 4), dtype=np.float32)})
        assert next(iter(out.values())).shape == (30, 4)

    def test_multiple_outputs(self, session, csr, rng):
        x = rng.standard_normal((30, 4)).astype(np.float32)
        g = session.graph()
        ref = g.input("x", x)
        a = g.spmm(csr, ref)
        b = g.relu(a)
        g.output(a, b)
        compiled = g.compile()
        result = compiled.run()
        assert np.array_equal(result[b.name], np.maximum(result[a.name], 0.0))

    def test_stats_counters(self, csr, rng):
        session = Session(persistent=False)
        x = rng.standard_normal((30, 4)).astype(np.float32)
        g1, _ = _spmm_chain(session, csr, x)
        g1.compile(fuse=True)
        assert session.stats.graph_nodes_fused == 5
        g2, _ = _spmm_chain(session, csr, x)
        g2.compile(fuse=False)
        assert session.stats.graph_nodes_unfused == 5
        stats = session.stats.as_dict()
        assert stats["graph_nodes_fused"] == 5
        assert stats["graph_nodes_unfused"] == 5

    def test_float64_chain(self, session, csr, rng):
        x = rng.standard_normal((30, 4)).astype(np.float64)
        g1, out1 = _spmm_chain(session, csr, x, depth=2)
        g2, out2 = _spmm_chain(session, csr, x, depth=2)
        rf = g1.compile(fuse=True).run()[out1.name]
        ru = g2.compile(fuse=False).run()[out2.name]
        assert rf.dtype == np.float64
        assert np.array_equal(rf, ru)

    def test_empty_rows_and_empty_matrix(self, session, rng):
        empty = CSRMatrix.from_dense(np.zeros((6, 6), dtype=np.float32))
        x = rng.standard_normal((6, 3)).astype(np.float32)
        g = session.graph()
        ref = g.input("x", x)
        g.output(g.relu(g.spmm(empty, ref)))
        out = g.compile(fuse=True).run()
        assert np.all(next(iter(out.values())) == 0.0)


class TestAttentionChain:
    def _graphs(self, session):
        config = AttentionConfig(seq_len=96, num_heads=2, head_dim=8, band_size=32)
        mask = band_mask(config.seq_len, config.band_size, config.block_size)
        q, k, v = attention_inputs(config, seed=5)
        g1 = session.graph()
        out1 = capture_sparse_attention(g1, mask, q, k, v)
        g2 = session.graph()
        out2 = capture_sparse_attention(g2, mask, q, k, v)
        ref = sparse_attention_reference(mask, q, k, v)
        return g1, out1, g2, out2, ref

    def test_fused_attention_single_kernel(self, session, rng, monkeypatch):
        # Without the native tier all members run emitted, so the planner
        # merges the whole chain into one launch (the PR-5 contract).
        monkeypatch.setenv("REPRO_NATIVE", "0")
        g1, out1, g2, out2, ref = self._graphs(session)
        fused, unfused = g1.compile(fuse=True), g2.compile(fuse=False)
        assert fused.num_kernel_launches == 1
        assert unfused.num_kernel_launches == 3
        rf = fused.run()[out1.name]
        assert np.array_equal(rf, unfused.run()[out2.name])
        np.testing.assert_allclose(rf, ref, rtol=1e-4, atol=1e-5)
        # Attention weights are a softmax: each row with stored edges sums to 1
        # implicitly; the output lives in the convex hull of V rows.
        assert np.isfinite(rf).all()

    def test_fusion_declined_when_it_would_demote_native_members(self, session, rng):
        """With a C toolchain, merging the chain would pin the SDDMM/SpMM
        members to the emitted tier (softmax's ``exp`` is outside the C
        fragment), so the planner keeps them as native singletons."""
        from repro.core.codegen.emit_c import toolchain_available

        if not toolchain_available():
            pytest.skip("requires a C toolchain")
        g1, out1, g2, out2, ref = self._graphs(session)
        fused, unfused = g1.compile(fuse=True), g2.compile(fuse=False)
        assert fused.num_kernel_launches == 3
        assert fused.num_nodes_fused == 0
        assert fused.declined_fusions == {
            ("batched_sddmm", "edge_softmax", "batched_spmm_edges"):
                "would demote native members to emitted"
        }
        assert unfused.declined_fusions == {}
        # Planning asked no tier for NumPy source: the native tier declined
        # the merge before the emitted tier was ever consulted.
        assert session.cache.stats.emissions == 0
        rf = fused.run()[out1.name]
        assert np.array_equal(rf, unfused.run()[out2.name])
        np.testing.assert_allclose(rf, ref, rtol=1e-4, atol=1e-5)


class TestModelCompile:
    def test_graphsage(self, session, rng):
        graph = CSRMatrix.from_dense((rng.random((40, 40)) < 0.15).astype(np.float32))
        model = GraphSAGE(graph, GraphSAGEParams.init(6, 5, 3))
        feats = rng.standard_normal((40, 6)).astype(np.float32)
        fused = model.compile(session, feats, fuse=True)
        unfused = model.compile(session, feats, fuse=False)
        assert fused.num_kernel_launches < unfused.num_kernel_launches
        assert np.array_equal(fused(), unfused())
        np.testing.assert_allclose(fused(), model.forward(feats), rtol=1e-4, atol=1e-5)
        feats2 = rng.standard_normal((40, 6)).astype(np.float32)
        np.testing.assert_allclose(fused(feats2), model.forward(feats2),
                                   rtol=1e-4, atol=1e-5)

    def test_rgcn(self, session, rng):
        adjacency = CSFTensor.from_dense(
            (rng.random((3, 25, 25)) < 0.15).astype(np.float32)
        )
        model = RGCN(adjacency, in_feats=4, hidden=5, num_classes=3)
        feats = rng.standard_normal((25, 4)).astype(np.float32)
        fused = model.compile(session, feats, fuse=True)
        unfused = model.compile(session, feats, fuse=False)
        assert fused.num_kernel_launches < unfused.num_kernel_launches
        assert np.array_equal(fused(), unfused())
        np.testing.assert_allclose(
            fused(), model.forward(feats, session=session), rtol=1e-4, atol=1e-5
        )

    def test_rgcn_with_empty_relation(self, session, rng):
        dense = np.zeros((3, 10, 10), dtype=np.float32)
        dense[0, 1, 2] = 1.0
        dense[2, 4, 0] = 1.0  # relation 1 has no edges
        adjacency = CSFTensor.from_dense(dense)
        model = RGCN(adjacency, in_feats=3, hidden=4, num_classes=2)
        feats = rng.standard_normal((10, 3)).astype(np.float32)
        fused = model.compile(session, feats, fuse=True)
        unfused = model.compile(session, feats, fuse=False)
        assert np.array_equal(fused(), unfused())

    def test_minkowski(self, session, rng):
        config = PointCloudConfig(num_points=200, seed=3)
        model = MinkowskiBackbone([(4, 6), (6, 3)], config=config)
        feats = rng.standard_normal(
            (model.layers[0].problem.num_in_points, 4)
        ).astype(np.float32)
        fused = model.compile(session, feats, fuse=True)
        unfused = model.compile(session, feats, fuse=False)
        assert fused.num_kernel_launches < unfused.num_kernel_launches
        assert np.array_equal(fused(), unfused())
        np.testing.assert_allclose(
            fused(), model.forward(feats, session=session), rtol=1e-4, atol=1e-5
        )


class TestOpsDeprecationShim:
    def test_keyword_session_is_silent(self, csr, rng):
        from repro.ops.spmm import spmm

        x = rng.standard_normal((30, 4)).astype(np.float32)
        session = Session(persistent=False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            spmm(csr, x, session=session)
            spmm(csr, x)  # implicit default session: supported, silent

    def test_positional_session_is_a_type_error(self, csr, rng):
        """``session`` and the options after it are keyword-only everywhere."""
        from repro.formats.bsr import BSRMatrix
        from repro.ops.batched import batched_spmm
        from repro.ops.pruned_spmm import pruned_spmm
        from repro.ops.sddmm import sddmm
        from repro.ops.spmm import spmm

        session = Session(persistent=False)
        x = rng.standard_normal((30, 3)).astype(np.float32)
        y = rng.standard_normal((3, 30)).astype(np.float32)
        feats = rng.standard_normal((2, 30, 3)).astype(np.float32)
        for call in (
            lambda: spmm(csr, x, "csr", 1, None, session),
            lambda: spmm(csr, x, "csr", 1, None, session, session=session),
            lambda: sddmm(csr, x, y, True, session),
            lambda: batched_spmm(csr, feats, "csr", 16, session),
            lambda: pruned_spmm(BSRMatrix.from_csr(csr, 5), x, session),
        ):
            with pytest.raises(TypeError, match="positional argument"):
                call()
