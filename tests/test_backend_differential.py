"""Differential harness: the three dispatch tiers must agree bit for bit.

Every test builds a stage-I program from hypothesis-randomized formats,
shapes and value dtypes, runs it through the native compiled-C kernel
(when a toolchain is present), the emitted stage-IV kernel and the scalar
interpreter, and asserts that **every** buffer of
the result is bit-identical (``np.array_equal`` on the raw arrays, dtype
equality included).  Structural-zero paths (padded ELL slots, empty rows,
empty relations, nnz=0 matrices) are exercised explicitly — they are where
the tiers' masking strategies differ most.

The native tier is compared against the *emitted* tier: both materialise
whole-scalar reduction residuals at NumPy's ``np.full``/``ufunc.at``
promotion semantics, so they agree bitwise by construction wherever the
emitted tier agrees with the interpreter (which this battery also asserts),
and the comparison stays transitive across all three tiers.

Every operator case also runs twice through one ``Session``: the second call
is served by the memoised bound-kernel handle (the warm path) and must equal
an interpreter session's result bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.codegen.build import build
from repro.formats.bsr import BSRMatrix
from repro.formats.csf import CSFTensor
from repro.formats.csr import CSRMatrix
from repro.formats.hyb import HybFormat
from repro.ops.batched import build_batched_sddmm_program, build_batched_spmm_program
from repro.ops.pruned_spmm import build_pruned_spmm_bsr_program
from repro.ops.rgms import build_rgms_program
from repro.ops.sddmm import build_sddmm_program
from repro.ops.spmm import build_spmm_hyb_program, build_spmm_program
from repro.runtime.session import Session

SETTINGS = dict(max_examples=25, deadline=None)

dtypes = st.sampled_from([np.float32, np.float64])


def random_dense(rows, cols, density, dtype, seed):
    """A random dense matrix with exact zeros, negatives and tiny values."""
    rng = np.random.default_rng(seed)
    mask = rng.random((rows, cols)) < density
    values = rng.standard_normal((rows, cols))
    # Include exact zeros among stored values' factors downstream by mixing
    # in sign flips and zero rows.
    return (mask * values).astype(dtype)


def assert_tiers_bit_exact(func, expect_emitted=True):
    """Run a program on all three tiers and compare every buffer bitwise."""
    from repro.core.codegen.emit_c import toolchain_available

    kernel = build(func, cache=False)
    if expect_emitted:
        assert kernel.emitted_source() is not None, "program fell out of the emitter fragment"
    interpreted = kernel.run(engine="interpret")
    emitted = kernel.run(engine="emitted")
    assert kernel.last_engine == "emitted"
    native = None
    if toolchain_available() and kernel.native_source() is not None:
        native = kernel.run(engine="native")
        assert kernel.last_engine == "native"
        assert native.keys() == emitted.keys()
    # The compiled plans bake the auxiliary (indptr/indices) arrays in, so
    # their runs neither take nor return them.
    aux = {buf.name for buf in kernel.func.aux_buffers}
    assert emitted.keys() == interpreted.keys() - aux
    for name in emitted:
        assert interpreted[name].dtype == emitted[name].dtype, name
        assert np.array_equal(interpreted[name], emitted[name]), (
            f"emitted diverges from interpreter on {name!r}"
        )
        if native is not None:
            assert emitted[name].dtype == native[name].dtype, name
            assert np.array_equal(emitted[name], native[name]), (
                f"native diverges from emitted on {name!r}"
            )
    return emitted


def assert_warm_call_bit_exact(call, expect_handle=True):
    """Run ``call(session)`` twice through one Session against the interpreter.

    The second call hits the bound-kernel handle the first one memoised
    (``rgms`` bakes its weights into the program and never binds one).
    """
    oracle = call(Session(engine="interpret", persistent=False))
    session = Session(persistent=False)
    cold, warm = call(session), call(session)
    assert session.stats.handle_hits == (1 if expect_handle else 0)
    assert session.stats.interpreted_runs == 0
    for result in (cold, warm):
        assert result.dtype == oracle.dtype
        assert np.array_equal(result, oracle), "session diverges from the interpreter"


class TestSpMMDifferential:
    @settings(**SETTINGS)
    @given(
        rows=st.integers(1, 12),
        cols=st.integers(1, 12),
        feat=st.integers(1, 6),
        density=st.floats(0.0, 0.7),
        dtype=dtypes,
        seed=st.integers(0, 2**16),
    )
    def test_csr(self, rows, cols, feat, density, dtype, seed):
        dense = random_dense(rows, cols, density, dtype, seed)
        csr = CSRMatrix.from_dense(dense)
        rng = np.random.default_rng(seed + 1)
        feats = rng.standard_normal((cols, feat)).astype(dtype)
        func = build_spmm_program(csr, feat, feats, dtype=np.dtype(dtype).name)
        out = assert_tiers_bit_exact(func)
        assert_warm_call_bit_exact(lambda session: session.spmm(csr, feats, dtype=dtype))
        ref = dense.astype(np.float64) @ feats.astype(np.float64)
        np.testing.assert_allclose(
            out["C"].reshape(rows, feat).astype(np.float64), ref, rtol=1e-4, atol=1e-4
        )

    @settings(**SETTINGS)
    @given(
        rows=st.integers(1, 14),
        cols=st.integers(1, 14),
        feat=st.integers(1, 4),
        density=st.floats(0.0, 0.6),
        parts=st.integers(1, 3),
        buckets=st.integers(1, 3),
        seed=st.integers(0, 2**16),
    )
    def test_hyb_with_padded_slots(self, rows, cols, feat, density, parts, buckets, seed):
        """The hyb/ELL path exercises structural-zero (padded slot) masking."""
        dense = random_dense(rows, cols, density, np.float32, seed)
        csr = CSRMatrix.from_dense(dense)
        hyb = HybFormat.from_csr(csr, num_col_parts=parts, num_buckets=buckets)
        feats = np.random.default_rng(seed + 1).standard_normal((cols, feat)).astype(np.float32)
        func = build_spmm_hyb_program(hyb, feat, feats)
        assert_tiers_bit_exact(func)
        assert_warm_call_bit_exact(
            lambda session: session.spmm(
                csr, feats, format="hyb", num_col_parts=parts, num_buckets=buckets
            )
        )

    def test_empty_matrix(self):
        csr = CSRMatrix.from_dense(np.zeros((5, 7), dtype=np.float32))
        feats = np.ones((7, 3), dtype=np.float32)
        out = assert_tiers_bit_exact(build_spmm_program(csr, 3, feats))
        assert np.all(out["C"] == 0.0)
        assert_warm_call_bit_exact(lambda session: session.spmm(csr, feats))

    def test_empty_rows_and_single_element(self):
        dense = np.zeros((4, 4), dtype=np.float32)
        dense[2, 1] = -3.5
        csr = CSRMatrix.from_dense(dense)
        feats = np.arange(8, dtype=np.float32).reshape(4, 2)
        assert_tiers_bit_exact(build_spmm_program(csr, 2, feats))
        assert_warm_call_bit_exact(lambda session: session.spmm(csr, feats))


class TestSDDMMDifferential:
    @settings(**SETTINGS)
    @given(
        rows=st.integers(1, 10),
        cols=st.integers(1, 10),
        feat=st.integers(1, 5),
        density=st.floats(0.0, 0.7),
        fuse=st.booleans(),
        dtype=dtypes,
        seed=st.integers(0, 2**16),
    )
    def test_csr(self, rows, cols, feat, density, fuse, dtype, seed):
        dense = random_dense(rows, cols, density, dtype, seed)
        csr = CSRMatrix.from_dense(dense)
        rng = np.random.default_rng(seed + 2)
        x = rng.standard_normal((rows, feat)).astype(dtype)
        y = rng.standard_normal((feat, cols)).astype(dtype)
        func = build_sddmm_program(csr, feat, x, y, fuse_ij=fuse, dtype=np.dtype(dtype).name)
        assert_tiers_bit_exact(func)
        assert_warm_call_bit_exact(
            lambda session: session.sddmm(csr, x, y, fuse_ij=fuse, dtype=dtype)
        )

    def test_fused_loop_over_empty_matrix(self):
        csr = CSRMatrix.from_dense(np.zeros((3, 3), dtype=np.float32))
        x = np.ones((3, 2), dtype=np.float32)
        y = np.ones((2, 3), dtype=np.float32)
        assert_tiers_bit_exact(build_sddmm_program(csr, 2, x, y, fuse_ij=True))
        assert_warm_call_bit_exact(lambda session: session.sddmm(csr, x, y, fuse_ij=True))


class TestBlockAndBatchedDifferential:
    @settings(**SETTINGS)
    @given(
        block_rows=st.integers(1, 4),
        block_cols=st.integers(1, 4),
        block_size=st.sampled_from([1, 2, 4]),
        seq=st.integers(1, 5),
        density=st.floats(0.1, 1.0),
        seed=st.integers(0, 2**16),
    )
    def test_pruned_spmm_bsr(self, block_rows, block_cols, block_size, seq, density, seed):
        rows, cols = block_rows * block_size, block_cols * block_size
        dense = random_dense(rows, cols, density, np.float32, seed)
        bsr = BSRMatrix.from_dense(dense, block_size)
        x = np.random.default_rng(seed + 3).standard_normal((cols, seq)).astype(np.float32)
        func = build_pruned_spmm_bsr_program(bsr, seq, x)
        assert_tiers_bit_exact(func)
        assert_warm_call_bit_exact(lambda session: session.pruned_spmm(bsr, x))

    @settings(**SETTINGS)
    @given(
        heads=st.integers(1, 3),
        rows=st.integers(1, 8),
        cols=st.integers(1, 8),
        feat=st.integers(1, 4),
        density=st.floats(0.0, 0.7),
        seed=st.integers(0, 2**16),
    )
    def test_batched_spmm(self, heads, rows, cols, feat, density, seed):
        dense = random_dense(rows, cols, density, np.float32, seed)
        csr = CSRMatrix.from_dense(dense)
        feats = (
            np.random.default_rng(seed + 4)
            .standard_normal((heads, cols, feat))
            .astype(np.float32)
        )
        func = build_batched_spmm_program(csr, heads, feat, feats)
        assert_tiers_bit_exact(func)
        assert_warm_call_bit_exact(lambda session: session.batched_spmm(csr, feats))

    @settings(**SETTINGS)
    @given(
        heads=st.integers(1, 3),
        rows=st.integers(1, 7),
        cols=st.integers(1, 7),
        feat=st.integers(1, 4),
        density=st.floats(0.0, 0.7),
        scale=st.sampled_from([None, 0.5, 2.0]),
        seed=st.integers(0, 2**16),
    )
    def test_batched_sddmm_with_scale(self, heads, rows, cols, feat, density, scale, seed):
        """The in-kernel rescale nest uses ``np.multiply.at``; cover it too."""
        dense = random_dense(rows, cols, density, np.float32, seed)
        csr = CSRMatrix.from_dense(dense)
        rng = np.random.default_rng(seed + 5)
        q = rng.standard_normal((heads, rows, feat)).astype(np.float32)
        k = rng.standard_normal((heads, feat, cols)).astype(np.float32)
        func = build_batched_sddmm_program(csr, heads, feat, q, k, scale=scale)
        assert_tiers_bit_exact(func)
        assert_warm_call_bit_exact(lambda session: session.batched_sddmm(csr, q, k, scale=scale))


class TestRGMSDifferential:
    @settings(max_examples=15, deadline=None)
    @given(
        relations=st.integers(1, 4),
        nodes=st.integers(2, 10),
        in_feats=st.integers(1, 4),
        out_feats=st.integers(1, 3),
        density=st.floats(0.0, 0.5),
        seed=st.integers(0, 2**16),
    )
    def test_random_hetero_adjacency(self, relations, nodes, in_feats, out_feats, density, seed):
        rng = np.random.default_rng(seed)
        dense = (rng.random((relations, nodes, nodes)) < density).astype(np.float32)
        adjacency = CSFTensor.from_dense(dense)
        x = rng.standard_normal((nodes, in_feats)).astype(np.float32)
        w = rng.standard_normal((relations, in_feats, out_feats)).astype(np.float32)
        func = build_rgms_program(adjacency, in_feats, out_feats, x, w)
        assert_tiers_bit_exact(func)
        assert_warm_call_bit_exact(
            lambda session: session.rgms(adjacency, x, w), expect_handle=False
        )

    def test_empty_relation(self):
        """A relation with no edges must contribute nothing on every tier."""
        dense = np.zeros((3, 5, 5), dtype=np.float32)
        dense[0, 1, 2] = 1.0
        dense[2, 4, 0] = -2.0  # relation 1 stays empty
        adjacency = CSFTensor.from_dense(dense)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((5, 3)).astype(np.float32)
        w = rng.standard_normal((3, 3, 2)).astype(np.float32)
        func = build_rgms_program(adjacency, 3, 2, x, w)
        assert_tiers_bit_exact(func)
        assert_warm_call_bit_exact(
            lambda session: session.rgms(adjacency, x, w), expect_handle=False
        )


class TestGraphChainDifferential:
    """Fused dataflow graphs must be bit-exact with node-by-node execution.

    Chains of 2–4 operators over hypothesis-randomized structures, dtypes,
    densities (including 0.0: empty rows and all-zero matrices) — the fused
    lowering merges them into one kernel, the unfused lowering runs the exact
    standalone programs the eager path builds, and every output must match
    bitwise (dtype included).
    """

    @settings(**SETTINGS)
    @given(
        nodes=st.integers(2, 10),
        feat=st.integers(1, 5),
        density=st.floats(0.0, 0.7),
        depth=st.integers(2, 4),
        ops=st.lists(st.sampled_from(["spmm", "relu", "add", "gemm"]), min_size=3, max_size=3),
        dtype=dtypes,
        seed=st.integers(0, 2**16),
    )
    def test_random_chain(self, nodes, feat, density, depth, ops, dtype, seed):
        dense = random_dense(nodes, nodes, density, dtype, seed)
        csr = CSRMatrix.from_dense(dense)
        rng = np.random.default_rng(seed + 7)
        x = rng.standard_normal((nodes, feat)).astype(dtype)
        w = rng.standard_normal((feat, feat)).astype(dtype)
        session = Session(persistent=False)

        def capture():
            g = session.graph()
            out = g.spmm(csr, g.input("x", x))
            for index in range(depth - 1):
                op = ops[index % len(ops)]
                if op == "spmm":
                    out = g.spmm(csr, out)
                elif op == "relu":
                    out = g.relu(out)
                elif op == "add":
                    out = g.add(out, out)
                else:
                    out = g.gemm(out, w)
            g.output(out)
            return g, out

        g1, out1 = capture()
        g2, out2 = capture()
        fused = g1.compile(fuse=True)
        unfused = g2.compile(fuse=False)
        assert fused.num_kernel_launches < unfused.num_kernel_launches
        rf = fused.run()[out1.name]
        ru = unfused.run()[out2.name]
        assert rf.dtype == ru.dtype == np.dtype(dtype)
        assert np.array_equal(rf, ru), "fused graph diverges from node-by-node"

    @settings(max_examples=10, deadline=None)
    @given(
        relations=st.integers(1, 3),
        nodes=st.integers(2, 8),
        feats=st.integers(1, 4),
        density=st.floats(0.0, 0.4),
        seed=st.integers(0, 2**16),
    )
    def test_rgms_chain(self, relations, nodes, feats, density, seed):
        """Per-relation RGMS chains (incl. empty relations) fuse bit-exactly."""
        rng = np.random.default_rng(seed)
        dense = (rng.random((relations, nodes, nodes)) < density).astype(np.float32)
        adjacency = CSFTensor.from_dense(dense)
        x = rng.standard_normal((nodes, feats)).astype(np.float32)
        w1 = rng.standard_normal((relations, feats, feats)).astype(np.float32)
        w2 = rng.standard_normal((relations, feats, feats)).astype(np.float32)
        session = Session(persistent=False)

        def capture():
            g = session.graph()
            out = g.rgms(adjacency, g.input("x", x), w1)
            out = g.relu(out)
            out = g.rgms(adjacency, out, w2)
            g.output(out)
            return g, out

        g1, out1 = capture()
        g2, out2 = capture()
        fused, unfused = g1.compile(fuse=True), g2.compile(fuse=False)
        assert fused.num_kernel_launches < unfused.num_kernel_launches
        assert np.array_equal(fused.run()[out1.name], unfused.run()[out2.name])


class TestFallbackConsistency:
    def test_unsupported_program_rejected_by_both_fast_tiers(self):
        """A program the hazard analysis rejects has no emitted and no native
        kernel, and auto dispatch lands on the interpreter."""
        from repro.core.buffers import FlatBuffer
        from repro.core.codegen.emit_numpy import UnsupportedForEmission, emit_numpy_source
        from repro.core.expr import Var
        from repro.core.program import STAGE_LOOP, PrimFunc
        from repro.core.stmt import BufferStore, ForLoop, SeqStmt

        b = FlatBuffer("b", 4)
        c = FlatBuffer("c", 4)
        i = Var("i")
        # c reads b while b is written in the same nest: a read-after-write
        # hazard neither compiled tier may batch.
        body = SeqStmt(
            [
                ForLoop(i, 0, 4, BufferStore(b, [i], c[i] + 1.0)),
                ForLoop(i, 0, 4, BufferStore(c, [i], b[i] * 2.0)),
            ]
        )
        # Single nest wrapping both loops -> hazard.
        hazard = PrimFunc(
            "hazard", axes=[], buffers=[],
            body=ForLoop(Var("j"), 0, 1, body),
            stage=STAGE_LOOP, flat_buffers=[b, c],
        )
        with pytest.raises(UnsupportedForEmission):
            emit_numpy_source(hazard)
        kernel = build(hazard, cache=False)
        out = kernel.run()
        assert kernel.last_engine == "interpret"
        assert np.array_equal(out["c"], np.full(4, 2.0, dtype=np.float32))
