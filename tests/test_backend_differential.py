"""Differential harness: the three dispatch tiers must agree bit for bit.

Every test builds a stage-I program from hypothesis-randomized formats,
shapes and value dtypes, runs it through the native compiled-C kernel
(when a toolchain is present), the emitted stage-IV kernel and the scalar
interpreter, and asserts that **every** buffer of
the result is bit-identical (``np.array_equal`` on the raw arrays, dtype
equality included).  Structural-zero paths (padded ELL slots, empty rows,
empty relations, nnz=0 matrices) are exercised explicitly — they are where
the tiers' masking strategies differ most.

Both compiled tiers are compared against the interpreter, the oracle: the
native tier runs the loop nest in the interpreter's own order, the emitted
tier batches it, and neither may differ from it by a bit.  The native tier
runs once more through its unbound runner and once through a bound call,
with every buffer it stores to between guard zones whose bits must not move
(``run_native_guarded``): a kernel that writes past a buffer fails here even
where every value it returns is right.
``TestNativeLoopNest`` pins the interpreter semantics the native walker
reproduces by construction (dropped stores, zero loads, serial scatter
order, nests the hazard analysis rejects) and that one program family costs
one compilation.

``TestIndependentFeatureLoops`` / ``TestLoopsThatStaySerial`` are the two
sides of the native tier's SIMD marks: loops the independence proof accepts
are run at every vector remainder, loops it must reject print no pragma.

Every operator case also runs twice through one ``Session``: the second call
is served by the memoised bound-kernel handle (the warm path) and must equal
an interpreter session's result bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.buffers import FlatBuffer
from repro.core.codegen import emit_c
from repro.core.codegen.build import build
from repro.core.codegen.emit_c import toolchain_available
from repro.core.codegen.emit_numpy import UnsupportedForEmission, emit_numpy_source
from repro.core.codegen.hazards import analyze_hazards, loop_independence
from repro.core.expr import Var
from repro.core.program import STAGE_LOOP, PrimFunc
from repro.core.stmt import Block, BufferStore, ForLoop, SeqStmt, collect_buffer_stores, find_loops
from repro.formats.bsr import BSRMatrix
from repro.formats.csf import CSFTensor
from repro.formats.csr import CSRMatrix
from repro.formats.hyb import HybFormat
from repro.ops.batched import build_batched_sddmm_program, build_batched_spmm_program
from repro.ops.elementwise import build_add_program, build_gemm_program, build_relu_program
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
            assert interpreted[name].dtype == native[name].dtype, name
            assert np.array_equal(interpreted[name], native[name]), (
                f"native diverges from interpreter on {name!r}"
            )
    if native is not None:
        assert_guarded_runs_equal(kernel, interpreted)
    return emitted


def assert_native_equals_interpreter(func, bindings=None):
    """Run *func* on the native tier and the interpreter; compare bitwise,
    and again with the stored buffers between guard zones."""
    kernel = build(func, cache=False)
    expected = kernel.run(bindings, engine="interpret")
    got = kernel.run(bindings, engine="native")
    assert kernel.last_engine == "native"
    for name, array in got.items():
        assert array.dtype == expected[name].dtype, name
        assert np.array_equal(array, expected[name]), f"native diverges on {name!r}"
    assert_guarded_runs_equal(kernel, expected, bindings)
    return got


#: The element a guard zone holds, by item size: a signalling NaN in float32
#: and float64.  Arithmetic quiets it, so a store past a buffer changes its
#: bits even where it writes back what it read plus 0.
SENTINEL = {4: np.uint32(0x7FA5A5A5), 8: np.uint64(0x7FF5A5A5A5A5A5A5)}


def guarded(array):
    """A copy of *array* (flat) as the interior of a larger array whose two
    margins, each as long as the copy (64 bytes at least, a multiple of 64,
    so the interior keeps its alignment), hold :data:`SENTINEL`.  Returns
    ``(interior view, margins)``: the backing array and its margin length."""
    sentinel = SENTINEL[array.dtype.itemsize]
    margin = max(64, -(-array.nbytes // 64) * 64) // sentinel.itemsize
    backing = np.full(array.size + 2 * margin, sentinel)
    interior = backing[margin:margin + array.size].view(array.dtype)
    interior[...] = array.reshape(-1)
    return interior, (backing, margin)


def assert_guards_intact(margins):
    """Every margin (:func:`guarded`, by buffer name) still holds the
    sentinel, bit for bit: the kernel stored nothing past its buffers."""
    for name, (backing, margin) in margins.items():
        sentinel = SENTINEL[backing.itemsize]
        for side, zone in (("before", backing[:margin]), ("past", backing[-margin:])):
            moved = int(np.count_nonzero(zone != sentinel))
            assert moved == 0, f"the kernel wrote {moved} elements {side} {name!r}"


def run_native_guarded(kernel, bindings=None, bound=False):
    """Run *kernel*'s native tier with every buffer it stores to as the
    interior of a guarded array (:func:`guarded`), through the unbound runner
    or, with *bound*, a call of ``runner.bind`` (the buffers whose bytes are
    all zero count as allocated zeroed); check the guards and return the
    stored buffers."""
    from repro.runtime.executor import prepare_arrays

    runner = kernel._runner("native")
    aux = {buf.name for buf in kernel.func.aux_buffers}
    arrays = prepare_arrays(kernel.func, {**kernel.defaults, **(bindings or {})}, skip=aux)
    margins = {}
    for name in runner.stored:
        arrays[name], margins[name] = guarded(arrays[name])
    if bound:
        shared = {name: arrays.pop(name) for name in set(runner.binding.bufs) - runner.stored}
        zeroed = {name for name in runner.stored if not arrays[name].view(np.uint8).any()}
        out = runner.bind(shared, runner.stored, zeroed)(arrays)
    else:
        out = runner(arrays)
    assert_guards_intact(margins)
    return {name: out[name] for name in runner.stored}


def assert_guarded_runs_equal(kernel, expected, bindings=None):
    """The unbound runner and a bound call, each on guarded buffers, store
    nothing outside them and equal *expected* (the interpreter's buffers)
    bit for bit."""
    for bound in (False, True):
        for name, array in run_native_guarded(kernel, bindings, bound).items():
            assert array.dtype == expected[name].dtype, name
            same = np.array_equal(array.view(np.uint8), expected[name].view(np.uint8))  # NaN, -0.0
            assert same, f"native ({'bound' if bound else 'unbound'}) diverges on {name!r}"


def _loop_program(name, body, *buffers):
    return PrimFunc(name, axes=[], buffers=[], body=body, stage=STAGE_LOOP, flat_buffers=list(buffers))


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
        scale=st.sampled_from([None, 0.5, 2.0, 1 / np.sqrt(8)]),
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


#: One width per remainder of the 2-, 4- and 8-lane vector loops and their epilogues.
WIDTHS = st.sampled_from([1, 2, 3, 5, 7, 8, 9, 15, 16, 17, 24, 31, 33])

SIMD = "#pragma omp simd"


def lowered(func):
    return build(func, cache=False).func


class TestIndependentFeatureLoops:
    """Loops the independence proof marks ``omp simd``: lanes are distinct
    output elements, so every feature width — every vector remainder — must
    stay bit-identical to the interpreter in float32 and float64."""

    @settings(**SETTINGS)
    @given(
        rows=st.integers(1, 8), cols=st.integers(1, 8), feat=WIDTHS,
        density=st.floats(0.1, 0.8), dtype=dtypes, seed=st.integers(0, 2**16),
    )
    def test_spmm(self, rows, cols, feat, density, dtype, seed):
        csr = CSRMatrix.from_dense(random_dense(rows, cols, density, dtype, seed))
        feats = np.random.default_rng(seed + 1).standard_normal((cols, feat)).astype(dtype)
        func = build_spmm_program(csr, feat, feats, dtype=np.dtype(dtype).name)
        assert emit_c.emit_c_source(lowered(func))[0].count(SIMD) == 1
        assert_tiers_bit_exact(func)

    @settings(**SETTINGS)
    @given(
        heads=st.integers(1, 2), rows=st.integers(1, 6), cols=st.integers(1, 6), feat=WIDTHS,
        density=st.floats(0.1, 0.8), dtype=dtypes, seed=st.integers(0, 2**16),
    )
    def test_batched_spmm(self, heads, rows, cols, feat, density, dtype, seed):
        csr = CSRMatrix.from_dense(random_dense(rows, cols, density, dtype, seed))
        feats = np.random.default_rng(seed + 4).standard_normal((heads, cols, feat)).astype(dtype)
        func = build_batched_spmm_program(csr, heads, feat, feats, dtype=np.dtype(dtype).name)
        assert SIMD in emit_c.emit_c_source(lowered(func))[0]
        assert_tiers_bit_exact(func)

    @settings(**SETTINGS)
    @given(
        block_rows=st.integers(1, 3), block_cols=st.integers(1, 3),
        block_size=st.sampled_from([1, 2, 4]), seq=WIDTHS,
        density=st.floats(0.2, 1.0), seed=st.integers(0, 2**16),
    )
    def test_pruned_spmm_bsr(self, block_rows, block_cols, block_size, seq, density, seed):
        rows, cols = block_rows * block_size, block_cols * block_size
        bsr = BSRMatrix.from_dense(random_dense(rows, cols, density, np.float32, seed), block_size)
        x = np.random.default_rng(seed + 3).standard_normal((cols, seq)).astype(np.float32)
        func = build_pruned_spmm_bsr_program(bsr, seq, x)
        assert emit_c.emit_c_source(lowered(func))[0].count(SIMD) == 1
        assert_tiers_bit_exact(func)

    @settings(**SETTINGS)
    @given(
        op=st.sampled_from(["gemm", "add", "relu"]), m=st.integers(1, 4), k=st.integers(1, 4),
        n=WIDTHS, dtype=dtypes, seed=st.integers(0, 2**16),
    )
    def test_dense_ops(self, op, m, k, n, dtype, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((m, k if op == "gemm" else n)).astype(dtype)
        b = rng.standard_normal((k if op == "gemm" else m, n)).astype(dtype)
        name = np.dtype(dtype).name
        if op == "gemm":
            func = build_gemm_program(m, k, n, a, b, dtype=name)
        elif op == "add":
            func = build_add_program(m, n, a, b, dtype=name)
        else:
            func = build_relu_program(m, n, a, dtype=name)
        # gemm: the lane loop of its row tile and that of the rows left over.
        assert emit_c.emit_c_source(lowered(func))[0].count(SIMD) == (2 if op == "gemm" else 1)
        assert_tiers_bit_exact(func)


class TestRowTiles:
    """gemm's compute pass runs four rows per reduction step (an
    unroll-and-jam, ``emit_c.TILE_ROWS``) and the rows left over one at a
    time: every row count around and below the tile, a reduction of no steps
    and every lane remainder, against the interpreter bit for bit.  Values
    span eight decades, so a changed order of additions shows; ``C`` sits
    between guard zones, so a tile that runs a row too far shows too."""

    @settings(max_examples=40, deadline=None)
    @given(
        m=st.integers(0, 13), k=st.integers(0, 5), n=st.integers(1, 17), dtype=dtypes,
        seed=st.integers(0, 2**16),
    )
    def test_gemm_tile_is_bit_exact(self, m, k, n, dtype, seed):
        rng = np.random.default_rng(seed)
        scale = lambda shape: 10.0 ** rng.integers(-4, 4, shape)  # noqa: E731
        a = (rng.standard_normal((m, k)) * scale((m, k))).astype(dtype)
        b = (rng.standard_normal((k, n)) * scale((k, n))).astype(dtype)
        func = build_gemm_program(m, k, n, a, b, dtype=np.dtype(dtype).name)
        source = emit_c.emit_c_source(lowered(func))[0]
        assert source.count(f"+= {emit_c.TILE_ROWS})") == 1 and source.count(SIMD) == 2
        assert_tiers_bit_exact(func)


def serial_programs():
    """name -> (program, bindings, what the proof must say): innermost loops
    whose iterations are *not* independent.  Each would compute something else
    if its iterations ran as lanes, so none may carry the mark."""
    f32 = lambda *values: np.array(values, dtype=np.float32)  # noqa: E731
    i, k = Var("i"), Var("k")
    programs = {}

    b, c = FlatBuffer("B", 9), FlatBuffer("C", 9)
    nest = ForLoop(k, 1, 8, BufferStore(c, [k], c[k - 1] + b[k]))
    programs["shifted_read"] = (
        _loop_program("prefix_sum", nest, b, c),
        {"B": np.arange(9, dtype=np.float32), "C": f32(1, 0, 0, 0, 0, 0, 0, 0, 0)},
        "reads 'C'",
    )

    rowmap = FlatBuffer("rowmap", 6, dtype="int32")
    x, acc = FlatBuffer("x", 6), FlatBuffer("acc", 3)
    nest = ForLoop(i, 0, 6, BufferStore(acc, [rowmap[i]], acc[rowmap[i]] + x[i]))
    programs["rowmap_scatter"] = (
        _loop_program("rowmap_scatter", nest, rowmap, x, acc),
        {"rowmap": np.array([0, 2, 0, 0, 2, 0], dtype=np.int32), "x": f32(1e8, 1, 1, -1e8, 3, 1)},
        "store to 'acc' does not move",
    )

    x, out = FlatBuffer("x", 8), FlatBuffer("out", 16)
    nest = ForLoop(k, 0, 8, BufferStore(out, [k * 2], out[k * 2] + x[k]))
    programs["stride_2"] = (
        _loop_program("stride_2", nest, x, out),
        {"x": np.arange(8, dtype=np.float32)},
        "store to 'out' does not move",
    )

    x, out = FlatBuffer("x", 12), FlatBuffer("out", 3)
    nest = ForLoop(i, 0, 3, ForLoop(k, 0, 4, BufferStore(out, [i], out[i] + x[i * 4 + k])))
    programs["stride_0"] = (
        _loop_program("stride_0", nest, x, out),
        {"x": f32(1e8, 1, -1e8, 1, 1, 2, 3, 4, 0.1, 0.2, 0.3, 0.4)},
        "store to 'out' does not move",
    )

    x, a, b2 = FlatBuffer("x", 8), FlatBuffer("a", 9), FlatBuffer("b", 8)
    body = SeqStmt([BufferStore(a, [k], x[k] + 1.0), BufferStore(b2, [k], a[k + 1] * 2.0)])
    programs["two_stores"] = (
        _loop_program("two_stores", ForLoop(k, 0, 8, body), x, a, b2),
        {"x": np.arange(8, dtype=np.float32), "a": np.full(9, -5.0, dtype=np.float32)},
        "reads 'a'",
    )

    m = FlatBuffer("m", 6, dtype="int32")
    y = FlatBuffer("y", 5, dtype="int32")
    nest = ForLoop(k, 0, m[0], BufferStore(m, [k + 1], m[k + 1] + y[k]))
    programs["bound_loads_written"] = (
        _loop_program("bound_loads_written", nest, m, y),
        {"m": np.array([4, 1, 1, 1, 1, 1], dtype=np.int32), "y": np.arange(5, dtype=np.int32)},
        "reads 'm'",
    )
    return programs


class TestLoopsThatStaySerial:
    """No pragma without a proof: each of these prints the C it printed before
    the proof existed, and still equals the interpreter."""

    @pytest.mark.parametrize("name", sorted(serial_programs()))
    def test_hand_built_loop(self, name):
        func, bindings, reason = serial_programs()[name]
        loop = find_loops(func.body)[0]  # post order: the innermost one
        written = {store.buffer.name for store in collect_buffer_stores(func.body)}
        assert reason in loop_independence(loop, written)
        assert "#pragma" not in emit_c.emit_c_source(func)[0]
        if toolchain_available():
            assert_native_equals_interpreter(func, bindings)

    @pytest.mark.parametrize("fuse", [False, True])
    def test_sddmm_reduction_loop(self, fuse):
        """``OUT[p] += X[i, k] * Y[k, j]``: the store does not move with ``k``."""
        csr = CSRMatrix.from_dense(random_dense(6, 7, 0.5, np.float32, 9))
        rng = np.random.default_rng(2)
        x = rng.standard_normal((6, 17)).astype(np.float32)
        y = rng.standard_normal((17, 7)).astype(np.float32)
        func = build_sddmm_program(csr, 17, x, y, fuse_ij=fuse)
        assert "#pragma" not in emit_c.emit_c_source(lowered(func))[0]
        assert_tiers_bit_exact(func)

    def test_an_outer_loop_is_never_independent(self):
        """``C[i + k]`` moves with ``i`` at unit stride, yet rows overlap."""
        x, c, i, k = FlatBuffer("x", 4), FlatBuffer("C", 8), Var("i"), Var("k")
        outer = ForLoop(i, 0, 4, ForLoop(k, 0, 4, BufferStore(c, [i + k], c[i + k] + x[k])))
        assert "not an innermost loop" in loop_independence(outer, {"C"})
        assert loop_independence(outer.body, {"C"}) is None


needs_cc = pytest.mark.skipif(not toolchain_available(), reason="no C compiler available")


#: Every remainder of the 32-byte tile (8 f32 / 4 f64 lanes) and a few whole tiles.
REGION_WIDTHS = st.sampled_from([1, 3, 7, 8, 9, 15, 16, 17, 24, 32])


def compiled_three_ways(capture):
    """``capture(session) -> (builder, output refs)`` compiled fused and unfused
    on the default engine and fused on the interpreter; returns the fused
    :class:`CompiledGraph` and the three result dicts."""
    results = []
    for engine, fuse in (("auto", True), ("auto", False), ("interpret", True)):
        builder, outputs = capture(Session(engine=engine, persistent=False))
        compiled = builder.compile(fuse=fuse)
        results.append((compiled, [compiled.run()[ref.name] for ref in outputs]))
    (fused, got), (_unfused, node_by_node), (_oracle, expected) = results
    for mine, theirs, oracle in zip(got, node_by_node, expected):
        assert mine.dtype == theirs.dtype == oracle.dtype
        assert np.array_equal(mine, oracle), "fused diverges from the interpreter"
        assert np.array_equal(theirs, oracle), "node-by-node diverges from the interpreter"
    return fused


def native_unit(compiled):
    """``(kernel, C source, runner)`` of a graph fused into one native unit."""
    (unit,) = compiled.units
    return unit.kernel, unit.kernel.native_source(), unit.kernel._runner("native")


def regions_of(source):
    return source.count("static int _r")


class TestFusedRegions:
    """Row-aligned nests of a fused kernel run as one loop over rows with their
    accumulators in a register tile, and ``local`` intermediates never reach
    memory: native fused == native unfused == interpreter, bit for bit, at
    every tile remainder — and what may not join a region prints the serial
    nest and says why."""

    @settings(max_examples=30, deadline=None)
    @given(
        producer=st.sampled_from(["rgms", "spmm", "gemm"]),
        width=REGION_WIDTHS,
        wide=st.booleans(),
        nodes=st.integers(2, 8),
        depth=st.integers(1, 5),
        chain=st.lists(st.sampled_from(["relu", "add_self", "add_first", "add_const"]), max_size=8),
        density=st.sampled_from([0.0, 0.2, 0.6]),
        seed=st.integers(0, 2**16),
    )
    def test_producers_with_elementwise_chains(self, producer, width, wide, nodes, depth, chain, density, seed):
        dtype = np.float64 if wide and producer != "rgms" else np.float32  # rgms is float32 only
        rng = np.random.default_rng(seed)
        dense = random_dense(3 * nodes, nodes, density, np.float32, seed).reshape(3, nodes, nodes)
        dense[1] = 0.0  # an empty relation
        dense[:, 0, :] = 0.0  # a row with no non-zero
        adjacency, csr = CSFTensor.from_dense(dense), CSRMatrix.from_dense(dense[0].astype(dtype))
        x = rng.standard_normal((nodes, depth)).astype(dtype)
        wide_x = rng.standard_normal((nodes, width)).astype(dtype)
        weights = rng.standard_normal((3, depth, width)).astype(dtype)
        const = rng.standard_normal((nodes, width)).astype(dtype)

        def capture(session):
            g = session.graph()
            if producer == "rgms":
                out = g.rgms(adjacency, g.input("x", x), weights)
            elif producer == "gemm":
                out = g.gemm(g.input("x", x), weights[0])
            else:
                out = g.spmm(csr, g.input("x", wide_x))
            first = out
            for op in chain:
                if op == "relu":
                    out = g.relu(out)
                else:
                    out = g.add(out, {"add_self": out, "add_first": first, "add_const": const}[op])
            g.output(out)
            return g, [out]

        fused = compiled_three_ways(capture)
        if not toolchain_available() or len(fused.units) != 1:
            return  # without a compiler `local` buffers are ordinary ones on the emitted tier
        kernel, source, runner = native_unit(fused)
        # A dense reduction (rgms's k, gemm's k) next to its init nest or a
        # consumer is a region; a sparse one (spmm) never is.
        expected = int((producer == "rgms" and dense.any()) or (producer == "gemm" and bool(chain)))
        assert regions_of(source) == expected, kernel.declined
        lanes = 32 // np.dtype(dtype).itemsize
        assert runner.serial_regions == (expected if width % lanes else 0)

    def test_a_consumer_that_gathers_rows_ends_the_region(self):
        """RGCN's second layer reads rows of the first layer's output: two
        regions, the hidden layer in memory between them (the kernel's own)."""
        rng = np.random.default_rng(3)
        adjacency = CSFTensor.from_dense((rng.random((2, 9, 9)) < 0.3).astype(np.float32))
        x = rng.standard_normal((9, 8)).astype(np.float32)
        w1, w2 = (rng.standard_normal((2, 8, 8)).astype(np.float32) for _ in range(2))

        def capture(session):
            g = session.graph()
            hidden = g.relu(g.rgms(adjacency, g.input("x", x), w1))
            out = g.rgms(adjacency, hidden, w2)
            g.output(out)
            return g, [out]

        fused = compiled_three_ways(capture)
        if toolchain_available():
            kernel, source, runner = native_unit(fused)
            assert regions_of(source) == 2 and runner.serial_regions == 0
            (why,) = [why for what, why in kernel.declined.items() if what.startswith("fuse ")]
            assert "which the region writes, other than at its own element" in why
            # The serial nest of the gathering member is printed as before: its
            # feature loop under the pragma, behind the range test.
            assert source.count("#pragma omp simd") > regions_of(source)

    def test_a_gemm_that_consumes_a_members_row_ends_the_region(self):
        rng = np.random.default_rng(4)
        adjacency = CSFTensor.from_dense((rng.random((1, 7, 7)) < 0.4).astype(np.float32))
        x = rng.standard_normal((7, 8)).astype(np.float32)
        w = rng.standard_normal((1, 8, 8)).astype(np.float32)
        dense_w = rng.standard_normal((8, 8)).astype(np.float32)

        def capture(session):
            g = session.graph()
            out = g.relu(g.gemm(g.rgms(adjacency, g.input("x", x), w), dense_w))
            g.output(out)
            return g, [out]

        fused = compiled_three_ways(capture)
        if toolchain_available():
            kernel, source, _runner = native_unit(fused)
            assert regions_of(source) == 2  # {init, rgms} and {gemm, relu}
            assert any("gemm" in what and "other than at its own element" in why
                       for what, why in kernel.declined.items())

    def test_an_intermediate_that_is_a_graph_output_is_stored(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((6, 5)).astype(np.float32)
        w = rng.standard_normal((5, 16)).astype(np.float32)

        def capture(session):
            g = session.graph()
            mid = g.gemm(g.input("x", x), w)
            out = g.relu(g.add(mid, mid))
            g.output(mid, out)
            return g, [mid, out]

        fused = compiled_three_ways(capture)
        if toolchain_available():
            kernel, source, runner = native_unit(fused)
            binding = kernel._tier("native")[0][1]
            flat = {fb.name: fb.scope for fb in kernel.func.flat_buffers}
            (unit,) = fused.units
            mid, summed, out = (name for _value, name, _spec in unit.produced)  # in node order
            assert regions_of(source) == 1 and runner.serial_regions == 0
            assert flat[mid] == flat[out] == "global" and flat[summed] == "local"
            assert mid in binding.bufs and out in binding.bufs and summed not in binding.bufs

    def test_nests_of_unequal_row_extent_are_two_regions(self):
        rng = np.random.default_rng(6)
        x, y = (rng.standard_normal((rows, 4)).astype(np.float32) for rows in (5, 7))
        w = rng.standard_normal((4, 8)).astype(np.float32)

        def capture(session):
            g = session.graph()
            a = g.relu(g.gemm(g.input("x", x), w))
            b = g.relu(g.gemm(g.input("y", y), w))
            g.output(a, b)
            return g, [a, b]

        fused = compiled_three_ways(capture)
        if toolchain_available():
            kernel, source, runner = native_unit(fused)
            assert regions_of(source) == 2 and runner.serial_regions == 0
            assert "its row loop has extent 7, the region's 5" in kernel.declined.values()

    @needs_cc
    @pytest.mark.parametrize("lanes", [8, 12])
    def test_padded_ell_member_takes_the_checked_tile_body(self, lanes):
        """``-1`` column padding makes the gathered row's index negative: that
        guard depends on data, stays per tile, and its checked body loads 0."""
        rows, cols, slots = 5, 6, 3
        rng = np.random.default_rng(7)
        indices = rng.integers(0, cols, (rows, slots)).astype(np.int32)
        indices[:, 2], indices[3] = -1, -1
        idx, a = FlatBuffer("idx", rows * slots, "int32"), FlatBuffer("a", rows * slots)
        b, c = FlatBuffer("b", cols * lanes), FlatBuffer("c", rows * lanes, scope="local")
        out = FlatBuffer("out", rows * lanes)
        i, j, l = Var("i"), Var("j"), Var("l")
        at = i * lanes + l
        ell = BufferStore(c, [at], c[at] + a[i * slots + j] * b[idx[i * slots + j] * lanes + l])
        nests = [
            ForLoop(i, 0, rows, ForLoop(l, 0, lanes, BufferStore(c, [at], 0.0))),
            ForLoop(i, 0, rows, ForLoop(j, 0, slots, ForLoop(l, 0, lanes, ell))),
            ForLoop(i, 0, rows, ForLoop(l, 0, lanes, BufferStore(out, [at], c[at] + c[at]))),
        ]
        func = _loop_program("padded_ell", SeqStmt(nests), idx, a, b, c, out)
        bindings = {
            "idx": indices.reshape(-1), "a": rng.standard_normal(rows * slots).astype(np.float32),
            "b": rng.standard_normal(cols * lanes).astype(np.float32),
        }
        source, binding = emit_c.emit_c_source(func)
        assert regions_of(source) == 1 and "c" not in binding.bufs  # contracted
        got = assert_native_equals_interpreter(func, bindings)
        assert "c" not in got and got["out"].any()
        kernel = build(func, cache=False)
        kernel.run(bindings, engine="native")
        assert kernel._runner("native").serial_regions == (0 if lanes == 8 else 1)

    @needs_cc
    def test_zero_trip_reduction_keeps_what_the_buffer_held(self):
        """An init under a zero-trip reduction loop never runs: the region's
        tile starts from the buffer's content, like the serial nest."""
        rows, lanes = 4, 8
        a, b = FlatBuffer("a", rows), FlatBuffer("b", lanes)
        c, out = FlatBuffer("c", rows * lanes), FlatBuffer("out", rows * lanes)
        i, k, l = Var("i"), Var("k"), Var("l")
        at = i * lanes + l
        update = BufferStore(c, [at], c[at] + a[i * 0 + k] * b[k * lanes + l])
        gemm = ForLoop(i, 0, rows, ForLoop(k, 0, 0, ForLoop(l, 0, lanes, Block(
            "gemm", update, init=BufferStore(c, [at], 0.0)))))
        relu = ForLoop(i, 0, rows, ForLoop(l, 0, lanes, BufferStore(out, [at], c[at] * 2.0)))
        func = _loop_program("zero_trip", SeqStmt([gemm, relu]), a, b, c, out)
        held = np.arange(rows * lanes, dtype=np.float32)
        source, _ = emit_c.emit_c_source(func)
        assert regions_of(source) == 1
        got = assert_native_equals_interpreter(func, {"c": held})
        assert np.array_equal(got["c"], held) and np.array_equal(got["out"], held * 2)


def _hazard_program():
    """c reads b while b is written in the same nest: a read-after-write
    hazard the lane model may not batch."""
    b, c, i = FlatBuffer("b", 4), FlatBuffer("c", 4), Var("i")
    body = SeqStmt(
        [
            ForLoop(i, 0, 4, BufferStore(b, [i], c[i] + 1.0)),
            ForLoop(i, 0, 4, BufferStore(c, [i], b[i] * 2.0)),
        ]
    )
    return _loop_program("hazard", ForLoop(Var("j"), 0, 1, body), b, c)


@needs_cc
class TestNativeLoopNest:
    """What the loop-nest walker gets from running in the interpreter's order."""

    def test_empty_rows_leave_the_destination_untouched(self):
        dense = np.zeros((5, 4), dtype=np.float32)
        dense[1, 2], dense[3, 0], dense[3, 3] = 2.0, -1.5, 0.25
        csr = CSRMatrix.from_dense(dense)
        feats = np.arange(12, dtype=np.float32).reshape(4, 3)
        stale = np.full(15, 123.0, dtype=np.float32)
        out = assert_native_equals_interpreter(build_spmm_program(csr, 3, feats), {"C": stale})
        assert np.all(out["C"].reshape(5, 3)[[0, 2, 4]] == 123.0)
        assert np.array_equal(out["C"].reshape(5, 3)[[1, 3]], dense[[1, 3]] @ feats)

    def test_padded_columns_load_zero(self):
        """An ELL slot padded with column ``-1`` indexes in front of ``x``; the
        load is 0, not ``x[-1]``, even when the padded value is not."""
        col = FlatBuffer("col", 6, dtype="int32")
        val, x, out = FlatBuffer("val", 6), FlatBuffer("x", 8), FlatBuffer("out", 3)
        i, j, k = Var("i"), Var("j"), Var("k")
        body = BufferStore(out, [i], out[i] + val[i * 2 + j] * x[col[i * 2 + j] * 2 + k])
        nest = ForLoop(i, 0, 3, ForLoop(j, 0, 2, ForLoop(k, 0, 2, body)))
        got = assert_native_equals_interpreter(
            _loop_program("ell", nest, col, val, x, out),
            {
                "col": np.array([0, 3, 2, -1, -1, -1], dtype=np.int32),
                "val": np.ones(6, dtype=np.float32),
                "x": np.arange(1, 9, dtype=np.float32),
            },
        )
        assert np.array_equal(got["out"], [1 + 2 + 7 + 8, 5 + 6, 0])

    def test_padded_hyb_buckets(self):
        dense = np.zeros((6, 7), dtype=np.float32)
        dense[0, :5], dense[2, 1], dense[4, [0, 6]] = 1.5, -2.0, 3.0
        hyb = HybFormat.from_csr(CSRMatrix.from_dense(dense), num_col_parts=2, num_buckets=2)
        feats = np.random.default_rng(3).standard_normal((7, 4)).astype(np.float32)
        assert_native_equals_interpreter(build_spmm_hyb_program(hyb, 4, feats))

    def test_out_of_range_store_is_dropped(self):
        x, out, i = FlatBuffer("x", 4), FlatBuffer("out", 4), Var("i")
        nest = ForLoop(i, 0, 4, BufferStore(out, [i * 3 - 2], x[i] + 1.0))
        got = assert_native_equals_interpreter(
            _loop_program("scatter", nest, x, out), {"x": np.arange(4, dtype=np.float32)}
        )
        assert np.array_equal(got["out"], [0.0, 2.0, 0.0, 0.0])  # -2, 4 and 7 fall outside

    def test_run_time_scatter_with_duplicates_accumulates_in_serial_order(self):
        """The store index is value data (a hyb rowmap); float32 addition does
        not commute across these magnitudes, so the order is observable."""
        rowmap = FlatBuffer("rowmap", 6, dtype="int32")
        x, acc, i = FlatBuffer("x", 6), FlatBuffer("acc", 3), Var("i")
        nest = ForLoop(i, 0, 6, BufferStore(acc, [rowmap[i]], acc[rowmap[i]] + x[i]))
        values = np.array([1e8, 1.0, 1.0, -1e8, 3.0, 1.0], dtype=np.float32)
        got = assert_native_equals_interpreter(
            _loop_program("rowmap_scatter", nest, rowmap, x, acc),
            {"rowmap": np.array([0, 2, 0, 0, 2, 0], dtype=np.int32), "x": values},
        )
        serial = np.float32(0.0)
        for v in values[[0, 2, 3, 5]]:
            serial = np.float32(serial + v)
        assert got["acc"][0] == serial == 1.0 and got["acc"][2] == 4.0

    def test_nest_the_hazard_analysis_rejects_runs_native(self):
        func = _hazard_program()
        with pytest.raises(UnsupportedForEmission):
            analyze_hazards(func)
        got = assert_native_equals_interpreter(func)
        assert np.array_equal(got["c"], np.full(4, 2.0, dtype=np.float32))
        kernel = build(func, cache=False)
        kernel.run()
        assert kernel.last_engine == "native" and "native" not in kernel.declined

    def test_names_c_cannot_print(self):
        """Buffers and loop variables named like C keywords or like the
        emitter's own parameters are renamed, not rejected."""
        double, ip = FlatBuffer("double", 4), FlatBuffer("ip", 4)
        v = Var("ip")
        nest = ForLoop(v, 0, 4, BufferStore(ip, [v], double[v] * 2.0 + 1.0))
        got = assert_native_equals_interpreter(
            _loop_program("names", nest, double, ip), {"double": np.arange(4, dtype=np.float32)}
        )
        assert np.array_equal(got["ip"], [1.0, 3.0, 5.0, 7.0])

    def test_value_dependent_bounds_and_let(self):
        """Loop bounds and ``let`` values read from value buffers."""
        from repro.core.stmt import LetStmt

        n = FlatBuffer("n", 1, dtype="int32")
        x, out = FlatBuffer("x", 6), FlatBuffer("out", 6)
        i, t = Var("i"), Var("t")
        nest = ForLoop(i, 1, n[0], LetStmt(t, x[i] * 2.0, BufferStore(out, [i - 1], t + x[i - 1])))
        assert_native_equals_interpreter(
            _loop_program("bounded", nest, n, x, out),
            {"n": np.array([4], dtype=np.int32), "x": np.arange(6, dtype=np.float32)},
        )

    def test_searched_rows_and_positions_are_weak_ints(self):
        """``sparse_row_of_position`` / ``sparse_coord_to_pos`` give Python
        ints: float32 arithmetic on one stays float32 and rounds at every
        step (widened to float64 it would round once, at the store)."""
        from repro.core.axes import DenseFixedAxis, SparseVariableAxis
        from repro.core.expr import Call, StringImm
        from repro.core.stage2.lowering import BINARY_SEARCH, ROW_UPPER_BOUND

        csr = CSRMatrix.from_dense(random_dense(40, 9, 0.5, np.float32, seed=7))
        rows = DenseFixedAxis("I", csr.rows)
        axis = SparseVariableAxis("J", rows, csr.cols, csr.nnz, csr.indptr, csr.indices)
        x, by_row = FlatBuffer("x", csr.nnz), FlatBuffer("by_row", csr.nnz)
        y, by_pos = FlatBuffer("y", csr.rows * csr.cols), FlatBuffer("by_pos", csr.rows * csr.cols)
        p, i, c = Var("p"), Var("i"), Var("c")
        row = Call(ROW_UPPER_BOUND, [StringImm("J"), p])
        pos = Call(BINARY_SEARCH, [StringImm("J"), i, c])
        body = SeqStmt(
            [
                ForLoop(p, 0, csr.nnz, BufferStore(by_row, [p], x[p] * row * x[p] + x[p])),
                ForLoop(
                    i, 0, csr.rows,
                    ForLoop(c, 0, csr.cols, BufferStore(by_pos, [i * csr.cols + c], y[i * csr.cols + c] * pos * 0.3 + 1.0)),
                ),
            ]
        )
        func = PrimFunc(
            "searches", axes=[rows, axis], buffers=[], body=body, stage=STAGE_LOOP,
            flat_buffers=[x, by_row, y, by_pos],
        )
        rng = np.random.default_rng(11)
        got = assert_native_equals_interpreter(
            func,
            {
                "x": rng.standard_normal(csr.nnz).astype(np.float32),
                "y": rng.standard_normal(csr.rows * csr.cols).astype(np.float32),
            },
        )
        # An absent coordinate is a structural zero: its store is dropped.
        assert np.array_equal(got["by_pos"].reshape(csr.rows, csr.cols) != 0, csr.to_dense() != 0)

    @settings(max_examples=20, deadline=None)
    @given(
        rows=st.integers(2, 12),
        cols=st.integers(2, 12),
        feat=st.integers(2, 6),
        density=st.floats(0.0, 0.7),
        seed=st.integers(0, 2**16),
    )
    def test_one_family_compiles_once(self, compile_counter, rows, cols, feat, density, seed):
        """Shapes, widths and structures of one program family share one
        source, so the whole battery costs exactly one ``compile_so``."""
        dense = random_dense(rows, cols, density, np.float32, seed)
        feats = np.random.default_rng(seed).standard_normal((cols, feat)).astype(np.float32)
        assert_native_equals_interpreter(build_spmm_program(CSRMatrix.from_dense(dense), feat, feats))
        assert len(compile_counter) == 1


@pytest.fixture(scope="class")
def compile_counter():
    """``compile_so`` invocations since the fixture started, with the
    process-wide library memo emptied first."""
    calls = []
    real = emit_c.compile_so

    def counting(c_source, out_path):
        calls.append(out_path)
        return real(c_source, out_path)

    with emit_c._MEMO_LOCK:
        saved = dict(emit_c._LIB_MEMO)
        emit_c._LIB_MEMO.clear()
    emit_c.compile_so = counting
    yield calls
    emit_c.compile_so = real
    with emit_c._MEMO_LOCK:
        emit_c._LIB_MEMO.update(saved)


class TestFallbackConsistency:
    def test_unsupported_program_rejected_by_both_fast_tiers(self):
        """A program the hazard analysis rejects has no emitted kernel; the
        native tier runs it as the loop nest it is, and without a toolchain
        auto dispatch lands on the interpreter."""
        hazard = _hazard_program()
        with pytest.raises(UnsupportedForEmission):
            emit_numpy_source(hazard)
        kernel = build(hazard, cache=False)
        with pytest.raises(UnsupportedForEmission):
            kernel.run(engine="emitted")
        out = kernel.run()
        assert kernel.last_engine == ("native" if toolchain_available() else "interpret")
        assert np.array_equal(out["c"], np.full(4, 2.0, dtype=np.float32))

    def test_rebound_table_is_a_feed_on_native_and_a_decline_on_emitted(self):
        """An overridden ``indptr``/``indices`` buffer is a per-call operand of
        the native kernel; the emitted tier's plan is fixed to the structure it
        was made on and says ``"aux rebound"``; every tier that serves the run
        equals the interpreter on the rebound arrays."""
        csr = CSRMatrix.from_dense(random_dense(7, 6, 0.4, np.float32, 3))
        other = CSRMatrix.from_dense(np.roll(csr.to_dense(), 1, axis=0))
        feats = np.random.default_rng(4).standard_normal((6, 3)).astype(np.float32)
        kernel = build(build_spmm_program(csr, 3, feats), cache=False)
        rebound = {
            "J_indptr": other.indptr, "J_dense_indptr": other.indptr,
            "J_indices": other.indices, "A": other.data,
        }
        oracle = kernel.run(rebound, engine="interpret")["C"]
        plain = kernel.run()["C"].reshape(7, 3)
        assert np.array_equal(oracle.reshape(7, 3), np.roll(plain, 1, axis=0))
        out = kernel.run(rebound)
        if toolchain_available():
            assert kernel.last_engine == "native" and "native" not in kernel.declined
            assert "emitted" not in kernel.declined  # never asked
        else:
            assert kernel.last_engine == "interpret"
            assert kernel.declined == {"native": "no toolchain", "emitted": "aux rebound"}
        assert np.array_equal(out["C"], oracle)
        with pytest.raises(UnsupportedForEmission, match="auxiliary buffers rebound"):
            kernel.run(rebound, engine="emitted")
        assert kernel.declined["emitted"] == "aux rebound"
