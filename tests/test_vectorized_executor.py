"""Whole-array execution vs the interpreter, and the hazard analysis behind it.

Every operator/format combination the compiled tiers claim to support is
compiled through the full pipeline and executed by the emitted kernel and by
the interpreter; results must match *bit for bit* (lanes are materialised in
serial loop order and reductions accumulate unbuffered, so even float32
rounding agrees).  The remaining tests pin the read-after-write analysis of
:mod:`repro.core.codegen.hazards` — what it accepts, what it rejects and with
which message — and what a rejection means for ``Kernel.run``: ``"auto"``
runs the nest on the native tier, which needs no such analysis (on the
interpreter without a toolchain), with the serial result either way; strict
``"emitted"`` raises.

(The file keeps the name it had when a separate lane interpreter ran these
programs, so the test ids stay comparable across revisions.)
"""

import numpy as np
import pytest

from repro.core import Schedule, build, lower_sparse_iterations
from repro.formats import CSRMatrix, HybFormat
from repro.formats.bsr import BSRMatrix
from repro.ops.pruned_spmm import build_pruned_spmm_bsr_program, pruned_spmm_reference
from repro.ops.sddmm import build_sddmm_program, sddmm_reference
from repro.ops.spmm import build_spmm_hyb_program, build_spmm_program, spmm_reference
from repro.core.codegen import UnsupportedForEmission, emit_numpy_source
from repro.core.codegen.emit_c import toolchain_available
from repro.core.codegen.hazards import analyze_hazards
from repro.runtime import Executor, Session


def _both_engines(func):
    kernel = build(func, cache=False)
    interpreted = kernel.run(engine="interpret")
    emitted = kernel.run(engine="emitted")
    assert kernel.last_engine == "emitted"
    return interpreted, emitted


def _assert_identical(interpreted, emitted):
    # The emitted plan bakes the auxiliary arrays in and does not return them.
    assert emitted.keys() <= interpreted.keys()
    for name in emitted:
        assert np.array_equal(interpreted[name], emitted[name]), name


#: The tier "auto" reaches for a nest the hazard analysis rejects: the native
#: walker runs it in the interpreter's own order, hazards and all.
SERIAL_TIER = "native" if toolchain_available() else "interpret"


def _assert_rejected(func, message):
    """The analysis and the NumPy emitter reject *func*; "auto" runs it
    serially (``SERIAL_TIER``) and strict ``"emitted"`` raises."""
    with pytest.raises(UnsupportedForEmission, match=message):
        analyze_hazards(func)
    with pytest.raises(UnsupportedForEmission, match=message):
        emit_numpy_source(func)
    kernel = build(func, cache=False)
    with pytest.raises(UnsupportedForEmission):
        kernel.run(engine="emitted")
    return kernel


@pytest.fixture
def matrices(rng):
    dense = (rng.random((23, 17)) < 0.3).astype(np.float32) * rng.standard_normal(
        (23, 17)
    ).astype(np.float32)
    dense[4] = 0.0  # empty row
    dense[9, :15] = rng.standard_normal(15)  # heavy row
    return CSRMatrix.from_dense(dense)


class TestSpMMEquivalence:
    @pytest.mark.parametrize("feat_size", [1, 3, 8])
    def test_csr(self, matrices, rng, feat_size):
        x = rng.standard_normal((matrices.cols, feat_size)).astype(np.float32)
        interp, vec = _both_engines(build_spmm_program(matrices, feat_size, x))
        _assert_identical(interp, vec)
        assert np.allclose(
            vec["C"].reshape(matrices.rows, feat_size),
            spmm_reference(matrices, x),
            atol=1e-4,
        )

    @pytest.mark.parametrize("num_col_parts,num_buckets", [(1, None), (2, 3), (4, 1)])
    def test_hyb(self, matrices, rng, num_col_parts, num_buckets):
        """ELL buckets exercise padded (-1) slots, row_map gather-scatter."""
        x = rng.standard_normal((matrices.cols, 4)).astype(np.float32)
        hyb = HybFormat.from_csr(
            matrices, num_col_parts=num_col_parts, num_buckets=num_buckets
        )
        interp, vec = _both_engines(build_spmm_hyb_program(hyb, 4, x))
        _assert_identical(interp, vec)
        assert np.allclose(
            vec["C"].reshape(matrices.rows, 4), spmm_reference(matrices, x), atol=1e-4
        )

    def test_scheduled_program(self, matrices, rng):
        """Stage-II loop transformations stay inside the supported fragment."""
        x = rng.standard_normal((matrices.cols, 8)).astype(np.float32)
        stage2 = lower_sparse_iterations(build_spmm_program(matrices, 8, x))
        schedule = Schedule(stage2)
        loops = schedule.get_loops("spmm_compute")
        schedule.bind(loops[0], "blockIdx.x")
        schedule.bind(loops[-1], "threadIdx.x")
        interp, vec = _both_engines(schedule.func)
        _assert_identical(interp, vec)


class TestSDDMMEquivalence:
    @pytest.mark.parametrize("fuse_ij", [True, False])
    def test_sddmm(self, matrices, rng, fuse_ij):
        x = rng.standard_normal((matrices.rows, 5)).astype(np.float32)
        y = rng.standard_normal((5, matrices.cols)).astype(np.float32)
        interp, vec = _both_engines(
            build_sddmm_program(matrices, 5, x, y, fuse_ij=fuse_ij)
        )
        _assert_identical(interp, vec)
        assert np.allclose(vec["OUT"], sddmm_reference(matrices, x, y), atol=1e-4)


class TestPrunedSpMMEquivalence:
    @pytest.mark.parametrize("block_size", [2, 4])
    def test_bsr(self, rng, block_size):
        dense = (rng.random((16, 24)) < 0.25).astype(np.float32) * rng.standard_normal(
            (16, 24)
        ).astype(np.float32)
        dense[4:8] = 0.0  # an empty block row
        bsr = BSRMatrix.from_dense(dense, block_size)
        x = rng.standard_normal((bsr.shape[1], 6)).astype(np.float32)
        interp, vec = _both_engines(
            build_pruned_spmm_bsr_program(bsr, 6, x)
        )
        _assert_identical(interp, vec)
        assert np.allclose(
            vec["Y"].reshape(bsr.shape[0], 6), pruned_spmm_reference(bsr, x), atol=1e-4
        )


class TestBatchedEquivalence:
    """Batched (multi-head) programs: the head axis is one more lane dim."""

    @pytest.fixture
    def mask(self):
        from repro.workloads.attention import band_mask

        return band_mask(seq_len=40, band_size=10, block_size=5)

    @pytest.mark.parametrize("heads", [1, 4])
    def test_batched_spmm(self, mask, rng, heads):
        from repro.ops.batched import build_batched_spmm_program

        feats = rng.standard_normal((heads, mask.cols, 3)).astype(np.float32)
        interp, vec = _both_engines(build_batched_spmm_program(mask, heads, 3, feats))
        _assert_identical(interp, vec)

    def test_batched_sddmm_with_scaling(self, mask, rng):
        """The post-scaling nest is a ``B[e] = B[e] * r`` self-update, batched
        through ``np.multiply.at`` — still bit-exact with the interpreter."""
        from repro.ops.batched import build_batched_sddmm_program

        q = rng.standard_normal((2, mask.rows, 4)).astype(np.float32)
        k = rng.standard_normal((2, 4, mask.cols)).astype(np.float32)
        func = build_batched_sddmm_program(mask, 2, 4, q, k, scale=0.125)
        interp, vec = _both_engines(func)
        _assert_identical(interp, vec)
        unscaled = build(
            build_batched_sddmm_program(mask, 2, 4, q, k), cache=False
        ).run(engine="emitted")
        assert np.array_equal(vec["OUT"], unscaled["OUT"] * np.float32(0.125))

    def test_multiply_self_update_is_batched(self):
        """A pointwise in-place rescale alone is a ``multiply.at`` self-update
        and runs on a compiled tier."""
        from repro.core.buffers import FlatBuffer
        from repro.core.expr import Var
        from repro.core.program import STAGE_LOOP, PrimFunc
        from repro.core.stmt import BufferStore, ForLoop

        b = FlatBuffer("b", 6)
        i = Var("i")
        body = ForLoop(i, 0, 6, BufferStore(b, [i], b[i] * 0.5))
        func = PrimFunc("rescale", axes=[], buffers=[], body=body,
                        stage=STAGE_LOOP, flat_buffers=[b])
        (form,) = analyze_hazards(func).values()
        assert form[0] == "mul" and form[1].value == 0.5
        kernel = build(func, cache=False)
        out = kernel.run({"b": np.arange(6, dtype=np.float32)})
        assert kernel.last_engine in ("native", "emitted")
        assert np.array_equal(out["b"], np.arange(6, dtype=np.float32) * 0.5)
        out = kernel.run({"b": np.arange(6, dtype=np.float32)}, engine="emitted")
        assert kernel.last_engine == "emitted"
        assert np.array_equal(out["b"], np.arange(6, dtype=np.float32) * 0.5)

    def test_multiply_at_other_index_still_rejected(self):
        """``B[i+1] = B[i+1] * B[i]`` is a scan, not a pointwise rescale."""
        from repro.core.buffers import FlatBuffer
        from repro.core.expr import Var
        from repro.core.program import STAGE_LOOP, PrimFunc
        from repro.core.stmt import BufferStore, ForLoop

        b = FlatBuffer("b", 5)
        i = Var("i")
        body = ForLoop(i, 0, 4, BufferStore(b, [i + 1], b[i + 1] * b[i]))
        func = PrimFunc("prod_scan", axes=[], buffers=[], body=body,
                        stage=STAGE_LOOP, flat_buffers=[b])
        kernel = _assert_rejected(func, "store residual reads buffers written")
        out = kernel.run({"b": np.full(5, 2.0, dtype=np.float32)})
        assert kernel.last_engine == SERIAL_TIER
        assert np.array_equal(out["b"], [2.0, 4.0, 8.0, 16.0, 32.0])


class TestEngineSemantics:
    def test_stale_output_and_empty_rows(self, matrices, rng):
        """Reduction init only touches rows with a non-empty domain — both engines."""
        x = rng.standard_normal((matrices.cols, 3)).astype(np.float32)
        kernel = build(build_spmm_program(matrices, 3, x), cache=False)
        stale = np.full(matrices.rows * 3, 123.0, dtype=np.float32)
        interp = kernel.run({"C": stale.copy()}, engine="interpret")
        vec = kernel.run({"C": stale.copy()}, engine="emitted")
        assert np.array_equal(interp["C"], vec["C"])
        lengths = matrices.row_lengths()
        empty = np.repeat(lengths == 0, 3)
        assert np.all(vec["C"][empty] == 123.0)

    def test_bindings_override(self, matrices, rng):
        x = rng.standard_normal((matrices.cols, 3)).astype(np.float32)
        other = rng.standard_normal((matrices.cols, 3)).astype(np.float32)
        kernel = build(build_spmm_program(matrices, 3, x), cache=False)
        out = kernel.run({"B": other.reshape(-1)})
        assert np.allclose(
            out["C"].reshape(matrices.rows, 3), spmm_reference(matrices, other), atol=1e-4
        )

    def test_unsupported_statement_falls_back(self, matrices, rng):
        """A store whose value reads another buffer written in the same nest
        is outside the lane fragment: strict ``"emitted"`` raises, "auto" runs
        it serially and still produces the right answer."""
        from repro.core.buffers import FlatBuffer
        from repro.core.expr import Var
        from repro.core.program import STAGE_LOOP, PrimFunc
        from repro.core.stmt import BufferStore, ForLoop, SeqStmt

        a = FlatBuffer("a", 4)
        b = FlatBuffer("b", 4)
        i = Var("i")
        body = ForLoop(
            i, 0, 4, SeqStmt([BufferStore(a, [i], 1.0), BufferStore(b, [i], a[i] + 1.0)])
        )
        func = PrimFunc("chained", axes=[], buffers=[], body=body,
                        stage=STAGE_LOOP, flat_buffers=[a, b])
        kernel = _assert_rejected(func, "store value reads buffers written")
        out = kernel.run(engine="auto")
        assert kernel.last_engine == SERIAL_TIER
        assert np.allclose(out["b"], 2.0)
        assert np.array_equal(out["b"], Executor(func).run()["b"])

    def test_vectorized_stays_strict_after_auto_fallback(self, matrices, rng):
        """Once "auto" has skipped the emitted tier, demanding it must still
        raise instead of silently running something else."""
        from repro.core.buffers import FlatBuffer
        from repro.core.expr import Var
        from repro.core.program import STAGE_LOOP, PrimFunc
        from repro.core.stmt import BufferStore, ForLoop, SeqStmt

        a = FlatBuffer("a", 4)
        b = FlatBuffer("b", 4)
        i = Var("i")
        body = ForLoop(
            i, 0, 4, SeqStmt([BufferStore(a, [i], 1.0), BufferStore(b, [i], a[i] + 1.0)])
        )
        func = PrimFunc("chained", axes=[], buffers=[], body=body,
                        stage=STAGE_LOOP, flat_buffers=[a, b])
        kernel = build(func, cache=False)
        kernel.run(engine="auto")
        assert kernel.last_engine == SERIAL_TIER
        unavailable = ("emitted",) if toolchain_available() else ("native", "emitted")
        for engine in unavailable:
            with pytest.raises(UnsupportedForEmission):
                kernel.run(engine=engine)

    def test_residual_reading_own_target_at_other_index_rejected(self):
        """``B[i+1] = B[i+1] + B[i]`` is a loop-carried dependency, not a
        reduction: the analysis must refuse it (and "auto" must produce the
        interpreter's serial result)."""
        from repro.core.buffers import FlatBuffer
        from repro.core.expr import Var
        from repro.core.program import STAGE_LOOP, PrimFunc
        from repro.core.stmt import BufferStore, ForLoop

        b = FlatBuffer("b", 5)
        i = Var("i")
        body = ForLoop(i, 0, 4, BufferStore(b, [i + 1], b[i + 1] + b[i]))
        func = PrimFunc("scan", axes=[], buffers=[], body=body,
                        stage=STAGE_LOOP, flat_buffers=[b])
        kernel = _assert_rejected(func, "store residual reads buffers written")
        out = kernel.run({"b": np.ones(5, dtype=np.float32)})
        assert kernel.last_engine == SERIAL_TIER
        assert np.array_equal(out["b"], [1.0, 2.0, 3.0, 4.0, 5.0])

    def test_loop_bound_reading_written_buffer_rejected(self):
        from repro.core.buffers import FlatBuffer
        from repro.core.expr import Var
        from repro.core.program import STAGE_LOOP, PrimFunc
        from repro.core.stmt import BufferStore, ForLoop

        n = FlatBuffer("n", 1, dtype="int32")
        i = Var("i")
        body = ForLoop(i, 0, n[0], BufferStore(n, [0], 0))
        func = PrimFunc("self_bound", axes=[], buffers=[], body=body,
                        stage=STAGE_LOOP, flat_buffers=[n])
        kernel = _assert_rejected(func, "loop bounds, conditions or indices read buffers")
        out = kernel.run({"n": np.array([3], dtype=np.int32)})
        assert kernel.last_engine == SERIAL_TIER
        assert np.array_equal(out["n"], [0])

    def test_fast_path_is_used_by_default(self, matrices, rng):
        x = rng.standard_normal((matrices.cols, 2)).astype(np.float32)
        kernel = build(build_spmm_program(matrices, 2, x), cache=False)
        kernel.run()
        # Auto dispatch prefers a compiled tier, never the interpreter.
        assert kernel.last_engine in ("native", "emitted")

    def test_removed_engine_value_is_rejected(self, matrices, rng):
        x = rng.standard_normal((matrices.cols, 2)).astype(np.float32)
        kernel = build(build_spmm_program(matrices, 2, x), cache=False)
        removed = "vectorized"
        with pytest.raises(ValueError, match=f"unknown engine '{removed}'"):
            kernel.run(engine=removed)
        with pytest.raises(ValueError, match=f"unknown engine '{removed}'"):
            Session(engine=removed)

    def test_declined_names_the_reason_a_tier_was_skipped(self, matrices, rng):
        """The kernel says which check made a tier decline: the hazard
        analysis only ever declines the emitted tier."""
        from repro.core.buffers import FlatBuffer
        from repro.core.expr import Var
        from repro.core.program import STAGE_LOOP, PrimFunc
        from repro.core.stmt import BufferStore, ForLoop

        b = FlatBuffer("b", 5)
        i = Var("i")
        body = ForLoop(i, 0, 4, BufferStore(b, [i + 1], b[i + 1] + b[i]))
        hazard = build(
            PrimFunc("scan", axes=[], buffers=[], body=body, stage=STAGE_LOOP, flat_buffers=[b]),
            cache=False,
        )
        assert hazard.declined == {}  # nothing asked for yet
        hazard.run()
        # Under "auto" the emitted tier is asked only once native declined.
        assert hazard.emitted_source() is None
        reason = (
            "UnsupportedForEmission: store residual reads buffers written in "
            "the same nest: ['b']"
        )
        no_cc = {} if toolchain_available() else {"native": "no toolchain"}
        assert hazard.declined == {"emitted": reason, **no_cc}
        assert hazard.last_engine == SERIAL_TIER

        x = rng.standard_normal((matrices.cols, 2)).astype(np.float32)
        kernel = build(build_spmm_program(matrices, 2, x), cache=False)
        kernel.run()
        assert kernel.declined == no_cc
