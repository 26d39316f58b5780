"""The ``zero`` entry: the passes that only clear, printed out of ``run``.

A stage-III kernel writes an output's init once and then accumulates.  The C
text prints every top-level pass that stores nothing but ``+0`` into buffers
no earlier pass reads or writes as its own entry, ``int zero(bufs, tabs,
ipar, fpar)``, and ``binding.zero`` names the buffers it fills.  The unbound
runner calls ``zero`` and then ``run``; a bound call whose buffers arrive
zeroed calls ``run`` alone (``docs/runtime.md``, "Binding contract").

These tests pin what moves and what stays, that the unbound path still
clears exactly what the interpreter clears (an empty row keeps what the
caller bound), and that a bound call makes no ``zero`` call and still equals
the interpreter.  The native runs store between guard zones
(``test_backend_differential.run_native_guarded``).
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.buffers import FlatBuffer
from repro.core.codegen.build import build
from repro.core.codegen.emit_c import UnsupportedForC, emit_c_source, toolchain_available
from repro.core.expr import FloatImm, Max, Var
from repro.core.stmt import Block, BufferStore, ForLoop, SeqStmt
from repro.formats.bsr import BSRMatrix
from repro.formats.csr import CSRMatrix
from repro.formats.hyb import HybFormat
from repro.ops.batched import build_batched_sddmm_program, build_batched_spmm_program
from repro.ops.elementwise import build_add_program, build_gemm_program, build_relu_program
from repro.ops.pruned_spmm import build_pruned_spmm_bsr_program
from repro.ops.sddmm import build_sddmm_program
from repro.ops.spmm import build_spmm_hyb_program, build_spmm_program
from repro.runtime.session import Session

from test_backend_differential import (
    SENTINEL, _loop_program, assert_guarded_runs_equal, assert_native_equals_interpreter, lowered,
    random_dense, run_native_guarded,
)
from test_emit_c import GOLDEN_DIR, GOLDENS, golden_lowered

needs_cc = pytest.mark.skipif(not toolchain_available(), reason="no C compiler available")


def entries(source):
    """``(zero's body or None, run's body)`` of a C text."""
    head, run = source.split("int run(")
    zero = head.split("int zero(")[1] if "int zero(" in head else None
    return zero, run


def bits(array):
    return array.view(np.uint32 if array.itemsize == 4 else np.uint64)


def fill_program(value, before=None):
    """``C[i] = value`` over 6 elements, behind a nest *before* that reads
    (``"reader"``) or writes (``"writer"``) ``C``."""
    i, j = Var("i"), Var("j")
    c, x, out = FlatBuffer("C", 6), FlatBuffer("x", 6), FlatBuffer("out", 6)
    nests = [ForLoop(i, 0, 6, BufferStore(c, [i], value))]
    if before == "reader":
        nests.insert(0, ForLoop(j, 0, 6, BufferStore(out, [j], c[j] * 2.0)))
    elif before == "writer":
        nests.insert(0, ForLoop(j, 0, 6, BufferStore(c, [j], x[j] + 1.0)))
    return _loop_program(f"fill_{before}", SeqStmt(nests), c, x, out)


def max_program(init):
    """A row-wise max reduction whose init stores *init*."""
    i, k = Var("i"), Var("k")
    x, c = FlatBuffer("x", 12), FlatBuffer("C", 3)
    update = BufferStore(c, [i], Max(c[i], x[i * 4 + k]))
    block = Block("max", update, init=BufferStore(c, [i], FloatImm(init)))
    nest = ForLoop(i, 0, 3, ForLoop(k, 0, 4, block))
    return _loop_program("row_max", nest, x, c)


class TestWhatTheEmitterMoves:
    def test_goldens_name_their_outputs(self):
        zeros = {name: emit_c_source(golden_lowered(name))[1].zero for name in GOLDENS}
        assert zeros == {
            "spmm_csr": ("C",), "sddmm_csr_fused": ("OUT",), "pruned_spmm_bsr": ("Y",),
            "gemm": ("C",), "rgcn_fused": (), "spmm_hyb": ("C",),
        }
        for name, zero in zeros.items():
            assert ("int zero(" in (GOLDEN_DIR / f"{name}.c").read_text()) == bool(zero)

    def test_a_plus_zero_fill_moves(self):
        source, binding = emit_c_source(fill_program(0.0))
        zero, run = entries(source)
        assert binding.zero == ("C",) and zero.count("_k0(") == 1 and "_k" not in run

    def test_a_minus_zero_fill_stays(self):
        """``-0.0`` has a set sign bit: a zeroed buffer does not hold it."""
        source, binding = emit_c_source(fill_program(-0.0))
        assert binding.zero == () and "int zero(" not in source
        if toolchain_available():
            func = fill_program(-0.0)
            stale = {"C": np.full(6, np.nan, dtype=np.float32)}
            assert_native_equals_interpreter(func, stale)
            got = run_native_guarded(build(func, cache=False), bound=True)["C"]
            assert np.signbit(got).all() and not got.any()

    @pytest.mark.parametrize("before", ["reader", "writer"])
    def test_a_fill_behind_a_nest_that_touches_its_buffer_stays(self, before):
        source, binding = emit_c_source(fill_program(0.0, before))
        assert binding.zero == () and "int zero(" not in source
        if toolchain_available():
            held = np.arange(1, 7, dtype=np.float32)
            func = fill_program(0.0, before)
            assert_native_equals_interpreter(func, {"C": held, "x": held})

    def test_a_nonzero_init_stays(self):
        """A max reduction's init is the lowest value: ``-inf`` has no C form
        (the emitter declines the program), the lowest finite float stays in
        ``run``."""
        with pytest.raises(UnsupportedForC, match="non-finite"):
            emit_c_source(max_program(-np.inf))
        func = max_program(float(np.finfo(np.float32).min))
        source, binding = emit_c_source(func)
        assert binding.zero == () and "int zero(" not in source
        if toolchain_available():
            x = np.random.default_rng(0).standard_normal(12).astype(np.float32)
            assert_native_equals_interpreter(func, {"x": x})

    def test_region_members_and_local_fills_stay(self):
        """The fused RGCN text zeroes tiles and ``local`` scratch, all of it
        inside regions or their fallbacks: nothing moves."""
        text = (GOLDEN_DIR / "rgcn_fused.c").read_text()
        assert "= 0.0f;" in text and "static int _r" in text and "int zero(" not in text

    @settings(max_examples=30, deadline=None)
    @given(
        op=st.sampled_from([
            "spmm", "hyb", "sddmm", "sddmm_fused", "bsr", "batched_spmm", "batched_sddmm",
            "gemm", "add", "relu",
        ]),
        rows=st.integers(1, 8), cols=st.integers(1, 8), feat=st.integers(1, 9),
        density=st.floats(0.0, 0.8), dtype=st.sampled_from([np.float32, np.float64]),
        seed=st.integers(0, 2**16),
    )
    def test_zero_names_only_plus_zero_fills(self, op, rows, cols, feat, density, dtype, seed):
        """Over the battery's programs: every store of a function ``zero``
        calls writes a ``+0`` literal, and ``binding.zero`` names operands of
        the call, never ``local`` scratch.  With a toolchain, ``zero`` alone
        on buffers full of a sentinel leaves every buffer it does not name as
        it was, and each element of one it names as it was or ``+0``."""
        func = battery_program(op, rows, cols, feat, density, dtype, seed)
        source, binding = emit_c_source(lowered(func))
        zero, _run = entries(source)
        assert (zero is None) == (binding.zero == ())
        assert set(binding.zero) <= set(binding.bufs)
        assert len(set(binding.zero)) == len(binding.zero)
        for name in re.findall(r"(_k\d+)\(", zero or ""):
            body = source.split(f"static void {name}(", 1)[1].split("\n}\n", 1)[0]
            for value in re.findall(r"\] = ([^;]+);", body):
                assert value in ("0.0f", "0.0", "0", "((float)(0))", "((double)(0))"), (name, value)
        if toolchain_available():
            assert_zero_entry_clears_only(build(func, cache=False))


def battery_program(op, rows, cols, feat, density, dtype, seed):
    """A program of the differential battery's operators; hyb, BSR and the
    batched ones in float32 (what they support), the others in *dtype*."""
    rng = np.random.default_rng(seed)
    name = np.dtype(dtype).name
    normal = lambda *shape, dtype=dtype: rng.standard_normal(shape).astype(dtype)  # noqa: E731
    csr = CSRMatrix.from_dense(random_dense(rows, cols, density, dtype, seed))
    f32 = CSRMatrix.from_dense(random_dense(rows, cols, density, np.float32, seed))
    if op == "spmm":
        return build_spmm_program(csr, feat, normal(cols, feat), dtype=name)
    if op == "hyb":
        hyb = HybFormat.from_csr(f32, num_col_parts=2, num_buckets=2)
        return build_spmm_hyb_program(hyb, feat, normal(cols, feat, dtype=np.float32))
    if op.startswith("sddmm"):
        x, y = normal(rows, feat), normal(feat, cols)
        return build_sddmm_program(csr, feat, x, y, fuse_ij=op == "sddmm_fused", dtype=name)
    if op == "bsr":
        dense = random_dense(rows * 2, cols * 2, max(density, 0.1), np.float32, seed)
        bsr = BSRMatrix.from_dense(dense, 2)
        return build_pruned_spmm_bsr_program(bsr, feat, normal(cols * 2, feat, dtype=np.float32))
    if op == "batched_spmm":
        return build_batched_spmm_program(f32, 2, feat, normal(2, cols, feat, dtype=np.float32))
    if op == "batched_sddmm":
        q, k = normal(2, rows, feat, dtype=np.float32), normal(2, feat, cols, dtype=np.float32)
        return build_batched_sddmm_program(f32, 2, feat, q, k)
    a = normal(rows, cols)
    if op == "gemm":
        return build_gemm_program(rows, cols, feat, a, normal(cols, feat), dtype=name)
    if op == "add":
        return build_add_program(rows, cols, a, normal(rows, cols), dtype=name)
    return build_relu_program(rows, cols, a, dtype=name)


def assert_zero_entry_clears_only(kernel):
    """Call the ``zero`` entry alone on every value buffer filled with the
    guard sentinel: what ``binding.zero`` does not name keeps its bits, what
    it names holds the sentinel or ``+0`` in each element."""
    from repro.runtime.executor import prepare_arrays

    runner = kernel._runner("native")
    if runner._lib.zero is None:
        assert runner.binding.zero == ()
        return
    aux = {buf.name for buf in kernel.func.aux_buffers}
    arrays = prepare_arrays(kernel.func, kernel.defaults, skip=aux)
    bufs = []
    for name in runner.binding.bufs:
        array = arrays[name]
        bits(array)[...] = SENTINEL[array.itemsize]
        bufs.append(array)
    block, _starts = runner._ffi.pointers(bufs, len(runner._local))
    assert runner._lib.zero(block, runner._tabs[1], *runner._scalars) == 0
    for name, array in zip(runner.binding.bufs, bufs):
        kept = bits(array) == SENTINEL[array.itemsize]
        if name in runner.binding.zero:
            assert (kept | (bits(array) == 0)).all(), name
        else:
            assert kept.all(), name


def count_zero_calls(runner):
    """Wrap the runner's ``zero`` entry; the list its calls append to."""
    calls, zero = [], runner._lib.zero
    runner._lib = runner._lib._replace(zero=lambda *args: calls.append(args) or zero(*args))
    return calls


def session_cases():
    rng = np.random.default_rng(3)
    dense = random_dense(12, 10, 0.3, np.float32, 3)
    dense[4] = 0.0  # an empty row
    csr = CSRMatrix.from_dense(dense)
    x = rng.standard_normal((10, 9)).astype(np.float32)
    a, w = (rng.standard_normal(shape).astype(np.float32) for shape in ((12, 5), (5, 9)))
    q, k = (rng.standard_normal(shape).astype(np.float32) for shape in ((12, 4), (4, 10)))
    bsr = BSRMatrix.from_dense(random_dense(8, 8, 0.5, np.float32, 4), 2)
    return {
        "spmm": lambda s: s.spmm(csr, x),
        "hyb": lambda s: s.spmm(csr, x, format="hyb", num_col_parts=2),
        "sddmm": lambda s: s.sddmm(csr, q, k),
        "gemm": lambda s: s.gemm(a, w),
        "bsr": lambda s: s.pruned_spmm(bsr, x[:8]),
    }


@needs_cc
class TestUnboundRunner:
    def test_an_empty_row_keeps_what_the_caller_bound(self):
        """``Kernel.run(bindings, engine="native")`` calls ``zero`` then
        ``run``: the init clears the rows that have entries, as the
        interpreter's does, and an empty row keeps its NaN."""
        dense = random_dense(5, 4, 0.6, np.float32, 1)
        dense[2] = 0.0
        csr = CSRMatrix.from_dense(dense)
        x = np.random.default_rng(1).standard_normal((4, 3)).astype(np.float32)
        func = build_spmm_program(csr, 3, x)
        stale = {"C": np.full(15, np.nan, dtype=np.float32)}
        kernel = build(func, cache=False)
        calls = count_zero_calls(kernel._runner("native"))
        got = kernel.run(stale, engine="native")["C"]
        expected = kernel.run(stale, engine="interpret")
        assert kernel._runner("native").binding.zero == ("C",) and len(calls) == 1
        assert np.array_equal(bits(got), bits(expected["C"]))
        rows = got.reshape(5, 3)
        assert np.isnan(rows[2]).all() and not np.isnan(np.delete(rows, 2, axis=0)).any()
        assert_guarded_runs_equal(kernel, expected, stale)


@needs_cc
class TestBoundCall:
    @pytest.mark.parametrize("op", sorted(session_cases()))
    def test_a_bound_call_makes_no_zero_call(self, op):
        call = session_cases()[op]
        oracle = call(Session(engine="interpret", persistent=False))
        session = Session(persistent=False)
        call(session)  # binds
        (handle,) = session._handles.values()
        bound = handle.bound
        runner = bound.kernel._runner("native")
        assert bound.tier == "native" and runner.binding.zero
        calls = count_zero_calls(runner)
        warm = call(session)
        assert calls == [] and session.stats.handle_hits == 1
        assert np.array_equal(bits(warm), bits(oracle))
        # Written zeros for what zero() would fill, and the wrapper is live.
        assert bound._written == set(runner.binding.zero)
        bound.kernel.run(engine="native")
        assert len(calls) == 1

    @pytest.mark.parametrize("zeroed", [True, False])
    def test_a_buffer_not_allocated_zeroed_is_cleared(self, zeroed):
        """``bind(shared, allocated, zeroed)`` skips ``zero`` only when every
        buffer it fills arrives zeroed: a bound call over NaN clears it."""
        dense = random_dense(6, 5, 0.5, np.float32, 2)
        dense[0] = 0.0
        x = np.ones((5, 4), dtype=np.float32)
        func = build_spmm_program(CSRMatrix.from_dense(dense), 4, x)
        kernel = build(func, cache=False)
        calls = count_zero_calls(kernel._runner("native"))
        start = np.zeros(24, dtype=np.float32) if zeroed else np.full(24, np.nan, dtype=np.float32)
        got = run_native_guarded(kernel, {"C": start}, bound=True)["C"]
        expected = kernel.run({"C": start}, engine="interpret")["C"]
        assert len(calls) == (0 if zeroed else 1)
        assert np.array_equal(bits(got), bits(expected))
