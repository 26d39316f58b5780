"""Malformed index tables: a declined binding or a ``ValueError``, never a crash.

The native text loads and stores without a range test wherever the index
tables' facts prove the access in bounds (``docs/runtime.md``, "Binding
contract"): ``indptr`` non-decreasing inside ``[0, nnz]``, ``indices`` inside
``[0, n)``.  ``load_native`` checks those facts once per binding, and per call
for a table fed to one call.  This battery breaks them on purpose — a
decreasing ``indptr``, ``indptr[-1] > nnz``, a negative index, an index
``>= n`` — over CSR SpMM, SDDMM (fused and unfused) and BSR SpMM:

* a *bound* table that breaks one declines the native tier with
  ``TABLE_INVALID``, and the kernel gives the interpreter's answer on a lower
  tier;
* a *fed* table (``Session._execute(..., tables=)``) that breaks one raises
  ``ValueError`` and runs nothing.

And the facts add no per-binding text: every structure of a program family,
malformed or not, prints the family's one C text before and after its tables
are checked.

Runs in both backend CI lanes; without a toolchain the bound cases check the
lower tiers alone and a fed call reports that nothing ran.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.codegen.build import build
from repro.core.codegen.emit_c import emit_c_source, toolchain_available
from repro.core.codegen.native import TABLE_INVALID
from repro.formats.bsr import BSRMatrix
from repro.formats.csr import CSRMatrix
from repro.ops.pruned_spmm import build_pruned_spmm_bsr_program
from repro.ops.sddmm import build_sddmm_program
from repro.ops.spmm import build_spmm_program
from repro.runtime.session import Session

from test_emit_numpy import GOLDEN_DIR

SETTINGS = dict(max_examples=20, deadline=None)
NATIVE = toolchain_available()
FAULTS = ["decreasing", "past_nnz", "negative", "too_large"]
FAMILIES = ["spmm", "sddmm", "sddmm_unfused", "bsr"]
#: The committed golden each family's text must equal.
GOLDENS = {"spmm": "spmm_csr", "sddmm": "sddmm_csr_fused", "bsr": "pruned_spmm_bsr"}

structures = st.tuples(
    st.integers(2, 9), st.integers(1, 8), st.floats(0.05, 0.8), st.integers(0, 2**16)
)


def random_csr(rows, cols, fill, seed):
    """A CSR with at least one stored entry, in a row that is not the last."""
    rng = np.random.default_rng(seed)
    dense = (rng.random((rows, cols)) < fill) * rng.standard_normal((rows, cols))
    dense[0, int(rng.integers(cols))] = 1.0
    return CSRMatrix.from_dense(dense.astype(np.float32))


def random_bsr(rows, cols, fill, seed, block=2):
    rng = np.random.default_rng(seed)
    mask = rng.random((rows, cols)) < fill
    mask[0, 0] = True
    return BSRMatrix.from_dense(np.kron(mask, np.ones((block, block))).astype(np.float32), block)


def family(name, rows, cols, fill, seed, feat=3):
    """``(stage-I program, output buffer, sparse axis, structure)`` of a family."""
    rng = np.random.default_rng(seed + 1)
    if name == "bsr":
        bsr = random_bsr(rows, cols, fill, seed)
        x = rng.standard_normal((bsr.shape[1], feat)).astype(np.float32)
        return build_pruned_spmm_bsr_program(bsr, feat, x), "Y", "JB", bsr
    csr = random_csr(rows, cols, fill, seed)
    if name == "spmm":
        x = rng.standard_normal((cols, feat)).astype(np.float32)
        return build_spmm_program(csr, feat, x), "C", "J", csr
    x = rng.standard_normal((rows, feat)).astype(np.float32)
    y = rng.standard_normal((feat, cols)).astype(np.float32)
    return build_sddmm_program(csr, feat, x, y, fuse_ij=name == "sddmm"), "OUT", "J", csr


def break_tables(indptr, indices, fault, cols, where):
    """Break one fact of ``(indptr, indices)`` in place; *where* picks the spot."""
    nnz = int(indptr[-1])
    if fault == "decreasing":  # an interior entry above its successor
        row = 1 + where % (len(indptr) - 2) if len(indptr) > 2 else 0
        indptr[row] = indptr[row + 1] + 1
    elif fault == "past_nnz":
        indptr[-1] = nnz + 1 + where % 5
    elif fault == "negative":
        indices[where % nnz] = -1 - where % 3
    else:
        indices[where % nnz] = cols + where % 4


def break_bound_tables(kernel, axis, fault, where):
    """Break a fact of the lowered program's own tables — the aux buffers and
    the axis arrays the interpreter's searches read — alike."""
    aux = {buf.name: buf.data for buf in kernel.func.aux_buffers}
    axes = {a.name: a for a in kernel.func.axes}
    indptr, indices = aux[f"{axis}_indptr"], aux[f"{axis}_indices"]
    break_tables(indptr, indices, fault, axes[axis].length, where)
    aux[f"{axis}_dense_indptr"][:] = indptr
    for name in (axis, f"{axis}_dense"):
        axes[name].indptr[:] = indptr
    axes[axis].indices[:] = indices


class TestBoundTables:
    @settings(**SETTINGS)
    @given(
        shape=structures, name=st.sampled_from(FAMILIES), fault=st.sampled_from(FAULTS),
        where=st.integers(0, 2**16),
    )
    def test_a_broken_bound_table_runs_on_a_lower_tier(self, shape, name, fault, where):
        program, out, axis, _structure = family(name, *shape)
        kernel = build(program, cache=False)
        break_bound_tables(kernel, axis, fault, where)
        got = kernel.run()[out]
        assert kernel.last_engine != "native"
        if NATIVE:
            assert kernel.declined["native"].startswith(f"{TABLE_INVALID}: ")
        expected = kernel.run(engine="interpret")[out]
        assert got.dtype == expected.dtype and np.array_equal(got, expected)

    @pytest.mark.skipif(not NATIVE, reason="the native tier needs a C compiler")
    @pytest.mark.parametrize("name", FAMILIES)
    def test_an_intact_binding_runs_native(self, name):
        program, out, _axis, _structure = family(name, 6, 5, 0.4, 7)
        kernel = build(program, cache=False)
        got = kernel.run()[out]
        assert kernel.last_engine == "native" and "native" not in kernel.declined
        assert np.array_equal(got, kernel.run(engine="interpret")[out])


class TestFedTables:
    @settings(**SETTINGS)
    @given(
        shape=structures, name=st.sampled_from(["spmm", "sddmm", "bsr"]),
        fault=st.sampled_from(FAULTS), where=st.integers(0, 2**16),
    )
    def test_a_broken_fed_table_is_a_value_error(self, shape, name, fault, where):
        _program, _out, _axis, structure = family(name, *shape)
        session, rng = Session(persistent=False), np.random.default_rng(where)
        if name == "spmm":
            kind, operands = "spmm", {"features": rng.random((structure.shape[1], 3), dtype=np.float32)}
            options = dict(format="csr", num_col_parts=1, num_buckets=None, dtype=None, tuned=False)
        elif name == "sddmm":
            operands = {
                "x": rng.random((structure.shape[0], 3), dtype=np.float32),
                "y": rng.random((3, structure.shape[1]), dtype=np.float32),
            }
            kind, options = "sddmm", dict(fuse_ij=True, dtype=None, tuned=False)
        else:
            kind, operands, options = "pruned_spmm", {"x": rng.random((structure.shape[1], 3), dtype=np.float32)}, {}
        # The structure's own layout, as a call feeds it: int32 tables.
        indptr, indices = structure.indptr.astype(np.int32), structure.indices.astype(np.int32)
        cols = structure.shape[1] // (structure.block_size if name == "bsr" else 1)
        break_tables(indptr, indices, fault, cols, where)
        tables = {"indptr": indptr, "indices": indices, "values": structure.data}
        if not NATIVE:  # nothing takes a table: the call says so and runs nothing
            assert session._execute(kind, structure, dict(operands), tables=tables, **options) is None
            return
        expected = session._execute(kind, structure, dict(operands), **options)
        with pytest.raises(ValueError, match="fed table breaks the kernel's facts"):
            session._execute(kind, structure, dict(operands), tables=tables, **options)
        # The handle is intact: the next plain call is the structure's own.
        assert np.array_equal(session._execute(kind, structure, dict(operands), **options), expected)


#: A family's text is size-free from extent 2 up: lowering folds a stride of
#: 1 (``k * 1`` is ``k``), so a one-column matrix prints a text of its own.
wide_structures = st.tuples(
    st.integers(2, 9), st.integers(2, 8), st.floats(0.05, 0.8), st.integers(0, 2**16)
)


class TestOneTextPerFamily:
    @settings(**SETTINGS)
    @given(
        shape=wide_structures, name=st.sampled_from(sorted(GOLDENS)),
        fault=st.sampled_from([None, *FAULTS]), where=st.integers(0, 2**16),
    )
    def test_equal_families_print_one_text_before_and_after_the_checks(self, shape, name, fault, where):
        program, out, axis, _structure = family(name, *shape)
        kernel = build(program, cache=False)
        golden = (GOLDEN_DIR / f"{GOLDENS[name]}.c").read_text()
        before, binding = emit_c_source(kernel.func)
        golden_binding = emit_c_source(build(family(name, 4, 4, 0.5, 0)[0], cache=False).func)[1]
        assert before == golden
        # The facts name the same tables in the same roles; only the bounds vary.
        shape_of = lambda facts: [(kind, table, link) for kind, table, _bound, link in facts]  # noqa: E731
        assert shape_of(binding.facts) == shape_of(golden_binding.facts) != []
        if fault is not None:
            break_bound_tables(kernel, axis, fault, where)
        kernel.run()  # binds, and checks, the tables
        assert emit_c_source(kernel.func)[0] == golden
