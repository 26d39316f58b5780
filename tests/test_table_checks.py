"""Malformed index tables: a declined binding or a ``ValueError``, never a crash.

The native text loads and stores without a range test wherever the index
tables' facts prove the access in bounds (``docs/runtime.md``, "Binding
contract"): ``indptr`` non-decreasing inside ``[0, nnz]``, ``indices`` inside
``[0, n)``.  ``load_native`` checks those facts once per binding, and per call
for a table fed to one call.  This battery breaks them on purpose — a
decreasing ``indptr``, ``indptr[-1] > nnz``, a negative index, an index
``>= n`` — over CSR SpMM, SDDMM (fused and unfused) and BSR SpMM, and a hyb
bucket's tables: a column below the ``-1`` of padding or ``>= n``, a
``rowmap`` entry outside ``[0, rows)``:

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
from repro.core.codegen.cache import DiskKernelCache, KernelCache
from repro.core.codegen.emit_c import emit_c_source, toolchain_available
from repro.core.codegen import native
from repro.core.codegen.native import TABLE_INVALID
from repro.formats.bsr import BSRMatrix
from repro.formats.csr import CSRMatrix
from repro.formats.hyb import HybFormat
from repro.ops.pruned_spmm import build_pruned_spmm_bsr_program
from repro.ops.sddmm import build_sddmm_program
from repro.ops.spmm import build_spmm_hyb_program, build_spmm_program
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


#: The facts of a hyb binding: a bucket's column table lies in [-1, cols),
#: -1 marking a padded slot the program skips; its rowmap in [0, rows).
HYB_FAULTS = ["below_padding", "column_too_large", "row_negative", "row_too_large"]


def hyb_family(rows, cols, fill, seed, feat=3, parts=2, buckets=3):
    """``(stage-I hyb SpMM program, hyb)`` over a random CSR."""
    hyb = HybFormat.from_csr(random_csr(rows, cols, fill, seed), num_col_parts=parts, num_buckets=buckets)
    x = np.random.default_rng(seed + 1).standard_normal((cols, feat)).astype(np.float32)
    return build_spmm_hyb_program(hyb, feat, x), hyb


def break_hyb_tables(kernel, fault, where):
    """Break one fact of a bucket's tables in the lowered program, in place."""
    aux = {buf.name: buf.data for buf in kernel.func.aux_buffers}
    rows, cols = kernel.func.axis("I").length, kernel.func.axis("J_").length
    prefix = "rowmap_" if fault.startswith("row_") else "J_"
    names = sorted(name for name in aux if name.startswith(prefix) and aux[name].size)
    table = aux[names[where % len(names)]]
    table[where % table.size] = {
        "below_padding": -2 - where % 3, "column_too_large": cols + where % 4,
        "row_negative": -1 - where % 3, "row_too_large": rows + where % 4,
    }[fault]


class TestHybTables:
    @settings(**SETTINGS)
    @given(shape=structures, fault=st.sampled_from(HYB_FAULTS), where=st.integers(0, 2**16))
    def test_a_broken_bucket_table_runs_on_a_lower_tier(self, shape, fault, where):
        kernel = build(hyb_family(*shape)[0], cache=False)
        break_hyb_tables(kernel, fault, where)
        got = kernel.run()["C"]
        assert kernel.last_engine != "native"
        if NATIVE:
            assert kernel.declined["native"].startswith(f"{TABLE_INVALID}: ")
        expected = kernel.run(engine="interpret")["C"]
        assert got.dtype == expected.dtype and np.array_equal(got, expected)

    def test_bucket_nests_print_unchecked(self):
        """Every bucket nest is CSR's: one SIMD feature loop under the
        padded-slot guard, no range test on B or C and no checked copy."""
        source, binding = emit_c_source(build(hyb_family(9, 8, 0.5, 3)[0], cache=False).func)
        nests = [text for text in source.split("static void ")[1:] if "rowmap" in text]
        assert nests and all(text.count("#pragma omp simd") == 1 for text in nests)
        assert "_IN2(" not in source and "_LD(" not in source and "} else {" not in source
        assert {kind for kind, *_rest in binding.facts} == {"padded", "indices"}

    def test_a_hyb_without_padding_prints_the_family_text(self):
        """The guard is the family's, not the structure's: rows of exactly
        2 and 4 non-zeros (no padded slot) print the golden, whose width-4
        bucket pads."""
        dense = np.zeros((3, 6), dtype=np.float32)
        dense[0, :2] = dense[1, 1:5] = dense[2, [0, 5]] = 1.5
        hyb = HybFormat(CSRMatrix.from_dense(dense), 1, [2, 4])
        assert hyb.stored == hyb.nnz
        source = emit_c_source(build(build_spmm_hyb_program(hyb, 5), cache=False).func)[0]
        assert source == (GOLDEN_DIR / "spmm_hyb.c").read_text()

    @pytest.mark.skipif(not NATIVE, reason="the native tier needs a C compiler")
    def test_the_facts_travel_in_the_json_record(self, tmp_path, monkeypatch):
        """A warm process loads the hyb kernel from the record alone, and
        still checks the bucket tables against its facts."""
        monkeypatch.setattr(native, "_LIB_MEMO", {})  # compiled into this directory, so recorded
        program, _hyb = hyb_family(9, 8, 0.5, 4)
        cold = build(program, cache=KernelCache(disk=DiskKernelCache(tmp_path)))
        cold.run()
        assert cold.last_engine == "native"
        artifact, binding = DiskKernelCache(tmp_path).get_native(cold._key)
        assert binding == emit_c_source(cold.func)[1]
        assert {kind for kind, *_rest in binding.facts} == {"padded", "indices"}
        for fault in (None, "below_padding"):
            cache = KernelCache(disk=DiskKernelCache(tmp_path))
            warm = build(hyb_family(9, 8, 0.5, 4)[0], cache=cache)
            if fault is not None:
                break_hyb_tables(warm, fault, 5)
            got = warm.run()["C"]
            assert (cache.stats.lowerings, cache.stats.native_rebuilds) == (0, 0)
            if fault is None:
                assert warm.last_engine == "native"
            else:
                assert warm.declined["native"].startswith(f"{TABLE_INVALID}: ")
                assert np.array_equal(got, warm.run(engine="interpret")["C"])
