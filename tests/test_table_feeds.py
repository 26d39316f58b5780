"""Index tables as per-call feeds, and the edit batches that rely on them.

A native kernel's C text holds no sizes and reads ``indptr``/``indices``
through pointers, so the tables are operands like the value buffers: bound
when the kernel is loaded, replaced for one call by an array fed under the
same buffer name (same dtype, length and contiguity).  An edited matrix is
built on that — its kernel is bound to the matrix's capacity and every call
feeds it the current tables — so this battery pins

* the feed itself: a kernel built on one structure and fed another's tables
  is ``np.array_equal`` to the interpreter on a fresh build of the other
  (SpMM f32/f64, SDDMM fused and unfused), tables padded below the bound
  size equal a cold rebuild, threads feeding different tables through one
  bound kernel agree with their serial results (the layout contract of a fed
  table — a malformed one is a ``ValueError``, never a fallback — is pinned
  next to the runner, in ``tests/test_emit_c.py``);
* the fallback: without a toolchain the same calls stay exact (the emitted
  tier declines a rebound table; an edited matrix gets an emitted plan made
  on its tables, once per epoch, from the footprint's lowering);
* edit-batch semantics against a dict-based reference model.

Runs in both backend CI lanes (with a C compiler and with ``CC`` pointing
nowhere).
"""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.codegen.build import build
from repro.core.codegen.emit_c import toolchain_available
from repro.formats.csr import CSRMatrix
from repro.ops.sddmm import build_sddmm_program
from repro.ops.spmm import build_spmm_program
from repro.runtime.session import Session

SETTINGS = dict(max_examples=25, deadline=None)
NATIVE = toolchain_available()
#: Where a run that rebinds an index table lands under ``"auto"``.
FED_TIER = "native" if NATIVE else "interpret"
CSR_OPTIONS = dict(format="csr", num_col_parts=1, num_buckets=None, dtype=None, tuned=False)


def random_csr(rows, cols, nnz, seed, dtype="float32"):
    """A canonical CSR with exactly *nnz* stored entries (some rows empty)."""
    rng = np.random.default_rng(seed)
    flat = np.sort(rng.choice(rows * cols, size=nnz, replace=False))
    indptr = np.zeros(rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(flat // cols, minlength=rows), out=indptr[1:])
    return CSRMatrix((rows, cols), indptr, flat % cols, rng.standard_normal(nnz), dtype=dtype)


def table_feeds(kernel, csr):
    """Bindings that hand *kernel* the structure and values of *csr*."""
    by_suffix = {"indptr": csr.indptr, "indices": csr.indices}
    feeds = {buf.name: by_suffix[buf.name.rpartition("_")[2]] for buf in kernel.func.aux_buffers}
    feeds["A"] = csr.data
    return feeds


structure_pairs = st.builds(
    lambda rows, cols, fill, seed: (rows, cols, int(fill * rows * cols), seed),
    st.integers(1, 10), st.integers(1, 10), st.floats(0.0, 0.8), st.integers(0, 2**16),
)


def assert_fed_equals_fresh_build(first, second, program, out):
    kernel = build(program(first), cache=False)
    got = kernel.run(table_feeds(kernel, second))
    assert kernel.last_engine == FED_TIER
    if NATIVE:
        assert "native" not in kernel.declined
    else:
        assert kernel.declined == {"native": "no toolchain", "emitted": "aux rebound"}
    expected = build(program(second), cache=False).run(engine="interpret")
    assert got[out].dtype == expected[out].dtype
    assert np.array_equal(got[out], expected[out])
    # The bound tables are untouched: the next plain run is the first matrix's.
    unfed = build(program(first), cache=False).run(engine="interpret")
    assert np.array_equal(kernel.run()[out], unfed[out])


class TestFedTables:
    @settings(**SETTINGS)
    @given(
        shape=structure_pairs, feat=st.integers(1, 5), dtype=st.sampled_from(["float32", "float64"])
    )
    def test_spmm_kernel_fed_another_structure(self, shape, feat, dtype):
        rows, cols, nnz, seed = shape
        first, second = (random_csr(rows, cols, nnz, seed + k, dtype) for k in (0, 1))
        x = np.random.default_rng(seed + 2).standard_normal((cols, feat)).astype(dtype)
        assert_fed_equals_fresh_build(
            first, second, lambda csr: build_spmm_program(csr, feat, x, dtype=dtype), "C"
        )

    @settings(**SETTINGS)
    @given(shape=structure_pairs, feat=st.integers(1, 5), fuse=st.booleans())
    def test_sddmm_kernel_fed_another_structure(self, shape, feat, fuse):
        rows, cols, nnz, seed = shape
        first, second = (random_csr(rows, cols, nnz, seed + k) for k in (0, 1))
        rng = np.random.default_rng(seed + 2)
        x = rng.standard_normal((rows, feat)).astype(np.float32)
        y = rng.standard_normal((feat, cols)).astype(np.float32)
        # The fused loop finds its row through a per-position table, which is
        # re-derived from the fed indptr.
        assert_fed_equals_fresh_build(
            first, second, lambda csr: build_sddmm_program(csr, feat, x, y, fuse_ij=fuse), "OUT"
        )

    @settings(**SETTINGS)
    @given(shape=structure_pairs, keep=st.floats(0.0, 1.0), feat=st.integers(1, 5))
    def test_padded_patch_equals_cold_rebuild_of_its_rows(self, shape, keep, feat):
        """Fewer entries than the bound tables hold, most rows empty."""
        rows, cols, nnz, seed = shape
        base = random_csr(rows, cols, nnz, seed)
        donor = random_csr(rows, cols, int(keep * nnz), seed + 1)
        patched = np.flatnonzero(np.random.default_rng(seed + 2).random(rows) < 0.5)
        lengths = np.zeros(rows, dtype=np.int64)
        lengths[patched] = np.diff(donor.indptr)[patched]
        chosen = np.repeat(np.isin(np.arange(rows), patched), np.diff(donor.indptr))
        indptr = np.concatenate([[0], np.cumsum(lengths)])
        indices, values = donor.indices[chosen], donor.data[chosen]
        x = np.random.default_rng(seed + 3).standard_normal((cols, feat)).astype(np.float32)
        session = Session(persistent=False)
        session.spmm(base, x)
        tables = {
            "indptr": indptr.astype(np.int32),
            "indices": np.pad(indices, (0, nnz - indices.size)).astype(np.int32),
            "values": np.pad(values, (0, nnz - values.size)),
        }
        got = session._execute("spmm", base, {"features": x}, tables=tables, **CSR_OPTIONS)
        assert len(session._handles) == 1 and session.stats.handle_misses == 1
        if not NATIVE:  # nothing takes a table: the call says so and runs nothing
            assert got is None
            return
        cold = CSRMatrix((rows, cols), indptr, indices, values)
        assert np.array_equal(got, Session(persistent=False).spmm(cold, x))

    @pytest.mark.skipif(not NATIVE, reason="only a native kernel takes tables per call")
    def test_threads_feed_one_bound_kernel(self):
        rows, cols, nnz, feat = 40, 30, 300, 6
        base = random_csr(rows, cols, nnz, 0)
        x = np.random.default_rng(1).standard_normal((cols, feat)).astype(np.float32)
        session = Session(persistent=False)
        session.spmm(base, x)
        (handle,) = session._handles.values()
        others = [random_csr(rows, cols, nnz, 10 + k) for k in range(8)]
        inputs = [
            {"features": x, "indptr": m.indptr, "indices": m.indices, "values": m.data}
            for m in others
        ]
        serial = [handle.bound.run(dict(feed))["out"] for feed in inputs]
        for m, out in zip(others, serial):
            assert np.array_equal(out, Session(persistent=False).spmm(m, x))
        results = [[] for _ in others]
        start = threading.Barrier(len(others))

        def worker(index):
            start.wait(timeout=30)
            for _ in range(25):
                results[index].append(handle.bound.run(dict(inputs[index]))["out"])

        threads = [threading.Thread(target=worker, args=(k,)) for k in range(len(others))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for outs, expected in zip(results, serial):
            assert len(outs) == 25 and all(np.array_equal(out, expected) for out in outs)
        # The bound call still reads the tables it was bound with.
        assert np.array_equal(session.spmm(base, x), Session(persistent=False).spmm(base, x))

    def test_tables_through_a_session_without_a_native_kernel(self, monkeypatch):
        """No toolchain: nothing takes a table, ``_execute`` says so and runs
        nothing, and an edited matrix binds the emitted tier to its content."""
        monkeypatch.setenv("REPRO_NATIVE", "0")
        m = random_csr(12, 9, 40, 3)
        x = np.random.default_rng(4).standard_normal((9, 3)).astype(np.float32)
        session = Session(persistent=False)
        session.spmm(m, x)
        runs = session.stats.runs
        tables = {"indptr": m.indptr, "indices": m.indices, "values": m.data}
        assert session._execute("spmm", m, {"features": x}, tables=tables, **CSR_OPTIONS) is None
        assert session.stats.runs == runs
        m.insert_edges([0, 5], [1, 2], [2.0, -3.0])
        m.delete_edges([0], [1])
        assert np.array_equal(session.spmm(m, x), Session(persistent=False).spmm(m, x))
        assert session.stats.emitted_runs == 2 and session.stats.native_runs == 0


# ---------------------------------------------------------------------------
# Edit-batch semantics
# ---------------------------------------------------------------------------


def model_of(csr):
    rows = np.repeat(np.arange(csr.rows), np.diff(csr.indptr))
    return {(int(r), int(c)): v for r, c, v in zip(rows, csr.indices, csr.data)}


def assert_matches_model(csr, model):
    """Effective arrays == a cold build from the dict, value bits included."""
    items = sorted(model.items())
    rows = np.array([r for (r, _), _ in items], dtype=np.int64)
    indptr = np.zeros(csr.rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=csr.rows), out=indptr[1:])
    assert csr.nnz == len(model)
    assert np.array_equal(csr.indptr, indptr)
    assert np.array_equal(csr.indices, np.array([c for (_, c), _ in items], dtype=np.int64))
    assert np.array_equal(csr.data, np.array([v for _, v in items], dtype=csr.data.dtype))


class TestEditBatchSemantics:
    def test_duplicate_edge_in_one_insert_batch_keeps_the_last_value(self):
        m = random_csr(5, 6, 8, 1)
        free = next(rc for rc in np.ndindex(m.shape) if rc not in model_of(m))
        nnz = m.nnz
        m.insert_edges([free[0]] * 3, [free[1]] * 3, [1.0, 2.0, 3.0])
        assert (m.nnz, m.structure_epoch, m.mutation_count) == (nnz + 1, 1, 3)
        assert m.to_dense()[free] == np.float32(3.0)
        stored = next(iter(model_of(random_csr(5, 6, 8, 1))))
        m.insert_edges([stored[0]] * 2, [stored[1]] * 2, [7.0, 9.0])
        assert (m.nnz, m.structure_epoch, m.mutation_count) == (nnz + 1, 2, 5)  # a new value
        assert m.to_dense()[stored] == np.float32(9.0)

    def test_upsert_then_delete_across_batches(self):
        m = random_csr(5, 6, 8, 2)
        stored = next(iter(model_of(m)))
        nnz = m.nnz
        m.insert_edges([stored[0]], [stored[1]], [4.0])
        m.delete_edges([stored[0]], [stored[1]])
        assert (m.nnz, m.structure_epoch) == (nnz - 1, 2)
        assert m.to_dense()[stored] == 0.0
        m.insert_edges([stored[0]], [stored[1]], [5.0])
        assert (m.nnz, m.structure_epoch) == (nnz, 3)
        assert m.compact().to_dense()[stored] == np.float32(5.0)

    @pytest.mark.parametrize("pending", [False, True])
    def test_rejected_delete_batch_leaves_the_matrix_alone(self, pending):
        m = random_csr(5, 6, 8, 3)
        stored = list(model_of(m))
        free = next(rc for rc in np.ndindex(m.shape) if rc not in model_of(m))
        if pending:
            m.insert_edges([stored[0][0]], [stored[0][1]], [2.0])
        before = (m.structure_epoch, m.mutation_count, m.nnz, m.capacity, m.indices)
        content = model_of(m)
        for rows, cols in (
            ([stored[1][0], free[0]], [stored[1][1], free[1]]),  # one edge absent
            ([stored[1][0]] * 2, [stored[1][1]] * 2),            # one edge twice
        ):
            with pytest.raises(KeyError):
                m.delete_edges(rows, cols)
            after = (m.structure_epoch, m.mutation_count, m.nnz, m.capacity, m.indices)
            assert after[:4] == before[:4] and after[4] is before[4]
            assert model_of(m) == content

    def test_empty_batches_are_no_ops(self):
        m = random_csr(5, 6, 8, 4)
        m.insert_edges([], [], [])
        m.delete_edges([], [])
        assert (m.structure_epoch, m.mutation_count, m.capacity) == (0, 0, m.nnz)

    @pytest.mark.parametrize("batch", [1, 10_000])
    @pytest.mark.parametrize("compact_at", [0.25, 10.0])
    def test_batches_agree_with_a_dict_model(self, batch, compact_at):
        """``compact()`` runs once the edits since the last one reach
        *compact_at* of nnz (10.0: never)."""
        rng = np.random.default_rng(batch)
        m = random_csr(200, 150, 9_000, 5)
        model = model_of(m)
        since = 0
        for round_ in range(3):
            # Inserts draw coordinates with replacement: duplicates inside the
            # batch, upserts of stored edges and fresh edges all occur.
            rows, cols = rng.integers(0, m.rows, batch), rng.integers(0, m.cols, batch)
            values = rng.standard_normal(batch).astype(np.float32)
            m.insert_edges(rows, cols, values)
            model.update(zip(zip(rows.tolist(), cols.tolist()), values))
            present = list(model)
            picks = rng.choice(len(present), min(batch, len(present) // 2), replace=False)
            gone = [present[k] for k in picks]
            m.delete_edges([r for r, _ in gone], [c for _, c in gone])
            for edge in gone:
                del model[edge]
            assert m.structure_epoch == 2 * (round_ + 1)
            assert_matches_model(m, model)
            since += batch + len(gone)
            if since >= compact_at * m.nnz:
                since = 0
                assert_matches_model(m.compact(), model)
        assert_matches_model(m.compact(), model)


    def test_small_random_scripts_agree_with_a_dict_model(self):
        """Tiny matrices, tiny batches: rows are re-edited, emptied and restored
        to their base content again and again."""
        rng = np.random.default_rng(0)
        for trial in range(300):
            m = random_csr(8, 9, 20, trial)
            model = model_of(m)
            for _ in range(6):
                size = int(rng.integers(1, 6))
                rows, cols = rng.integers(0, m.rows, size), rng.integers(0, m.cols, size)
                values = rng.standard_normal(size).astype(np.float32)
                m.insert_edges(rows, cols, values)
                model.update(zip(zip(rows.tolist(), cols.tolist()), values))
                present = list(model)
                picks = rng.choice(len(present), min(len(present), int(rng.integers(1, 6))), replace=False)
                m.delete_edges([present[k][0] for k in picks], [present[k][1] for k in picks])
                for k in picks:
                    del model[present[k]]
                assert_matches_model(m, model)
                tables = m.tables(m.capacity)  # the kernels' copy of the same
                assert np.array_equal(tables["indptr"], m.indptr)
                assert np.array_equal(tables["indices"][: m.nnz], m.indices)
                assert np.array_equal(tables["values"][: m.nnz], m.data)


class TestOverlayStaysInTheDelta:
    """Edit windows run on the kernels already bound.  (The class keeps the
    name it had when an edit log patched a base kernel, so the test ids stay
    comparable across revisions.)"""

    def test_spmm_windows_feed_one_bound_kernel(self):
        m = random_csr(30, 20, 120, 6)
        x = np.random.default_rng(7).standard_normal((20, 4)).astype(np.float32)
        session = Session(persistent=False)
        for window in range(4):
            m.insert_edges([window, window + 1], [0, 1], [1.5, 2.5])
            m.delete_edges([window], [0])
            out = session.spmm(m, x)
            assert np.array_equal(out, Session(persistent=False).spmm(m, x))
        # One handle, bound in the first window; each later window is a hit
        # that fed the current tables (natively) or bound its epoch (not).
        hits = 3 if NATIVE else 0
        assert (session.stats.handle_misses, session.stats.handle_hits) == (4 - hits, hits)
        assert len(session._handles) == 1 and session.stats.table_rebinds == 0

    def test_edit_windows_add_no_cache_artifacts(self, tmp_path):
        """Within the capacity a window adds no fingerprint, pickle or
        ``.so`` after the first: SpMM and unfused SDDMM are bound to the
        capacity (outgrowing it binds both anew), fused SDDMM to the nnz (a
        window that keeps it adds none, one that changes it lowers once, for
        the same ``.so``).  Without a toolchain the same holds: each epoch
        plans the emitted tier anew from the footprint's lowering."""
        m = random_csr(40, 30, 300, 8)
        rng = np.random.default_rng(9)
        x = rng.standard_normal((30, 4)).astype(np.float32)
        p = rng.standard_normal((40, 4)).astype(np.float32)
        q = rng.standard_normal((4, 30)).astype(np.float32)
        session = Session(persistent=tmp_path)
        files, capacities = None, []

        def count():
            return sum(1 for path in tmp_path.rglob("*") if path.is_file())

        for window in range(10):
            free = [rc for rc in np.ndindex(m.shape) if rc not in model_of(m)][:6]
            m.insert_edges([r for r, _ in free], [c for _, c in free], rng.standard_normal(6))
            m.delete_edges([free[0][0]], [free[0][1]])  # nnz grows by 5
            fresh = Session(persistent=False)
            assert np.array_equal(session.spmm(m, x), fresh.spmm(m, x))
            assert np.array_equal(
                session.sddmm(m, p, q, fuse_ij=False), fresh.sddmm(m, p, q, fuse_ij=False)
            )
            if capacities and m.capacity == capacities[-1]:
                assert count() == files, f"window {window} added cache files"
            elif m.capacity not in capacities:  # the first window, or outgrown
                capacities.append(m.capacity)
                files = count()
        assert len(capacities) == 2  # the last windows outgrew the first slack
        assert session.cache.stats.lowerings == 2 * len(capacities)
        assert session.stats.table_rebinds == 2
        fused = lambda s: s.sddmm(m, p, q)  # noqa: E731
        assert np.array_equal(fused(session), fused(Session(persistent=False)))
        files, lowerings = count(), session.cache.stats.lowerings
        for window in range(5):  # value-only upserts and cancelling batches: nnz stays
            stored = next(iter(model_of(m)))
            m.insert_edges([stored[0]], [stored[1]], [float(window)])
            free = next(rc for rc in np.ndindex(m.shape) if rc not in model_of(m))
            m.insert_edges([free[0]], [free[1]])
            m.delete_edges([free[0]], [free[1]])
            assert np.array_equal(fused(session), fused(Session(persistent=False)))
        assert (count(), session.cache.stats.lowerings) == (files, lowerings)
