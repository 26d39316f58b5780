"""Dynamic sparsity: edit batches, epochs, and kernels fed the current tables.

Covers the rebuild-and-feed design end to end:

* edit mechanics — inserts/deletes/upserts that rebuild fresh arrays, atomic
  batches, capacity and slack, epoch/mutation accounting;
* the dtype bugfix sweep — ``CSRMatrix``/``ELLMatrix``/``HybFormat`` honor
  their value dtype instead of silently materialising float32;
* the stale-memo bugfix — serve fingerprints, session task fingerprints and
  cached decompositions all refresh when a matrix mutates, and stay O(1)
  warm while its ``structure_epoch`` is unchanged;
* the hyb bucket-count heuristic, pinned per Figure-13 graph;
* drift-triggered re-tuning of stale autotuned plans;
* a hypothesis edit-script conformance suite: any interleaving of
  insert/delete/compact is bit-exact with a cold rebuild from the final
  edge set, through ``Session.spmm`` (csr + hyb), ``Session.sddmm`` and the
  BSR decomposition;
* a hypothesis battery over edit windows on one warm session: SpMM and
  SDDMM (fused and unfused) bit-exact against a cold rebuild after every
  window, and no lowering unless the capacity changed or a fused SDDMM's
  nnz did, one ``table_rebinds`` per such handle.
"""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.codegen.emit_c import toolchain_available
from repro.formats.bsr import BSRMatrix
from repro.formats.csr import CSRMatrix
from repro.formats.ell import ELLMatrix
from repro.formats.hyb import HybFormat
from repro.ops.spmm import choose_hyb_parameters
from repro.runtime.session import Session
from repro.serve.batching import make_spmm_request
from repro.tune.spaces import SpMMProblem
from repro.workloads.graphs import synthetic_graph

RNG = np.random.default_rng


NATIVE = toolchain_available()


def small_matrix(dtype="float32", seed=0, rows=6, cols=7):
    return CSRMatrix.random(rows, cols, density=0.3, seed=seed, dtype=dtype)


def csr_from_edges(shape, edges, dtype):
    """Cold-build a canonical CSRMatrix from an explicit ``{(r, c): v}`` map.

    Built directly (not via ``to_dense``/scipy canonicalisation) so edges
    whose value happens to be exactly zero survive — the delta log stores
    them, and an edit batch does too.
    """
    items = sorted(edges.items())
    rows = np.array([r for (r, _), _ in items], dtype=np.int64)
    cols = np.array([c for (_, c), _ in items], dtype=np.int64)
    vals = np.array([v for _, v in items], dtype=np.dtype(dtype))
    indptr = np.zeros(shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=shape[0]), out=indptr[1:])
    return CSRMatrix(shape, indptr, cols, vals, dtype=dtype)


def edge_map(csr):
    """The effective ``{(row, col): value}`` content of a matrix."""
    out = {}
    indptr, indices, data = csr.indptr, csr.indices, csr.data
    for row in range(csr.rows):
        for pos in range(indptr[row], indptr[row + 1]):
            out[(row, int(indices[pos]))] = data[pos]
    return out


# ---------------------------------------------------------------------------
# Edit mechanics
# ---------------------------------------------------------------------------


class TestDeltaMechanics:
    def test_insert_bumps_epoch_and_nnz(self):
        m = small_matrix()
        base_nnz = m.nnz
        missing = sorted(set(np.ndindex(m.shape)) - set(edge_map(m)))[:2]
        rows = [r for r, _ in missing]
        cols = [c for _, c in missing]
        m.insert_edges(rows, cols, [1.5, -2.5])
        assert m.structure_epoch == 1
        assert m.mutation_count == 2
        assert m.pending_delta == 0  # the batch rebuilt the arrays
        assert m.nnz == base_nnz + 2
        assert m.indptr[-1] == len(m.indices) == len(m.data) == m.nnz <= m.capacity
        dense = m.to_dense()
        assert dense[missing[0]] == np.float32(1.5)
        assert dense[missing[1]] == np.float32(-2.5)

    def test_upsert_replaces_value_without_growing(self):
        m = small_matrix()
        row = int(np.flatnonzero(np.diff(m.indptr))[0])
        col = int(m.indices[m.indptr[row]])
        nnz = m.nnz
        m.insert_edges([row], [col], [9.0])
        assert m.nnz == nnz  # a new value, no new entry
        assert m.to_dense()[row, col] == np.float32(9.0)
        assert m.structure_epoch == 1

    def test_delete_existing_base_edge(self):
        m = small_matrix()
        row = int(np.flatnonzero(np.diff(m.indptr))[0])
        col = int(m.indices[m.indptr[row]])
        nnz = m.nnz
        m.delete_edges([row], [col])
        assert m.nnz == nnz - 1
        assert m.to_dense()[row, col] == 0.0
        assert m.structure_epoch == 1

    def test_delete_missing_edge_is_atomic(self):
        m = small_matrix()
        row = int(np.flatnonzero(np.diff(m.indptr))[0])
        col = int(m.indices[m.indptr[row]])
        missing = sorted(set(np.ndindex(m.shape)) - set(edge_map(m)))[0]
        before = edge_map(m)
        with pytest.raises(KeyError):
            m.delete_edges([row, missing[0]], [col, missing[1]])
        # Nothing applied: the first (valid) delete rolled back with the batch.
        assert edge_map(m) == before
        assert (m.structure_epoch, m.mutation_count, m.nnz) == (0, 0, len(before))

    def test_double_delete_in_one_batch_rejected(self):
        m = small_matrix()
        row = int(np.flatnonzero(np.diff(m.indptr))[0])
        col = int(m.indices[m.indptr[row]])
        with pytest.raises(KeyError):
            m.delete_edges([row, row], [col, col])
        assert m.structure_epoch == 0

    def test_insert_then_delete_collapses_delta(self):
        m = small_matrix()
        before = edge_map(m)
        missing = sorted(set(np.ndindex(m.shape)) - set(before))[0]
        m.insert_edges([missing[0]], [missing[1]], [3.0])
        assert m.nnz == len(before) + 1
        m.delete_edges([missing[0]], [missing[1]])
        assert edge_map(m) == before  # edits cancelled: the original content
        assert m.structure_epoch == 2  # but the epoch still advanced twice

    def test_growth_past_the_capacity_leaves_slack(self):
        m = small_matrix()
        nnz = m.nnz
        assert m.capacity == nnz  # never edited: no slack
        missing = sorted(set(np.ndindex(m.shape)) - set(edge_map(m)))
        m.insert_edges([missing[0][0]], [missing[0][1]])
        capacity = m.capacity
        assert capacity > m.nnz == nnz + 1  # outgrown: the slack comes with it
        spare = capacity - m.nnz
        rows = [r for r, _ in missing[1: 1 + spare]]
        cols = [c for _, c in missing[1: 1 + spare]]
        m.insert_edges(rows, cols)
        assert m.capacity == capacity == m.nnz  # filled, not grown
        m.insert_edges([missing[1 + spare][0]], [missing[1 + spare][1]])
        assert m.capacity > m.nnz == capacity + 1
        m.delete_edges([missing[0][0]], [missing[0][1]])
        assert m.capacity > m.nnz == capacity  # deletes never shrink it

    def test_compact_preserves_epoch_and_content(self):
        m = small_matrix()
        missing = sorted(set(np.ndindex(m.shape)) - set(edge_map(m)))[0]
        m.insert_edges([missing[0]], [missing[1]], [4.0])
        before = edge_map(m)
        epoch = m.structure_epoch
        signature = m.content_signature()
        assert m.capacity > m.nnz
        assert m.compact() is m
        assert m.capacity == m.nnz  # the slack is trimmed
        assert m.structure_epoch == epoch  # storage rewrite, not a mutation
        assert edge_map(m) == before
        assert m.content_signature() == signature

    def test_batches_make_fresh_arrays(self):
        """A reader holding the previous arrays keeps a consistent matrix."""
        m = small_matrix()
        missing = sorted(set(np.ndindex(m.shape)) - set(edge_map(m)))[:2]
        m.insert_edges([missing[0][0]], [missing[0][1]], [2.0])
        held = (m.indptr, m.indices, m.data)
        copies = [array.copy() for array in held]
        m.insert_edges([missing[1][0]], [missing[1][1]], [3.0])
        row = int(np.flatnonzero(np.diff(m.indptr))[0])
        m.insert_edges([row], [int(m.indices[m.indptr[row]])], [9.0])  # value only
        m.delete_edges([missing[0][0]], [missing[0][1]])
        m.compact()
        for old, copy, new in zip(held, copies, (m.indptr, m.indices, m.data)):
            assert np.array_equal(old, copy) and old is not new

    def test_editing_requires_a_canonical_matrix(self):
        indptr = np.array([0, 2], dtype=np.int64)
        indices = np.array([2, 1], dtype=np.int64)  # out of order
        m = CSRMatrix((1, 3), indptr, indices)
        with pytest.raises(ValueError, match="canonical"):
            m.insert_edges([0], [0])
        assert (m.structure_epoch, m.nnz) == (0, 2)

    def test_edit_counters(self):
        # Row 0 = {1, 2}, row 1 = {0}, row 2 = {3}.
        indptr = np.array([0, 2, 3, 4], dtype=np.int64)
        indices = np.array([1, 2, 0, 3], dtype=np.int64)
        data = np.arange(1.0, 5.0, dtype=np.float32)
        m = CSRMatrix((3, 4), indptr, indices, data)
        m.insert_edges([0], [3], [2.0])  # new edge (0, 3)
        m.delete_edges([2], [3])  # edge (2, 3)
        assert (m.nnz, m.structure_epoch, m.mutation_count, m.pending_delta) == (4, 2, 2, 0)
        assert m.indptr.tolist() == [0, 3, 4, 4] and m.indices.tolist() == [1, 2, 3, 0]
        assert m.data.tolist() == [1.0, 2.0, 2.0, 3.0]
        tables = m.tables(m.capacity)
        assert tables["indptr"].dtype == tables["indices"].dtype == np.int32
        assert tables["indices"][:4].tolist() == [1, 2, 3, 0]
        assert len(tables["indices"]) == len(tables["values"]) == m.capacity
        m.delete_edges([0], [3])
        with pytest.raises(KeyError):
            m.delete_edges([1, 0], [0, 3])  # (1, 0) is there, (0, 3) no longer
        assert (m.nnz, m.structure_epoch, m.mutation_count) == (3, 3, 3)
        assert edge_map(m) == {(0, 1): 1.0, (0, 2): 2.0, (1, 0): 3.0}


# ---------------------------------------------------------------------------
# Satellite: dtype honored end to end (was: float32 hardcoded)
# ---------------------------------------------------------------------------


class TestDtypeHonored:
    def test_csr_float64_round_trip_precision(self):
        # 1 + 2^-40 is representable in float64 but rounds to 1.0 in float32;
        # before the fix CSRMatrix silently materialised float32 storage.
        delicate = 1.0 + 2.0 ** -40
        dense = np.array([[delicate, 0.0], [0.0, 2.0]], dtype=np.float64)
        m = CSRMatrix.from_dense(dense, dtype="float64")
        assert m.data.dtype == np.float64
        out = m.to_dense()
        assert out.dtype == np.float64
        assert out[0, 0] == delicate
        assert out[0, 0] != np.float64(np.float32(delicate))

    def test_csr_transpose_and_partition_keep_dtype(self):
        m = CSRMatrix.random(5, 8, density=0.4, seed=3, dtype="float64")
        assert m.transpose().data.dtype == np.float64
        for part in m.column_partition(3):
            assert part is None or part.data.dtype == np.float64

    def test_csr_random_and_default_data_dtype(self):
        m = CSRMatrix.random(4, 4, density=0.5, seed=1, dtype="float64")
        assert m.data.dtype == np.float64
        ones = CSRMatrix(
            (1, 2), np.array([0, 2]), np.array([0, 1]), dtype="float64"
        )
        assert ones.data.dtype == np.float64

    def test_mutations_store_values_in_matrix_dtype(self):
        m = CSRMatrix.from_dense(np.eye(3), dtype="float64")
        delicate = 1.0 + 2.0 ** -40
        m.insert_edges([0], [1], [delicate])
        assert m.data.dtype == np.float64
        assert m.to_dense()[0, 1] == delicate

    def test_ell_and_hyb_keep_float64(self):
        m = CSRMatrix.random(6, 6, density=0.4, seed=5, dtype="float64")
        ell = ELLMatrix.from_csr(m)
        assert ell.data.dtype == np.float64
        assert ell.to_dense().dtype == np.float64
        hyb = HybFormat.from_csr(m, num_col_parts=2)
        assert all(b.ell.data.dtype == np.float64 for b in hyb.buckets)
        assert hyb.to_dense().dtype == np.float64
        np.testing.assert_array_equal(hyb.to_dense(), m.to_dense())


# ---------------------------------------------------------------------------
# Satellite: stale-memo regressions (epoch-keyed fingerprints)
# ---------------------------------------------------------------------------


class TestStaleMemoRegression:
    def test_serve_fingerprint_tracks_mutation(self):
        m = small_matrix()
        x = np.ones((m.cols, 4), dtype=np.float32)
        before = make_spmm_request(m, x).fingerprint
        assert make_spmm_request(m, x).fingerprint == before  # O(1) memo hit
        missing = sorted(set(np.ndindex(m.shape)) - set(edge_map(m)))[0]
        m.insert_edges([missing[0]], [missing[1]])
        after = make_spmm_request(m, x).fingerprint
        assert after != before  # pre-fix: stale cached hash -> wrong coalescing

    def test_serve_fingerprint_tracks_value_only_upsert(self):
        m = small_matrix()
        x = np.ones((m.cols, 4), dtype=np.float32)
        before = make_spmm_request(m, x).fingerprint
        row = int(np.flatnonzero(np.diff(m.indptr))[0])
        col = int(m.indices[m.indptr[row]])
        m.insert_edges([row], [col], [123.0])  # same structure, new value
        assert make_spmm_request(m, x).fingerprint != before

    def test_task_fingerprint_tracks_mutation(self):
        session = Session(persistent=False, tuning_records=False)
        m = small_matrix()
        problem = SpMMProblem(m, 4)
        before = session._task_fingerprint("spmm", problem)
        assert session._task_fingerprint("spmm", problem) == before
        missing = sorted(set(np.ndindex(m.shape)) - set(edge_map(m)))[0]
        m.insert_edges([missing[0]], [missing[1]])
        after = session._task_fingerprint("spmm", SpMMProblem(m, 4))
        assert after != before  # pre-fix: id()-keyed memo served the stale hash

    def test_decompose_hyb_refreshes_after_mutation(self):
        session = Session(persistent=False)
        m = small_matrix()
        first = session.decompose_hyb(m, num_col_parts=2, num_buckets=2)
        assert session.decompose_hyb(m, num_col_parts=2, num_buckets=2) is first
        assert session.stats.format_cache_hits == 1
        missing = sorted(set(np.ndindex(m.shape)) - set(edge_map(m)))[0]
        m.insert_edges([missing[0]], [missing[1]], [7.0])
        fresh = session.decompose_hyb(m, num_col_parts=2, num_buckets=2)
        assert fresh is not first  # pre-fix: stale decomposition reused
        np.testing.assert_array_equal(fresh.to_dense(), m.to_dense())

    def test_decompose_bsr_refreshes_after_mutation(self):
        session = Session(persistent=False)
        m = small_matrix(rows=8, cols=8)
        first = session.decompose_bsr(m, block_size=2)
        assert session.decompose_bsr(m, block_size=2) is first
        missing = sorted(set(np.ndindex(m.shape)) - set(edge_map(m)))[0]
        m.delete_edges(*[[v] for v in sorted(edge_map(m))[0]])
        fresh = session.decompose_bsr(m, block_size=2)
        assert fresh is not first
        np.testing.assert_array_equal(fresh.to_dense(), m.to_dense())


# ---------------------------------------------------------------------------
# Satellite: hyb bucket-count heuristic pinned per Figure-13 graph
# ---------------------------------------------------------------------------


class TestHybHeuristic:
    # k = ceil(log2(max(nnz/n, 1))) + 1: one bucket more than the paper's
    # stated ceil(log2(avg_degree)), so the widest width covers the average.
    EXPECTED = {"cora": 3, "citeseer": 3, "pubmed": 4}

    @pytest.mark.parametrize("name,buckets", sorted(EXPECTED.items()))
    def test_fig13_default_bucket_counts(self, name, buckets):
        csr = synthetic_graph(name).csr
        hyb = HybFormat.from_csr(csr)
        assert hyb.bucket_widths == [2 ** i for i in range(buckets)]
        assert choose_hyb_parameters(csr) == (16, buckets)
        # The widest bucket is at least the average degree (the point of +1).
        assert hyb.bucket_widths[-1] >= csr.nnz / csr.rows

    def test_dead_bucket_for_helper_removed(self):
        import repro.formats.hyb as hyb_module

        assert not hasattr(hyb_module, "_bucket_for")

    def test_degenerate_average_floors_at_one_bucket(self):
        empty = CSRMatrix((3, 3), np.zeros(4, dtype=np.int64), np.array([], dtype=np.int64))
        assert HybFormat.from_csr(empty).bucket_widths == [1]
        assert choose_hyb_parameters(empty)[1] == 1


# ---------------------------------------------------------------------------
# Tentpole: an edited matrix feeds its tables to the kernel already bound
# ---------------------------------------------------------------------------


class TestOverlayExecution:
    def test_unchanged_epoch_requests_stay_warm(self):
        session = Session(persistent=False)
        m = small_matrix()
        x = RNG(0).standard_normal((m.cols, 4)).astype(np.float32)
        session.spmm(m, x)  # cold: compiles the kernel
        session.spmm(m, x)
        assert session.stats.handle_hits == 1
        missing = sorted(set(np.ndindex(m.shape)) - set(edge_map(m)))[:2]
        for window, (row, col) in enumerate(missing):
            m.insert_edges([row], [col], [2.0])
            out = session.spmm(m, x)
            misses = session.stats.kernel_cache_misses
            assert np.array_equal(session.spmm(m, x), out)  # same epoch: a hit
            assert session.stats.kernel_cache_misses == misses
            cold = Session(persistent=False)
            expected = cold.spmm(csr_from_edges(m.shape, edge_map(m), m.dtype), x)
            np.testing.assert_array_equal(out, expected)
            if window == 0:
                first_bind = session.stats.kernel_cache_misses
        # Within the capacity the second edit fed the kernel the first bound
        # (native), or planned the emitted tier anew from the same lowering.
        assert session.stats.kernel_cache_misses == first_bind
        assert session.stats.table_rebinds == 0

    def test_overlay_sddmm_matches_cold(self):
        session = Session(persistent=False)
        m = small_matrix()
        x = RNG(1).standard_normal((m.rows, 3)).astype(np.float32)
        y = RNG(2).standard_normal((3, m.cols)).astype(np.float32)
        session.sddmm(m, x, y)
        missing = sorted(set(np.ndindex(m.shape)) - set(edge_map(m)))[:2]
        m.insert_edges([r for r, _ in missing], [c for _, c in missing], [1.0, -1.0])
        row = int(np.flatnonzero(np.diff(m.indptr))[0])
        stored = int(m.indices[m.indptr[row]])
        m.delete_edges([row], [stored])
        cold = lambda: Session(persistent=False).sddmm(  # noqa: E731
            csr_from_edges(m.shape, edge_map(m), m.dtype), x, y
        )
        np.testing.assert_array_equal(session.sddmm(m, x, y), cold())
        lowerings = session.cache.stats.lowerings
        m.insert_edges([missing[0][0]], [missing[0][1]], [5.0])  # value only: same nnz
        np.testing.assert_array_equal(session.sddmm(m, x, y), cold())
        # The fused row search is bound to the exact nnz: a new value keeps
        # it, a new nnz binds it anew.
        assert session.cache.stats.lowerings == lowerings
        m.insert_edges([row], [stored], [0.5])
        np.testing.assert_array_equal(session.sddmm(m, x, y), cold())
        assert session.stats.table_rebinds == 1


class TestDriftRetune:
    def _tuned_session_and_matrix(self, **session_kwargs):
        session = Session(persistent=False, tuning_records=False, **session_kwargs)
        m = small_matrix(rows=8, cols=8, seed=7)
        result = session.autotune(
            "spmm", SpMMProblem(m, 4), strategy="grid", survivors=0, repeats=1
        )
        assert result.record is not None
        return session, m

    def _mutate(self, m, count):
        missing = sorted(set(np.ndindex(m.shape)) - set(edge_map(m)))[:count]
        m.insert_edges([r for r, _ in missing], [c for _, c in missing])

    def test_small_drift_reuses_stale_plan(self):
        session, m = self._tuned_session_and_matrix(drift_threshold=0.5)
        x = np.ones((m.cols, 4), dtype=np.float32)
        self._mutate(m, 1)  # drift 1/nnz, far below 0.5
        session.spmm(m, x, tuned=True)
        assert session.stats.stale_plan_reuses == 1
        assert session.stats.retunes_triggered == 0
        assert session.retune_pending == []

    def test_crossing_threshold_queues_retune(self):
        session, m = self._tuned_session_and_matrix(drift_threshold=0.25)
        x = np.ones((m.cols, 4), dtype=np.float32)
        nnz_at_tune = m.nnz
        self._mutate(m, int(np.ceil(0.25 * nnz_at_tune)))
        session.spmm(m, x, tuned=True)
        assert session.stats.retunes_triggered == 1
        assert len(session.retune_pending) == 1
        assert session.retune_pending[0]["workload"] == "spmm"
        # The trigger fires once per crossing: the lineage entry is retired.
        session.spmm(m, x, tuned=True)
        assert session.stats.retunes_triggered == 1
        assert len(session.retune_pending) == 1

    def test_retune_drains_pending_queue(self):
        session, m = self._tuned_session_and_matrix(drift_threshold=0.25)
        x = np.ones((m.cols, 4), dtype=np.float32)
        self._mutate(m, m.nnz)
        session.spmm(m, x, tuned=True)
        assert len(session.retune_pending) == 1
        results = session.retune()
        assert session.retune_pending == []
        assert len(results) == 1 and results[0].record is not None
        # Re-tuned: the fresh lineage serves tuned calls again.
        session.spmm(m, x, tuned=True)
        assert session.stats.retunes_triggered == 1

    def test_auto_retune_runs_inline(self):
        session, m = self._tuned_session_and_matrix(
            drift_threshold=0.25, auto_retune=True
        )
        x = np.ones((m.cols, 4), dtype=np.float32)
        self._mutate(m, m.nnz)
        session.spmm(m, x, tuned=True)
        assert session.stats.retunes_triggered == 1
        assert session.retune_pending == []  # ran inline, nothing queued


# ---------------------------------------------------------------------------
# Hypothesis: edit-script conformance against cold rebuilds
# ---------------------------------------------------------------------------


@st.composite
def edit_scripts(draw):
    """A random base matrix plus a random insert/delete/compact interleaving."""
    rows = draw(st.integers(min_value=2, max_value=7))
    cols = draw(st.integers(min_value=2, max_value=7))
    dtype = draw(st.sampled_from(["float32", "float64"]))
    seed = draw(st.integers(min_value=0, max_value=2 ** 16))
    density = draw(st.sampled_from([0.0, 0.2, 0.5]))
    ops = []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        kind = draw(st.sampled_from(["insert", "upsert", "delete", "compact"]))
        if kind == "compact":
            ops.append(("compact",))
        else:
            count = draw(st.integers(min_value=1, max_value=3))
            coords = draw(
                st.lists(
                    st.tuples(
                        st.integers(0, rows - 1), st.integers(0, cols - 1)
                    ),
                    min_size=count,
                    max_size=count,
                    unique=True,
                )
            )
            values = draw(
                st.lists(
                    st.sampled_from([0.0, 1.0, -1.5, 0.25, 3.75]),
                    min_size=count,
                    max_size=count,
                )
            )
            ops.append((kind, coords, values))
    return rows, cols, dtype, seed, density, ops


def apply_script(matrix, model, ops):
    """Apply *ops* to the matrix and the ``{(r, c): v}`` reference model."""
    value_dtype = np.dtype(matrix.dtype)
    for op in ops:
        if op[0] == "compact":
            matrix.compact()
            continue
        kind, coords, values = op
        if kind == "delete":
            coords = [rc for rc in coords if rc in model]
            if not coords:
                continue
            matrix.delete_edges([r for r, _ in coords], [c for _, c in coords])
            for rc in coords:
                del model[rc]
            continue
        if kind == "insert":  # plain inserts target absent coordinates only
            pairs = [(rc, v) for rc, v in zip(coords, values) if rc not in model]
        else:  # upserts target any coordinate (absent ones degrade to inserts)
            pairs = list(zip(coords, values))
        if not pairs:
            continue
        matrix.insert_edges(
            [r for (r, _), _ in pairs],
            [c for (_, c), _ in pairs],
            [v for _, v in pairs],
        )
        for rc, v in pairs:
            model[rc] = value_dtype.type(v)


class TestEditScriptConformance:
    @given(edit_scripts())
    @settings(max_examples=25, deadline=None)
    def test_spmm_csr_matches_cold_rebuild(self, script):
        rows, cols, dtype, seed, density, ops = script
        m = CSRMatrix.random(rows, cols, density, seed=seed, dtype=dtype)
        model = edge_map(m)
        apply_script(m, model, ops)
        cold_csr = csr_from_edges(m.shape, model, dtype)
        x = RNG(seed).standard_normal((cols, 3)).astype(dtype)
        warm, cold = Session(persistent=False), Session(persistent=False)
        np.testing.assert_array_equal(
            warm.spmm(m, x), cold.spmm(cold_csr, x)
        )

    @given(edit_scripts())
    @settings(max_examples=15, deadline=None)
    def test_spmm_hyb_matches_cold_rebuild(self, script):
        rows, cols, dtype, seed, density, ops = script
        m = CSRMatrix.random(rows, cols, density, seed=seed, dtype=dtype)
        model = edge_map(m)
        apply_script(m, model, ops)
        cold_csr = csr_from_edges(m.shape, model, dtype)
        x = RNG(seed + 1).standard_normal((cols, 3)).astype(dtype)
        warm, cold = Session(persistent=False), Session(persistent=False)
        np.testing.assert_array_equal(
            warm.spmm(m, x, format="hyb", num_col_parts=2),
            cold.spmm(cold_csr, x, format="hyb", num_col_parts=2),
        )

    @given(edit_scripts())
    @settings(max_examples=15, deadline=None)
    def test_sddmm_matches_cold_rebuild(self, script):
        rows, cols, dtype, seed, density, ops = script
        m = CSRMatrix.random(rows, cols, density, seed=seed, dtype=dtype)
        model = edge_map(m)
        apply_script(m, model, ops)
        cold_csr = csr_from_edges(m.shape, model, dtype)
        rng = RNG(seed + 2)
        x = rng.standard_normal((rows, 3)).astype(dtype)
        y = rng.standard_normal((3, cols)).astype(dtype)
        warm, cold = Session(persistent=False), Session(persistent=False)
        np.testing.assert_array_equal(
            warm.sddmm(m, x, y), cold.sddmm(cold_csr, x, y)
        )

    @given(edit_scripts())
    @settings(max_examples=15, deadline=None)
    def test_compacted_storage_is_canonical(self, script):
        rows, cols, dtype, seed, density, ops = script
        m = CSRMatrix.random(rows, cols, density, seed=seed, dtype=dtype)
        model = edge_map(m)
        apply_script(m, model, ops)
        m.compact()
        cold_csr = csr_from_edges(m.shape, model, dtype)
        np.testing.assert_array_equal(m.indptr, cold_csr.indptr)
        np.testing.assert_array_equal(m.indices, cold_csr.indices)
        np.testing.assert_array_equal(m.data, cold_csr.data)
        # BSR conformance (float32-only format): same blocks either way.
        if dtype == "float32":
            np.testing.assert_array_equal(
                BSRMatrix.from_csr(m, 2).to_dense(),
                BSRMatrix.from_csr(cold_csr, 2).to_dense(),
            )


# ---------------------------------------------------------------------------
# Hypothesis: edit windows on one warm session, against cold rebuilds
# ---------------------------------------------------------------------------


@st.composite
def edit_windows(draw):
    """A random matrix plus windows of edits, each followed by the queries.

    A window holds upserts (fresh or stored coordinates: value-only writes
    among them), deletes of stored edges, an insert batch that the next
    batch deletes again (they cancel out), a batch large enough to outgrow
    the capacity, or ``compact()``.
    """
    rows = draw(st.integers(2, 9))
    cols = draw(st.integers(2, 9))
    dtype = draw(st.sampled_from(["float32", "float64"]))
    seed = draw(st.integers(0, 2 ** 16))
    density = draw(st.sampled_from([0.0, 0.2, 0.5]))
    coords = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1))
    windows = []
    for _ in range(draw(st.integers(1, 5))):
        ops = []
        for _ in range(draw(st.integers(0, 3))):
            kind = draw(st.sampled_from(["upsert", "delete", "cancel", "grow", "compact"]))
            if kind == "compact":
                ops.append(("compact", [], []))
                continue
            size = rows * cols if kind == "grow" else draw(st.integers(1, 4))
            picked = draw(st.lists(coords, min_size=1, max_size=size, unique=True))
            values = [draw(st.sampled_from([0.0, 1.0, -1.5, 0.25, 3.75])) for _ in picked]
            ops.append((kind, picked, values))
        windows.append(ops)
    return rows, cols, dtype, seed, density, windows


def apply_window(matrix, model, ops):
    """Apply one window to the matrix and to the ``{(r, c): v}`` model."""
    value_dtype = np.dtype(matrix.dtype)
    for kind, coords, values in ops:
        if kind == "compact":
            matrix.compact()
            continue
        if kind == "delete":
            coords = [rc for rc in coords if rc in model]
            if coords:
                matrix.delete_edges([r for r, _ in coords], [c for _, c in coords])
            for rc in coords:
                del model[rc]
            continue
        if kind == "cancel":
            coords = [rc for rc in coords if rc not in model]
            values = values[: len(coords)]
        matrix.insert_edges([r for r, _ in coords], [c for _, c in coords], values)
        if kind == "cancel":
            matrix.delete_edges([r for r, _ in coords], [c for _, c in coords])
            continue
        model.update((rc, value_dtype.type(v)) for rc, v in zip(coords, values))


class TestRebuildAndFeed:
    """Edit windows through one warm session, bit-exact with cold rebuilds.

    A window lowers nothing unless the matrix's capacity changed (the SpMM
    and unfused SDDMM handles are bound to it) or its nnz did (the fused
    SDDMM handle is bound to that), and ``table_rebinds`` counts exactly
    those handles — in both lanes: a native kernel is fed the tables, an
    emitted one is planned anew per epoch from the same lowering.
    """

    @given(edit_windows())
    @settings(max_examples=20, deadline=None)
    def test_windows_match_cold_rebuilds(self, script):
        rows, cols, dtype, seed, density, windows = script
        m = CSRMatrix.random(rows, cols, density, seed=seed, dtype=dtype)
        model = edge_map(m)
        rng = RNG(seed)
        x = rng.standard_normal((cols, 3)).astype(dtype)
        p = rng.standard_normal((rows, 2)).astype(dtype)
        q = rng.standard_normal((2, cols)).astype(dtype)
        session = Session(persistent=False)
        bound = None  # (capacity, nnz) the edited matrix's handles were bound to
        for ops in windows:
            apply_window(m, model, ops)
            lowerings = session.cache.stats.lowerings
            rebinds = session.stats.table_rebinds
            got = (
                session.spmm(m, x), session.sddmm(m, p, q),
                session.sddmm(m, p, q, fuse_ij=False),
            )
            cold_csr = csr_from_edges(m.shape, model, dtype)
            cold = Session(persistent=False)
            expected = (
                cold.spmm(cold_csr, x), cold.sddmm(cold_csr, p, q),
                cold.sddmm(cold_csr, p, q, fuse_ij=False),
            )
            for ours, theirs in zip(got, expected):
                np.testing.assert_array_equal(ours, theirs)
            if m.structure_epoch == 0:
                continue
            now = (m.capacity, m.nnz)
            if bound is None:  # the first edited window binds its handles
                bound = now
                continue
            events = 2 * (now[0] != bound[0]) + (now[1] != bound[1])
            assert session.stats.table_rebinds - rebinds == events
            if not events:
                assert session.cache.stats.lowerings == lowerings
            bound = now

    def test_emitted_tier_plans_each_epoch_without_lowering(self):
        """The emitted tier takes no fed tables: each epoch plans the
        footprint's emitted text anew on the matrix's tables."""
        m = small_matrix(rows=9, cols=8, seed=6)
        rng = RNG(7)
        x = rng.standard_normal((m.cols, 3)).astype(np.float32)
        p = rng.standard_normal((m.rows, 2)).astype(np.float32)
        q = rng.standard_normal((2, m.cols)).astype(np.float32)
        session = Session(persistent=False, engine="emitted")
        missing = sorted(set(np.ndindex(m.shape)) - set(edge_map(m)))
        for window in range(4):
            m.insert_edges([missing[window][0]], [missing[window][1]], [float(window)])
            m.delete_edges([missing[window][0]], [missing[window][1]])
            m.insert_edges([missing[window][0]], [missing[window][1]], [2.0])
            cold_csr = csr_from_edges(m.shape, edge_map(m), m.dtype)
            cold = Session(persistent=False, engine="emitted")
            for call in (
                lambda s, a: s.spmm(a, x), lambda s, a: s.sddmm(a, p, q, fuse_ij=False),
            ):
                np.testing.assert_array_equal(call(session, m), call(cold, cold_csr))
            if window == 0:
                lowerings = session.cache.stats.lowerings
        # One lowering per operator for the capacity, one plan per epoch.
        assert session.cache.stats.lowerings == lowerings
        assert session.stats.handle_misses == 2 * 4
        assert session.stats.interpreted_runs == 0

    def test_threads_query_an_edited_matrix(self):
        """Serving threads share one edited matrix's handle and its per-epoch
        tables, made by whichever thread asks first."""
        m = small_matrix(rows=40, cols=32, seed=4)
        x = RNG(5).standard_normal((m.cols, 8)).astype(np.float32)
        session = Session(persistent=False)
        missing = sorted(set(np.ndindex(m.shape)) - set(edge_map(m)))
        workers, calls = 6, 10  # more workers than cores
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for window in range(4):
                row, col = missing[window]
                m.insert_edges([row], [col], [float(window)])
                expected = Session(persistent=False).spmm(m, x)
                results = [[] for _ in range(workers)]
                start = threading.Barrier(workers)

                def worker(k):
                    start.wait(timeout=30)
                    for _ in range(calls):
                        results[k].append(session.spmm(m, x))

                threads = [threading.Thread(target=worker, args=(k,)) for k in range(workers)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                for outs in results:
                    assert len(outs) == calls
                    assert all(np.array_equal(out, expected) for out in outs)
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.skipif(not NATIVE, reason="only a native kernel takes tables per call")
    def test_a_matrix_never_edited_feeds_nothing(self, monkeypatch):
        """No table feed and no per-call fact check until the first edit."""
        from repro.core.codegen import native

        checks = []
        real = native.check_tables
        monkeypatch.setattr(
            native, "check_tables", lambda *args: checks.append(1) or real(*args)
        )
        m = small_matrix(rows=8, cols=8, seed=2)
        x = RNG(3).standard_normal((m.cols, 4)).astype(np.float32)
        session = Session(persistent=False)
        session.spmm(m, x)  # binds: the bound tables are checked once
        bound = len(checks)
        for _ in range(3):
            session.spmm(m, x)
        assert len(checks) == bound
        (handle,) = session._handles.values()
        assert (handle.epoch, handle.size) == (None, None)  # keyed by epoch 0
        missing = sorted(set(np.ndindex(m.shape)) - set(edge_map(m)))[0]
        m.insert_edges([missing[0]], [missing[1]])
        session.spmm(m, x)
        edited = len(checks)
        session.spmm(m, x)
        assert len(checks) == edited + 1  # the fed tables, on every call

    @pytest.mark.skipif(not NATIVE, reason="only a native kernel takes tables per call")
    def test_fused_sddmm_refuses_a_table_that_ends_below_its_bound(self):
        m = small_matrix(rows=8, cols=8, seed=3)
        missing = sorted(set(np.ndindex(m.shape)) - set(edge_map(m)))[:2]
        m.insert_edges([r for r, _ in missing], [c for _, c in missing])
        x = RNG(4).standard_normal((m.rows, 3)).astype(np.float32)
        y = RNG(5).standard_normal((3, m.cols)).astype(np.float32)
        session = Session(persistent=False)
        expected = session.sddmm(m, x, y)
        tables = m.tables(m.nnz)
        short = tables["indptr"].copy()
        short[-1] -= 1  # one position fewer than the kernel was bound to
        options = dict(fuse_ij=True, dtype=None, tuned=False)
        with pytest.raises(ValueError, match="fed table breaks the kernel's facts"):
            session._execute(
                "sddmm", m, {"x": x, "y": y}, tables={**tables, "indptr": short}, **options
            )
        np.testing.assert_array_equal(session.sddmm(m, x, y), expected)
