"""Dynamic sparsity: incremental structure updates, epochs and overlays.

Covers the epoch-versioned delta machinery end to end:

* delta-log mechanics — O(delta) inserts/deletes/upserts, atomic batches,
  automatic re-compaction, epoch/mutation accounting;
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
  BSR decomposition.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.formats.bsr import BSRMatrix
from repro.formats.csr import CSRMatrix
from repro.formats.delta import DeltaLog, base_edge_keys
from repro.formats.ell import ELLMatrix
from repro.formats.hyb import HybFormat
from repro.ops.spmm import choose_hyb_parameters
from repro.runtime.session import Session
from repro.serve.batching import make_spmm_request
from repro.tune.spaces import SpMMProblem
from repro.workloads.graphs import synthetic_graph

RNG = np.random.default_rng


def small_matrix(dtype="float32", compact_threshold=10.0, seed=0, rows=6, cols=7):
    """A small random matrix whose auto-compaction is effectively disabled."""
    m = CSRMatrix.random(rows, cols, density=0.3, seed=seed, dtype=dtype)
    m.compact_threshold = compact_threshold
    return m


def csr_from_edges(shape, edges, dtype, compact_threshold=10.0):
    """Cold-build a canonical CSRMatrix from an explicit ``{(r, c): v}`` map.

    Built directly (not via ``to_dense``/scipy canonicalisation) so edges
    whose value happens to be exactly zero survive — the delta log stores
    them, and the cold comparator must too.
    """
    items = sorted(edges.items())
    rows = np.array([r for (r, _), _ in items], dtype=np.int64)
    cols = np.array([c for (_, c), _ in items], dtype=np.int64)
    vals = np.array([v for _, v in items], dtype=np.dtype(dtype))
    indptr = np.zeros(shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=shape[0]), out=indptr[1:])
    return CSRMatrix(shape, indptr, cols, vals, dtype=dtype,
                     compact_threshold=compact_threshold)


def edge_map(csr):
    """The effective ``{(row, col): value}`` content of a matrix."""
    out = {}
    indptr, indices, data = csr.indptr, csr.indices, csr.data
    for row in range(csr.rows):
        for pos in range(indptr[row], indptr[row + 1]):
            out[(row, int(indices[pos]))] = data[pos]
    return out


# ---------------------------------------------------------------------------
# Delta-log mechanics
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
        assert m.has_pending_delta
        assert m.pending_delta == 2
        assert m.nnz == base_nnz + 2
        dense = m.to_dense()
        assert dense[missing[0]] == np.float32(1.5)
        assert dense[missing[1]] == np.float32(-2.5)

    def test_upsert_replaces_value_without_growing(self):
        m = small_matrix()
        row = int(np.flatnonzero(np.diff(m.indptr))[0])
        col = int(m.indices[m.indptr[row]])
        nnz = m.nnz
        m.insert_edges([row], [col], [9.0])
        assert m.nnz == nnz  # tombstone + insert cancel out in the count
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
        assert m.structure_epoch == 0
        assert not m.has_pending_delta

    def test_double_delete_in_one_batch_rejected(self):
        m = small_matrix()
        row = int(np.flatnonzero(np.diff(m.indptr))[0])
        col = int(m.indices[m.indptr[row]])
        with pytest.raises(KeyError):
            m.delete_edges([row, row], [col, col])
        assert m.structure_epoch == 0

    def test_insert_then_delete_collapses_delta(self):
        m = small_matrix()
        missing = sorted(set(np.ndindex(m.shape)) - set(edge_map(m)))[0]
        m.insert_edges([missing[0]], [missing[1]], [3.0])
        assert m.has_pending_delta
        m.delete_edges([missing[0]], [missing[1]])
        assert not m.has_pending_delta  # edits cancelled -> back to plain base
        assert m.structure_epoch == 2  # but the epoch still advanced twice

    def test_auto_compaction_at_threshold(self):
        m = small_matrix(compact_threshold=0.25)
        base_nnz = len(m._indices)
        missing = sorted(set(np.ndindex(m.shape)) - set(edge_map(m)))
        budget = int(np.ceil(0.25 * base_nnz))
        rows = [r for r, _ in missing[:budget]]
        cols = [c for _, c in missing[:budget]]
        m.insert_edges(rows, cols)
        assert not m.has_pending_delta  # drift hit the threshold -> compacted
        assert m.nnz == base_nnz + budget
        assert m.drift_ratio == 0.0

    def test_compact_preserves_epoch_and_content(self):
        m = small_matrix()
        missing = sorted(set(np.ndindex(m.shape)) - set(edge_map(m)))[0]
        m.insert_edges([missing[0]], [missing[1]], [4.0])
        before = edge_map(m)
        epoch = m.structure_epoch
        signature = m.content_signature()
        m.compact()
        assert not m.has_pending_delta
        assert m.structure_epoch == epoch  # storage rewrite, not a mutation
        assert edge_map(m) == before
        assert m.content_signature() == signature

    def test_base_view_identity_stable_across_window(self):
        m = small_matrix()
        missing = sorted(set(np.ndindex(m.shape)) - set(edge_map(m)))[:3]
        m.insert_edges([missing[0][0]], [missing[0][1]])
        view = m.base_view()
        assert view is not m
        assert view.indptr is m._indptr  # shares the frozen base arrays
        m.insert_edges([missing[1][0]], [missing[1][1]])
        assert m.base_view() is view  # same object while the base stands
        m.compact()
        assert m.base_view() is m  # no pending delta: the matrix is its base

    def test_base_edge_keys_requires_canonical(self):
        indptr = np.array([0, 2], dtype=np.int64)
        indices = np.array([2, 1], dtype=np.int64)  # out of order
        with pytest.raises(ValueError):
            base_edge_keys((1, 3), indptr, indices)

    def test_delta_log_counters(self):
        # Base: row 0 = {1, 2}, row 1 = {0}, row 2 = {3}; keys are row * 4 + col.
        indptr = np.array([0, 2, 3, 4], dtype=np.int64)
        indices = np.array([1, 2, 0, 3], dtype=np.int64)
        data = np.arange(1.0, 5.0, dtype=np.float32)
        log = DeltaLog((3, 4), indptr, indices, data, base_edge_keys((3, 4), indptr, indices))
        assert log.pending == 0
        log.upsert(np.array([3]), np.array([2.0], dtype=np.float32))  # new edge (0, 3)
        log.remove(np.array([11]))  # base edge (2, 3)
        assert log.pending == 2 and log.dead == 1 and log.inserted == 1
        # Touched rows are logged whole; the untouched row is not.
        assert log.touched.tolist() == [True, False, True]
        assert log.keys.tolist() == [1, 2, 3] and log.origin.tolist() == [0, 1, -1]
        log.remove(np.array([3]))
        assert log.pending == 1
        with pytest.raises(KeyError):
            log.remove(np.array([4, 3]))  # (1, 0) is there, (0, 3) no longer
        assert log.pending == 1 and log.touched.tolist() == [True, False, True]


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
        m.compact_threshold = 10.0
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
# Tentpole: overlay execution keeps warm kernels; drift triggers re-tune
# ---------------------------------------------------------------------------


class TestOverlayExecution:
    def test_unchanged_epoch_requests_stay_warm(self):
        session = Session(persistent=False)
        m = small_matrix()
        x = RNG(0).standard_normal((m.cols, 4)).astype(np.float32)
        session.spmm(m, x)  # cold: compiles the base kernel
        misses = session.stats.kernel_cache_misses
        session.spmm(m, x)
        assert session.stats.kernel_cache_hits >= 1
        missing = sorted(set(np.ndindex(m.shape)) - set(edge_map(m)))[0]
        m.insert_edges([missing[0]], [missing[1]], [2.0])
        out = session.spmm(m, x)
        # The mutated matrix executed as base plan + overlay: the warm base
        # kernel was reused, nothing recompiled.
        assert session.stats.kernel_cache_misses == misses
        assert session.stats.overlay_runs == 1
        cold = Session(persistent=False)
        expected = cold.spmm(csr_from_edges(m.shape, edge_map(m), m.dtype), x)
        np.testing.assert_array_equal(out, expected)

    def test_overlay_sddmm_matches_cold(self):
        session = Session(persistent=False)
        m = small_matrix()
        x = RNG(1).standard_normal((m.rows, 3)).astype(np.float32)
        y = RNG(2).standard_normal((3, m.cols)).astype(np.float32)
        session.sddmm(m, x, y)
        misses = session.stats.kernel_cache_misses
        missing = sorted(set(np.ndindex(m.shape)) - set(edge_map(m)))[:2]
        m.insert_edges([r for r, _ in missing], [c for _, c in missing], [1.0, -1.0])
        row = int(np.flatnonzero(np.diff(m._indptr))[0])
        m.delete_edges([row], [int(m._indices[m._indptr[row]])])
        out = session.sddmm(m, x, y)
        assert session.stats.kernel_cache_misses == misses
        assert session.stats.overlay_runs == 1
        cold = Session(persistent=False)
        expected = cold.sddmm(csr_from_edges(m.shape, edge_map(m), m.dtype), x, y)
        np.testing.assert_array_equal(out, expected)


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
        m.compact_threshold = 10.0
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
        m.compact_threshold = 10.0
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
        m.compact_threshold = 10.0
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
        m.compact_threshold = 10.0
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
