"""Bound-kernel handles: the warm path of ``Session.<op>``.

A repeated operator call over an unchanged structure is served by a memoised
:class:`~repro.runtime.bound.BoundKernel` — no ``prepare_*``, no program
build, no fingerprint, no ``Kernel`` construction.  These tests pin what the
handle may skip (all compilation-side work) and what it may never skip:
every change to the structure, its values, the operand dtype or the tuning
state must be observed by the next call, bit-exact with a fresh session.
"""

import gc
import sys
import threading
import weakref

import numpy as np
import pytest

from repro.formats.csr import CSRMatrix
from repro.runtime.bound import BoundKernel
from repro.runtime.session import Session
from repro.tune.spaces import SpMMProblem, get_workload

RNG = np.random.default_rng

#: ``repro.core.codegen.build`` the *module* (the package re-exports the
#: function under the same name).
build_module = sys.modules["repro.core.codegen.build"]


def matrix(seed=0, rows=12, cols=10, dtype="float32"):
    return CSRMatrix.random(rows, cols, density=0.3, seed=seed, dtype=dtype)


def features(m, width=4, dtype=np.float32, seed=1):
    return RNG(seed).standard_normal((m.cols, width)).astype(dtype)


def fresh(call):
    """The same call through a session that has never seen the structure."""
    return call(Session(persistent=False))


def missing_edges(m, count):
    present = set(zip(np.repeat(np.arange(m.rows), np.diff(m.indptr)), m.indices))
    free = [rc for rc in np.ndindex(m.shape) if rc not in present][:count]
    return [r for r, _ in free], [c for _, c in free]


class TestWarmHit:
    def test_hit_does_no_compilation_side_work(self, monkeypatch):
        fingerprints = []
        real = build_module.structural_fingerprint
        monkeypatch.setattr(
            build_module, "structural_fingerprint",
            lambda *args, **kwargs: fingerprints.append(1) or real(*args, **kwargs),
        )
        session = Session(persistent=False)
        m, x = matrix(), features(matrix())
        cold = session.spmm(m, x)
        cache = session.cache.stats
        before = (len(fingerprints), cache.lookups, cache.lowerings, cache.emissions)
        assert before[0] == 1 and cache.lowerings == 1
        warm = session.spmm(m, x)
        assert (len(fingerprints), cache.lookups, cache.lowerings, cache.emissions) == before
        assert np.array_equal(cold, warm)
        stats = session.stats
        assert (stats.handle_misses, stats.handle_hits) == (1, 1)
        # A handle hit still counts as a build served without lowering.
        assert (stats.builds, stats.kernel_cache_misses, stats.kernel_cache_hits) == (2, 1, 1)
        assert stats.fast_runs == 2
        assert stats.as_dict()["handle_hits"] == 1

    def test_new_operand_values_same_handle(self):
        session = Session(persistent=False)
        m = matrix()
        for seed in range(3):
            x = features(m, seed=seed)
            assert np.array_equal(session.spmm(m, x), fresh(lambda s: s.spmm(m, x)))
        assert session.stats.handle_hits == 2

    def test_non_contiguous_and_foreign_dtype_operands_are_copied_in(self):
        session = Session(persistent=False)
        m = matrix()
        wide = RNG(3).standard_normal((m.cols, 8)).astype(np.float32)
        strided = wide[:, ::2]
        session.spmm(m, np.ascontiguousarray(strided))
        assert np.array_equal(
            session.spmm(m, strided), fresh(lambda s: s.spmm(m, strided))
        )
        assert session.stats.handle_hits == 1

    def test_results_never_alias_handle_storage(self):
        session = Session(persistent=False)
        m, x = matrix(), features(matrix())
        first = session.spmm(m, x)
        expected = first.copy()
        first[...] = np.nan
        x_before = x.copy()
        second = session.spmm(m, x)
        assert np.array_equal(second, expected)
        second[...] = np.nan
        assert np.array_equal(session.spmm(m, x), expected)
        assert np.array_equal(x, x_before)  # operands are read-only to the kernel

    def test_wrong_operand_shape_raises_the_same_error(self):
        m = matrix()
        bad = np.ones((m.cols + 1, 4), dtype=np.float32)
        with pytest.raises(ValueError) as cold:
            Session(persistent=False).spmm(m, bad)
        session = Session(persistent=False)
        session.spmm(m, features(m))
        session.spmm(m, features(m))
        with pytest.raises(ValueError) as warm:
            session.spmm(m, bad)
        assert str(warm.value) == str(cold.value)

    def test_f32_and_f64_callers_never_share_a_handle(self):
        session = Session(persistent=False)
        m = matrix()
        x32, x64 = features(m), features(m, dtype=np.float64)
        for _ in range(2):
            out32, out64 = session.spmm(m, x32), session.spmm(m, x64)
        assert out32.dtype == np.float32 and out64.dtype == np.float64
        assert np.array_equal(out64, fresh(lambda s: s.spmm(m, x64)))
        assert (session.stats.handle_misses, session.stats.handle_hits) == (2, 2)
        # An explicit dtype is a different application from the inferred one.
        out = session.spmm(m, x32, dtype="float64")
        assert out.dtype == np.float64 and session.stats.handle_misses == 3

    def test_interpreter_sessions_never_bind(self):
        session = Session(engine="interpret", persistent=False)
        m, x = matrix(rows=5, cols=4), features(matrix(rows=5, cols=4))
        session.spmm(m, x)
        session.spmm(m, x)
        assert session.stats.interpreted_runs == 2
        assert (session.stats.handle_misses, session.stats.handle_hits) == (0, 0)


class TestInvalidation:
    def _warm(self, m, x, **kwargs):
        session = Session(persistent=False)
        session.spmm(m, x, **kwargs)
        session.spmm(m, x, **kwargs)
        assert session.stats.handle_hits == 1
        return session

    @pytest.mark.parametrize("fmt", ["csr", "hyb"])
    def test_edits_are_observed(self, fmt):
        m = matrix()
        x = features(m)
        session = self._warm(m, x, format=fmt)
        rows, cols = missing_edges(m, 2)
        m.insert_edges(rows, cols, [2.5, -1.5])
        call = lambda s: s.spmm(m, x, format=fmt)  # noqa: E731
        assert np.array_equal(call(session), fresh(call))
        m.delete_edges(rows[:1], cols[:1])
        assert np.array_equal(call(session), fresh(call))

    def test_edited_matrix_handle_survives_edit_windows(self):
        """The first edit binds the handle an edited matrix keeps: fed its
        current tables on every later call (native), or planned anew per
        epoch where no kernel takes tables (emitted)."""
        m = matrix()
        x = features(m)
        session = self._warm(m, x)
        call = lambda s: s.spmm(m, x)  # noqa: E731
        rows, cols = missing_edges(m, 1)
        for step, kind in enumerate(("edit", "cancel", "edit", "edit")):
            if kind == "cancel":
                m.delete_edges(rows, cols)
            else:
                rows, cols = missing_edges(m, 1)
                m.insert_edges(rows, cols)
            assert np.array_equal(call(session), fresh(call))
            (handle,) = [h for h in session._handles.values() if h.size is not None]
            feeds = handle.epoch is None  # fed the tables of every epoch
            assert feeds == (handle.bound.tier == "native")
            # The clean matrix's handle, and the edited matrix's one: bound
            # once where it is fed, once per epoch where its plan is fixed.
            assert len(session._handles) == 2
            assert session.stats.handle_misses == 2 + (0 if feeds else step)
        # The clean matrix's kernel and the one bound to the capacity: an
        # emitted plan is made anew per epoch from the same lowering.
        assert session.cache.stats.lowerings == 2
        assert session.stats.table_rebinds == 0

    def test_edit_windows_add_no_handles(self):
        """A decomposition of an edited matrix is bound per structure; the
        CSR handle is fed within its capacity.  Either replaces its handle."""
        m = matrix(rows=30, cols=30)
        x = features(m)
        session = Session(persistent=False)
        for window in range(20):
            rows, cols = missing_edges(m, 2)
            m.insert_edges(rows, cols, [1.5, -0.5])
            m.delete_edges(rows[:1], cols[:1])
            for fmt in ("csr", "hyb"):
                call = lambda s: s.spmm(m, x, format=fmt)  # noqa: E731
                assert np.array_equal(call(session), fresh(call))
            assert len(session._handles) == 2
        (handle,) = [h for h in session._handles.values() if not h.derived_format]
        fed = handle.epoch is None
        assert session.stats.handle_misses == 20 + (1 if fed else 20)
        assert session.stats.table_rebinds == 0

    def test_compaction_swaps_storage_under_an_unchanged_epoch(self):
        m = matrix()
        x = features(m)
        session = self._warm(m, x)
        rows, cols = missing_edges(m, 2)
        m.insert_edges(rows, cols, [3.0, 4.0])
        session.spmm(m, x)
        epoch, old_data, capacity = m.structure_epoch, m.data, m.capacity
        m.compact()
        assert m.structure_epoch == epoch and m.data is not old_data
        assert m.capacity == m.nnz < capacity
        call = lambda s: s.spmm(m, x)  # noqa: E731
        assert np.array_equal(call(session), fresh(call))
        assert np.array_equal(call(session), fresh(call))
        # The handle was bound to the old capacity: bound anew once.
        assert session.stats.table_rebinds == 1

    def test_same_key_with_swapped_storage_is_a_miss(self):
        """The guard itself: epoch and id unchanged, arrays replaced."""
        m = matrix()
        x = features(m)
        session = self._warm(m, x)
        other = matrix(seed=5)
        m._indptr, m._indices, m._data = other.indptr, other.indices, other.data
        assert np.array_equal(session.spmm(m, x), fresh(lambda s: s.spmm(other, x)))
        assert session.stats.handle_misses == 2

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_in_place_value_write_is_observed(self, dtype):
        m = matrix()
        x = features(m, dtype=dtype)  # float64 operands: values are converted per call
        session = self._warm(m, x)
        m.data[:] = m.data * 3.0 + 1.0
        out = session.spmm(m, x)
        assert session.stats.handle_hits == 2  # a hit, and still current
        assert np.array_equal(out, fresh(lambda s: s.spmm(m, x)))

    def test_sddmm_reads_current_values(self):
        m = matrix()
        x = RNG(1).standard_normal((m.rows, 3)).astype(np.float32)
        y = RNG(2).standard_normal((3, m.cols)).astype(np.float32)
        session = Session(persistent=False)
        session.sddmm(m, x, y)
        m.data[:] = -m.data
        out = session.sddmm(m, x, y)
        assert session.stats.handle_hits == 1
        assert np.array_equal(out, fresh(lambda s: s.sddmm(m, x, y)))

    def test_lru_eviction_releases_the_structure(self):
        session = Session(persistent=False, format_cache_capacity=2)
        first = matrix(seed=1)
        ref = weakref.ref(first)
        session.spmm(first, features(first))
        del first
        gc.collect()
        assert ref() is not None  # pinned by its handle
        for seed in (2, 3):
            other = matrix(seed=seed)
            session.spmm(other, features(other))
        gc.collect()
        assert ref() is None
        assert len(session._handles) == 2


class TestTuning:
    def _session(self, **kwargs):
        return Session(persistent=False, tuning_records=False, **kwargs)

    def _autotune(self, session, m, width=4):
        result = session.autotune(
            "spmm", SpMMProblem(m, width), strategy="grid", survivors=0, repeats=1
        )
        assert result.record is not None
        return get_workload("spmm").exec_config(result.record.config)

    def test_later_autotune_record_is_picked_up(self):
        session = self._session()
        m = matrix(rows=8, cols=8, seed=7)
        x = features(m)
        session.spmm(m, x, tuned=True)
        session.spmm(m, x, tuned=True)
        assert session.stats.handle_hits == 1  # no record yet: the default plan, warm
        config = self._autotune(session, m)
        hits = session.stats.handle_hits
        out = session.spmm(m, x, tuned=True)
        assert session.stats.handle_hits == hits  # bound under the old plans: a miss
        newest = next(reversed(session._handles.values()))
        expected_program = "spmm_hyb" if config.get("format") == "hyb" else "spmm"
        assert newest.bound.kernel.func.name == expected_program
        assert np.array_equal(out, fresh(lambda s: s.spmm(m, x, **config)))
        session.spmm(m, x, tuned=True)
        assert session.stats.handle_hits == hits + 1
        # Untuned handles are not invalidated by tuning.
        session.spmm(m, x)
        session.spmm(m, x)
        self._autotune(session, m, width=4)
        before = session.stats.handle_hits
        session.spmm(m, x)
        assert session.stats.handle_hits == before + 1

    def test_drift_counters_still_fire(self):
        session = self._session(drift_threshold=0.25)
        m = matrix(rows=8, cols=8, seed=7)
        x = features(m)
        self._autotune(session, m)
        session.spmm(m, x, tuned=True)
        session.spmm(m, x, tuned=True)
        rows, cols = missing_edges(m, 1)
        m.insert_edges(rows, cols)  # drift 1/nnz: reuse the stale plan
        session.spmm(m, x, tuned=True)
        assert session.stats.stale_plan_reuses == 1
        assert session.stats.retunes_triggered == 0
        rows, cols = missing_edges(m, m.nnz)
        m.insert_edges(rows, cols)  # far past the threshold
        call = lambda s: s.spmm(m, x, tuned=True)  # noqa: E731
        assert np.array_equal(call(session), fresh(lambda s: s.spmm(m, x)))
        assert session.stats.retunes_triggered == 1
        assert len(session.retune_pending) == 1


class TestConcurrency:
    def test_threads_sharing_one_handle_stay_bit_exact(self):
        session = Session(persistent=False)
        m = matrix(rows=40, cols=32)
        threads, rounds = 4, 60  # more workers than cores
        inputs = [features(m, width=6, seed=seed) for seed in range(threads)]
        expected = [fresh(lambda s, x=x: s.spmm(m, x)) for x in inputs]
        session.spmm(m, inputs[0])  # bind once; every worker call is a hit
        errors = []
        barrier = threading.Barrier(threads)

        def worker(tid):
            try:
                barrier.wait(timeout=30)
                for _ in range(rounds):
                    out = session.spmm(m, inputs[tid])
                    if not np.array_equal(out, expected[tid]):
                        errors.append((tid, "diverged"))
                        return
            except Exception as exc:  # pragma: no cover - failure path
                errors.append((tid, repr(exc)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            workers = [threading.Thread(target=worker, args=(tid,)) for tid in range(threads)]
            for thread in workers:
                thread.start()
            for thread in workers:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in workers)
        assert not errors, errors
        # Lost updates would show here: every call is one hit and one run.
        assert session.stats.handle_hits == threads * rounds
        assert session.stats.runs == threads * rounds + 1
        assert session.stats.builds == threads * rounds + 1


class TestBoundKernelDirect:
    def test_binds_a_built_kernel(self):
        from repro.ops import registry

        m = matrix()
        x = features(m)
        session = Session(persistent=False)
        spec = registry.prepare(session, "spmm", m, x)
        func, names = registry.build_spec_program(spec)
        kernel = session.build(func)
        tier = kernel.fast_tier()
        assert tier in ("native", "emitted")
        bound = BoundKernel(
            kernel, tier, {names["features"]: "x"}, [("y", names["out"], spec)]
        )
        assert names["features"] not in kernel.defaults  # operands are not pinned
        other = features(m, seed=9)
        assert np.array_equal(bound.run({"x": other})["y"], fresh(lambda s: s.spmm(m, other)))
        with pytest.raises(ValueError, match="missing feed"):
            bound.run({})
        with pytest.raises(ValueError, match="expected"):
            bound.run({"x": other[:-1]})


class TestLocalBuffers:
    """A fused unit's intermediates are ``local``: on the native tier the
    kernel owns them (register tiles, or scratch inside the C ``run``), so
    binding allocates, passes and returns nothing for them."""

    def compiled_rgcn(self, session, width=8):
        from repro.formats.csf import CSFTensor
        from repro.models.rgcn import RGCN

        rng = np.random.default_rng(0)
        adjacency = CSFTensor.from_dense((rng.random((3, 30, 30)) < 0.15).astype(np.float32))
        model = RGCN(adjacency, in_feats=width, hidden=width, num_classes=width)
        feats = rng.standard_normal((30, width)).astype(np.float32)
        return model, model.compile(session, feats, fuse=True), feats

    def test_contracted_buffers_are_not_allocated_and_not_operands(self):
        from repro.core.codegen.emit_c import local_buffers, toolchain_available

        session = Session(persistent=False)
        model, forward, feats = self.compiled_rgcn(session)
        expected = fresh(lambda s: self.compiled_rgcn(s)[1](feats))
        assert np.array_equal(forward(feats), expected)
        (unit,) = forward.compiled.units
        local = set(local_buffers(unit.kernel.func))
        # Every value but the graph output is consumed inside the unit.
        assert len(local) == len(unit.produced) - 1
        zeroed = {name for name, _size, _dtype in unit.bound._zeroed}
        if not toolchain_available():
            assert unit.bound.tier == "emitted" and local <= zeroed  # ordinary buffers there
            return
        assert unit.bound.tier == "native" and not local & zeroed
        binding = unit.kernel._tier("native")[0][1]
        assert not local & set(binding.bufs)
        # Only the hidden layer (gathered by the second layer) is in memory at
        # all; the other intermediates exist as tiles of a region.
        source = unit.kernel.native_source()
        assert "_alloc(bufs, ipar, 0, 1)" in source and source.count("static int _r") == 2
        assert unit.kernel._runner("native").serial_regions == 0

    def test_concurrent_runs_share_nothing(self):
        session = Session(persistent=False)
        _model, forward, feats = self.compiled_rgcn(session, width=16)
        threads, rounds = 4, 25
        inputs = [feats * (tid + 1) for tid in range(threads)]
        expected = [forward(x).copy() for x in inputs]  # also binds the unit
        errors = []
        barrier = threading.Barrier(threads)

        def worker(tid):
            try:
                barrier.wait(timeout=30)
                for _ in range(rounds):
                    if not np.array_equal(forward(inputs[tid]), expected[tid]):
                        errors.append((tid, "diverged"))
                        return
            except Exception as exc:  # pragma: no cover - failure path
                errors.append((tid, repr(exc)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            workers = [threading.Thread(target=worker, args=(tid,)) for tid in range(threads)]
            for thread in workers:
                thread.start()
            for thread in workers:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in workers)
        assert not errors, errors


def _gemm_kernel(session, rows=9, inner=3, cols=5):
    from repro.ops import registry

    a = RNG(0).standard_normal((rows, inner)).astype(np.float32)
    b = RNG(1).standard_normal((inner, cols)).astype(np.float32)
    func, _names = registry.build_spec_program(registry.prepare(session, "gemm", a, b))
    return session.build(func), a, b


class TestBoundNativeCall:
    """A warm native call is marshalled at bind time: the shared constants'
    pointers, the bound tables and ``ipar`` / ``fpar`` are made once, and a
    call wraps only its operands and the buffers it allocates.  No stored
    operand can overlap another by construction, so only the unbound runner
    (``Kernel.run``'s) sweeps addresses."""

    @pytest.fixture(autouse=True)
    def _native_only(self):
        from repro.core.codegen.emit_c import toolchain_available

        if not toolchain_available():
            pytest.skip("no C compiler: the native tier does not load")

    def test_bind_rejects_a_stored_slot_it_does_not_allocate(self):
        kernel, a, b = _gemm_kernel(Session(persistent=False))
        runner = kernel._runner("native")
        assert runner.stored == {"C"}
        with pytest.raises(ValueError, match="'C' is stored to but not allocated per call"):
            runner.bind({}, {"A", "B"})
        with pytest.raises(ValueError, match="'C' is stored to but not allocated per call"):
            runner.bind({"C": np.zeros(45, dtype=np.float32)}, set())  # a constant is only read
        call = runner.bind({"B": b.reshape(-1)}, {"C"})
        out = call({"A": a.reshape(-1), "C": np.zeros(45, dtype=np.float32)})["C"]
        assert np.array_equal(out, kernel.run({"A": a, "B": b}, engine="interpret")["C"])

    def test_unbound_run_still_refuses_an_overlapping_stored_operand(self):
        kernel, a, b = _gemm_kernel(Session(persistent=False))
        pool = np.zeros(a.size + 45, dtype=np.float32)
        pool[: a.size] = a.reshape(-1)
        aliased = {"A": pool[: a.size], "B": b.reshape(-1), "C": pool[a.size - 1 : a.size + 44]}
        with pytest.raises(ValueError, match="'C' is stored to and shares memory with 'A'"):
            kernel._runner("native")(aliased)
        assert np.array_equal(pool[: a.size], a.reshape(-1))  # nothing ran

    def test_serial_regions_is_reported_through_the_bound_call(self):
        from repro.formats.csf import CSFTensor
        from repro.models.rgcn import RGCN

        rng = RNG(6)
        adjacency = CSFTensor.from_dense((rng.random((2, 6, 6)) < 0.4).astype(np.float32))
        feats = rng.standard_normal((6, 8)).astype(np.float32)
        for classes, serial in ((8, 0), (5, 1)):  # 5 lanes are no multiple of the 8-float tile
            model = RGCN(adjacency, in_feats=8, hidden=8, num_classes=classes)
            forward = model.compile(Session(persistent=False), feats, fuse=True)
            forward(feats)
            (unit,) = forward.compiled.units
            assert unit.bound.tier == "native"
            assert unit.kernel._runner("native").serial_regions == serial

    def test_a_fed_row_table_is_checked(self, monkeypatch):
        """A fused SDDMM over an edited matrix is fed the matrix's row table
        (made once per epoch, :meth:`CSRMatrix.position_rows`) and derives
        none per call; a row table naming no row is refused by name."""
        from repro.core.codegen import native

        m = matrix(rows=20, cols=16)
        m.insert_edges(*missing_edges(m, 1))
        x = RNG(2).standard_normal((20, 4)).astype(np.float32)
        y = RNG(3).standard_normal((4, 16)).astype(np.float32)
        expected = fresh(lambda s: s.sddmm(m, x, y))
        session = Session(persistent=False)
        session.sddmm(m, x, y)  # binds: the runner derives the footprint's table once
        derived = []
        real = native._rows_of_positions
        monkeypatch.setattr(native, "_rows_of_positions", lambda *args: derived.append(1) or real(*args))
        for _ in range(3):
            assert np.array_equal(session.sddmm(m, x, y), expected)
        assert session.stats.handle_hits == 3 and not derived
        assert m.position_rows() is m.position_rows()
        rows = m.position_rows().copy()
        rows[-1] = m.rows
        tables = {**m.tables(m.nnz), "rowof": rows}
        with pytest.raises(ValueError, match="'J_rowof' holds a row outside"):
            session._execute("sddmm", m, {"x": x, "y": y}, tables=tables, fuse_ij=True)


class TestWarmCallOverhead:
    """What a warm call costs in Python, without a clock: the calls it makes
    (``sys.setprofile``: Python and C functions) are a count that repeats
    exactly.  A change that adds work to the hit path moves it."""

    #: tier -> calls of a warm ``Session.gemm`` (cora rows, width 4) and a
    #: warm CSR ``Session.spmm`` (cora).  The native output is allocated
    #: ``np.empty`` + ``fill(0)``: one call more than ``np.zeros``.  A hit's
    #: counters move in one locked ``stats.count``: two calls.
    PINNED = {"native": {"gemm": 38, "spmm": 42}, "emitted": {"gemm": 36, "spmm": 38}}

    @staticmethod
    def calls(call):
        count = 0

        def hook(_frame, event, _arg):
            nonlocal count
            count += event in ("call", "c_call")

        call(), call()  # binds, then warms
        sys.setprofile(hook)
        try:
            call()
        finally:
            sys.setprofile(None)
        return count - 1  # setprofile(None) itself

    def test_warm_calls_are_pinned(self):
        from repro.workloads.graphs import synthetic_graph

        session = Session(persistent=False)
        csr = synthetic_graph("cora", seed=1).to_csr()
        a = RNG(0).standard_normal((csr.rows, 4)).astype(np.float32)
        w = RNG(1).standard_normal((4, 4)).astype(np.float32)
        x = RNG(2).standard_normal((csr.cols, 4)).astype(np.float32)
        counts = {
            "gemm": self.calls(lambda: session.gemm(a, w)),
            "spmm": self.calls(lambda: session.spmm(csr, x)),
        }
        tier = next(iter(session._handles.values())).bound.tier
        assert counts == self.PINNED[tier]
