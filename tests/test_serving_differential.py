"""Differential correctness of the serving batcher (coalesced vs eager).

The serving runtime's central claim is that coalescing is *invisible*: N
concurrent requests answered through one packed ``spmm`` launch return
bit-for-bit the same arrays as N sequential eager calls.  These tests check
that claim three ways:

* deterministically, driving :func:`~repro.serve.batching.coalesce` +
  ``run_group`` directly (no threads, no timing) over both dtypes, empty
  batches and mixed-fingerprint interleavings;
* property-based (hypothesis, marked ``slow``), over randomly drawn
  structures, dtypes, widths and interleavings, and over the packed launch's
  own corners (odd widths, padded groups, strided inputs, empty rows);
* end-to-end through a live :class:`~repro.serve.Server` — threaded
  submission, the asyncio front-end, and a full queue answered inline.

The drain rule (:class:`~repro.serve.server.Drain`) is driven on a fake
clock and a stub queue: which requests share a drain is a pure function of
their arrival times, so no test of it sleeps.
"""

import asyncio
import queue
import threading
from collections import deque
from concurrent.futures import wait

import numpy as np
import pytest

from repro.formats.csr import CSRMatrix
from repro.runtime.session import Session
from repro.serve import (
    Server,
    ServerConfig,
    coalesce,
    make_call_request,
    make_sddmm_request,
    make_spmm_request,
    run_group,
)
from repro.serve.batching import PACK_QUANTUM, MalformedRequest, ServeRequest
from repro.serve.server import _SHUTDOWN, GAP_ARRIVALS, TIMER_SLACK_S, Drain
from repro.serve.stats import STAGES, ServingStats


def _random_csr(rows, cols, density, seed, rng_values=True):
    rng = np.random.default_rng(seed)
    dense = (rng.random((rows, cols)) < density).astype(np.float32)
    if rng_values:
        dense *= rng.random((rows, cols)).astype(np.float32)
    return CSRMatrix.from_dense(dense)


def _assert_bit_exact(actual, expected):
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert np.array_equal(actual, expected)


class TestCoalesce:
    def test_empty_batch(self):
        assert coalesce([]) == []

    def test_same_fingerprint_groups_fifo(self, rng):
        csr = _random_csr(10, 8, 0.3, seed=0)
        reqs = [make_spmm_request(csr, rng.random((8, 4), dtype=np.float32)) for _ in range(5)]
        groups = coalesce(reqs)
        assert [len(g) for g in groups] == [5]
        assert groups[0] == reqs  # FIFO order preserved

    def test_max_batch_chunks(self, rng):
        csr = _random_csr(10, 8, 0.3, seed=0)
        reqs = [make_spmm_request(csr, rng.random((8, 4), dtype=np.float32)) for _ in range(7)]
        groups = coalesce(reqs, max_batch=3)
        assert [len(g) for g in groups] == [3, 3, 1]

    def test_lane_budget_chunks(self, rng):
        csr = _random_csr(10, 8, 0.3, seed=0)
        reqs = [make_spmm_request(csr, rng.random((8, 4), dtype=np.float32)) for _ in range(4)]
        lanes = reqs[0].lanes
        groups = coalesce(reqs, max_lanes=2 * lanes)
        assert [len(g) for g in groups] == [2, 2]
        # A single over-budget request still runs (singleton group).
        groups = coalesce(reqs[:1], max_lanes=lanes - 1)
        assert [len(g) for g in groups] == [1]

    def test_mixed_fingerprints_never_share_a_group(self, rng):
        a = _random_csr(10, 8, 0.3, seed=0)
        b = _random_csr(10, 8, 0.3, seed=1)
        x32 = rng.random((8, 4), dtype=np.float32)
        reqs = [
            make_spmm_request(a, x32),
            make_spmm_request(b, x32),
            make_spmm_request(a, x32.astype(np.float64)),  # dtype splits the group
            make_spmm_request(a, rng.random((8, 6), dtype=np.float32)),  # width splits
            make_spmm_request(a, x32),
        ]
        groups = coalesce(reqs)
        for group in groups:
            assert len({req.fingerprint for req in group}) == 1
        # Same matrix+width+dtype coalesce; everything else is separate.
        assert sorted(len(g) for g in groups) == [1, 1, 1, 2]

    def test_same_structure_different_values_split(self, rng):
        """csr.data is part of the fingerprint: the batched kernel shares one
        value array, so equal sparsity patterns with different edge weights
        must not coalesce."""
        a = _random_csr(10, 8, 0.3, seed=0)
        b = CSRMatrix(a.shape, a.indptr, a.indices, a.data * 2.0)
        x = rng.random((8, 4), dtype=np.float32)
        groups = coalesce([make_spmm_request(a, x), make_spmm_request(b, x)])
        assert [len(g) for g in groups] == [1, 1]

    def test_non_batchable_requests_are_singletons(self):
        reqs = [make_call_request(lambda: 1) for _ in range(3)]
        groups = coalesce(reqs)
        assert [len(g) for g in groups] == [1, 1, 1]


class TestRunGroupDifferential:
    @pytest.mark.parametrize("np_dtype", [np.float32, np.float64])
    def test_spmm_batch_bit_exact_with_eager(self, np_dtype, rng):
        csr = _random_csr(24, 20, 0.2, seed=3)
        feats = [rng.random((20, 5)).astype(np_dtype) for _ in range(6)]
        serve_session, eager_session = Session(), Session()
        reqs = [make_spmm_request(csr, x) for x in feats]
        groups = coalesce(reqs)
        assert [len(g) for g in groups] == [6]
        run_group(serve_session, groups[0])
        for req, x in zip(reqs, feats):
            expected = eager_session.spmm(csr, x, dtype=str(np.dtype(np_dtype)))
            _assert_bit_exact(req.future.result(timeout=10), expected)

    @pytest.mark.parametrize("np_dtype", [np.float32, np.float64])
    def test_sddmm_batch_bit_exact_with_eager(self, np_dtype, rng):
        csr = _random_csr(16, 12, 0.25, seed=4)
        pairs = [
            (rng.random((16, 4)).astype(np_dtype), rng.random((4, 12)).astype(np_dtype))
            for _ in range(4)
        ]
        serve_session, eager_session = Session(), Session()
        reqs = [make_sddmm_request(csr, x, y) for x, y in pairs]
        groups = coalesce(reqs)
        assert [len(g) for g in groups] == [4]
        run_group(serve_session, groups[0])
        for req, (x, y) in zip(reqs, pairs):
            expected = eager_session.sddmm(csr, x, y, dtype=str(np.dtype(np_dtype)))
            _assert_bit_exact(req.future.result(timeout=10), expected)

    def test_mixed_interleaving_bit_exact(self, rng):
        """A drained queue mixing matrices, widths and dtypes: every request
        resolves to exactly its own eager answer."""
        mats = [_random_csr(14, 10, 0.3, seed=s) for s in (0, 1)]
        serve_session, eager_session = Session(), Session()
        reqs, expected = [], []
        for i in range(12):
            csr = mats[i % 2]
            np_dtype = np.float64 if i % 3 == 0 else np.float32
            x = rng.random((10, 3 if i % 4 else 5)).astype(np_dtype)
            reqs.append(make_spmm_request(csr, x))
            expected.append(eager_session.spmm(csr, x, dtype=str(np.dtype(np_dtype))))
        for group in coalesce(reqs):
            run_group(serve_session, group)
        for req, exp in zip(reqs, expected):
            _assert_bit_exact(req.future.result(timeout=10), exp)

    def test_poisoned_request_degrades_batchmates_to_eager(self, rng):
        """A batch that fails mid-launch re-runs each member eagerly: good
        requests still succeed (degraded="eager"), the bad one raises."""
        csr = _random_csr(10, 8, 0.3, seed=5)
        good = [make_spmm_request(csr, rng.random((8, 4), dtype=np.float32)) for _ in range(3)]
        bad = make_spmm_request(csr, rng.random((8, 4), dtype=np.float32))
        bad.payload["features"] = rng.random((7, 4)).astype(np.float32)  # corrupt post-fingerprint
        group = [good[0], bad, good[1], good[2]]
        session, eager_session, stats = Session(), Session(), ServingStats()
        run_group(session, group, stats)
        with pytest.raises(Exception):
            bad.future.result(timeout=10)
        for req in good:
            expected = eager_session.spmm(csr, req.payload["features"], dtype="float32")
            _assert_bit_exact(req.future.result(timeout=10), expected)
            assert req.degraded == "eager"
        snap = stats.snapshot()["default"]
        assert snap["degraded_eager"] == 4
        assert snap["degraded_reasons"] == {"MalformedRequest": 4}
        assert snap["errors"] == 1

    @pytest.mark.parametrize(
        "features",
        [np.ones((7, 4), np.float32), np.ones((8, 5), np.float32), np.ones((8, 0), np.float32)],
        ids=["rows", "width", "k0"],
    )
    def test_malformed_member_is_rejected_before_packing(self, features, rng):
        """Wrong row count, a width that differs from the group's, k == 0: the
        pack refuses by name instead of copying garbage, and the group degrades
        to eager under that reason."""
        from repro.serve.batching import _execute_batched

        csr = _random_csr(10, 8, 0.3, seed=5)
        group = [make_spmm_request(csr, rng.random((8, 4), dtype=np.float32)) for _ in range(3)]
        if features.shape[1] == 0:
            for request in group:
                request.payload["features"] = features
        else:
            group[1].payload["features"] = features
        group[1].tenant = "acme"
        with pytest.raises(MalformedRequest, match=r"request \d of 3 \(tenant '\w+'\)"):
            _execute_batched(Session(), group)
        assert issubclass(MalformedRequest, ValueError)
        stats = ServingStats()
        run_group(Session(), group, stats)
        assert all(request.degraded == "eager" for request in group)
        assert sum(
            snap["degraded_reasons"].get("MalformedRequest", 0)
            for snap in stats.snapshot().values()
        ) == 3

    def test_failed_launch_is_counted_under_its_exception_type(self, rng, monkeypatch):
        csr = _random_csr(10, 8, 0.3, seed=5)
        feats = [rng.random((8, 4), dtype=np.float32) for _ in range(3)]
        session, stats = Session(), ServingStats()
        expected = [session.spmm(csr, x, dtype="float32") for x in feats]
        eager = session.spmm

        def wide_fails(matrix, features, **options):
            if features.shape[1] != 4:
                raise MemoryError("no room for the packed operand")
            return eager(matrix, features, **options)

        monkeypatch.setattr(session, "spmm", wide_fails, raising=False)
        reqs = [make_spmm_request(csr, x) for x in feats]
        run_group(session, reqs, stats)
        for req, exp in zip(reqs, expected):
            _assert_bit_exact(req.future.result(timeout=10), exp)
        snap = stats.snapshot()["default"]
        assert snap["degraded_reasons"] == {"MemoryError": 3}
        assert snap["errors"] == 0 and snap["batches"] == 0

    @pytest.mark.parametrize("kind", ["spmm", "sddmm"])
    def test_coalesced_results_own_their_memory(self, kind, rng):
        """One caller keeping one response must not pin its batch-mates', and
        no two callers may see each other's memory."""
        csr = _random_csr(16, 12, 0.25, seed=4)
        if kind == "spmm":
            reqs = [
                make_spmm_request(csr, rng.random((12, 4), dtype=np.float32)) for _ in range(5)
            ]
        else:
            reqs = [
                make_sddmm_request(
                    csr, rng.random((16, 4), dtype=np.float32), rng.random((4, 12), dtype=np.float32)
                )
                for _ in range(5)
            ]
        stats = ServingStats()
        run_group(Session(), reqs, stats)
        assert stats.snapshot()["default"]["batches"] == 1  # it did coalesce
        results = [req.future.result(timeout=10) for req in reqs]
        for i, result in enumerate(results):
            assert result.base is None and result.flags.c_contiguous
            for other in results[i + 1:]:
                assert not np.shares_memory(result, other)

    def test_repeated_width_is_a_handle_hit(self, rng):
        """Group sizes round up to PACK_QUANTUM, so a second burst of a width
        already seen — same size or one that pads to it — lowers nothing."""
        csr = _random_csr(24, 20, 0.2, seed=3)
        session = Session()

        def burst(size):
            feats = [rng.random((20, 4), dtype=np.float32) for _ in range(size)]
            reqs = [make_spmm_request(csr, x) for x in feats]
            before = (session.cache.stats.lowerings, session.stats.handle_hits)
            run_group(session, reqs)
            for req in reqs:
                req.future.result(timeout=10)
            return (
                session.cache.stats.lowerings - before[0],
                session.stats.handle_hits - before[1],
            )

        assert PACK_QUANTUM == 4
        assert burst(7) == (1, 0)  # cold: the 8-request width is lowered once
        assert burst(7) == (0, 1)
        assert burst(5) == (0, 1)  # pads to the same width
        assert burst(8) == (0, 1)
        assert burst(9) == (1, 0)  # the next width

    def test_stage_times_add_up_to_the_latency(self, rng):
        csr = _random_csr(10, 8, 0.3, seed=5)
        reqs = [make_spmm_request(csr, rng.random((8, 4), dtype=np.float32)) for _ in range(3)]
        stats = ServingStats()
        run_group(Session(), reqs, stats)
        for req in reqs:
            # Never queued (run_group called directly): dequeue == launch start.
            assert req.submitted_at <= req.dequeued_at == req.launch_started_at
            assert req.launch_started_at <= req.launch_ended_at
        tenant = stats.tenant()
        assert [tenant.stages[stage].count for stage in STAGES] == [3, 3, 3, 3]
        snap = stats.snapshot()["default"]
        assert {f"{stage}_p{q}_s" for stage in STAGES for q in (50, 99)} <= set(snap)
        # One group, one launch: every request reads the same launch time, and
        # the four stages of a request sum to its latency.
        assert snap["launch_p50_s"] == snap["launch_p99_s"] > 0
        assert snap["linger_p99_s"] == 0
        total = sum(float(tenant.stages[stage]._buf[:3].sum()) for stage in STAGES)
        assert total == pytest.approx(float(tenant.latency._buf[:3].sum()))


@pytest.mark.slow
class TestPropertyDifferential:
    """Hypothesis: coalesced serving is bit-exact under arbitrary mixes."""

    def test_random_interleavings(self):
        from hypothesis import HealthCheck, given, settings
        from hypothesis import strategies as st

        @settings(
            max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
        )
        @given(
            seed=st.integers(0, 2**16),
            n_requests=st.integers(0, 10),
            n_matrices=st.integers(1, 3),
            widths=st.lists(st.sampled_from([1, 2, 4, 7]), min_size=1, max_size=3),
            max_batch=st.integers(1, 8),
        )
        def run(seed, n_requests, n_matrices, widths, max_batch):
            rng = np.random.default_rng(seed)
            mats = [
                _random_csr(rng.integers(4, 16), rng.integers(4, 14), 0.35, seed=seed + i)
                for i in range(n_matrices)
            ]
            serve_session, eager_session = Session(), Session()
            reqs, expected = [], []
            for _ in range(n_requests):
                csr = mats[rng.integers(len(mats))]
                np_dtype = np.float64 if rng.integers(2) else np.float32
                x = rng.random((csr.shape[1], int(rng.choice(widths)))).astype(np_dtype)
                reqs.append(make_spmm_request(csr, x))
                expected.append(eager_session.spmm(csr, x, dtype=str(np.dtype(np_dtype))))
            groups = coalesce(reqs, max_batch=max_batch)
            assert sum(len(g) for g in groups) == len(reqs)
            for group in groups:
                assert len(group) <= max_batch
                assert len({req.fingerprint for req in group}) <= 1
                run_group(serve_session, group)
            for req, exp in zip(reqs, expected):
                _assert_bit_exact(req.future.result(timeout=10), exp)

        run()

    def test_packed_launch_corners(self):
        """The packed launch against ``Session.spmm``, request by request: any
        group size (padded or not), widths whose items are not a power of two
        bytes, both dtypes, inputs that are not C-contiguous, empty rows."""
        from hypothesis import HealthCheck, given, settings
        from hypothesis import strategies as st

        @settings(
            max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
        )
        @given(
            seed=st.integers(0, 2**16),
            size=st.integers(2, 16),
            feat=st.sampled_from([1, 2, 3, 4, 5, 8, 16]),
            np_dtype=st.sampled_from([np.float32, np.float64]),
            layouts=st.lists(
                st.sampled_from(["c", "fortran", "sliced", "f64"]), min_size=1, max_size=4
            ),
        )
        def run(seed, size, feat, np_dtype, layouts):
            rng = np.random.default_rng(seed)
            rows, cols = int(rng.integers(3, 20)), int(rng.integers(2, 16))
            dense = (rng.random((rows, cols)) < 0.3) * rng.random((rows, cols))
            dense[rng.integers(rows)] = 0.0  # a row with no non-zero
            csr = CSRMatrix.from_dense(dense.astype(np.float32))
            dtype = str(np.dtype(np_dtype))
            feats = []
            for i in range(size):
                x = rng.standard_normal((cols, feat)).astype(np_dtype)
                layout = layouts[i % len(layouts)]
                if layout == "fortran":
                    x = np.asfortranarray(x)
                elif layout == "sliced":
                    x = rng.standard_normal((cols, 2 * feat + 1)).astype(np_dtype)[:, 1::2]
                elif layout == "f64":  # converted on the way into the pack
                    x = x.astype(np.float64)
                feats.append(x)
            serve_session, eager_session = Session(), Session()
            reqs = [make_spmm_request(csr, x, dtype=dtype) for x in feats]
            stats = ServingStats()
            (group,) = coalesce(reqs)
            run_group(serve_session, group, stats)
            snap = stats.snapshot()["default"]
            assert snap["batches"] == 1 and snap["degraded_eager"] == 0
            for req, x in zip(reqs, feats):
                out = req.future.result(timeout=10)
                _assert_bit_exact(out, eager_session.spmm(csr, x, dtype=dtype))
                assert out.base is None

        run()


class _Arrivals:
    """A stub request queue on a fake clock: request *i* arrives at ``times[i]``.

    ``get(timeout)`` jumps the clock to the next arrival when it falls inside
    the timeout and by the whole timeout when it does not, so a drain's
    outcome is exact and nothing sleeps.  ``waits`` lists the timeouts asked
    for on an empty queue.
    """

    def __init__(self, times=()):
        self.now = 0.0
        self.waits = []
        self.pending = deque()
        self.arrive(times)

    def arrive(self, times):
        self.pending.extend(
            ServeRequest("call", "default", {}, "", False, 0, submitted_at=at)
            for at in sorted(times)
        )

    def clock(self):
        return self.now

    def get(self, timeout):
        if self.pending and self.pending[0] is _SHUTDOWN:
            return self.pending.popleft()
        if not self.pending or self.pending[0].submitted_at > self.now:
            self.waits.append(timeout)
        if self.pending and self.pending[0].submitted_at <= self.now + timeout:
            self.now = max(self.now, self.pending[0].submitted_at)
            return self.pending.popleft()
        self.now += timeout
        raise queue.Empty

    def get_nowait(self):
        if self.pending and self.pending[0].submitted_at <= self.now:
            return self.pending.popleft()
        raise queue.Empty

    def serve(self, drain, linger_s):
        """The batcher's outer loop: block for a first request, then drain.
        Returns the drains as lists of arrival times."""
        drains = []
        while self.pending:
            first = self.pending.popleft()
            self.now = max(self.now, first.submitted_at)
            batch, _ = drain.take(first, linger_s, limit=1024)
            drains.append([request.submitted_at for request in batch])
        return drains


class TestDrain:
    LINGER = 0.002

    def _serve(self, times, linger_s=LINGER):
        arrivals = _Arrivals(times)
        drain = Drain(arrivals, arrivals.clock)
        return arrivals.serve(drain, linger_s), arrivals, drain

    def test_burst_lands_in_one_drain_and_is_not_slept_on(self):
        times = [i * 30e-6 for i in range(16)]
        drains, arrivals, drain = self._serve(times)
        assert drains == [times]
        # It launched one gap after the last arrival, not at the deadline.
        assert arrivals.now == pytest.approx(times[-1] + self.LINGER / 8)
        assert arrivals.now < self.LINGER / 2
        assert drain.interarrival_s == pytest.approx(30e-6)

    def test_requests_are_stamped_at_dequeue(self):
        arrivals = _Arrivals([0.0, 1e-4])
        requests = list(arrivals.pending)
        arrivals.serve(Drain(arrivals, arrivals.clock), self.LINGER)
        assert [request.dequeued_at for request in requests] == [0.0, 1e-4]

    def test_lone_request_waits_the_gap_not_the_linger(self):
        drains, arrivals, _ = self._serve([0.0])
        assert drains == [[0.0]]
        assert arrivals.now == pytest.approx(self.LINGER / 8)
        assert arrivals.waits == [pytest.approx(self.LINGER / 8)]

    def test_arrivals_wider_than_the_gap_split(self):
        times = [0.0, 0.0005, 0.0010]  # inside linger_s, outside linger_s / 8
        drains, _, drain = self._serve(times)
        assert drains == [[t] for t in times]
        assert drain.interarrival_s is None  # lone requests teach nothing

    def test_arrivals_that_never_pause_are_cut_at_linger(self):
        times = [i * 1e-4 for i in range(100)]  # always inside the gap
        drains, _, _ = self._serve(times)
        assert drains[0] == [t for t in times if t <= self.LINGER + 1e-12]
        assert len(drains[0]) == 21
        assert sum(len(d) for d in drains) == len(times)

    def test_linger_zero_takes_what_is_queued(self):
        arrivals = _Arrivals([0.0, 0.0, 0.0, 1e-6])
        drains = arrivals.serve(Drain(arrivals, arrivals.clock), 0.0)
        assert drains == [[0.0, 0.0, 0.0], [1e-6]]
        assert arrivals.waits == []  # never a timed wait

    def test_nonempty_queue_never_waits(self):
        """A backlog (the batcher was busy) drains at once, and the spacing
        between its bursts is not mistaken for the spacing inside one."""
        arrivals = _Arrivals([0.0, 0.010, 0.020])
        arrivals.now = 0.050
        drain = Drain(arrivals, arrivals.clock)
        first = arrivals.pending.popleft()
        batch, stop = drain.take(first, self.LINGER, limit=1024)
        assert len(batch) == 3 and not stop
        assert arrivals.waits == [pytest.approx(self.LINGER / 8)]  # only once empty
        assert drain.interarrival_s is None
        assert drain.gap_s(self.LINGER) == self.LINGER / 8

    def test_gap_follows_the_inter_arrival_time(self):
        arrivals = _Arrivals()
        drain = Drain(arrivals, arrivals.clock)

        def bursts(count, spacing):
            for _ in range(count):
                start = arrivals.now + 1.0  # a long pause: each burst is its own drain
                arrivals.arrive(start + i * spacing for i in range(8))
                assert [len(d) for d in arrivals.serve(drain, self.LINGER)] == [8]

        bursts(8, 50e-6)
        assert drain.gap_s(self.LINGER) == pytest.approx(GAP_ARRIVALS * 50e-6)
        bursts(24, 100e-6)  # clients slow down: the gap opens with them
        assert drain.gap_s(self.LINGER) == pytest.approx(GAP_ARRIVALS * 100e-6, rel=0.01)
        bursts(40, 5e-6)  # and speed up past what a timed wait resolves
        assert drain.gap_s(self.LINGER) == TIMER_SLACK_S
        # Capped by linger_s whatever was learned.
        assert drain.gap_s(1e-5) == 1e-5

    def test_limit_and_shutdown_end_a_drain(self):
        arrivals = _Arrivals([0.0] * 5)
        drain = Drain(arrivals, arrivals.clock)
        batch, stop = drain.take(arrivals.pending.popleft(), self.LINGER, limit=3)
        assert len(batch) == 3 and not stop
        arrivals.pending.append(_SHUTDOWN)
        batch, stop = drain.take(arrivals.pending.popleft(), self.LINGER, limit=1024)
        assert len(batch) == 2 and stop


class TestServerEndToEnd:
    def test_threaded_submission_bit_exact(self, rng):
        csr = _random_csr(20, 16, 0.25, seed=6)
        feats = [rng.random((16, 4), dtype=np.float32) for _ in range(16)]
        eager_session = Session()
        expected = [eager_session.spmm(csr, x, dtype="float32") for x in feats]
        with Server(session=Session(), config=ServerConfig(linger_s=0.01)) as server:
            futures = [None] * len(feats)
            barrier = threading.Barrier(4)

            def submit(worker):
                barrier.wait()
                for i in range(worker, len(feats), 4):
                    futures[i] = server.spmm(csr, feats[i], tenant=f"t{worker}")

            threads = [threading.Thread(target=submit, args=(w,)) for w in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            done, not_done = wait(futures, timeout=30)
            assert not not_done
            for fut, exp in zip(futures, expected):
                _assert_bit_exact(fut.result(), exp)
            assert server.flush(timeout=10)
        snap = server.snapshot()
        assert sum(s["requests"] for s in snap.values()) == len(feats)
        # The burst coalesced: at least one multi-request batch launched.
        assert any(s["batches"] >= 1 for s in snap.values())
        for tenant in snap.values():
            # Every stage was timed, and no request sat out the 10 ms linger.
            assert all(tenant[f"{stage}_p50_s"] >= 0 for stage in STAGES)
            assert tenant["launch_p50_s"] > 0

    def test_asyncio_front_end(self, rng):
        csr = _random_csr(12, 10, 0.3, seed=7)
        feats = [rng.random((10, 3), dtype=np.float32) for _ in range(6)]
        eager_session = Session()
        expected = [eager_session.spmm(csr, x, dtype="float32") for x in feats]

        async def drive(server):
            return await asyncio.gather(
                *(server.spmm_async(csr, x) for x in feats)
            )

        with Server(session=Session(), config=ServerConfig(linger_s=0.01)) as server:
            results = asyncio.run(drive(server))
        for out, exp in zip(results, expected):
            _assert_bit_exact(out, exp)

    def _blocked_server(self, capacity):
        """A server whose batcher thread is parked on an event, so the queue
        can be saturated deterministically."""
        server = Server(
            session=Session(),
            config=ServerConfig(queue_capacity=capacity, linger_s=0.0),
        )
        release = threading.Event()
        started = threading.Event()

        def block():
            started.set()
            release.wait(timeout=30)

        server.call(block)
        assert started.wait(timeout=10)  # the batcher is now busy
        return server, release

    def test_saturation_inline_executes_on_caller(self, rng):
        csr = _random_csr(10, 8, 0.3, seed=8)
        x = rng.random((8, 2), dtype=np.float32)
        expected = Session().spmm(csr, x, dtype="float32")
        server, release = self._blocked_server(capacity=1)
        try:
            filler = server.spmm(csr, x)  # fills the queue
            inline = server.spmm(csr, x)  # queue full -> runs on this thread
            assert inline.done()  # resolved synchronously, batcher still blocked
            _assert_bit_exact(inline.result(), expected)
            release.set()
            _assert_bit_exact(filler.result(timeout=30), expected)
        finally:
            release.set()
            server.close()
        assert server.snapshot()["default"]["degraded_inline"] == 1

    def test_close_is_idempotent_and_rejects_new_work(self, rng):
        server = Server(session=Session())
        server.close()
        server.close()
        with pytest.raises(RuntimeError):
            server.spmm(_random_csr(4, 4, 0.5, seed=0), np.ones((4, 2), np.float32))

    def test_call_requests_flow_through(self):
        with Server(session=Session()) as server:
            fut = server.call(lambda a, b: a + b, 2, b=3)
            assert fut.result(timeout=10) == 5

    def test_queue_capacity_validation(self):
        with pytest.raises(ValueError):
            ServerConfig(queue_capacity=0)
        with pytest.raises(ValueError):
            ServerConfig(max_batch=0)
