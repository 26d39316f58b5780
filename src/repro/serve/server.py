"""The async serving front-end: bounded queue + coalescing batcher thread.

:class:`Server` accepts concurrent operator requests from any number of
threads (or an asyncio event loop via the ``*_async`` helpers), parks them
on a bounded queue, and drains the queue from a single daemon batcher
thread.  A drain keeps taking requests while they keep arriving and ends
once the queue has stayed empty for a *quiet gap* (:class:`Drain`; at most
``linger_s`` after its first request), so a burst of same-fingerprint
requests lands in one drain without sleeping on a queue that has gone
quiet.  The batch goes to :func:`~repro.serve.batching.coalesce` /
``run_group``: same-structure requests execute as one launch (``spmm`` over
the concatenated feature columns, ``batched_sddmm``), and every caller's
:class:`~concurrent.futures.Future` resolves with a result bit-exact to
sequential eager execution.

Degradation ladder (each rung stamped into :class:`ServingStats`):

1. **coalesced** — the happy path, one launch per same-fingerprint group;
2. **eager** — a failed batched launch re-runs each member individually, so
   one poisoned request cannot fail its batch-mates;
3. **inline** — a full queue executes the request on the caller's thread
   instead of blocking or dropping it; :meth:`Server.close` drains
   stragglers the same way.

The server never wedges: every submitted request's future resolves with a
result or an exception.
"""

from __future__ import annotations

import asyncio
import queue
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from .batching import (
    DEFAULT_MAX_BATCH,
    ServeRequest,
    coalesce,
    make_call_request,
    make_sddmm_request,
    make_spmm_request,
    run_group,
)
from .stats import ServingStats

#: Queue sentinel that tells the batcher thread to exit.
_SHUTDOWN = object()

#: A queue counts as quiet once it stayed empty for this many inter-arrival
#: times of the bursts seen so far.
GAP_ARRIVALS = 4

#: Floor of the quiet gap: Linux's default timer slack.  A timed wait on the
#: queue is no more precise than this, so a shorter gap would measure the
#: timer and not the queue.
TIMER_SLACK_S = 5e-5


@dataclass
class ServerConfig:
    """Tunables of the serving front-end.

    ``linger_s`` trades latency for occupancy: it is the longest a drain
    stays open after its first dequeued request for more work to coalesce
    with (a drain whose queue goes quiet ends sooner, see :class:`Drain`;
    ``0`` takes what is queued and never waits).  ``max_batch`` caps the
    requests of one launch; a request that finds the queue full runs on
    the caller's thread.
    """

    max_batch: int = DEFAULT_MAX_BATCH
    queue_capacity: int = 1024
    linger_s: float = 0.002

    def __post_init__(self) -> None:
        if self.max_batch <= 0:
            raise ValueError("max_batch must be positive")
        if self.queue_capacity <= 0:
            raise ValueError("queue_capacity must be positive")


class Drain:
    """The batcher's drain rule: when to stop waiting for a burst's next request.

    A drain takes requests while they keep arriving and ends when the
    *source* has stayed empty for :meth:`gap_s`, or ``linger_s`` after its
    first request, whichever comes first; a non-empty source never waits.
    The gap is ``GAP_ARRIVALS`` times the running inter-arrival time, read
    off the ``submitted_at`` stamps of the drains that held more than one
    request — so it follows the clients' pace, not the batcher's — floored
    at ``TIMER_SLACK_S`` and capped by ``linger_s``; ``linger_s / 8`` until a
    burst has been seen.  Arrivals spaced wider than the gap are served one
    by one and teach it nothing: coalescing them costs each a wait of their
    spacing.

    *source* is the request queue (``get(timeout=)`` / ``get_nowait()``
    raising :class:`queue.Empty`) and *clock* its time base; tests drive both.
    """

    def __init__(self, source, clock: Callable[[], float] = time.monotonic):
        self._source = source
        self._clock = clock
        #: Running inter-arrival time inside multi-request drains (each drain's
        #: median, exponentially weighted); ``None`` until one has been seen.
        self.interarrival_s: Optional[float] = None

    def gap_s(self, linger_s: float) -> float:
        """How long an empty queue is waited on before the drain ends."""
        if self.interarrival_s is None:
            return linger_s / 8
        return min(max(GAP_ARRIVALS * self.interarrival_s, TIMER_SLACK_S), linger_s)

    def take(
        self, first: ServeRequest, linger_s: float, limit: int
    ) -> Tuple[List[ServeRequest], bool]:
        """The drain that starts with *first* (stamping each request's
        ``dequeued_at``), and whether it met the shutdown sentinel."""
        now = self._clock()
        first.dequeued_at = now
        deadline = now + linger_s
        gap = self.gap_s(linger_s)
        batch = [first]
        stop = False
        while len(batch) < limit:
            wait = min(gap, deadline - now)
            try:
                item = (
                    self._source.get(timeout=wait) if wait > 0 else self._source.get_nowait()
                )
            except queue.Empty:
                break
            if item is _SHUTDOWN:
                stop = True
                break
            now = self._clock()
            item.dequeued_at = now
            batch.append(item)
        if len(batch) > 1:
            self._learn(batch, linger_s)
        return batch, stop

    def _learn(self, batch: List[ServeRequest], linger_s: float) -> None:
        """Fold the drain's median inter-arrival time into the running one.

        Spacings longer than ``linger_s`` are between bursts, not inside one
        (a backlog drained after a stall holds several): no drain would have
        waited them out, so they say nothing about the gap.
        """
        stamps = [request.submitted_at for request in batch]
        inside = sorted(
            spacing
            for spacing in (max(b - a, 0.0) for a, b in zip(stamps, stamps[1:]))
            if spacing <= linger_s
        )
        if not inside:
            return
        sample = inside[len(inside) // 2]
        if self.interarrival_s is None:
            self.interarrival_s = sample
        else:
            self.interarrival_s += (sample - self.interarrival_s) / 4


class Server:
    """Async request front-end over one :class:`~repro.runtime.session.Session`.

    Thread-safe: any thread may submit; all coalesced execution happens on
    the internal batcher thread (the session's operator path is protected
    against the residual concurrency of inline fallbacks by the session's
    own locks).  Use as a context manager, or call :meth:`close`.
    """

    def __init__(self, session=None, config: Optional[ServerConfig] = None):
        if session is None:
            from ..runtime.session import Session

            session = Session()
        self.session = session
        self.config = config or ServerConfig()
        self.stats = ServingStats()
        self._queue: "queue.Queue" = queue.Queue(maxsize=self.config.queue_capacity)
        self._drain = Drain(self._queue)
        self._closed = False
        self._inflight = 0
        self._idle = threading.Condition()
        self._thread = threading.Thread(
            target=self._loop, daemon=True, name="repro-serve-batcher"
        )
        self._thread.start()

    # -- submission ------------------------------------------------------------
    def submit(self, request: ServeRequest):
        """Enqueue a request; returns its :class:`~concurrent.futures.Future`.

        A full queue runs the request on the caller's thread.
        """
        if self._closed:
            raise RuntimeError("server is closed")
        self._begin(1)
        try:
            self._queue.put_nowait(request)
        except queue.Full:
            self._run_inline(request)
        return request.future

    def spmm(self, csr, features: np.ndarray, dtype: Any = None, tenant: str = "default"):
        """Submit ``A @ X``; coalesces with same-structure requests."""
        return self.submit(make_spmm_request(csr, features, dtype=dtype, tenant=tenant))

    def sddmm(
        self,
        csr,
        x: np.ndarray,
        y: np.ndarray,
        dtype: Any = None,
        tenant: str = "default",
    ):
        """Submit an SDDMM; coalesces with same-structure requests."""
        return self.submit(make_sddmm_request(csr, x, y, dtype=dtype, tenant=tenant))

    def call(
        self,
        fn: Callable[..., Any],
        *args: Any,
        tenant: str = "default",
        **kwargs: Any,
    ):
        """Submit an arbitrary callable (e.g. a compiled graph run) eagerly."""
        return self.submit(make_call_request(fn, args, kwargs, tenant=tenant))

    async def spmm_async(
        self, csr, features: np.ndarray, dtype: Any = None, tenant: str = "default"
    ):
        """``await``-able :meth:`spmm` for asyncio front-ends."""
        return await asyncio.wrap_future(self.spmm(csr, features, dtype=dtype, tenant=tenant))

    async def sddmm_async(
        self,
        csr,
        x: np.ndarray,
        y: np.ndarray,
        dtype: Any = None,
        tenant: str = "default",
    ):
        """``await``-able :meth:`sddmm` for asyncio front-ends."""
        return await asyncio.wrap_future(
            self.sddmm(csr, x, y, dtype=dtype, tenant=tenant)
        )

    # -- lifecycle ------------------------------------------------------------
    def flush(self, timeout: Optional[float] = None) -> bool:
        """Block until every submitted request has resolved.

        Returns ``False`` if *timeout* elapsed with work still in flight.
        """
        with self._idle:
            return self._idle.wait_for(lambda: self._inflight == 0, timeout)

    def close(self) -> None:
        """Stop accepting work, join the batcher, drain stragglers inline."""
        if self._closed:
            return
        self._closed = True
        self._queue.put(_SHUTDOWN)
        self._thread.join(timeout=30.0)
        # Safety net: anything still queued (a submit that raced close onto
        # the queue behind the sentinel) resolves inline, so no future is
        # orphaned.
        while True:
            try:
                leftover = self._queue.get_nowait()
            except queue.Empty:
                break
            if leftover is not _SHUTDOWN:
                self._run_inline(leftover)
        if self._thread.is_alive():  # still in a launch: hand back its sentinel
            self._queue.put_nowait(_SHUTDOWN)

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- internals ------------------------------------------------------------
    def _run_inline(self, request: ServeRequest) -> None:
        request.degraded = "inline"
        try:
            run_group(self.session, [request], self.stats)
        finally:
            self._done(1)

    def _begin(self, n: int) -> None:
        with self._idle:
            self._inflight += n

    def _done(self, n: int) -> None:
        with self._idle:
            self._inflight -= n
            if self._inflight <= 0:
                self._idle.notify_all()

    def _loop(self) -> None:
        cfg = self.config
        stop = False
        while not stop:
            first = self._queue.get()
            if first is _SHUTDOWN:
                break
            batch, stop = self._drain.take(first, cfg.linger_s, cfg.queue_capacity)
            for group in coalesce(batch, cfg.max_batch):
                try:
                    run_group(self.session, group, self.stats)
                finally:
                    self._done(len(group))

    # -- introspection ------------------------------------------------------------
    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Per-tenant serving statistics (see :class:`ServingStats`)."""
        return self.stats.snapshot()
