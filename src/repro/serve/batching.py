"""Request fingerprinting and same-structure coalescing.

The serving front-end turns every incoming operator call into a
:class:`ServeRequest` carrying a *serving fingerprint*: a content hash of
everything that must be identical for two requests to share one kernel
launch — the sparse structure (``indptr``/``indices``), the shared edge
values (``data``), the feature width and the value dtype.  Requests with
equal fingerprints multiply the *same* matrix, so ``N`` concurrent
``spmm(A, x_i)`` calls collapse into one ``spmm(A, [x_1 | ... | x_N])`` over
the ``N * k`` concatenated feature columns: one pass over the index stream
instead of ``N``, through the CSR kernel the session already holds.  Every
output element still accumulates over ``j`` in CSR order, whatever its
column, which is what makes coalesced results *bit-exact* with sequential
eager execution (asserted by ``tests/test_serving_differential.py``).
SDDMM has no feature axis to share; its groups run as one ``batched_sddmm``
whose head axis is the batch axis.

:func:`coalesce` groups a drained queue FIFO-by-fingerprint under two caps:
``max_batch`` (requests per launch) and ``max_lanes`` (total ``nnz x feat``
lanes per launch — it bounds the packed operand and result a launch
allocates).  :func:`run_group` executes one group and resolves its futures,
degrading to per-request eager execution if the coalesced launch itself
fails, and stamps every request with where its time went.
"""

from __future__ import annotations

import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from ..runtime.keys import content_key, resolve_dtype

#: Default cap on the requests of one coalesced launch.
DEFAULT_MAX_BATCH = 16

#: Default cap on total lanes (``batch * nnz * feat``) per coalesced launch.
#: A launch allocates its packed operand and result (``batch * feat`` columns
#: over every row), so larger groups are chunked rather than batched blindly.
DEFAULT_MAX_LANES = 1_500_000

#: A packed launch carries a multiple of this many requests, the rest zero
#: columns: every feature width is its own lowering, and a group that splits
#: then meets ``max_batch / PACK_QUANTUM`` widths per structure and ``k``, not
#: ``max_batch``.
PACK_QUANTUM = 4


class MalformedRequest(ValueError):
    """A member of a coalesced group does not have the shape the group packs."""


def _csr_content_key(csr) -> str:
    """Content hash of a CSR matrix (structure + values), memoized per epoch.

    Hashing ``indptr``/``indices``/``data`` costs ~nnz work per call, which
    would dominate the serving fast path if paid per request.  Matrices that
    track mutations (:class:`~repro.formats.csr.CSRMatrix`) memoise the hash
    by ``structure_epoch`` via ``content_signature()``, so a mutated matrix
    re-fingerprints while unchanged-epoch requests stay O(1) — the hash can
    never go stale.  Foreign matrix types without an epoch are immutable by
    convention, so their hash is computed once and cached on the object.
    """
    signature = getattr(csr, "content_signature", None)
    if callable(signature):
        return signature()
    cached = getattr(csr, "_serve_content_key", None)
    if cached is None:
        cached = content_key(csr.shape, csr.indptr, csr.indices, csr.data)
        try:
            csr._serve_content_key = cached
        except AttributeError:  # pragma: no cover - slotted/frozen matrix types
            pass
    return cached


@dataclass
class ServeRequest:
    """One queued operator invocation.

    ``payload`` holds the operator inputs keyed by name; ``fingerprint``
    groups batchable requests; ``lanes`` is the per-request lane footprint
    used by the batcher's lane budget; ``future`` receives the result (or
    exception).  ``degraded`` is stamped by whichever fallback path executed
    the request (``"eager"`` / ``"inline"``), ``None`` for the happy path.
    The ``*_at`` stamps (``time.monotonic()``) follow the request through the
    server: created, taken off the queue by the batcher (for a request that
    ran inline, the launch start), and the start and end of the launch that
    answered it.
    """

    kind: str
    tenant: str
    payload: Dict[str, Any]
    fingerprint: str
    batchable: bool
    lanes: int
    future: Future = field(default_factory=Future)
    submitted_at: float = field(default_factory=time.monotonic)
    dequeued_at: Optional[float] = None
    launch_started_at: Optional[float] = None
    launch_ended_at: Optional[float] = None
    degraded: Optional[str] = None


def make_spmm_request(
    csr,
    features: np.ndarray,
    dtype: Any = None,
    tenant: str = "default",
) -> ServeRequest:
    """Wrap one ``A @ X`` call as a batchable serving request.

    The dtype is resolved eagerly (float64 features select a float64
    kernel) so requests that would compile different programs never share a
    fingerprint.  ``csr.data`` is part of the fingerprint: a coalesced launch
    multiplies one matrix, so only requests against the *same* weighted
    matrix may coalesce.
    """
    features = np.asarray(features)
    if features.ndim != 2:
        raise ValueError(f"spmm features must be 2-D, got shape {features.shape}")
    value_dtype = resolve_dtype(features, dtype)
    feat = int(features.shape[1])
    fingerprint = content_key("serve/spmm", _csr_content_key(csr), feat, value_dtype)
    return ServeRequest(
        kind="spmm",
        tenant=tenant,
        payload={"csr": csr, "features": features, "dtype": value_dtype},
        fingerprint=fingerprint,
        batchable=True,
        lanes=csr.nnz * max(feat, 1),
    )


def make_sddmm_request(
    csr,
    x: np.ndarray,
    y: np.ndarray,
    dtype: Any = None,
    tenant: str = "default",
) -> ServeRequest:
    """Wrap one SDDMM call as a batchable serving request.

    ``N`` same-structure requests coalesce into one ``batched_sddmm`` whose
    head axis stacks the per-request ``(x, y)`` operand pairs.
    """
    x = np.asarray(x)
    y = np.asarray(y)
    if x.ndim != 2 or y.ndim != 2:
        raise ValueError("sddmm operands must be 2-D")
    value_dtype = resolve_dtype((x, y), dtype)
    feat = int(x.shape[1])
    fingerprint = content_key("serve/sddmm", _csr_content_key(csr), feat, value_dtype)
    return ServeRequest(
        kind="sddmm",
        tenant=tenant,
        payload={"csr": csr, "x": x, "y": y, "dtype": value_dtype},
        fingerprint=fingerprint,
        batchable=True,
        lanes=csr.nnz * max(feat, 1),
    )


def make_call_request(
    fn: Callable[..., Any],
    args: Sequence[Any] = (),
    kwargs: Optional[Dict[str, Any]] = None,
    tenant: str = "default",
) -> ServeRequest:
    """Wrap an arbitrary callable as a non-batchable (eager) request.

    Used for work the batcher cannot coalesce — e.g. running a compiled
    graph — while still flowing through the queue, stats and degradation
    machinery.
    """
    return ServeRequest(
        kind="call",
        tenant=tenant,
        payload={"fn": fn, "args": tuple(args), "kwargs": dict(kwargs or {})},
        fingerprint=content_key("serve/call", id(fn)),
        batchable=False,
        lanes=0,
    )


def coalesce(
    requests: Sequence[ServeRequest],
    max_batch: int = DEFAULT_MAX_BATCH,
    max_lanes: int = DEFAULT_MAX_LANES,
) -> List[List[ServeRequest]]:
    """Group a drained queue into coalesced launch groups.

    Requests are grouped by fingerprint in FIFO order of first arrival, and
    each fingerprint's run is chunked so that no group exceeds ``max_batch``
    requests or ``max_lanes`` total lanes (a single over-budget request
    still gets its own singleton group — the caps chunk, they never drop).
    Non-batchable requests always form singleton groups.
    """
    if max_batch <= 0:
        raise ValueError("max_batch must be positive")
    groups: List[List[ServeRequest]] = []
    open_group: Dict[str, int] = {}  # fingerprint -> index into groups
    open_lanes: Dict[str, int] = {}
    for request in requests:
        if not request.batchable:
            groups.append([request])
            continue
        index = open_group.get(request.fingerprint)
        if index is not None:
            group = groups[index]
            if (
                len(group) < max_batch
                and open_lanes[request.fingerprint] + request.lanes <= max_lanes
            ):
                group.append(request)
                open_lanes[request.fingerprint] += request.lanes
                continue
        # Start a new chunk for this fingerprint (or the first one).
        open_group[request.fingerprint] = len(groups)
        open_lanes[request.fingerprint] = request.lanes
        groups.append([request])
    return groups


def execute_eager(session, request: ServeRequest) -> Any:
    """Execute one request on its own (no coalescing)."""
    payload = request.payload
    if request.kind == "spmm":
        return session.spmm(
            payload["csr"], payload["features"], dtype=payload["dtype"]
        )
    if request.kind == "sddmm":
        return session.sddmm(
            payload["csr"], payload["x"], payload["y"], dtype=payload["dtype"]
        )
    if request.kind == "call":
        return payload["fn"](*payload["args"], **payload["kwargs"])
    raise ValueError(f"unknown request kind {request.kind!r}")


def _slots(array: np.ndarray, feat: int) -> np.ndarray:
    """``(n, slots * feat)`` *array* as ``(n, slots)`` opaque ``feat``-wide items.

    One request's columns are one item per row, so they move in or out of
    the packed operand as a single strided copy of ``feat * itemsize``-byte
    items.  The slice form ``wide[:, i*feat:(i+1)*feat] = x`` copies element
    by element: 3-4x the time at ``feat = 4``, all a packed launch saves
    (``docs/dead-ends.md``).
    """
    return array.view(np.dtype((np.void, feat * array.dtype.itemsize)))


def _pack(group: List[ServeRequest], dtype: np.dtype) -> np.ndarray:
    """``[x_1 | ... | x_N | 0]``: the group's features side by side, zero padded."""
    cols = group[0].payload["csr"].shape[1]
    feat = group[0].payload["features"].shape[1]
    for index, request in enumerate(group):
        found = request.payload["features"].shape
        if found != (cols, feat) or feat == 0:
            raise MalformedRequest(
                f"request {index} of {len(group)} (tenant {request.tenant!r}): "
                f"features have shape {found}, the group packs non-empty {(cols, feat)}"
            )
    size = len(group)
    wide = np.empty((cols, -(-size // PACK_QUANTUM) * PACK_QUANTUM * feat), dtype=dtype)
    slots = _slots(wide, feat)
    for slot, request in enumerate(group):
        features = np.ascontiguousarray(request.payload["features"], dtype=dtype)
        slots[:, slot] = _slots(features, feat)[:, 0]
    wide[:, size * feat:] = 0
    return wide


def _unpack(out: np.ndarray, size: int, feat: int) -> List[np.ndarray]:
    """The first *size* ``feat``-wide column blocks of *out*, each an array of its own.

    Owned, not views: a view would pin every batch-mate's answer for as long
    as one caller keeps its own, and let callers see each other's memory.
    """
    slots = _slots(out, feat)
    results = []
    for slot in range(size):
        result = np.empty((out.shape[0], feat), dtype=out.dtype)
        _slots(result, feat)[:, 0] = slots[:, slot]
        results.append(result)
    return results


def _execute_batched(session, group: List[ServeRequest]) -> List[np.ndarray]:
    """One coalesced launch for a same-fingerprint group of size > 1."""
    kind = group[0].kind
    payload = group[0].payload
    if kind == "spmm":
        dtype = np.dtype(payload["dtype"])
        # The packed operand is a temporary of the call: it is released before
        # the results are allocated, so a launch peaks at two wide arrays.
        out = session.spmm(payload["csr"], _pack(group, dtype), dtype=dtype)
        return _unpack(out, len(group), payload["features"].shape[1])
    if kind != "sddmm":  # pragma: no cover - coalesce() only batches spmm/sddmm
        raise ValueError(f"kind {kind!r} cannot be batched")
    q = np.stack([req.payload["x"] for req in group])
    k = np.stack([np.ascontiguousarray(req.payload["y"]) for req in group])
    out = session.batched_sddmm(payload["csr"], q, k, dtype=payload["dtype"])
    return [out[i].copy() for i in range(len(group))]


def _resolve(request: ServeRequest, result: Any) -> None:
    if request.future.set_running_or_notify_cancel():
        request.future.set_result(result)


def _fail(request: ServeRequest, exc: BaseException) -> None:
    if request.future.set_running_or_notify_cancel():
        request.future.set_exception(exc)


def run_group(session, group: List[ServeRequest], stats=None) -> None:
    """Execute one coalesced group and resolve its futures.

    Groups of size > 1 run as a single coalesced launch; if that launch
    raises, every member falls back to eager execution individually
    (``degraded="eager"``, the exception's type kept as the reason), so one
    poisoned request cannot take down its batch-mates.  Per-request latency
    and its stages, batch occupancy and the group's kernel-cache attribution
    are recorded into *stats* when given.
    """
    size = len(group)
    hits_before = session.stats.kernel_cache_hits
    results: Optional[List[Any]] = None
    reason: Optional[str] = None  # why the coalesced launch did not answer
    started = time.monotonic()
    if size > 1:
        try:
            results = _execute_batched(session, group)
        except Exception as exc:  # degrade to per-request eager execution
            reason = type(exc).__name__
            for request in group:
                request.degraded = "eager"
    if results is None:
        results = []
        for request in group:
            try:
                results.append(execute_eager(session, request))
            except Exception as exc:  # delivered, typed, through the future
                results.append(exc)
    ended = time.monotonic()
    cache_hit = session.stats.kernel_cache_hits > hits_before
    if stats is not None and size > 1 and reason is None:
        stats.record_batch((req.tenant for req in group), size)
    for request, result in zip(group, results):
        failed = isinstance(result, BaseException)
        if request.dequeued_at is None:  # ran inline: it never sat on the queue
            request.dequeued_at = started
        request.launch_started_at = started
        request.launch_ended_at = ended
        if stats is not None:
            now = time.monotonic()
            stats.record_request(
                request.tenant,
                now - request.submitted_at,
                batch_size=size if reason is None else 1,
                cache_hit=cache_hit,
                degraded=request.degraded,
                reason=reason,
                error=failed,
                stages=(
                    request.dequeued_at - request.submitted_at,
                    started - request.dequeued_at,
                    ended - started,
                    now - ended,
                ),
            )
        if failed:
            _fail(request, result)
        else:
            _resolve(request, result)
