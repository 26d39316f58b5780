"""Multi-process sharding: a worker pool over the persistent kernel cache.

Workloads too large for one process shard across a pool of worker
processes.  The shard key is the same ``num_col_parts`` decomposition the
tuning layer searches over: :func:`split_col_parts` cuts the column space
into contiguous ranges, :func:`csr_col_slice` extracts each range as an
independent CSR matrix, and :func:`spmm_sharded` sums the per-shard partial
products *in part order* (deterministic, but floating-point summation order
differs from the unsharded kernel — results are ``allclose``, not
bit-exact).

Every worker builds its own :class:`~repro.runtime.session.Session` against
a *shared* on-disk kernel cache directory, so the pool's warm state is the
persistent :class:`~repro.core.codegen.cache.DiskKernelCache` +
tuning-record store.  Workers do not wait for each other: ``N`` cold workers
of one structure may each lower it, and the atomic writes and the
text-named shared object leave one set of files that every worker loads
(``tests/test_serving_faults.py``).

Fault handling: :meth:`WorkerPool.run_tasks` detects worker death while
polling for results, resubmits the in-flight tasks once per death wave
(surviving workers pick them up; duplicate completions are deduplicated by
task id), and past the deadline — or with no survivors — degrades to an
inline ``fallback`` on the calling process rather than wedging the queue.
"""

from __future__ import annotations

import itertools
import os
import queue
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Poll interval while waiting on the result queue (also the cadence of
#: worker-death checks).
_POLL_S = 0.1


class WorkerDied(RuntimeError):
    """Raised when tasks cannot complete and no fallback was provided."""


def _csr_payload(csr) -> Tuple[Tuple[int, int], np.ndarray, np.ndarray, np.ndarray]:
    """A picklable description of a CSR matrix for the task queue."""
    return (csr.shape, csr.indptr, csr.indices, csr.data)


def _worker_main(task_queue, result_queue, cache_dir):  # pragma: no cover
    """Worker process entry point.

    Runs in a spawned subprocess (invisible to coverage).  Each worker owns
    a private :class:`Session` whose kernel cache shares the pool's on-disk
    layer; tuning-record persistence is disabled so concurrent workers never
    contend on the record store.

    Task dictionaries understand two test hooks: ``not_before`` (an absolute
    ``time.time()`` barrier — every worker sleeps until the same instant, so
    stampede tests release all workers at once) and ``delay_s`` (a sleep
    before executing, used to hold a task in flight while the test kills the
    worker).
    """
    os.environ.pop("REPRO_TUNING_RECORDS", None)
    from ..formats.csr import CSRMatrix
    from ..runtime.session import Session

    session = Session(persistent=cache_dir if cache_dir else False, tuning_records=False)
    pid = os.getpid()
    while True:
        task = task_queue.get()
        if task is None:
            break
        try:
            not_before = task.get("not_before")
            if not_before is not None:
                while time.time() < not_before:
                    time.sleep(0.002)
            delay = task.get("delay_s")
            if delay:
                time.sleep(delay)
            kind = task["kind"]
            lowerings_before = session.cache.stats.lowerings
            if kind == "ping":
                out: Any = None
            elif kind == "crash":
                os._exit(1)
            elif kind == "spmm":
                shape, indptr, indices, data = task["csr"]
                csr = CSRMatrix(shape, indptr, indices, data)
                out = session.spmm(csr, task["features"], dtype=task.get("dtype"))
            else:
                raise ValueError(f"unknown task kind {kind!r}")
            result_queue.put(
                {
                    "id": task["id"],
                    "ok": True,
                    "out": out,
                    "pid": pid,
                    "lowerings": session.cache.stats.lowerings - lowerings_before,
                }
            )
        except Exception as exc:
            result_queue.put(
                {"id": task["id"], "ok": False, "error": repr(exc), "pid": pid}
            )


class WorkerPool:
    """A pool of session-owning worker processes sharing one disk cache.

    Parameters
    ----------
    num_workers:
        Number of worker processes (spawned cold — no inherited caches).
    cache_dir:
        Shared on-disk kernel cache directory (``None`` disables the
        persistent layer; each worker then compiles privately).
    """

    def __init__(self, num_workers: int, cache_dir=None):
        if num_workers <= 0:
            raise ValueError("num_workers must be positive")
        import multiprocessing as mp

        self._ctx = mp.get_context("spawn")
        self.cache_dir = str(cache_dir) if cache_dir else None
        self._task_queue = self._ctx.Queue()
        self._result_queue = self._ctx.Queue()
        self._ids = itertools.count()
        self._known_dead = 0
        #: Death waves survived via resubmission (observable by tests).
        self.retries = 0
        self.processes = [
            self._ctx.Process(
                target=_worker_main,
                args=(self._task_queue, self._result_queue, self.cache_dir),
                daemon=True,
            )
            for _ in range(num_workers)
        ]
        for proc in self.processes:
            proc.start()

    # -- lifecycle ------------------------------------------------------------
    def alive(self) -> int:
        """Number of live worker processes."""
        return sum(1 for proc in self.processes if proc.is_alive())

    def close(self) -> None:
        """Shut the pool down (idempotent): sentinel, join, terminate."""
        for _ in self.processes:
            try:
                self._task_queue.put_nowait(None)
            except Exception:  # pragma: no cover - full queue on teardown
                break
        for proc in self.processes:
            proc.join(timeout=5.0)
        for proc in self.processes:
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=1.0)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- task execution ---------------------------------------------------------
    def run_tasks(
        self,
        tasks: Sequence[Dict[str, Any]],
        timeout: float = 120.0,
        fallback: Optional[Callable[[Dict[str, Any]], Any]] = None,
    ) -> List[Dict[str, Any]]:
        """Run *tasks* on the pool, surviving worker death.

        Each task is a dict with at least ``kind``; an ``id`` is assigned if
        missing.  Returns one result dict per task, in task order:
        ``{"id", "ok", "out"| "error", ...}``.  Results carry
        ``degraded=True`` when the task ran through *fallback* on the
        calling process.

        Death handling: when a poll comes back empty and workers have died
        since the last check, every still-pending task is resubmitted once
        for that death wave (a dead worker may have taken tasks down with
        it; duplicates completed by survivors are deduplicated by id).  When
        the deadline passes, or no worker remains alive, pending tasks run
        through *fallback* inline — or :class:`WorkerDied` is raised when no
        fallback was given.
        """
        tasks = [dict(task) for task in tasks]
        for task in tasks:
            task.setdefault("id", next(self._ids))
        pending: Dict[Any, Dict[str, Any]] = {task["id"]: task for task in tasks}
        results: Dict[Any, Dict[str, Any]] = {}
        deadline = time.monotonic() + timeout
        for task in tasks:
            self._task_queue.put(task)
        while pending:
            try:
                result = self._result_queue.get(timeout=_POLL_S)
            except queue.Empty:
                dead = len(self.processes) - self.alive()
                if dead > self._known_dead:
                    self._known_dead = dead
                    self.retries += 1
                    if self.alive():
                        # A dying worker may have dequeued tasks it will
                        # never answer; resubmit everything unresolved.
                        for task in pending.values():
                            self._task_queue.put(task)
                if time.monotonic() >= deadline or self.alive() == 0:
                    self._degrade(pending, results, fallback)
                continue
            if result["id"] in pending:
                del pending[result["id"]]
                results[result["id"]] = result
        return [results[task["id"]] for task in tasks]

    def _degrade(
        self,
        pending: Dict[Any, Dict[str, Any]],
        results: Dict[Any, Dict[str, Any]],
        fallback: Optional[Callable[[Dict[str, Any]], Any]],
    ) -> None:
        if fallback is None:
            raise WorkerDied(
                f"{len(pending)} task(s) unresolved with {self.alive()} live worker(s)"
            )
        for task_id, task in list(pending.items()):
            try:
                out = fallback(task)
                results[task_id] = {"id": task_id, "ok": True, "out": out, "degraded": True}
            except Exception as exc:
                results[task_id] = {
                    "id": task_id,
                    "ok": False,
                    "error": repr(exc),
                    "degraded": True,
                }
            del pending[task_id]


# -- column sharding ------------------------------------------------------------
def split_col_parts(cols: int, num_parts: int) -> List[Tuple[int, int]]:
    """Balanced contiguous column ranges covering ``[0, cols)``.

    The same partitioning scheme as the ``num_col_parts`` knob of the
    composable-format decomposition, reused here as the shard key.
    """
    if num_parts <= 0:
        raise ValueError("num_parts must be positive")
    num_parts = min(num_parts, max(cols, 1))
    bounds = np.linspace(0, cols, num_parts + 1).astype(np.int64)
    return [(int(bounds[i]), int(bounds[i + 1])) for i in range(num_parts)]


def csr_col_slice(csr, start: int, end: int):
    """The sub-matrix of the columns ``[start, end)`` as a fresh CSR matrix.

    Column indices are remapped to the slice's local coordinates, so the
    slice is a standalone ``(rows, end - start)`` matrix whose product with
    the matching feature rows is one partial term of the full SpMM.
    """
    from ..formats.csr import CSRMatrix

    mask = (csr.indices >= start) & (csr.indices < end)
    rows = np.repeat(np.arange(csr.shape[0]), np.diff(csr.indptr))
    counts = np.bincount(rows[mask], minlength=csr.shape[0])
    indptr = np.concatenate([[0], np.cumsum(counts)])
    return CSRMatrix(
        (csr.shape[0], end - start),
        indptr,
        csr.indices[mask] - start,
        csr.data[mask],
        dtype=csr.dtype,
    )


def spmm_sharded(
    csr,
    features: np.ndarray,
    num_col_parts: int,
    pool: Optional[WorkerPool] = None,
    session=None,
    dtype: Any = None,
    timeout: float = 120.0,
) -> np.ndarray:
    """``A @ X`` sharded into ``num_col_parts`` column-range partials.

    With a *pool*, each shard runs on a worker process (degrading to inline
    execution on the calling process if workers die); without one, shards
    run sequentially through *session* (a fresh default session when
    omitted).  Partials are summed in part order, so the result is
    deterministic but only ``allclose`` to the unsharded product.
    """
    features = np.asarray(features)
    parts = split_col_parts(csr.shape[1], num_col_parts)
    shards = [
        (csr_col_slice(csr, start, end), np.ascontiguousarray(features[start:end]))
        for start, end in parts
    ]
    if pool is None:
        if session is None:
            from ..runtime.session import Session

            session = Session()
        partials = [
            session.spmm(shard, feats, dtype=dtype) for shard, feats in shards
        ]
    else:
        tasks = [
            {
                "kind": "spmm",
                "csr": _csr_payload(shard),
                "features": feats,
                "dtype": dtype,
            }
            for shard, feats in shards
        ]

        def _inline(task: Dict[str, Any]) -> np.ndarray:
            from ..formats.csr import CSRMatrix
            from ..runtime.session import Session

            shape, indptr, indices, data = task["csr"]
            local = Session(persistent=pool.cache_dir or False, tuning_records=False)
            return local.spmm(
                CSRMatrix(shape, indptr, indices, data),
                task["features"],
                dtype=task.get("dtype"),
            )

        outcomes = pool.run_tasks(tasks, timeout=timeout, fallback=_inline)
        failed = [res for res in outcomes if not res["ok"]]
        if failed:
            raise RuntimeError(f"sharded spmm failed: {failed[0].get('error')}")
        partials = [res["out"] for res in outcomes]
    total = partials[0]
    for partial in partials[1:]:
        total = total + partial
    return total
