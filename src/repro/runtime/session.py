"""Session: the compile-once/run-many entry point of the runtime.

A :class:`Session` bundles everything between "here is a sparse matrix" and
"here is the result array":

* **format decomposition caching** — composable-format decompositions
  (``hyb(c, k)`` today) are memoised by sparsity-structure content, so the
  tuner and repeated operator calls never re-bucket the same matrix;
* **kernel building with structural caching** — every ``build()`` goes
  through the session's :class:`~repro.core.codegen.cache.KernelCache`, so
  identical programs are lowered once;
* **persistent warm starts** — the kernel cache can carry an on-disk layer
  (``persistent=True`` or ``$REPRO_KERNEL_CACHE``), so a fresh process
  reloads lowered programs and emitted stage-IV source instead of
  recompiling them;
* **execution engine selection** — kernels run on the native compiled
  kernel when available, then the emitted stage-IV NumPy kernel, then the
  interpreter, and the session records which tier served each run;
* **bound-kernel handles** — a repeated operator call over an unchanged
  structure skips all of the above: the session memoises a
  :class:`~repro.runtime.bound.BoundKernel` per operator application and a
  warm call only hands its operands to the compiled runner.

The operator methods (``Session.spmm``, ``Session.sddmm``, ... — one per
entry of :data:`repro.ops.registry.OPERATORS`, generated from its
``prepare_<op>``, which holds the signature and the documentation) return
plain NumPy arrays — every workload family of the paper executes end-to-end
through this one runtime.

Example:

    >>> import numpy as np
    >>> from repro.formats.csr import CSRMatrix
    >>> from repro.runtime.session import Session
    >>> session = Session()
    >>> csr = CSRMatrix.from_dense(np.eye(4, dtype=np.float32))
    >>> session.spmm(csr, np.ones((4, 2), dtype=np.float32)).shape
    (4, 2)
    >>> session.stats.fast_runs
    1
"""

from __future__ import annotations

import copy
import inspect
import threading
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Mapping, Optional, Tuple

import numpy as np

from ..core.buffers import _np_dtype
from ..core.codegen.build import ENGINES, Kernel, build
from ..core.codegen.cache import KernelCache
from ..core.program import PrimFunc
from ..core.sparse_iteration import FusedAxisGroup, SparseIteration
from ..core.stmt import SeqStmt
from ..obs import Counters
from ..ops import registry
from .bound import BoundKernel
from .keys import content_key


class SessionStats(Counters):
    """Counters describing the compile/run activity of one session.

    ``native_runs`` / ``emitted_runs`` / ``interpreted_runs`` count which
    dispatch tier served each kernel execution.  Compilation-side counters (``lowerings``, ``emissions``,
    ``native_hits``, ``native_rebuilds``, ``disk_hits``) live on the kernel
    cache — read them from ``session.cache.stats`` to assert that a
    warm-started process did no compilation work at all.

    ``builds`` / ``kernel_cache_hits`` count kernels obtained / obtained
    without lowering; a bound-kernel handle hit is both (and one
    ``handle_hits``; on a derived format also one ``format_cache_hits``).
    ``table_rebinds`` counts handles of an edited CSR matrix bound anew
    because the matrix outgrew the capacity (or, fused SDDMM, the nnz) their
    kernel was bound to.  Serving runs one session from several threads;
    every event is counted under the counters' own lock.
    """

    NAMES = (
        "builds", "kernel_cache_hits", "kernel_cache_misses", "format_cache_hits",
        "format_cache_misses", "native_runs", "emitted_runs", "interpreted_runs",
        "graph_nodes_fused", "graph_nodes_unfused", "table_rebinds", "stale_plan_reuses",
        "retunes_triggered", "handle_hits", "handle_misses",
    )

    @property
    def runs(self) -> int:
        return self.native_runs + self.emitted_runs + self.interpreted_runs

    @property
    def fast_runs(self) -> int:
        """Runs served without the scalar interpreter (native or emitted)."""
        return self.native_runs + self.emitted_runs


#: The counter of each :data:`ENGINES` name: which tier served a run.
RUN_COUNTERS = {"native": "native_runs", "emitted": "emitted_runs", "interpret": "interpreted_runs"}


#: Sentinel: the session's tuning-record store is resolved lazily on first use.
_UNRESOLVED = object()


@dataclass
class _Handle:
    """One memoised operator application: a bound kernel plus its guard."""

    bound: BoundKernel
    #: The structure the key names by ``id``, pinned so that id cannot be
    #: reused while the handle is alive.
    anchor: Any
    #: Its storage at bind time (keyed by epoch: a hit requires the very
    #: same arrays).
    storage: Tuple[Any, Any]
    #: Whether the structure's value array is a per-call operand.
    feeds_values: bool
    #: Whether the kernel runs on a decomposition of the structure.
    derived_format: bool
    #: Of an edited matrix (keyed without its epoch), the guards a hit needs:
    #: the epoch its kernel is fixed to (a decomposition, a tuned plan, an
    #: emitted plan), and the positions its fed tables are padded to —
    #: ``size``, which must still equal the matrix's ``sized_by`` attribute
    #: (``"capacity"``, or ``"nnz"`` for a fused row search).
    epoch: Optional[int] = None
    size: Optional[int] = None
    sized_by: str = "capacity"
    #: Whether the result has one entry per position, cut to the nnz.
    per_edge: bool = False
    #: The counters a hit moves besides the handle's own: its tier's runs and,
    #: on a decomposition, ``format_cache_hits``.
    counts: Tuple[str, ...] = field(init=False)

    def __post_init__(self) -> None:
        self.counts = (RUN_COUNTERS[self.bound.tier],) + (
            ("format_cache_hits",) if self.derived_format else ()
        )

    def outgrown(self, structure: Any) -> bool:
        """Whether the matrix left the positions the tables are padded to."""
        return self.size is not None and getattr(structure, self.sized_by) != self.size

    def fits(self, structure: Any, storage: Tuple[Any, Any]) -> bool:
        if self.epoch is None and self.size is None:
            return self.storage[0] is storage[0] and self.storage[1] is storage[1]
        if self.epoch is not None and structure.structure_epoch != self.epoch:
            return False
        return not self.outgrown(structure)

    def run(
        self, structure: Any, operands: Dict[str, np.ndarray], tables: Optional[Dict[str, Any]]
    ) -> np.ndarray:
        if tables is not None:
            operands.update(tables)
        elif self.size is not None:
            operands.update(structure.tables(self.size))
            if self.sized_by == "nnz":  # a row search: its table, once per epoch
                operands["rowof"] = structure.position_rows()
        elif self.feeds_values:
            operands["values"] = structure.data
        out = self.bound.run(operands)["out"]
        return out[..., : structure.nnz] if self.per_edge else out


#: The epoch slot of a handle key for a CSR matrix that has been edited.
_EDITED = "edited"

#: Operators whose program over a CSR matrix reads, per edge, only the
#: matrix's own tables and values — an edited matrix feeds them per call —
#: and whether their result has one entry per edge.
_TABLE_FED = {"spmm": False, "sddmm": True}


def _fuses_positions(func: PrimFunc) -> bool:
    """Whether *func* iterates a fused axis group: one loop over every bound
    position, whose row search needs tables ending exactly at the bound."""
    body = func.body
    return any(
        isinstance(group, FusedAxisGroup)
        for stmt in (body.stmts if isinstance(body, SeqStmt) else (body,))
        if isinstance(stmt, SparseIteration)
        for group in stmt.axes
    )


def _plan_tables(func: PrimFunc, csr: Any, size: int) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """*csr*'s tables as :meth:`Kernel.planned_on` takes them for *func*, a
    program over a footprint of *size* positions: the flat index tables, and
    copies of the axes whose ``indptr`` / ``indices`` the plan searches."""
    tables = csr.tables(size)
    dtypes = {flat.name: _np_dtype(flat.dtype) for flat in func.flat_buffers}
    aux = {
        buf.name: np.asarray(tables[buf.name.rpartition("_")[2]], dtype=dtypes[buf.name])
        for buf in func.aux_buffers
    }
    axes = {}
    for axis in func.axes:
        if getattr(axis, "indptr", None) is not None:
            axis = copy.copy(axis)
            axis.indptr = csr.indptr
            if getattr(axis, "indices", None) is not None:
                axis.indices = tables["indices"].astype(np.int64)
        axes[axis.name] = axis
    return aux, axes


def _footprint(csr: Any, size: int) -> Any:
    """A matrix of *csr*'s shape and dtype with *size* positions, all in its
    last row: what the kernel of an edited *csr* is built for.  Only its
    sizes reach a run — a native kernel is fed *csr*'s current tables on
    every call, an emitted one is planned on them — so every matrix of one
    shape and size shares one lowering."""
    indptr = np.zeros(csr.rows + 1, dtype=np.int64)
    indptr[-1] = size
    return type(csr)(
        csr.shape, indptr, np.zeros(size, dtype=np.int64),
        np.zeros(size, dtype=csr.dtype), dtype=csr.dtype,
    )


class Session:
    """Compile-once/run-many facade over decomposition, build and execution.

    Parameters
    ----------
    cache:
        The kernel cache to build through.  ``None`` creates a private cache;
        pass :func:`~repro.core.codegen.cache.global_kernel_cache` to share
        lowering work with plain ``build()`` calls, or ``False`` to disable
        kernel caching.
    engine:
        Execution backend passed to :meth:`Kernel.run`: ``"auto"`` (default:
        native, then emitted, then interpreter), ``"native"``,
        ``"emitted"`` or ``"interpret"``.  Only the two compiled tiers are
        served through bound-kernel handles; ``"interpret"`` always takes
        the generic :meth:`Kernel.run` path.
    persistent:
        On-disk layer of the session's private kernel cache: ``None``
        (default) follows ``$REPRO_KERNEL_CACHE``; ``True`` uses the default
        location (``~/.cache/repro-kernels``); ``False`` disables it; a path
        selects an explicit cache directory.  Ignored when ``cache`` is
        given — a shared cache keeps its own disk configuration.
    format_cache_capacity:
        LRU bound on memoised format decompositions (each entry holds a full
        decomposition of one matrix, so this bounds session memory) and,
        separately, on memoised bound-kernel handles (each pins one
        structure).
    tuning_records:
        Persistent layer of the session's tuning records: ``None`` (default)
        follows ``$REPRO_TUNING_RECORDS``; ``True`` uses the default
        location (``~/.cache/repro-tuning``); ``False`` keeps records
        in-memory only; a path or
        :class:`~repro.tune.records.TuningRecordStore` selects an explicit
        store.  :meth:`autotune` writes records through it and the
        ``tuned=True`` operator flag reads them back.
    drift_threshold:
        Structural-drift bound for autotuned plans on mutated matrices:
        once a structure has drifted (cumulative edge edits since its last
        :meth:`autotune`, over the nnz at tune time) past this fraction,
        ``tuned=True`` calls stop reusing the stale plan and a re-tune is
        triggered — queued on :attr:`retune_pending` by default, run inline
        when ``auto_retune`` is set.  Below the threshold the recorded plan
        is reused (counted in ``stats.stale_plan_reuses``).
    auto_retune:
        Run the drift-triggered :meth:`autotune` inline inside the operator
        call instead of queueing it (defaults to ``False`` — a tuning
        search inside a serving request is a latency cliff; call
        :meth:`retune` to drain the queue at a convenient time).
    """

    def __init__(
        self,
        cache: Optional[KernelCache] = None,
        engine: str = "auto",
        persistent: Any = None,
        format_cache_capacity: int = 64,
        tuning_records: Any = None,
        drift_threshold: float = 0.5,
        auto_retune: bool = False,
    ):
        if format_cache_capacity <= 0:
            raise ValueError("format_cache_capacity must be positive")
        if engine not in ("auto",) + ENGINES:
            raise ValueError(f"unknown engine {engine!r}")
        if cache is None:
            if persistent is None:
                cache = KernelCache()  # disk layer resolved from the environment
            elif persistent is True:
                from ..core.codegen.cache import DiskKernelCache

                cache = KernelCache(disk=DiskKernelCache())
            elif persistent is False:
                cache = KernelCache(disk=None)
            else:
                cache = KernelCache(disk=persistent)
        self.cache: Any = cache
        self.engine = engine
        self.stats = SessionStats()
        self.format_cache_capacity = int(format_cache_capacity)
        self._formats: "OrderedDict[str, Any]" = OrderedDict()
        #: Guards the LRU bookkeeping of handles and formats; counters have
        #: their own lock and are counted after leaving this one.
        self._lock = threading.Lock()
        self._handles: "OrderedDict[tuple, _Handle]" = OrderedDict()
        #: Bumped whenever :meth:`autotune` records a plan, so ``tuned=True``
        #: handles bound under the previous plans stop matching.
        self._tuning_generation = 0
        self._tuning_records_arg = tuning_records
        self._tuning_store: Any = _UNRESOLVED
        self._tuned: Dict[str, Any] = {}
        self._fingerprints: "OrderedDict[tuple, Any]" = OrderedDict()
        self.drift_threshold = float(drift_threshold)
        self.auto_retune = bool(auto_retune)
        #: ``id(structure) -> lineage`` of the last autotune per mutable
        #: structure (strong refs, so ids cannot be reused while tracked).
        self._tuned_lineage: Dict[int, Dict[str, Any]] = {}
        #: Drift-triggered re-tunes awaiting :meth:`retune` (when
        #: ``auto_retune`` is off).
        self.retune_pending: list = []
        #: Kernel-cache hits per calling thread (:meth:`thread_cache_hits`).
        self._thread_hits = threading.local()

    def thread_cache_hits(self) -> int:
        """Kernel-cache hits of the calls this thread made through the session.

        ``stats.kernel_cache_hits`` counts every thread's; a caller that wants
        to know whether *its own* calls hit reads this before and after them.
        """
        return getattr(self._thread_hits, "count", 0)

    def _count_thread_hit(self) -> None:
        local = self._thread_hits
        local.count = getattr(local, "count", 0) + 1

    # -- compilation -----------------------------------------------------------
    def build(self, func: PrimFunc, horizontal_fusion: bool = True) -> Kernel:
        """Build *func* through the session's structural kernel cache."""
        kernel = build(func, horizontal_fusion=horizontal_fusion, cache=self.cache)
        hit = kernel.cache_hit  # None: built without a cache
        lookup = () if hit is None else ("kernel_cache_hits" if hit else "kernel_cache_misses",)
        self.stats.count("builds", *lookup)
        if hit:
            self._count_thread_hit()
        return kernel

    def run(
        self,
        func: PrimFunc,
        bindings: Optional[Mapping[str, np.ndarray]] = None,
        horizontal_fusion: bool = True,
    ) -> Dict[str, np.ndarray]:
        """Build (cached) and execute *func*, returning all buffer arrays."""
        kernel = self.build(func, horizontal_fusion=horizontal_fusion)
        return self.run_kernel(kernel, bindings)

    def run_kernel(
        self, kernel: Kernel, bindings: Optional[Mapping[str, np.ndarray]] = None
    ) -> Dict[str, np.ndarray]:
        """Execute an already-built kernel with the session's engine."""
        result = kernel.run(bindings, engine=self.engine)
        self.stats.count(RUN_COUNTERS[kernel.last_engine])
        return result

    def _execute(
        self,
        kind: str,
        structure: Any,
        operands: Dict[str, Any],
        tables: Optional[Dict[str, Any]] = None,
        **options: Any,
    ) -> Optional[np.ndarray]:
        """Run one operator application: through its handle when warm.

        The single execution path behind every public operator method.  A
        repeated application — same operator, options, operand shapes and
        dtypes over an unchanged structure — is served by its memoised
        :class:`~repro.runtime.bound.BoundKernel`; anything else goes
        through :meth:`_execute_cold`.

        A CSR matrix that has been edited keys its handles without its
        epoch: a handle bound to its capacity is fed the current tables on
        every call, and is bound anew (``stats.table_rebinds``) once the
        matrix outgrows it (see :meth:`_execute_cold`).

        *tables* (``indptr`` / ``indices`` / ``values`` laid out like the
        structure's own) runs the same handle over another matrix of the
        structure's footprint.  Only a native kernel takes tables per call;
        on any other tier the result is ``None`` and nothing ran.
        """
        # One loop, no comprehension: this is every warm call's own work.
        arrays: Dict[str, np.ndarray] = {}
        signature: list = []
        for role, value in operands.items():
            value = arrays[role] = np.asarray(value)
            signature += (value.shape, value.dtype)
        if options.get("dtype") is not None:
            options["dtype"] = np.dtype(options["dtype"])  # one key per spelling
        epoch = getattr(structure, "structure_epoch", None)
        key = (
            kind,
            id(structure),
            _EDITED if epoch else epoch,  # an edited matrix: its handles check a guard
            tuple(signature),
            tuple(options.values()),
            self._tuning_generation if options.get("tuned") else None,
        )
        storage = (getattr(structure, "indptr", None), getattr(structure, "indices", None))
        with self._lock:
            handle = self._handles.get(key)
            if handle is not None and not handle.fits(structure, storage):
                handle = None
            if handle is not None:
                if tables is not None and not handle.bound.feeds_tables:
                    return None
                self._handles.move_to_end(key)
        if handle is not None:
            self.stats.count("handle_hits", "builds", "kernel_cache_hits", *handle.counts)
            self._count_thread_hit()
            return handle.run(structure, arrays, tables)
        return self._execute_cold(key, kind, structure, storage, arrays, options, tables)

    def _execute_cold(
        self,
        key: tuple,
        kind: str,
        structure: Any,
        storage: Tuple[Any, Any],
        operands: Dict[str, np.ndarray],
        options: Dict[str, Any],
        tables: Optional[Dict[str, Any]],
    ) -> Optional[np.ndarray]:
        """Resolve, build and run one application; bind its handle if possible.

        ``prepare`` resolves the :class:`~repro.ops.registry.OpSpec` (dtype,
        tuned overrides, format decompositions) and the program builds
        through the kernel cache, exactly as every call used to.  When a
        compiled tier serves the kernel and every operand is a buffer the
        program reads as given, the kernel is bound and memoised under
        *key*, and this first call already runs through the handle.  Not
        bindable: ``rgms`` / ``sparse_conv`` (weights are baked into
        per-relation buffers) and BSR operands ``prepare`` had to zero-pad.

        A program that iterates the structure itself reads the structure's
        value array and index tables under its own buffer names; those are
        bound as feeds too (``values`` re-read on every call, ``indptr`` /
        ``indices`` taken when a call provides them).

        An edited CSR matrix builds its SpMM / SDDMM program for a
        placeholder of its :attr:`capacity` (:func:`_footprint`; a fused row
        search: of its exact nnz).  A native kernel is fed
        :meth:`CSRMatrix.tables` on every call, until the matrix outgrows
        that size; an emitted one is planned on them
        (:meth:`Kernel.planned_on`) and holds for the epoch.  Anything else —
        a decomposition, another operator — is bound to the matrix's content
        for the epoch.
        """
        args = list(operands.values()) if structure is None else [structure, *operands.values()]
        spec = registry.prepare(self, kind, *args, **options)
        func, names = registry.build_spec_program(spec)
        edited = key[2] == _EDITED
        epoch = structure.structure_epoch if edited else None
        size, sized_by, kernel = None, "capacity", None
        feedable = spec.structure is structure and kind in _TABLE_FED
        if edited and feedable and self.engine != "interpret":
            if _fuses_positions(func):  # its row search needs tables that end at the bound
                sized_by = "nnz"
            size = getattr(structure, sized_by)
            shape = spec.out_shape[:-1] + (size,) if _TABLE_FED[kind] else spec.out_shape
            fed = replace(spec, structure=_footprint(structure, size), out_shape=shape)
            fed_func, fed_names = registry.build_spec_program(fed)
            kernel = self.build(fed_func)
            tier = kernel.fast_tier(self.engine)
            if tier == "emitted":  # its plan is fixed: made on this epoch's tables
                kernel = kernel.planned_on(*_plan_tables(kernel.func, structure, size))
            elif tier == "native" and not options.get("tuned"):  # a tuned plan: per epoch
                epoch = None
            if kernel is None or tier is None:  # the placeholder must never run
                kernel, size = None, None
            else:
                spec, func, names = fed, fed_func, fed_names
        if kernel is None:
            kernel = self.build(func)
        tier = kernel.fast_tier(self.engine)
        if tier is None or not all(
            role in names and spec.inputs[role].shape == value.shape
            for role, value in operands.items()
        ):
            if tables is not None:
                return None
            out = self.run_kernel(kernel)
            return registry.finalize(spec, out[names["out"]])
        feeds = {names[role]: role for role in operands}
        iterates = size is not None or spec.structure is structure
        feeds_values = iterates and "values" in names
        if feeds_values:
            feeds[names["values"]] = "values"
            for aux in kernel.func.aux_buffers:
                axis, _, role = aux.name.rpartition("_")
                feeds[aux.name] = role  # J_indptr -> "indptr"
                if role == "indptr":  # the row table of a search over J's positions
                    feeds[f"{axis}_rowof"] = "rowof"
        # The spec only finalises from here on; its operand arrays must not
        # stay pinned by the handle.
        outputs = [("out", names["out"], replace(spec, inputs={}))]
        handle = _Handle(
            BoundKernel(kernel, tier, feeds, outputs), structure, storage, feeds_values,
            derived_format=not iterates, epoch=epoch, size=size, sized_by=sized_by,
            per_edge=size is not None and _TABLE_FED[kind],
        )
        with self._lock:
            stale = self._handles.get(key)
            self._handles[key] = handle
            while len(self._handles) > self.format_cache_capacity:
                self._handles.popitem(last=False)
        if stale is not None and stale.outgrown(structure):
            self.stats.count("table_rebinds")
        self.stats.count("handle_misses")
        if tables is not None and not handle.bound.feeds_tables:
            return None
        self.stats.count(RUN_COUNTERS[tier])
        return handle.run(structure, operands, tables)

    # -- graph capture -----------------------------------------------------------
    def graph(self):
        """Open a lazy capture scope: a :class:`~repro.graph.builder.GraphBuilder`.

        The builder has the same operator methods, with the same
        signatures, but records nodes instead of executing;
        ``builder.compile()`` lowers the captured
        :class:`~repro.graph.ir.DataflowGraph` into an executable
        :class:`~repro.graph.compile.CompiledGraph` with cross-op fusion.
        """
        from ..graph import GraphBuilder

        return GraphBuilder(self)

    # -- autotuning ------------------------------------------------------------
    @property
    def tuning_records(self):
        """The resolved persistent record store (may be ``None``)."""
        from ..tune.records import resolve_record_store

        if self._tuning_store is _UNRESOLVED:
            self._tuning_store = resolve_record_store(self._tuning_records_arg)
        return self._tuning_store

    def autotune(self, workload: str, problem: Any, **kwargs) -> Any:
        """Search the workload's decomposition space through this session.

        Delegates to :func:`repro.tune.autoscheduler.autotune` with this
        session as the measurement runtime and its record store as the
        persistence layer; the winning
        :class:`~repro.tune.records.TuningRecord` is remembered in-session,
        so subsequent operator calls with ``tuned=True`` pick the tuned
        decomposition up automatically.  Phase 1 prices candidates on the
        analytic model and phase 2 times the best ``survivors`` of them on
        this session's tiers; a smaller ``survivors`` spends fewer timed
        runs (see ``docs/tuning.md``).

        Args:
            workload: Registered workload family (``"spmm"``, ``"sddmm"``,
                ``"attention"``, ``"rgms"``, ``"sparse_conv"``,
                ``"pruned_spmm"``).
            problem: The family's problem description (e.g.
                :class:`~repro.tune.spaces.SpMMProblem`).
            **kwargs: Forwarded to the driver (strategy, max_trials,
                survivors, repeats, seed, device, force, records, include).

        Returns:
            The :class:`~repro.tune.autoscheduler.TuningResult`.
        """
        from ..tune.autoscheduler import autotune

        store = self.tuning_records
        kwargs.setdefault("records", store if store is not None else False)
        result = autotune(workload, problem, session=self, **kwargs)
        if result.record is not None:
            self._remember_tuning(result.record)
            structure = self._problem_structure(problem)
            if structure is not None and hasattr(structure, "structure_epoch"):
                self._tuned_lineage[id(structure)] = {
                    "structure": structure,
                    "workload": workload,
                    "record": result.record,
                    "mutations": int(getattr(structure, "mutation_count", 0)),
                    "nnz": int(structure.nnz),
                    "kwargs": dict(kwargs),
                }
        return result

    def retune(self, **kwargs) -> list:
        """Drain :attr:`retune_pending`: re-run :meth:`autotune` per task.

        Each drift-triggered task re-tunes with the keyword arguments of its
        original :meth:`autotune` call (strategy, trial budget, seed, ...),
        overridden by any *kwargs* given here.  Returns the list of
        :class:`~repro.tune.autoscheduler.TuningResult` objects.
        """
        pending, self.retune_pending = self.retune_pending, []
        results = []
        for entry in pending:
            merged = {**entry["kwargs"], **kwargs}
            results.append(self.autotune(entry["workload"], entry["problem"], **merged))
        return results

    def _remember_tuning(self, record: Any) -> None:
        self._tuned[record.fingerprint] = record
        self._tuning_generation += 1

    @staticmethod
    def _problem_structure(problem: Any):
        """The problem's (first) epoch-carrying structure field, if any."""
        import dataclasses

        if not dataclasses.is_dataclass(problem):
            return problem if hasattr(problem, "structure_epoch") else None
        for field_ in dataclasses.fields(problem):
            value = getattr(problem, field_.name)
            if hasattr(value, "structure_epoch"):
                return value
        return None

    def _lineage_record(self, workload: str, problem: Any):
        """Stale-but-close plan reuse / re-tune trigger for drifted structures.

        Called on an exact-fingerprint miss.  If the problem's structure was
        autotuned earlier in this session and has since mutated, the
        recorded plan is reused while the drift (edits since tune / nnz at
        tune) stays below :attr:`drift_threshold`; crossing it triggers a
        re-tune — inline when :attr:`auto_retune` is set, else queued on
        :attr:`retune_pending` — and the lineage entry is retired so the
        trigger fires once per crossing.
        """
        structure = self._problem_structure(problem)
        if structure is None:
            return None
        entry = self._tuned_lineage.get(id(structure))
        if entry is None or entry["structure"] is not structure or entry["workload"] != workload:
            return None
        edits = int(getattr(structure, "mutation_count", 0)) - entry["mutations"]
        drift = edits / max(entry["nnz"], 1)
        if drift < self.drift_threshold:
            self.stats.count("stale_plan_reuses")
            return entry["record"]
        self.stats.count("retunes_triggered")
        del self._tuned_lineage[id(structure)]
        if self.auto_retune:
            result = self.autotune(workload, problem, **entry["kwargs"])
            return result.record
        self.retune_pending.append(
            {"workload": workload, "problem": problem, "kwargs": entry["kwargs"]}
        )
        return None

    def _task_fingerprint(self, workload: str, problem: Any) -> str:
        """Structural task fingerprint, memoised by problem identity + epoch.

        The full fingerprint hashes the problem's structural arrays (O(nnz));
        run-many loops call ``tuned=True`` operators with the *same* problem
        objects, so the hash is computed once per (workload, structure) and
        served from a bounded memo afterwards.  Memo entries hold strong
        references to the keyed objects, so an ``id()`` can never be reused
        while its key is alive; mutable structures are keyed by
        ``(id, structure_epoch)``, so a mutated matrix can never hit its
        pre-mutation entry.
        """
        import dataclasses

        parts: list = [workload]
        refs: list = []
        for field_ in dataclasses.fields(problem) if dataclasses.is_dataclass(problem) else []:
            value = getattr(problem, field_.name)
            if isinstance(value, (int, float, str, bool, type(None))):
                parts.append(value)
            else:
                parts.append((id(value), getattr(value, "structure_epoch", None)))
                refs.append(value)
        if not refs and not dataclasses.is_dataclass(problem):
            parts.append((id(problem), getattr(problem, "structure_epoch", None)))
            refs.append(problem)
        key = tuple(parts)
        hit = self._fingerprints.get(key)
        if hit is not None:
            self._fingerprints.move_to_end(key)
            return hit[0]
        from ..tune.spaces import get_workload, task_fingerprint

        fingerprint = task_fingerprint(get_workload(workload), problem)
        self._fingerprints[key] = (fingerprint, refs)
        while len(self._fingerprints) > self.format_cache_capacity:
            self._fingerprints.popitem(last=False)
        return fingerprint

    def tuning_record(self, workload: str, problem: Any):
        """The remembered (or persisted) record for one task, or ``None``.

        Disk misses are cached too: a run-many loop with no record pays the
        store lookup once, not per call.
        """
        fingerprint = self._task_fingerprint(workload, problem)
        record = self._tuned.get(fingerprint, _UNRESOLVED)
        if record is not _UNRESOLVED:
            return record
        store = self.tuning_records
        record = store.get(fingerprint) if store is not None else None
        if record is None:
            record = self._lineage_record(workload, problem)
        self._tuned[fingerprint] = record
        return record

    def _tuned_overrides(self, workload: str, problem: Any) -> Dict[str, Any]:
        """Execution-relevant parameters of the task's tuning record.

        Returns an empty dict when no record exists — callers fall back to
        their default (untuned) parameters.
        """
        record = self.tuning_record(workload, problem)
        if record is None:
            return {}
        from ..tune.spaces import get_workload

        return get_workload(workload).exec_config(record.config)

    # -- format decomposition --------------------------------------------------
    def _memoized_format(self, key: str, build_entry):
        """LRU-memoise one derived-format entry, tracking hit/miss stats.

        The lock covers only the LRU bookkeeping (serving runs sessions from
        several threads); ``build_entry`` itself runs outside it, so two
        threads may race to build the same decomposition — both results are
        equivalent and the second store wins harmlessly.
        """
        with self._lock:
            hit = self._formats.get(key)
            if hit is not None:
                self._formats.move_to_end(key)
        if hit is not None:
            self.stats.count("format_cache_hits")
            return hit
        self.stats.count("format_cache_misses")
        entry = build_entry()
        with self._lock:
            self._formats[key] = entry
            while len(self._formats) > self.format_cache_capacity:
                self._formats.popitem(last=False)
        return entry

    @staticmethod
    def _csr_memo_content(csr) -> Any:
        """Content identity of a matrix for decomposition memo keys.

        Epoch-memoised :meth:`~repro.formats.csr.CSRMatrix.content_signature`
        when available (stale-proof under mutation, O(1) when unchanged);
        plain content hash of the triplet otherwise.
        """
        signature = getattr(csr, "content_signature", None)
        if callable(signature):
            return signature()
        return content_key(csr.shape, csr.indptr, csr.indices, csr.data)

    def decompose_hyb(self, csr, num_col_parts: int = 1, num_buckets: Optional[int] = None):
        """``HybFormat.from_csr`` memoised by sparsity content and parameters."""
        from ..formats.hyb import HybFormat

        key = content_key("hyb", self._csr_memo_content(csr), num_col_parts, num_buckets)
        return self._memoized_format(
            key,
            lambda: HybFormat.from_csr(csr, num_col_parts=num_col_parts, num_buckets=num_buckets),
        )

    def decompose_bsr(self, csr, block_size: int):
        """``BSRMatrix.from_csr`` memoised by sparsity content and block size.

        Args:
            csr: The source :class:`~repro.formats.csr.CSRMatrix`.
            block_size: Square block edge length.

        Returns:
            The cached :class:`~repro.formats.bsr.BSRMatrix` view.
        """
        from ..formats.bsr import BSRMatrix

        key = content_key("bsr", self._csr_memo_content(csr), block_size)
        return self._memoized_format(key, lambda: BSRMatrix.from_csr(csr, block_size))

    def __repr__(self) -> str:
        return f"Session(engine={self.engine!r}, stats={self.stats.as_dict()})"


def _eager_method(name: str, prepare: Any) -> Any:
    """``Session.<name>``: *prepare*'s parameters and docstring, run by ``_execute``.

    The parameter annotated ``Structure`` (none for a dense operator) is what
    the handle is keyed on, those annotated ``Operand`` are the per-call
    arrays, and the rest — all defaulted — are the options, handed on in
    signature order so every spelling of one application maps to one handle
    key.  The split is compiled into the method here, once: a call is bound
    by Python itself, with its ``TypeError`` for an unknown, duplicate or
    missing argument.
    """
    params = list(inspect.signature(prepare).parameters.values())[1:]  # without ``session``
    structure = [param.name for param in params if param.annotation == "Structure"]
    operands = [param.name for param in params if param.annotation == "Operand"]
    options = [param.name for param in params if param.default is not param.empty]
    if [param.name for param in params] != structure[:1] + operands + options:
        raise TypeError(f"prepare_{name}: expected (session, [structure], *operands, *options)")
    header = ["self", *structure, *operands, *(f"{option}=None" for option in options)]
    call = [
        repr(name),
        structure[0] if structure else "None",
        "{%s}" % ", ".join(f"{role!r}: {role}" for role in operands),
        *(f"{option}={option}" for option in options),
    ]
    source = f"def {name}({', '.join(header)}):\n    return self._execute({', '.join(call)})\n"
    namespace: Dict[str, Any] = {}
    exec(compile(source, f"<generated Session.{name}>", "exec"), namespace)
    method = namespace[name]
    method.__defaults__ = prepare.__defaults__
    method.__module__ = __name__
    return registry.as_method(method, "Session", prepare, returns="np.ndarray")


for _name, _prepare in registry.OPERATORS.items():
    setattr(Session, _name, _eager_method(_name, _prepare))


_DEFAULT_SESSION: Optional[Session] = None


def get_default_session() -> Session:
    """The process-wide session used by module-level operator helpers."""
    global _DEFAULT_SESSION
    if _DEFAULT_SESSION is None:
        from ..core.codegen.cache import global_kernel_cache

        _DEFAULT_SESSION = Session(cache=global_kernel_cache())
    return _DEFAULT_SESSION
