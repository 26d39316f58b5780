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

import inspect
import threading
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Mapping, Optional, Tuple

import numpy as np

from ..core.codegen.build import ENGINES, Kernel, build
from ..core.codegen.cache import KernelCache
from ..core.program import PrimFunc
from ..ops import registry
from . import dynamic
from .bound import BoundKernel
from .keys import content_key


@dataclass
class SessionStats:
    """Counters describing the compile/run activity of one session.

    ``native_runs`` / ``emitted_runs`` / ``interpreted_runs`` count which
    dispatch tier served each kernel execution.  Compilation-side counters (``lowerings``, ``emissions``,
    ``native_hits``, ``native_rebuilds``, ``disk_hits``) live on the kernel
    cache — read them from ``session.cache.stats`` to assert that a
    warm-started process did no compilation work at all.

    ``builds`` / ``kernel_cache_hits`` count kernels obtained / obtained
    without lowering; a bound-kernel handle hit is both (and one
    ``handle_hits``; on a derived format also one ``format_cache_hits``).
    Serving runs one session from several threads, so every increment
    happens under :attr:`lock`.
    """

    builds: int = 0
    kernel_cache_hits: int = 0
    kernel_cache_misses: int = 0
    format_cache_hits: int = 0
    format_cache_misses: int = 0
    native_runs: int = 0
    emitted_runs: int = 0
    interpreted_runs: int = 0
    graph_nodes_fused: int = 0
    graph_nodes_unfused: int = 0
    overlay_runs: int = 0
    stale_plan_reuses: int = 0
    retunes_triggered: int = 0
    handle_hits: int = 0
    handle_misses: int = 0
    lock: Any = field(default_factory=threading.Lock, repr=False, compare=False)

    def count_run(self, engine: Optional[str]) -> None:
        """Record one kernel execution on *engine* (a :data:`ENGINES` name)."""
        counter = "interpreted_runs" if engine == "interpret" else f"{engine}_runs"
        with self.lock:
            setattr(self, counter, getattr(self, counter) + 1)

    @property
    def runs(self) -> int:
        return self.native_runs + self.emitted_runs + self.interpreted_runs

    @property
    def fast_runs(self) -> int:
        """Runs served without the scalar interpreter (native or emitted)."""
        return self.native_runs + self.emitted_runs

    def as_dict(self) -> Dict[str, int]:
        return {
            "builds": self.builds,
            "kernel_cache_hits": self.kernel_cache_hits,
            "kernel_cache_misses": self.kernel_cache_misses,
            "format_cache_hits": self.format_cache_hits,
            "format_cache_misses": self.format_cache_misses,
            "native_runs": self.native_runs,
            "emitted_runs": self.emitted_runs,
            "interpreted_runs": self.interpreted_runs,
            "graph_nodes_fused": self.graph_nodes_fused,
            "graph_nodes_unfused": self.graph_nodes_unfused,
            "overlay_runs": self.overlay_runs,
            "stale_plan_reuses": self.stale_plan_reuses,
            "retunes_triggered": self.retunes_triggered,
            "handle_hits": self.handle_hits,
            "handle_misses": self.handle_misses,
        }


#: Sentinel: the session's tuning-record store is resolved lazily on first use.
_UNRESOLVED = object()


@dataclass
class _Handle:
    """One memoised operator application: a bound kernel plus its guard."""

    bound: BoundKernel
    #: What the key names by ``id`` (:func:`_identity`), pinned so that id
    #: cannot be reused while the handle is alive.
    anchor: Any
    #: Its storage at bind time; ``compact()`` swaps these under an unchanged
    #: epoch, so a hit requires them to be the very same arrays.
    storage: Tuple[Any, Any]
    #: Whether the structure's value array is a per-call operand.
    feeds_values: bool
    #: Whether the kernel runs on a decomposition of the structure.
    derived_format: bool

    def run(
        self, structure: Any, operands: Dict[str, np.ndarray], tables: Optional[Dict[str, Any]]
    ) -> np.ndarray:
        if tables is not None:
            operands.update(tables)
        elif self.feeds_values:
            operands["values"] = structure.data
        return self.bound.run(operands)["out"]


def _storage(structure: Any) -> Tuple[Any, Any]:
    return getattr(structure, "indptr", None), getattr(structure, "indices", None)


def _identity(structure: Any) -> Tuple[Any, Any]:
    """``(anchor, epoch)`` a handle is keyed on (the anchor by ``id``).

    A structure is its own anchor.  A CSR matrix answers with its base
    snapshot instead, which is one identity — for the matrix while it is
    clean, across edits that cancelled out, and for its ``base_view()`` during
    an edit window — until ``compact()`` replaces the arrays.
    """
    snapshot = getattr(structure, "base_snapshot", None)
    if snapshot is not None:
        return snapshot, None
    return structure, getattr(structure, "structure_epoch", None)


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
        #: One lock for the session's counters and LRU bookkeeping.
        self._lock = self.stats.lock
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

    # -- compilation -----------------------------------------------------------
    def build(self, func: PrimFunc, horizontal_fusion: bool = True) -> Kernel:
        """Build *func* through the session's structural kernel cache."""
        kernel = build(func, horizontal_fusion=horizontal_fusion, cache=self.cache)
        with self._lock:
            self.stats.builds += 1
            if kernel.cache_hit is True:
                self.stats.kernel_cache_hits += 1
            elif kernel.cache_hit is False:
                self.stats.kernel_cache_misses += 1
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
        self.stats.count_run(kernel.last_engine)
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

        *tables* (``indptr`` / ``indices`` / ``values`` laid out like the
        structure's own) runs the same handle over another matrix of the
        structure's footprint — the overlay's row patch.  Only a native
        kernel takes tables per call; on any other tier the result is
        ``None`` and nothing ran.

        A structure with a pending delta detours to the operator's
        ``overlay_<kind>`` in :mod:`repro.runtime.dynamic`, where there is one
        (base plan + patch); the base snapshot it calls back with has none.
        """
        if getattr(structure, "has_pending_delta", False):
            # Looked up on the module per call, so a patched overlay (a tracer's
            # span wrapper) is the one that runs.
            overlay = getattr(dynamic, f"overlay_{kind}", None)
            if overlay is not None:
                return overlay(self, structure, **operands, **options)
        operands = {role: np.asarray(value) for role, value in operands.items()}
        if options.get("dtype") is not None:
            options["dtype"] = np.dtype(options["dtype"])  # one key per spelling
        anchor, epoch = _identity(structure)
        key = (
            kind,
            id(anchor),
            epoch,
            tuple((value.shape, value.dtype) for value in operands.values()),
            tuple(options.values()),
            self._tuning_generation if options.get("tuned") else None,
        )
        storage = _storage(structure)
        with self._lock:
            handle = self._handles.get(key)
            if handle is not None and (
                handle.storage[0] is not storage[0] or handle.storage[1] is not storage[1]
            ):
                handle = None
            if handle is not None:
                if tables is not None and not handle.bound.feeds_tables:
                    return None
                self._handles.move_to_end(key)
                stats = self.stats
                stats.handle_hits += 1
                stats.builds += 1
                stats.kernel_cache_hits += 1
                if handle.derived_format:
                    stats.format_cache_hits += 1
                if handle.bound.tier == "native":
                    stats.native_runs += 1
                else:
                    stats.emitted_runs += 1
        if handle is not None:
            return handle.run(structure, operands, tables)
        return self._execute_cold(key, kind, structure, storage, operands, options, tables)

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
        """
        args = list(operands.values()) if structure is None else [structure, *operands.values()]
        spec = registry.prepare(self, kind, *args, **options)
        func, names = registry.build_spec_program(spec)
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
        feeds_values = spec.structure is structure and "values" in names
        if feeds_values:
            feeds[names["values"]] = "values"
            for aux in kernel.func.aux_buffers:
                feeds[aux.name] = aux.name.rpartition("_")[2]  # J_indptr -> "indptr"
        # The spec only finalises from here on; its operand arrays must not
        # stay pinned by the handle.
        outputs = [("out", names["out"], replace(spec, inputs={}))]
        handle = _Handle(
            BoundKernel(kernel, tier, feeds, outputs), _identity(structure)[0], storage,
            feeds_values,
            derived_format=spec.structure is not structure,
        )
        with self._lock:
            self.stats.handle_misses += 1
            self._handles[key] = handle
            while len(self._handles) > self.format_cache_capacity:
                self._handles.popitem(last=False)
        if tables is not None and not handle.bound.feeds_tables:
            return None
        self.stats.count_run(tier)
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
        decomposition up automatically.

        The session's record store also accumulates the phase-2 measurement
        corpus, so ``cost_model="hybrid"`` (rank phase 1 with the
        corpus-trained residual model once it is confident, spending fewer
        wallclock measurements) and ``transfer=True`` (seed a new workload
        from its nearest already-tuned neighbour in feature space, skipping
        phase 2 entirely under high confidence) work per session out of the
        box — see :mod:`repro.tune.transfer` and ``docs/tuning.md``.

        Args:
            workload: Registered workload family (``"spmm"``, ``"sddmm"``,
                ``"attention"``, ``"rgms"``, ``"sparse_conv"``,
                ``"pruned_spmm"``).
            problem: The family's problem description (e.g.
                :class:`~repro.tune.spaces.SpMMProblem`).
            **kwargs: Forwarded to the driver (strategy, max_trials,
                survivors, repeats, seed, device, force, cost_model,
                transfer, ...).

        Returns:
            The :class:`~repro.tune.tuner.TuningResult`.
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
        :class:`~repro.tune.tuner.TuningResult` objects.
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
            with self._lock:
                self.stats.stale_plan_reuses += 1
            return entry["record"]
        with self._lock:
            self.stats.retunes_triggered += 1
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
                self.stats.format_cache_hits += 1
                return hit
            self.stats.format_cache_misses += 1
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
