"""Building lowered programs into runnable kernels."""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional

import numpy as np

from ..program import STAGE_COORDINATE, STAGE_LOOP, STAGE_POSITION, PrimFunc
from ..stage2.lowering import lower_sparse_iterations
from ..stage3.buffer_lowering import lower_sparse_buffers
from .cache import CacheEntry, KernelCache, resolve_cache, structural_fingerprint
from .cuda_like import emit_cuda_source
from .emit_numpy import UnsupportedForEmission, compile_emitted, emit_numpy_source
from .fusion import launch_count

#: Execution tiers of :meth:`Kernel.run`, fastest first.
ENGINES = ("native", "emitted", "interpret")


def _reason(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


class Kernel:
    """A compiled sparse kernel.

    A kernel bundles the fully lowered (stage-III) program with

    * a NumPy runtime (:meth:`run`) with three dispatch tiers: the native
      compiled kernel (the loop nest printed as C once per structure, one
      shared object per program family, shared across processes through the
      disk cache), the emitted stage-IV NumPy kernel (source generated once
      per structure, plan executed once per process), and the
      element-by-element interpreter — tried in that order under
      ``"auto"``, with automatic fallback whenever a tier rejects the
      program (:attr:`declined` says why); every tier is bit-exact,
    * the emitted NumPy listing (:meth:`emitted_source`) and the pseudo-CUDA
      listing (:meth:`cuda_source`) produced by code generation, and
    * a hook for the GPU performance model (:meth:`profile`) which estimates
      execution time and memory behaviour on a simulated device.

    ``defaults`` carries the value arrays of the program the kernel was built
    from, keyed by buffer name.  They are merged under any explicit bindings
    at :meth:`run` time, which is what lets a structurally-cached kernel be
    reused across workloads that share a sparsity structure but differ in
    values.
    """

    def __init__(
        self,
        func: PrimFunc,
        stage2: Optional[PrimFunc] = None,
        defaults: Optional[Mapping[str, np.ndarray]] = None,
        entry: Optional[CacheEntry] = None,
        cache: Optional[KernelCache] = None,
        key: Optional[str] = None,
    ):
        if func.stage != STAGE_LOOP:
            raise ValueError("Kernel requires a stage-III program; use build()")
        self.func = func
        self.stage2 = stage2
        self.defaults: Dict[str, np.ndarray] = dict(defaults or {})
        self.last_engine: Optional[str] = None
        #: Whether :func:`build` found this kernel's entry in the cache
        #: (``None`` for an uncached build).
        self.cache_hit: Optional[bool] = None
        self._source: Optional[str] = None
        self._aux_rebound = False
        # The cache entry shares the emitted source and its compiled runner
        # across every kernel built from the same structure; an uncached
        # kernel gets a private entry on first use.  ``cache``/``key`` give
        # the native tier access to the persistent artifact store (and the
        # native hit/rebuild counters); an uncached kernel compiles into a
        # process-local scratch directory instead.
        self._entry = entry
        self._cache = cache
        self._key = key
        self._aux_names = frozenset(buf.name for buf in func.aux_buffers)

    # -- execution ------------------------------------------------------------
    def run(
        self,
        bindings: Optional[Mapping[str, np.ndarray]] = None,
        engine: str = "auto",
        prepared: bool = False,
    ) -> Dict[str, np.ndarray]:
        """Execute the kernel and return every buffer's flat array.

        ``engine`` selects the backend: ``"auto"`` (default) tries the
        native compiled kernel, then the emitted stage-IV NumPy kernel, then
        the interpreter, silently falling back whenever a tier does not
        support the program; ``"native"`` / ``"emitted"`` require that tier
        (raising :class:`UnsupportedForEmission` if it does not apply);
        ``"interpret"`` forces the scalar interpreter.  ``last_engine``
        records the tier that served the run.

        ``prepared=True`` is the warm path of a
        :class:`~repro.runtime.bound.BoundKernel`: *bindings* already is the
        complete flat-array dict and *engine* the tier :meth:`fast_tier`
        resolved at bind time, so nothing is merged or marshalled here.  It
        stays inside :meth:`run` so that whatever wraps or times this method
        keeps seeing every kernel execution.
        """
        if prepared:
            runner = self._native_runner() if engine == "native" else self._emitted_runner()
            self.last_engine = engine
            self._aux_rebound = False
            return runner(bindings)

        from ...runtime.executor import Executor

        merged: Dict[str, np.ndarray] = dict(self.defaults)
        if bindings:
            merged.update(bindings)

        if engine not in ("auto",) + ENGINES:
            raise ValueError(f"unknown engine {engine!r}")
        # The native and emitted runners bound the auxiliary (structural)
        # arrays when they were built, so a binding that overrides one would
        # be silently ignored; such runs drop to the interpreter.
        aux_override = bool(bindings) and any(name in self._aux_names for name in bindings)
        self._aux_rebound = aux_override
        if engine in ("auto", "native"):
            runner = None if aux_override else self._native_runner()
            if runner is not None:
                result = runner(self._prepare(merged))
                self.last_engine = "native"
                return result
            if engine == "native":
                raise UnsupportedForEmission(
                    f"program {self.func.name!r} has no native kernel"
                    + (" (auxiliary buffers rebound)" if aux_override else "")
                )
        if engine in ("auto", "emitted"):
            runner = None if aux_override else self._emitted_runner()
            if runner is not None:
                result = runner(self._prepare(merged))
                self.last_engine = "emitted"
                return result
            if engine == "emitted":
                raise UnsupportedForEmission(
                    f"program {self.func.name!r} has no emitted kernel"
                    + (" (auxiliary buffers rebound)" if aux_override else "")
                )
        self.last_engine = "interpret"
        return Executor(self.func).run(merged)

    def _prepare(self, merged: Mapping[str, np.ndarray]) -> Dict[str, np.ndarray]:
        """Flat arrays for the native/emitted runners, which bound the
        auxiliary buffers at build time and never take them per call."""
        from ...runtime.executor import prepare_arrays

        return prepare_arrays(self.func, merged, skip=self._aux_names)

    def fast_tier(self, engine: str = "auto") -> Optional[str]:
        """The compiled tier *engine* would dispatch to, or ``None``.

        ``"native"`` / ``"emitted"`` when :meth:`run` would serve this kernel
        from that tier (compiling its runner now if needed); ``None`` when
        the run would reach the interpreter.
        """
        if engine in ("auto", "native") and self._native_runner() is not None:
            return "native"
        if engine in ("auto", "emitted") and self._emitted_runner() is not None:
            return "emitted"
        return None

    @property
    def declined(self) -> Dict[str, str]:
        """Why a compiled tier did not serve this kernel: tier -> reason.

        Reasons are recorded once per cache entry, the first time a tier is
        tried and declines (``"no toolchain"``, ``"UnsupportedForEmission:
        <message>"``, or the compile/plan error with its type); a tier that
        was never tried or that works is absent.  When the last :meth:`run`
        rebound an auxiliary buffer, both compiled tiers read
        ``"aux rebound"`` for that run.
        """
        if self._aux_rebound:
            return {"native": "aux rebound", "emitted": "aux rebound"}
        return dict(self._entry.declined) if self._entry is not None else {}

    def _ensure_entry(self) -> CacheEntry:
        """The shared cache entry, or a private one for an uncached kernel."""
        entry = self._entry
        if entry is None:
            entry = self._entry = CacheEntry(lowered=self.func)
            try:
                entry.source = emit_numpy_source(self.func)
            except UnsupportedForEmission as exc:
                entry.declined["emitted"] = _reason(exc)
        return entry

    def _emitted_runner(self) -> Any:
        """The compiled stage-IV runner, or ``None`` when unavailable.

        Compilation happens at most once per cache entry (shared across every
        kernel with the same structure) and is serialised by the entry lock;
        a failed compile or plan (e.g. lane overflow) marks the entry so the
        fallback decision is also made once.
        """
        entry = self._ensure_entry()
        if entry.source is None:
            if "emitted" not in entry.declined:
                # A cached entry (memory or disk) stores only the absence of
                # source; ask the emitter again for the reason.
                try:
                    emit_numpy_source(self.func)
                except UnsupportedForEmission as exc:
                    entry.declined["emitted"] = _reason(exc)
            return None
        if entry.runner is False:
            return None
        if entry.runner is not None:
            return entry.runner
        with entry.lock:
            if entry.runner is None:
                try:
                    entry.runner = compile_emitted(entry.source, self.func)
                except Exception as exc:
                    entry.runner = False
                    entry.declined["emitted"] = _reason(exc)
        return entry.runner or None

    def _native_runner(self) -> Any:
        """The compiled native (C) runner, or ``None`` when unavailable.

        Mirrors :meth:`_emitted_runner`: built at most once per cache entry
        under the entry lock, with any failure — no toolchain, the program
        outside the C emitter's fragment, a compile or load error — marking
        the entry so the fallback to the emitted tier is decided once.
        """
        entry = self._ensure_entry()
        if entry.native_runner is False:
            return None
        if entry.native_runner is not None:
            return entry.native_runner
        with entry.lock:
            if entry.native_runner is None:
                entry.native_runner = self._build_native(entry) or False
        return entry.native_runner or None

    def _native_sources(self, entry: CacheEntry) -> Any:
        """The emitted ``(c_source, binding)`` pair, or ``False`` when the
        program falls outside the C emitter's fragment (decided once)."""
        from .emit_c import emit_c_source

        if entry.native is None:
            try:
                entry.native = emit_c_source(self.func)
            except UnsupportedForEmission as exc:
                entry.native = False
                entry.declined["native"] = _reason(exc)
        return entry.native

    def _build_native(self, entry: CacheEntry) -> Any:
        from .emit_c import NativeBuildError, load_native, toolchain_available

        if not toolchain_available():
            entry.declined["native"] = "no toolchain"
            return None
        sources = self._native_sources(entry)
        if sources is False:
            return None
        c_source, binding = sources
        disk = self._cache.disk if self._cache is not None else None
        stats = self._cache.stats if self._cache is not None else None
        try:
            return load_native(self.func, c_source, binding, disk=disk, key=self._key, stats=stats)
        except (NativeBuildError, OSError, UnsupportedForEmission) as exc:
            # A compile failure or an artifact that does not load: the
            # emitted tier takes over.
            entry.declined["native"] = _reason(exc)
            return None

    def native_source(self) -> Optional[str]:
        """The C module emitted for this kernel's native tier (``None`` when
        the program falls outside the C emitter's fragment)."""
        sources = self._native_sources(self._ensure_entry())
        return sources[0] if sources else None

    # -- code generation ---------------------------------------------------------
    def emitted_source(self) -> Optional[str]:
        """The stage-IV NumPy module emitted for this kernel (``None`` when
        the program falls outside the emitter's fragment)."""
        return self._ensure_entry().source

    def cuda_source(self) -> str:
        """The CUDA-like listing emitted for this kernel."""
        if self._source is None:
            self._source = emit_cuda_source(self.func)
        return self._source

    @property
    def num_launches(self) -> int:
        """Number of device kernel launches (1 after horizontal fusion)."""
        return launch_count(self.func)

    # -- performance ---------------------------------------------------------------
    def profile(self, device, **kwargs):
        """Estimate execution on a simulated device (see :mod:`repro.perf`)."""
        from ...perf.gpu_model import profile_kernel

        return profile_kernel(self, device, **kwargs)

    def __repr__(self) -> str:
        return f"Kernel({self.func.name!r}, launches={self.num_launches})"


def _collect_defaults(func: PrimFunc) -> Dict[str, np.ndarray]:
    return {
        buf.name: buf.data
        for buf in list(func.buffers) + list(func.aux_buffers)
        if buf.data is not None
    }


def _structural_copy(func: PrimFunc) -> PrimFunc:
    """A copy of a lowered program with the *value* buffers' data detached.

    Cached entries must be purely structural: value arrays are rebound from
    the requesting program at every build, so (a) a cache hit can never leak
    the first build's features/weights into a later run whose program left a
    buffer unbound, and (b) the cache does not pin large value arrays in
    memory for the process lifetime.  Auxiliary (indptr/indices) buffers keep
    their data — it is structural and already part of the fingerprint.
    """
    from ..buffers import SparseBuffer

    stripped = [
        SparseBuffer(buf.name, buf.axes, buf.dtype, buf.scope) for buf in func.buffers
    ]
    return PrimFunc(
        func.name,
        axes=list(func.axes),
        buffers=stripped,
        body=func.body,
        stage=func.stage,
        aux_buffers=list(func.aux_buffers),
        flat_buffers=list(func.flat_buffers),
        attrs=dict(func.attrs),
    )


def _cached_kernel(
    entry: CacheEntry, defaults: Dict[str, np.ndarray], cache: KernelCache, key: str, hit: bool
) -> Kernel:
    kernel = Kernel(
        entry.lowered, stage2=entry.stage2, defaults=defaults, entry=entry, cache=cache, key=key
    )
    kernel.cache_hit = hit
    return kernel


def build(
    func: PrimFunc,
    horizontal_fusion: bool = True,
    cache: Optional[KernelCache] = None,
) -> Kernel:
    """Lower a program (from any stage) to stage III and wrap it in a Kernel.

    Args:
        func: The program to lower (stage I, II or III).
        horizontal_fusion: Apply the backend pass of Section 3.5 so that the
            per-format kernels produced by composable formats are launched as
            a single grid.
        cache: Structural kernel caching: ``None`` (default) uses the
            process-wide :func:`~repro.core.codegen.cache.global_kernel_cache`,
            a :class:`~repro.core.codegen.cache.KernelCache` instance uses
            that cache, and ``False`` disables caching.  On a cache hit —
            from memory, or from the persistent on-disk layer in a fresh
            process — lowering *and* stage-IV source emission are skipped
            entirely and the value arrays of *func* are attached to the
            cached loop nest as run-time defaults.

    Returns:
        A runnable :class:`Kernel` holding the stage-III program.
    """
    cache_obj = resolve_cache(cache)
    defaults = _collect_defaults(func)
    key: Optional[str] = None
    flight = None
    if cache_obj is not None:
        key = structural_fingerprint(func, {"horizontal_fusion": horizontal_fusion})
        entry = cache_obj.get(key)
        if entry is not None:
            return _cached_kernel(entry, defaults, cache_obj, key, hit=True)
        # Cache miss: claim the single-flight slot, so concurrent builders of
        # the same structure — threads of this process, or cold processes
        # sharing the persistent layer — perform exactly one lowering.  A
        # waiter that receives the finished entry skips lowering entirely.
        flight = cache_obj.begin_flight(key)
        if flight.entry is not None:
            flight.done()
            # ``get()`` counted this lookup as a miss; stay consistent with it.
            return _cached_kernel(flight.entry, defaults, cache_obj, key, hit=False)

    try:
        stage2: Optional[PrimFunc] = None
        if func.stage == STAGE_COORDINATE:
            func = lower_sparse_iterations(func)
        if func.stage == STAGE_POSITION:
            stage2 = func
            func = lower_sparse_buffers(func)
        if func.stage != STAGE_LOOP:
            raise ValueError(f"cannot build program at stage {func.stage}")
        if horizontal_fusion:
            from .fusion import horizontal_fuse

            func = horizontal_fuse(func)
        # Aux buffers (indptr/indices) are materialised during lowering;
        # include their data so cache hits on later builds can rebind them.
        defaults.update(_collect_defaults(func))
        if cache_obj is None or key is None:
            return Kernel(func, stage2=stage2, defaults=defaults)

        func = _structural_copy(func)
        stage2 = None if stage2 is None else _structural_copy(stage2)
        cache_obj.stats.lowerings += 1
        try:
            source: Optional[str] = emit_numpy_source(func)
            cache_obj.stats.emissions += 1
        except UnsupportedForEmission:
            source = None
        entry = cache_obj.put(key, func, stage2=stage2, source=source)
        return _cached_kernel(entry, defaults, cache_obj, key, hit=False)
    finally:
        if flight is not None:
            flight.done()
