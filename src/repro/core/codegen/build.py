"""Building lowered programs into runnable kernels."""

from __future__ import annotations

from typing import Any, Callable, Dict, Mapping, Optional, Tuple

import numpy as np

from ..program import STAGE_COORDINATE, STAGE_LOOP, STAGE_POSITION, PrimFunc
from .cache import CacheEntry, KernelCache, resolve_cache, structural_fingerprint
from .fusion import launch_count
from .native import NativeBuildError, TableInvalid, UnsupportedForEmission, load_native, unavailable

# This module is on the warm path (a cache hit, a kernel loaded from disk): it
# imports the load side only.  The lowering passes and the emitters are
# imported in the branch that needs them — a miss, a tier that has to print.


class _Unavailable(Exception):
    """A tier known not to apply without trying it: not on this machine, or — a
    decline an earlier process stored — not to this program.  The message is
    the reason."""


def _reason(exc: Exception) -> str:
    return str(exc) if isinstance(exc, (_Unavailable, TableInvalid)) else f"{type(exc).__name__}: {exc}"


# -- the compiled tiers --------------------------------------------------------
# A tier is an ``emit(func, cache, key)`` that prints the program for its
# target and a ``load(func, emitted, cache, key)`` that turns the print into a
# ``run(arrays)`` runner.  ``cache``/``key`` name the kernel's artifact store
# (both ``None`` for an uncached kernel): the emitted tier keeps its print
# there (``<key>.py``), the native tier the print's binding and the name of what
# the C compiler made of it (the json record; ``<artifact>.so``, one per text) —
# or, for a program outside the C fragment, that it is — so a later process
# loads either without redoing the work.  The native print is ``(c_source,
# binding, artifact)``: a fresh text and no name yet, or no text and the name
# the record gave.


def emit_c_source(func: PrimFunc) -> Any:
    """:func:`repro.core.codegen.emit_c.emit_c_source`, imported when a kernel
    first has to be printed."""
    from . import emit_c

    return emit_c.emit_c_source(func)


def _emit_native(func: PrimFunc, cache: Optional[KernelCache], key: Optional[str]) -> Any:
    why = unavailable()
    if why is not None:
        raise _Unavailable(why)
    disk = cache.disk if cache is not None else None
    if disk is not None:
        stored = disk.get_native(key)
        if stored is not None:
            artifact, binding = stored
            return None, binding, artifact
        declined = disk.get_native_decline(key)
        if declined is not None:
            raise _Unavailable(declined)
    try:
        return (*emit_c_source(func), None)
    except UnsupportedForEmission as exc:
        if disk is not None:  # a property of the program: the next process need not ask
            disk.publish_native_decline(key, _reason(exc))
        raise


def _load_native(func: PrimFunc, emitted: Any, cache: Optional[KernelCache], key: Optional[str]) -> Any:
    c_source, binding, artifact = emitted
    try:
        return load_native(func, c_source, binding, cache=cache, key=key, artifact=artifact)
    except OSError:
        if c_source is not None:
            raise
    # The shared object the record names is gone or does not load: an ordinary
    # miss, which prints, compiles and rewrites the record.
    return load_native(func, *emit_c_source(func), cache=cache, key=key)


def _emit_numpy(func: PrimFunc, cache: Optional[KernelCache], key: Optional[str]) -> str:
    disk = cache.disk if cache is not None else None
    source = disk.get_source(key) if disk is not None else None
    if source is None:
        from .emit_numpy import emit_numpy_source

        source = emit_numpy_source(func)
        if cache is not None:
            cache.stats.count("emissions")
        if disk is not None:
            disk.put_source(key, source)
    return source


def _load_numpy(func: PrimFunc, source: str, cache: Optional[KernelCache], key: Optional[str]) -> Any:
    from .emit_numpy import compile_emitted

    return compile_emitted(source, func)


#: tier -> (emit, load, what the two raise to decline), fastest first; the
#: interpreter is what is left.  Native: outside the C fragment, no toolchain,
#: a compile error, an artifact that does not load, a bound index table that
#: breaks a fact the text relies on (``TABLE_INVALID``).  Emitted: outside the
#: NumPy fragment, or the plan gave up on this structure while it ran (lane
#: overflow and structural zeros raise ``ValueError``).
_TIERS: Dict[str, Tuple[Callable[..., Any], Callable[..., Any], Tuple[type, ...]]] = {
    "native": (
        _emit_native, _load_native,
        (UnsupportedForEmission, _Unavailable, NativeBuildError, OSError, TableInvalid),
    ),
    "emitted": (_emit_numpy, _load_numpy, (UnsupportedForEmission, ValueError, MemoryError)),
}

#: Execution tiers of :meth:`Kernel.run`, fastest first.
ENGINES = (*_TIERS, "interpret")


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
      program (:attr:`declined` says why); every tier is bit-exact.  A
      compiled tier is emitted, loaded and stored the first time it is asked
      to serve — a kernel the native tier runs never prints NumPy source, and
    * the listings code generation produced (:meth:`native_source`,
      :meth:`emitted_source`).

    What the kernel would cost on a simulated device, and its pseudo-CUDA
    listing, are :func:`repro.sim.profile_kernel` / :func:`repro.sim.cuda_source`.

    ``defaults`` carries the value arrays of the program the kernel was built
    from, keyed by buffer name.  They are merged under any explicit bindings
    at :meth:`run` time, which is what lets a structurally-cached kernel be
    reused across workloads that share a sparsity structure but differ in
    values.
    """

    def __init__(
        self,
        func: PrimFunc,
        defaults: Optional[Mapping[str, np.ndarray]] = None,
        entry: Optional[CacheEntry] = None,
        cache: Optional[KernelCache] = None,
        key: Optional[str] = None,
    ):
        if func.stage != STAGE_LOOP:
            raise ValueError("Kernel requires a stage-III program; use build()")
        self.func = func
        self.defaults: Dict[str, np.ndarray] = dict(defaults or {})
        self.last_engine: Optional[str] = None
        #: Whether :func:`build` found this kernel's entry in the cache
        #: (``None`` for an uncached build).
        self.cache_hit: Optional[bool] = None
        self._aux_rebound = False
        # The cache entry shares the resolved tiers across every kernel built
        # from the same structure; an uncached kernel has a private one.
        # ``cache``/``key`` name the persistent artifact store (and the
        # emission / native hit / rebuild counters); an uncached kernel
        # compiles into a process-local scratch directory instead.
        self._entry = entry if entry is not None else CacheEntry(lowered=func)
        self._cache = cache
        self._key = key
        self._aux_names = frozenset(buf.name for buf in func.aux_buffers)

    # -- execution ------------------------------------------------------------
    def run(
        self,
        bindings: Optional[Mapping[str, np.ndarray]] = None,
        engine: str = "auto",
        prepared: Any = None,
    ) -> Dict[str, np.ndarray]:
        """Execute the kernel and return every buffer's flat array.

        ``engine`` selects the backend: ``"auto"`` (default) tries the
        native compiled kernel, then the emitted stage-IV NumPy kernel, then
        the interpreter, silently falling back whenever a tier does not
        support the program; ``"native"`` / ``"emitted"`` require that tier
        (raising :class:`UnsupportedForEmission` if it does not apply);
        ``"interpret"`` forces the scalar interpreter.  ``last_engine``
        records the tier that served the run.

        *prepared* is the warm path of a
        :class:`~repro.runtime.bound.BoundKernel`: the call it bound to the
        tier :meth:`fast_tier` resolved (*engine*), which takes *bindings* as
        they are, so nothing is merged or marshalled here.  It stays inside
        :meth:`run` so that whatever wraps or times this method keeps seeing
        every kernel execution.
        """
        if prepared is not None:
            self.last_engine = engine
            self._aux_rebound = False
            return prepared(bindings)

        from ...runtime.executor import Executor, prepare_arrays

        merged: Dict[str, np.ndarray] = dict(self.defaults)
        if bindings:
            merged.update(bindings)

        if engine not in ("auto",) + ENGINES:
            raise ValueError(f"unknown engine {engine!r}")
        # An overridden auxiliary (structural) array is a per-call table feed
        # on the native tier.  The emitted tier's lane plan is specific to the
        # structure it was planned on, so there such a run drops a tier.
        fed = self._aux_names.intersection(bindings or ())
        self._aux_rebound = False
        for tier in _TIERS:
            if engine not in ("auto", tier):
                continue
            if fed and tier != "native":
                self._aux_rebound = True
                runner = None
            else:
                runner = self._runner(tier)
            if runner is not None:
                result = runner(prepare_arrays(self.func, merged, skip=self._aux_names - fed))
                self.last_engine = tier
                return result
            if engine == tier:
                raise UnsupportedForEmission(
                    f"program {self.func.name!r} has no {tier} kernel"
                    + (" (auxiliary buffers rebound)" if fed else "")
                )
        self.last_engine = "interpret"
        return Executor(self.func).run(merged)

    def fast_tier(self, engine: str = "auto") -> Optional[str]:
        """The compiled tier *engine* would dispatch to, or ``None``.

        ``"native"`` / ``"emitted"`` when :meth:`run` would serve this kernel
        from that tier (compiling its runner now if needed); ``None`` when
        the run would reach the interpreter.
        """
        for tier in _TIERS:
            if engine in ("auto", tier) and self._runner(tier) is not None:
                return tier
        return None

    @property
    def declined(self) -> Dict[str, str]:
        """Why a compiled tier did not serve this kernel: tier -> reason.

        Reasons are recorded once per cache entry, the first time a tier is
        asked for and declines (``"no toolchain"``, ``"UnsupportedForEmission:
        <message>"``, or the compile/plan error with its type); a tier that
        was never asked for — the emitted tier of a kernel the native tier
        serves — or that works is absent.  A :meth:`run` that rebinds an
        auxiliary buffer feeds the native kernel that table for the call;
        when it reaches the emitted tier, whose plan is fixed to the
        structure it was made on, that tier reads ``"aux rebound"`` for that
        run.  A rebound table of the wrong length is a ``ValueError`` on
        every tier, never a decline.

        Beside the tiers, ``"vectorize <loop>"`` names a loop a schedule asked
        to vectorize that the native emitter kept serial, with what its
        independence proof found (a reduction, a shifted read, ...), and
        ``"fuse <nest>"`` a nest that ended a fused region, with what the
        region proof found (it gathers rows of a member's output, its row
        extent differs, ...).
        """
        declined = dict(self._entry.declined)
        native = self._entry.tiers.get("native", (None,))[0]
        if native is not None:
            declined.update(native[1].serial)
        if self._aux_rebound:
            declined["emitted"] = "aux rebound"
        return declined

    def _tier(self, tier: str) -> Tuple[Any, Any]:
        """The entry's ``(emitted, runner)`` slot for *tier*, resolved on first use.

        Emit, then load — once per cache entry (shared by every kernel of the
        same structure), under the entry lock.  Either step may decline:
        the reason lands in ``declined[tier]``, the runner stays ``None`` and
        the fallback to the next tier is decided for good.
        """
        entry = self._entry
        slot = entry.tiers.get(tier)
        if slot is None:
            with entry.lock:
                slot = entry.tiers.get(tier)
                if slot is None:
                    emit, load, declines = _TIERS[tier]
                    emitted = runner = None
                    try:
                        emitted = emit(self.func, self._cache, self._key)
                        runner = load(self.func, emitted, self._cache, self._key)
                    except declines as exc:
                        entry.declined[tier] = _reason(exc)
                    slot = entry.tiers[tier] = (emitted, runner)
        return slot

    def _runner(self, tier: str) -> Any:
        """The loaded runner of *tier* (``runner(arrays)``), or ``None``."""
        return self._tier(tier)[1]

    def native_source(self) -> Optional[str]:
        """The C module emitted for this kernel's native tier (``None`` when
        the program falls outside the C emitter's fragment or there is no
        toolchain to compile it; :attr:`declined` says which).  A kernel
        loaded from the disk cache holds no text: it is printed anew here."""
        emitted = self._tier("native")[0]
        if emitted is None:
            return None
        return emitted[0] if emitted[0] is not None else emit_c_source(self.func)[0]

    def planned_on(self, aux: Dict[str, np.ndarray], axes: Dict[str, Any]) -> Optional["Kernel"]:
        """This kernel with its emitted plan made on other index tables: a
        kernel for another structure of the same footprint, with no lowering.

        *aux* holds flat tables by buffer name, laid out like the bound ones;
        *axes* the axes, by name, whose arrays the plan's searches read.  The
        result runs on the emitted tier only (its plan is that structure's,
        so it takes no fed tables either); ``None`` when the emitted tier
        does not serve this kernel or its plan gives up on those tables.
        """
        source = self.emitted_source()
        if source is None:
            return None
        from .emit_numpy import compile_emitted

        try:
            runner = compile_emitted(source, self.func, aux, axes)
        except (ValueError, MemoryError):  # the plan gave up on that structure
            return None
        entry = CacheEntry(lowered=self.func, declined=dict(self._entry.declined))
        entry.tiers.update(native=(None, None), emitted=(source, runner))
        return Kernel(self.func, self.defaults, entry=entry)

    # -- code generation ---------------------------------------------------------
    def emitted_source(self) -> Optional[str]:
        """The stage-IV NumPy module emitted for this kernel (``None`` when
        the program falls outside the emitter's fragment)."""
        return self._tier("emitted")[0]

    @property
    def num_launches(self) -> int:
        """Number of device kernel launches (1 after horizontal fusion)."""
        return launch_count(self.func)

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
    kernel = Kernel(entry.lowered, defaults=defaults, entry=entry, cache=cache, key=key)
    kernel.cache_hit = hit
    return kernel


def _lower(func: PrimFunc, horizontal_fusion: bool) -> PrimFunc:
    """*func* lowered from its stage to stage III, horizontally fused if asked."""
    if func.stage == STAGE_COORDINATE:
        from ..stage2.lowering import lower_sparse_iterations

        func = lower_sparse_iterations(func)
    if func.stage == STAGE_POSITION:
        from ..stage3.buffer_lowering import lower_sparse_buffers

        func = lower_sparse_buffers(func)
    if func.stage != STAGE_LOOP:
        raise ValueError(f"cannot build program at stage {func.stage}")
    if horizontal_fusion:
        from .fusion import horizontal_fuse

        func = horizontal_fuse(func)
    return func


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
            process — lowering is skipped entirely and the value arrays of
            *func* are attached to the cached loop nest as run-time defaults.
            Threads building one cold structure at once lower it once;
            processes sharing the disk layer do not wait for each other.

    Building stops at the loop nest.  Printing it for a target (C, NumPy),
    compiling and loading are the tiers' business, done the first time the
    returned kernel asks a tier to serve it (see :class:`Kernel`).

    Returns:
        A runnable :class:`Kernel` holding the stage-III program.
    """
    cache_obj = resolve_cache(cache)
    defaults = _collect_defaults(func)
    if cache_obj is None:
        lowered = _lower(func, horizontal_fusion)
        defaults.update(_collect_defaults(lowered))
        return Kernel(lowered, defaults=defaults)
    key = structural_fingerprint(func, {"horizontal_fusion": horizontal_fusion})
    entry = cache_obj.get(key)
    if entry is not None:
        return _cached_kernel(entry, defaults, cache_obj, key, hit=True)
    # A miss: lower under the fingerprint's lock, so threads racing on one
    # cold structure lower it once and the rest take the stored entry.
    # Processes sharing the disk layer each lower for themselves.
    with cache_obj.lowering(key) as entry:
        if entry is None:
            lowered = _lower(func, horizontal_fusion)
            # Aux buffers (indptr/indices) are materialised during lowering;
            # include their data so cache hits on later builds can rebind them.
            defaults.update(_collect_defaults(lowered))
            cache_obj.stats.count("lowerings")
            entry = cache_obj.put(key, _structural_copy(lowered))
    # ``get()`` counted this lookup as a miss; a racing thread's entry stays one.
    return _cached_kernel(entry, defaults, cache_obj, key, hit=False)
