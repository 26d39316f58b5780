"""The load side of code generation: what a process needs to *run* kernels.

``core/codegen/`` is split along load | emit.  This module is everything a
kernel that is already built needs — and it imports nothing from the emit
side (``emit_c``, ``emit_numpy``, ``hazards``, the lowering passes): a process
that finds its kernels in the disk cache loads them without bringing the
compiler (``tests/test_warm_start.py`` enforces both).

* :class:`NativeBinding` — which arrays and scalars fill the four blocks of
  ``run(bufs, tabs, ipar, fpar)``; the emitter prints it beside the C text and
  the disk cache stores it in the json record.
* :func:`load_native` dlopens the shared object of a text — already loaded
  (``_LIB_MEMO``), stored in the disk cache as ``<key>.so``, or compiled now
  with the system compiler — gathers the binding's arrays and returns the
  ``run(arrays)`` closure of the native tier.  A warm process passes the key
  a fingerprint's json record names and never sees the text.  The one foreign
  signature is built from ``_cffi_backend`` types directly (ABI mode, no
  ``Python.h``, and no C parser imported to declare it).
* the toolchain probe (:func:`find_compiler`, :func:`unavailable`), the compile
  step (:func:`compile_so`, :data:`CFLAGS`) and the name of an artifact,
  :func:`artifact_key` of what it is valid under (:data:`NATIVE_VERSION`,
  :func:`native_tag`, the text).

``emit_c`` re-exports every name that used to live there.
"""

from __future__ import annotations

import atexit
import contextlib
import functools
import hashlib
import os
import platform as _platform
import shutil
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from ..buffers import _np_dtype
from ..program import PrimFunc
from ..stmt import collect_buffer_stores

#: Bumped whenever the native-source contract (C layout, binding protocol, or
#: compile flags) changes; it is part of every artifact's name, and a record
#: of an older version is a cache miss that rebuilds, never an import.
NATIVE_VERSION = 4

#: Environment variable disabling the native tier (``0`` / ``off`` / ``false``).
NATIVE_ENV_VAR = "REPRO_NATIVE"

_NATIVE_DISABLED_VALUES = {"0", "off", "false", "disabled", "none", "no"}

#: Compile flags.  ``-ffp-contract=off`` is load-bearing: without it GCC fuses
#: ``a*b + c`` into an FMA whose single rounding diverges from NumPy's two.
#: ``-fwrapv`` makes signed int64 overflow wrap exactly like NumPy's.
#: ``-fopenmp-simd`` honours ``#pragma omp simd`` (no OpenMP runtime is linked):
#: at ``-O2`` GCC vectorises only the loops the emitter proved independent and
#: marked, never the checked fallback bodies.  ``-fno-inline-small-functions``:
#: a copy of a nest inlined into ``run`` (one call a launch) only costs compile
#: time; what must be inlined is declared ``static inline``.  The rest slims
#: the artifact — no symbol table, unwind tables or build id (nothing unwinds
#: through a kernel), and code and read-only data share a page instead of being
#: padded to one each — which leaves ``.text`` starting wherever the headers
#: end, so ``-falign-functions=64`` pins every function to a cache line: where a
#: hot loop falls within one moves a kernel by up to 20 % either way.
_LINK_FLAGS = ("-Wl,--build-id=none", "-Wl,-z,noseparate-code") if sys.platform.startswith("linux") else ()
CFLAGS = (
    "-O2",
    "-fPIC",
    "-shared",
    "-fno-strict-aliasing",
    "-ffp-contract=off",
    "-fwrapv",
    "-fopenmp-simd",
    "-fno-inline-small-functions",
    "-falign-functions=64",
    "-s",
    "-fno-asynchronous-unwind-tables",
    *_LINK_FLAGS,
)


class UnsupportedForEmission(Exception):
    """A compiled tier declines the program: the hazard analysis cannot prove it
    safe to batch, or it contains a construct an emitter cannot fix into code."""


class NativeBuildError(RuntimeError):
    """Compiling or loading the native artifact failed (caller falls back)."""


class NativeBinding(NamedTuple):
    """What fills ``run(bufs, tabs, ipar, fpar)`` for one program: no code.

    ``bufs`` names the value buffers in ``bufs[]`` order, behind one null slot
    per ``local`` buffer the program stores to (:func:`local_buffers`: the
    kernel's own scratch, which ``run`` allocates there).  ``tabs`` lists
    ``(kind, name)`` per table: ``("aux", buffer)`` is an auxiliary buffer in
    its flat dtype, ``("indptr" | "indices", axis)`` that axis array (int64)
    and ``("rowof", axis)`` the row of every position of a variable axis
    (int32, one entry per *position*).  ``ipar`` / ``fpar`` are the scalars.
    ``serial`` is not an operand: ``("vectorize <loop>", reason)`` per loop a
    schedule asked to vectorize and the independence proof kept serial, and
    ``("fuse <nest>", reason)`` per nest that ended a fused region.
    """

    bufs: Tuple[str, ...]
    tabs: Tuple[Tuple[str, str], ...]
    ipar: Tuple[int, ...]
    fpar: Tuple[float, ...]
    serial: Tuple[Tuple[str, str], ...] = ()


def local_buffers(func: PrimFunc) -> List[str]:
    """The ``local`` value buffers *func* stores to.  On the native tier they
    are the kernel's own scratch: zero at entry, allocated inside ``run`` (or
    never, when a fused region keeps them in its tiles), no operand of the
    call and not among its results."""
    aux = {buf.name for buf in func.aux_buffers}
    local = [flat.name for flat in func.flat_buffers if flat.scope == "local" and flat.name not in aux]
    if not local:  # every eager program: no walk of the body
        return local
    stored = {store.buffer.name for store in collect_buffer_stores(func.body)}
    return [name for name in local if name in stored]


def aux_arrays(func: PrimFunc) -> Dict[str, np.ndarray]:
    """The structural (auxiliary) flat arrays of a lowered program.

    Prepared exactly like :func:`repro.runtime.executor.prepare_arrays` does
    for the same buffers, so plan-time loads observe the bytes the
    interpreter would.
    """
    dtypes = {fb.name: fb.dtype for fb in func.flat_buffers}
    sizes = {fb.name: fb.size for fb in func.flat_buffers}
    out: Dict[str, np.ndarray] = {}
    for buf in func.aux_buffers:
        dtype = _np_dtype(dtypes.get(buf.name, buf.dtype))
        if buf.data is not None:
            out[buf.name] = np.asarray(buf.data, dtype=dtype).reshape(-1).copy()
        else:
            out[buf.name] = np.zeros(sizes.get(buf.name, buf.flat_size()), dtype=dtype)
    return out


# -- toolchain ----------------------------------------------------------------
def find_compiler() -> Optional[str]:
    """Path of the C compiler to use, or ``None`` when there is none.

    ``$REPRO_NATIVE=off`` disables the tier; ``$CC`` (when set) names the
    *only* candidate, so a non-existent path simulates a machine without a
    compiler.  Not memoised: tests and the no-compiler CI lane flip it.
    """
    gate = os.environ.get(NATIVE_ENV_VAR)
    if gate is not None and gate.strip().lower() in _NATIVE_DISABLED_VALUES:
        return None
    cc = os.environ.get("CC")
    for candidate in [cc] if cc else ["cc", "gcc", "clang"]:
        path = shutil.which(candidate)
        if path:
            return path
    return None


def unavailable() -> Optional[str]:
    """Why this machine cannot try the native tier right now (``None``: it can).

    The reason is what ``Kernel.declined["native"]`` reads.  A machine without
    a compiler never touches the foreign-call layer: the order is the point.
    """
    if find_compiler() is None:
        return "no toolchain"
    try:
        _get_ffi()
    except ImportError:
        return "no _cffi_backend (the 'native' extra: cffi>=1.15)"
    return None


def toolchain_available() -> bool:
    """Whether the native tier can compile and load on this machine, right now."""
    return unavailable() is None


def native_tag() -> str:
    """Platform + Python-ABI tag a compiled artifact is keyed by on disk."""
    return f"{sys.platform}-{_platform.machine()}-{sys.implementation.cache_tag}"


def artifact_key(c_source: str) -> str:
    """The name of *c_source*'s shared object: the sha256 of everything its
    validity depends on — this native emitter, this platform + ABI, the text."""
    return hashlib.sha256(f"{NATIVE_VERSION}|{native_tag()}|{c_source}".encode()).hexdigest()


# -- compilation + loading -----------------------------------------------------
class _Library(NamedTuple):
    """One dlopened artifact: the handle that keeps it mapped and its ``run``."""

    handle: Any
    run: Any


#: artifact key -> :class:`_Library` (or ``False`` after a failed build), so a
#: hypothesis battery over many structures of one program family compiles
#: exactly once per process.
_LIB_MEMO: Dict[str, Any] = {}
_MEMO_LOCK = threading.Lock()


class _Foreign:
    """The tier's one foreign signature, ``int run(void **, void **, const
    int64_t *, const double *)``, and the pointer blocks a call passes — built
    from ``_cffi_backend`` types directly, the way cffi's own out-of-line ABI
    modules are.  ``cffi.FFI().cdef(...)`` would import a C parser to declare
    the same thing."""

    def __init__(self) -> None:
        import _cffi_backend as backend

        primitive, pointer = backend.new_primitive_type, backend.new_pointer_type
        void_p = pointer(backend.new_void_type())
        self._backend = backend
        self._null = backend.cast(void_p, 0)
        self._block = backend.new_array_type(pointer(void_p), None)  # void *[]
        self._bytes = backend.new_array_type(pointer(primitive("char")), None)  # from_buffer's view
        self._address = pointer(primitive("intptr_t"))
        int64_p, double_p = pointer(primitive("int64_t")), pointer(primitive("double"))
        self._scalars = {"int64": int64_p, "float64": double_p}  # by dtype name: ipar, fpar
        blocks = (pointer(void_p), pointer(void_p), int64_p, double_p)
        self._signature = backend.new_function_type(blocks, primitive("int"), False)

    def dlopen(self, path: Path) -> _Library:
        """Map the shared object at *path* (``OSError`` when it does not load)."""
        handle = self._backend.load_library(str(path), 0)
        return _Library(handle, handle.load_function(self._signature, "run"))

    def pointers(self, arrays: List[np.ndarray], nulls: int = 0) -> Tuple[Any, List[int]]:
        """The C pointer block of *arrays* (which the caller keeps alive)
        behind *nulls* empty slots, and the arrays' addresses."""
        backend = self._backend
        held = [self._null] * nulls + [backend.from_buffer(self._bytes, array, False) for array in arrays]
        block = backend.newp(self._block, held or [self._null])
        return block, backend.unpack(backend.cast(self._address, block), len(held))[nulls:]

    def scalars(self, block: np.ndarray) -> Any:
        """``ipar`` / ``fpar`` as the pointer ``run`` takes (the caller keeps *block* alive)."""
        return self._backend.cast(self._scalars[block.dtype.name], block.ctypes.data)


@functools.lru_cache(maxsize=None)
def _get_ffi() -> _Foreign:
    return _Foreign()


@functools.lru_cache(maxsize=None)
def _scratch_dir() -> Path:
    """Per-process directory for compiled artifacts with no disk cache."""
    path = Path(tempfile.mkdtemp(prefix="repro-native-"))
    atexit.register(shutil.rmtree, str(path), True)
    return path


@functools.lru_cache(maxsize=None)
def _tool_id(compiler: str, linker: bool = False) -> str:
    """What *compiler*, or the linker it drives, calls itself: the first line
    of ``--version``, the last of ``-Wl,--version`` (asked once, at the first
    failure)."""
    try:
        ask = "-Wl,--version" if linker else "--version"
        proc = subprocess.run([compiler, ask], capture_output=True, text=True, timeout=30.0)
        return (proc.stdout or proc.stderr).strip().splitlines()[-1 if linker else 0]
    except (OSError, subprocess.TimeoutExpired, IndexError):
        return "version unknown"


def compile_so(c_source: str, out_path: Path) -> None:
    """Compile *c_source* into a shared object at *out_path* (atomically).

    A failure says which compiler was run with which flags, so a toolchain
    that rejects one of them is diagnosable from ``Kernel.declined["native"]``.
    A linker that does not know a link flag only warns that it ignores it;
    that is a failure too, naming flag and linker: the artifact would be a
    page larger than the size the flag exists for.
    """
    compiler = find_compiler()
    if compiler is None:
        raise NativeBuildError("no C compiler available")
    with tempfile.TemporaryDirectory(prefix="repro-cc-") as tmpdir:
        src = Path(tmpdir) / "kernel.c"
        obj = Path(tmpdir) / "kernel.so"
        src.write_text(c_source)
        try:
            proc = subprocess.run(
                [compiler, *CFLAGS, str(src), "-o", str(obj), "-lm"],
                capture_output=True,
                text=True,
                timeout=180.0,
            )
        except (OSError, subprocess.TimeoutExpired) as exc:
            raise NativeBuildError(f"C compiler failed to run: {exc}") from exc
        ignored = [flag for flag in _LINK_FLAGS if flag.rsplit(",", 1)[-1].lstrip("-") in proc.stderr]
        if proc.returncode != 0 or ignored:
            what = f"C compilation failed (exit {proc.returncode})"
            if proc.returncode == 0:
                what = f"linker [{_tool_id(compiler, linker=True)}] does not take {' '.join(ignored)}"
            raise NativeBuildError(
                f"{what}: {compiler} [{_tool_id(compiler)}] {' '.join(CFLAGS)}\n{proc.stderr[-2000:]}"
            )
        out_path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=str(out_path.parent), suffix=".so.tmp")
        os.close(fd)
        shutil.copy(str(obj), tmp)
        os.replace(tmp, out_path)


def _obtain_lib(artifact: str, c_source: Optional[str], cache: Any, disk: Any) -> _Library:
    """The library *artifact* names: the disk cache's ``<artifact>.so`` or, for
    a fresh print (*c_source*), a new build of the text.  A stored object that
    does not load is unlinked; without a text, a missing or unlinked object is
    the caller's miss (``FileNotFoundError``)."""
    so_path = disk.so_path(artifact) if disk is not None else _scratch_dir() / f"{artifact}.so"
    if disk is not None and so_path.exists():
        try:
            lib = _get_ffi().dlopen(so_path)
        except OSError:
            with contextlib.suppress(OSError):
                so_path.unlink()
        else:
            cache.count("native_hits")
            return lib
    if c_source is None:
        raise FileNotFoundError(f"{so_path} is missing or does not load")
    compile_so(c_source, so_path)
    lib = _get_ffi().dlopen(so_path)
    if cache is not None:
        cache.count("native_rebuilds")
    return lib


def load_native(
    func: PrimFunc,
    c_source: Optional[str],
    binding: NativeBinding,
    cache: Any = None,
    key: Optional[str] = None,
    artifact: Optional[str] = None,
) -> Any:
    """Load (or compile) the native artifact and bind the program's arrays.

    Returns the ``run(arrays)`` closure of the native tier.  A failure — no
    compiler, a compile error, an artifact that does not load — raises, and
    the caller decides the fallback for this kernel once.  ``cache``/``key``
    name the :class:`~repro.core.codegen.cache.KernelCache` whose disk layer
    stores the artifact and whose ``native_hits`` / ``native_rebuilds`` count
    where it came from.

    Either *c_source* is a fresh print — its :func:`artifact_key` names the
    shared object, which is compiled unless this process or the disk cache
    already has it, and *key*'s json record is (re)written to name it — or it
    is ``None`` and *artifact* is the key that record named: the warm path,
    which reads and hashes no text, and raises ``OSError`` when that object
    is gone or does not load.

    The C text asserts (``#pragma omp simd``) that differently named buffers
    never overlap, so ``run(arrays)`` refuses with ``ValueError`` a buffer the
    kernel stores to that shares memory with another operand of the call.

    A ``local`` buffer the program stores to (:func:`local_buffers`) is the
    kernel's own: ``run(arrays)`` neither reads it from *arrays* nor returns it.
    ``run.serial_regions`` says how many fused regions of the last call failed
    their precondition and ran as their serial nests (a diagnostic, not
    synchronised between concurrent calls).

    ``run(arrays)`` takes the value buffers per call and, like them, any
    auxiliary index table present in *arrays* under its buffer name: that
    array replaces the table bound here for this call (same dtype, length and
    contiguity, or ``ValueError``), and an axis table derived from it — the
    int64 ``indptr``/``indices`` of a coordinate search, the per-position row
    table — is re-derived from the fed array.  Nothing else changes: sizes
    and bounds checks are the compiled ones, so one loaded kernel serves every
    structure with its footprint.
    """
    ffi = _get_ffi()
    disk = cache.disk if cache is not None and key is not None else None
    if artifact is None:
        artifact = artifact_key(c_source)
    with _MEMO_LOCK:
        lib = _LIB_MEMO.get(artifact)
    if lib is False:
        raise NativeBuildError("native build previously failed for this source")
    if lib is None:
        try:
            lib = _obtain_lib(artifact, c_source, cache, disk)
        except NativeBuildError:
            with _MEMO_LOCK:
                _LIB_MEMO[artifact] = False
            raise
        with _MEMO_LOCK:
            lib = _LIB_MEMO.setdefault(artifact, lib)
    # A fresh print is recorded, so the next process prints nothing — unless
    # the library came from outside this directory (an uncached kernel's, or
    # another cache's): a record names no object its directory lacks.
    if c_source is not None and disk is not None and disk.so_path(artifact).exists():
        disk.publish_native(key, artifact, binding)
    call, pointers = lib.run, ffi.pointers

    aux = aux_arrays(func)
    axes = {axis.name: axis for axis in func.axes}

    def table(kind: str, name: str, source: Optional[np.ndarray] = None) -> np.ndarray:
        """One ``tabs[]`` entry, from the bound structure or from a fed *source*."""
        if kind == "aux":
            return aux[name] if source is None else source
        if kind != "rowof":
            source = getattr(axes[name], kind) if source is None else source
            return np.ascontiguousarray(source, dtype=np.int64)
        indptr = axes[name].indptr
        positions = np.arange(indptr[-1])  # the table keeps its bound length
        rows = np.searchsorted(indptr if source is None else source, positions, side="right")
        return (rows - 1).astype(np.int32)

    stored = {store.buffer.name for store in collect_buffer_stores(func.body)}
    stored_slots = frozenset(slot for slot, name in enumerate(binding.bufs) if name in stored)
    local = local_buffers(func)
    tab_names = [name if kind == "aux" else f"{name}_{kind}" for kind, name in binding.tabs]
    names = [*binding.bufs, *tab_names]
    slots = range(len(names))
    tabs = [table(kind, name) for kind, name in binding.tabs]
    # The auxiliary buffer each table follows when that buffer is fed per call:
    # itself, or the ``<axis>_indptr`` / ``<axis>_indices`` an axis table mirrors.
    follows = [
        name if kind == "aux" else f"{name}_{'indices' if kind == 'indices' else 'indptr'}"
        for kind, name in binding.tabs
    ]
    ipar = np.asarray(binding.ipar, dtype=np.int64)
    fpar = np.asarray(binding.fpar, dtype=np.float64)
    bound_tabs = (tabs, *pointers(tabs))
    ipar_ptr, fpar_ptr = ffi.scalars(ipar), ffi.scalars(fpar)

    def run(arrays: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        bufs = [arrays[name] for name in binding.bufs]
        for buf in bufs:
            if not buf.flags.c_contiguous:
                raise NativeBuildError("native tier requires contiguous buffers")
        fed = {name: arrays[name] for name in aux if name in arrays}
        if not fed:
            call_tabs, tab_ptrs, tab_starts = bound_tabs
        else:
            # Index tables fed for this call stand in for the bound ones.  The
            # sizes in ``ipar`` stay as compiled, so a fed table must be laid
            # out exactly like the one it replaces.
            for name, given in fed.items():
                bound = aux[name]
                same = (given.dtype, given.shape) == (bound.dtype, bound.shape)
                if not (same and given.flags.c_contiguous):
                    raise ValueError(
                        f"table {name!r} fed as {given.dtype}{list(given.shape)}, "
                        f"bound as contiguous {bound.dtype}[{bound.size}]"
                    )
            call_tabs = [
                table(kind, name, fed[source]) if source in fed else bound
                for (kind, name), source, bound in zip(binding.tabs, follows, tabs)
            ]
            tab_ptrs, tab_starts = pointers(call_tabs)
        buf_ptrs, starts = pointers(bufs, len(local))  # the kernel fills (and frees) its own slots
        # The no-overlap contract the SIMD loops rest on: what the kernel stores
        # to is disjoint from every other operand of the call.  One sweep in
        # address order; ``holder`` is the operand reaching furthest so far.
        given, starts = bufs + call_tabs, starts + tab_starts
        reach = holder = -1
        for slot in sorted(slots, key=starts.__getitem__):
            start, size = starts[slot], given[slot].nbytes
            if size and start < reach and (slot in stored_slots or holder in stored_slots):
                target, other = (slot, holder) if slot in stored_slots else (holder, slot)
                raise ValueError(
                    f"buffer {names[target]!r} is stored to and shares memory with "
                    f"{names[other]!r}: operands of a native kernel may not overlap"
                )
            if start + size > reach:
                reach, holder = start + size, slot
        run.serial_regions = call(buf_ptrs, tab_ptrs, ipar_ptr, fpar_ptr)
        if run.serial_regions < 0:
            raise MemoryError(f"native kernel {func.name!r} could not allocate its local buffers")
        for name in local:  # the kernel's own scratch: never the caller's arrays
            arrays.pop(name, None)
        return arrays

    run._keepalive = (lib, tabs, ipar, fpar)  # mapped, and read, on every call
    return run
