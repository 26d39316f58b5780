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
  :class:`NativeRunner` of the native tier: ``runner(arrays)``, and
  ``runner.bind(...)`` for a caller whose calls share what it marshals once
  (a :class:`~repro.runtime.bound.BoundKernel`).  A warm process passes the key
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
from typing import AbstractSet, Any, Callable, Dict, List, Mapping, NamedTuple, Optional, Tuple

import numpy as np

from ..buffers import _np_dtype
from ..program import PrimFunc
from ..stmt import collect_buffer_stores

#: Bumped whenever the native-source contract (C layout, binding protocol, or
#: compile flags) changes; it is part of every artifact's name, and a record
#: of an older version is a cache miss that rebuilds, never an import.
NATIVE_VERSION = 8

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


#: The reason a binding whose tables break a fact of its text is declined with.
TABLE_INVALID = "TABLE_INVALID"


class TableInvalid(Exception):
    """A bound index table breaks a fact the native text relies on: the tier
    declines this binding and the kernel runs on the next one."""


def check_tables(
    facts: Tuple[Tuple[str, str, int, str], ...], tables: Dict[str, np.ndarray], sizes: Dict[str, int]
) -> Optional[str]:
    """Why *tables* (buffer name -> array) break one of *facts*
    (:class:`NativeBinding`), or ``None``.  *sizes* are the lengths the text
    was printed for.  O(length) NumPy per table; an ``indices`` fact bounded by
    an ``indptr`` reads only the prefix that bounds."""
    for kind, name, bound, link in facts:
        table = tables[name]
        if table.size != sizes[name]:
            return f"{name!r} has {table.size} entries, the kernel was printed for {sizes[name]}"
        if kind == "indptr":
            if table.size and (table[0] < 0 or table[-1] > bound):
                return f"{name!r} runs from {table[0]} to {table[-1]}, outside [0, {bound}]"
            if table.size > 1 and bool((table[1:] < table[:-1]).any()):
                return f"{name!r} decreases"
            if link and table is not tables[link] and not np.array_equal(table, tables[link]):
                return f"{name!r} differs from {link!r}"
        elif kind == "rows":
            if not (table.size and table[0] == 0 and table[-1] == bound):
                return f"{name!r} does not run from 0 to {bound}"
        elif kind == "padded":
            if table.size and (table.min() < -1 or table.max() >= bound):
                return f"{name!r} holds {table.min()}..{table.max()}, outside [-1, {bound})"
        else:
            end = (int(tables[link][-1]) if tables[link].size else 0) if link else table.size
            if end > table.size:
                return f"{link!r} ends at {end}, past the {table.size} entries of {name!r}"
            head = table[:end]
            if head.size and (head.min() < 0 or head.max() >= bound):
                return f"{name!r} holds {head.min()}..{head.max()}, outside [0, {bound})"
    return None


def _rows_of_positions(indptr: np.ndarray, size: int) -> np.ndarray:
    """``searchsorted(indptr, p, side="right") - 1`` for every position
    ``p < size``, as int32: the row table of a fused loop's row search.  A
    non-decreasing *indptr* inside ``[0, size]`` (what its facts hold) takes
    one ``np.repeat``; anything else the search itself."""
    counts = np.diff(indptr)
    first, last = (int(indptr[0]), int(indptr[-1])) if indptr.size else (-1, -1)
    if not (0 <= first <= last <= size) or bool((counts < 0).any()):
        positions = np.arange(size)
        return (np.searchsorted(indptr, positions, side="right") - 1).astype(np.int32)
    rows = np.empty(size, dtype=np.int32)
    rows[:first] = -1
    rows[first:last] = np.repeat(np.arange(counts.size, dtype=np.int32), counts)
    rows[last:] = counts.size
    return rows


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

    ``facts`` are what the text takes for granted of its index tables, where
    it loads and stores without a range test (:func:`check_tables`, per
    binding and per fed table): ``("indptr", table, nnz, "")`` — the table is
    non-decreasing from ``table[0] >= 0`` to ``table[-1] <= nnz`` — or
    ``("indptr", table, nnz, other)``, the same and equal to table *other*;
    ``("indices", table, cols, indptr)`` — ``table[:indptr[-1]]`` lies in
    ``[0, cols)`` — or ``("indices", table, cols, "")``, all of it;
    ``("rows", table, nnz, "")`` — the table runs from exactly 0 to ``nnz``,
    so the row search of every position below ``nnz`` finds a row;
    ``("padded", table, cols, "")`` — an ELL coordinate table lies in
    ``[-1, cols)``, -1 marking a padded slot, which the program skips.  A
    table the program states a domain for (hyb's ``rowmap``) carries an
    ``("indices", table, rows, "")`` fact.

    ``zero`` names the value buffers the text's second entry, ``zero(bufs,
    tabs, ipar, fpar)``, fills: the passes that store nothing but ``+0`` to
    buffers no earlier pass touches, printed out of ``run`` (``()``: the text
    has no such entry).  The unbound call makes it in front of ``run``; a
    bound call whose buffers all arrive zeroed skips it (:meth:`NativeRunner.bind`).
    """

    bufs: Tuple[str, ...]
    tabs: Tuple[Tuple[str, str], ...]
    ipar: Tuple[int, ...]
    fpar: Tuple[float, ...]
    serial: Tuple[Tuple[str, str], ...] = ()
    facts: Tuple[Tuple[str, str, int, str], ...] = ()
    zero: Tuple[str, ...] = ()


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
    """One dlopened artifact: the handle that keeps it mapped, its ``run`` and
    its ``zero`` (``None`` for a text that prints none)."""

    handle: Any
    run: Any
    zero: Any = None


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
        self.null = backend.cast(void_p, 0)
        #: ``view(array)``: a pointer to a C-contiguous *array*'s memory that
        #: keeps it alive (anything else raises ``BufferError``); ``block(views)``:
        #: a ``void *[]`` of them, which the caller keeps alive.  Bound to their
        #: types here: a warm call makes one of each per operand and per call.
        bytes_ = backend.new_array_type(pointer(primitive("char")), None)
        self.view = functools.partial(backend.from_buffer, bytes_)
        self.block = functools.partial(backend.newp, backend.new_array_type(pointer(void_p), None))
        self._address = pointer(primitive("intptr_t"))
        int64_p, double_p = pointer(primitive("int64_t")), pointer(primitive("double"))
        self._scalars = {"int64": int64_p, "float64": double_p}  # by dtype name: ipar, fpar
        blocks = (pointer(void_p), pointer(void_p), int64_p, double_p)
        self._signature = backend.new_function_type(blocks, primitive("int"), False)

    def dlopen(self, path: Path) -> _Library:
        """Map the shared object at *path* (``OSError`` when it does not load)."""
        handle = self._backend.load_library(str(path), 0)
        try:
            zero = handle.load_function(self._signature, "zero")
        except AttributeError:  # the text clears nothing out of ``run``
            zero = None
        return _Library(handle, handle.load_function(self._signature, "run"), zero)

    def pointers(self, arrays: List[np.ndarray], nulls: int = 0) -> Tuple[Any, List[int]]:
        """The C pointer block of *arrays* (which the caller keeps alive)
        behind *nulls* empty slots, and the arrays' addresses."""
        held = [self.null] * nulls + [self.view(array) for array in arrays]
        block = self.block(held or [self.null])
        return block, self._backend.unpack(self._backend.cast(self._address, block), len(held))[nulls:]

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
            cache.stats.count("native_hits")
            return lib
    if c_source is None:
        raise FileNotFoundError(f"{so_path} is missing or does not load")
    compile_so(c_source, so_path)
    lib = _get_ffi().dlopen(so_path)
    if cache is not None:
        cache.stats.count("native_rebuilds")
    return lib


def load_native(
    func: PrimFunc,
    c_source: Optional[str],
    binding: NativeBinding,
    cache: Any = None,
    key: Optional[str] = None,
    artifact: Optional[str] = None,
) -> "NativeRunner":
    """Load (or compile) the native artifact and bind the program's arrays.

    Returns the :class:`NativeRunner` of the native tier.  A failure — no
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
    kernel stores to that shares memory with another operand of the call.  A
    call made through :meth:`NativeRunner.bind` holds that by construction.

    The binding's index tables are checked against its ``facts`` first
    (:func:`check_tables`): a table that breaks one raises
    :class:`TableInvalid`, before anything is compiled.

    A ``local`` buffer the program stores to (:func:`local_buffers`) is the
    kernel's own: ``run(arrays)`` neither reads it from *arrays* nor returns it.

    A text with a ``zero`` entry (``binding.zero``) has ``run(arrays)`` call
    it first, then ``run``: the interpreter's result, whatever the stored
    buffers held.

    ``run(arrays)`` takes the value buffers per call and, like them, any
    auxiliary index table present in *arrays* under its buffer name: that
    array replaces the table bound here for this call (same dtype, length and
    contiguity, or ``ValueError``), and an axis table derived from it — the
    int64 ``indptr``/``indices`` of a coordinate search, the per-position row
    table — is re-derived from the fed array, and so is an indptr table of the
    fed table's class (``J_dense_indptr`` follows ``J_indptr``).  A row table
    fed under its own name (``J_rowof``, :attr:`NativeRunner.derived`) is
    taken instead of re-derived.  A fed table is checked against the facts
    that name it, per call (``ValueError`` when it breaks one).  Nothing else
    changes: sizes and bounds checks are the compiled ones, so one loaded
    kernel serves every structure with its footprint.
    """
    aux = aux_arrays(func)
    sizes = {flat.name: flat.size for flat in func.flat_buffers}
    why = check_tables(binding.facts, aux, sizes)
    if why is not None:
        raise TableInvalid(f"{TABLE_INVALID}: {why}")
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
    return NativeRunner(func, lib, binding, aux, sizes)


class NativeRunner:
    """The loaded native tier of one program.

    ``runner(arrays)`` runs it on a dict of flat arrays (:func:`load_native`
    says what it takes and checks); :meth:`bind` marshals, once, what a
    caller's every call shares, and returns the call that marshals the rest.
    ``serial_regions`` says how many fused regions of the last call failed
    their precondition and ran as their serial nests (a diagnostic, not
    synchronised between concurrent calls).
    """

    def __init__(
        self, func: PrimFunc, lib: _Library, binding: NativeBinding,
        aux: Dict[str, np.ndarray], sizes: Dict[str, int],
    ):
        ffi = self._ffi = _get_ffi()
        self.name, self.binding, self.serial_regions = func.name, binding, 0
        self._lib, self._aux, self._sizes = lib, aux, sizes  # the library stays mapped
        if binding.zero and lib.zero is None:
            raise NativeBuildError(f"the artifact of {func.name!r} lacks the zero entry its binding names")
        self._axes = {axis.name: axis for axis in func.axes}
        stored = {store.buffer.name for store in collect_buffer_stores(func.body)}
        #: The value buffers of ``bufs[]`` the kernel stores to.
        self.stored = frozenset(name for name in binding.bufs if name in stored)
        self._local = local_buffers(func)
        tabs = [self._table(kind, name) for kind, name in binding.tabs]
        self._tab_names = [name if kind == "aux" else f"{name}_{kind}" for kind, name in binding.tabs]
        #: Tables a call may feed beside the auxiliary buffers: the per-position
        #: row table of a row search, by its ``tabs[]`` name (``J_rowof``).
        self.derived = {
            name: table
            for (kind, _axis), name, table in zip(binding.tabs, self._tab_names, tabs)
            if kind == "rowof"
        }
        self._feedable = [*aux, *self.derived]
        # The row count every entry of a fed row table must stay below, where
        # the text takes a row for every position for granted (a ``rows`` fact).
        self._rows = {
            f"{name[: -len('_indptr')]}_rowof": sizes[name] - 1
            for kind, name, _bound, _link in binding.facts
            if kind == "rows" and f"{name[: -len('_indptr')]}_rowof" in self.derived
        }
        # The auxiliary buffer each table follows when that buffer is fed per
        # call: itself, or the ``<axis>_indptr`` / ``<axis>_indices`` an axis
        # table mirrors; a fed row table is taken as it is.
        self._follows = [
            name if kind == "aux" else f"{name}_{'indices' if kind == 'indices' else 'indptr'}"
            for kind, name in binding.tabs
        ]
        self._ipar = np.asarray(binding.ipar, dtype=np.int64)
        self._fpar = np.asarray(binding.fpar, dtype=np.float64)
        self._scalars = (ffi.scalars(self._ipar), ffi.scalars(self._fpar))
        self._tabs = (tabs, *ffi.pointers(tabs))

    def _table(self, kind: str, name: str, source: Optional[np.ndarray] = None) -> np.ndarray:
        """One ``tabs[]`` entry, from the bound structure or from a fed *source*."""
        if kind == "aux":
            return self._aux[name] if source is None else source
        axis = self._axes[name]
        if kind != "rowof":
            source = getattr(axis, kind) if source is None else source
            return np.ascontiguousarray(source, dtype=np.int64)
        size = int(axis.indptr[-1])  # the table keeps its bound length
        if source is None:  # the checked table, where the program binds one
            source = self._aux.get(f"{name}_indptr", axis.indptr)
        return _rows_of_positions(source, size)

    def _fed_tables(self, fed: Dict[str, np.ndarray]) -> Tuple[List[np.ndarray], Any, List[int]]:
        """The ``tabs[]`` arrays, pointer block and addresses of a call that
        feeds the tables *fed* (by name), after checking them.

        A fed table must be laid out exactly like the one it replaces (the
        sizes in ``ipar`` stay as compiled) and keep the facts that name it;
        a fed row table must name a row for every position, where the text
        takes that for granted."""
        binding, derived = self.binding, self.derived
        for name, given in fed.items():
            bound = self._aux[name] if name in self._aux else derived[name]
            same = (given.dtype, given.shape) == (bound.dtype, bound.shape)
            if not (same and given.flags.c_contiguous):
                raise ValueError(
                    f"table {name!r} fed as {given.dtype}{list(given.shape)}, "
                    f"bound as contiguous {bound.dtype}[{bound.size}]"
                )
        fed = dict(fed)
        for kind, name, _bound, link in binding.facts:
            if kind == "indptr" and link in fed and name not in fed:
                fed[name] = fed[link]  # one array by construction: it follows its class's table
        touched = tuple(fact for fact in binding.facts if fact[1] in fed or fact[3] in fed)
        if touched:
            why = check_tables(touched, {**self._aux, **fed}, self._sizes)
            if why is not None:
                raise ValueError(f"fed table breaks the kernel's facts: {why}")
        for name, rows in self._rows.items():
            given = fed.get(name)
            if given is not None and given.size and (given.min() < 0 or given.max() >= rows):
                raise ValueError(f"fed table breaks the kernel's facts: {name!r} holds a row outside [0, {rows})")
        tabs = [
            fed[name] if name in fed else self._table(kind, axis, fed[source]) if source in fed else bound
            for (kind, axis), name, source, bound in zip(binding.tabs, self._tab_names, self._follows, self._tabs[0])
        ]
        return (tabs, *self._ffi.pointers(tabs))

    def _invoke(self, bufs: Any, tabs: Any, zero: bool) -> None:
        if zero:
            self._lib.zero(bufs, tabs, *self._scalars)
        self.serial_regions = rc = self._lib.run(bufs, tabs, *self._scalars)
        if rc < 0:
            raise MemoryError(f"native kernel {self.name!r} could not allocate its local buffers")

    def __call__(self, arrays: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        """Run on *arrays*, every value buffer of ``bufs[]`` by name (and any
        table fed for this call), checking that no operand the kernel stores
        to shares memory with another; returns *arrays* without the kernel's
        own ``local`` buffers."""
        bufs = [arrays[name] for name in self.binding.bufs]
        for buf in bufs:
            if not buf.flags.c_contiguous:
                raise NativeBuildError("native tier requires contiguous buffers")
        fed = {name: arrays[name] for name in self._feedable if name in arrays}
        tabs, tab_ptrs, tab_starts = self._fed_tables(fed) if fed else self._tabs
        buf_ptrs, starts = self._ffi.pointers(bufs, len(self._local))  # the kernel fills its own slots
        # The no-overlap contract the SIMD loops rest on: what the kernel stores
        # to is disjoint from every other operand of the call.  One sweep in
        # address order; ``holder`` is the operand reaching furthest so far.
        names, given, starts = [*self.binding.bufs, *self._tab_names], bufs + tabs, starts + tab_starts
        stored = {slot for slot, name in enumerate(self.binding.bufs) if name in self.stored}
        reach = holder = -1
        for slot in sorted(range(len(names)), key=starts.__getitem__):
            start, size = starts[slot], given[slot].nbytes
            if size and start < reach and (slot in stored or holder in stored):
                target, other = (slot, holder) if slot in stored else (holder, slot)
                raise ValueError(
                    f"buffer {names[target]!r} is stored to and shares memory with "
                    f"{names[other]!r}: operands of a native kernel may not overlap"
                )
            if start + size > reach:
                reach, holder = start + size, slot
        self._invoke(buf_ptrs, tab_ptrs, bool(self.binding.zero))
        for name in self._local:  # the kernel's own scratch: never the caller's arrays
            arrays.pop(name, None)
        return arrays

    def bind(
        self,
        shared: Mapping[str, np.ndarray],
        allocated: AbstractSet[str],
        zeroed: AbstractSet[str] = frozenset(),
    ) -> Callable[..., Any]:
        """Marshal, once, what every call of one caller shares.

        *shared* holds C-contiguous arrays the kernel only reads, by buffer
        name, for every call; *allocated* names the buffers the caller
        allocates anew for each call, and *zeroed* those of them it allocates
        holding all-zero bytes.  Every buffer the kernel stores to must be
        among the allocated ones (or be the kernel's own ``local`` scratch):
        then no stored operand can share memory with another, by
        construction, and a call makes no address sweep.  ``ValueError``
        otherwise.  When every buffer the text's ``zero`` entry fills
        (``binding.zero``) is in *zeroed*, a call skips that entry: its stores
        would write the bytes already there.

        Returns ``call(arrays, fed=None)``: *arrays* holds every other value
        buffer of ``bufs[]`` by name (C-contiguous); *fed*, tables fed for
        this call, checked as :func:`load_native` says.  The call runs the
        kernel and returns *arrays*.
        """
        loose = sorted(self.stored - set(allocated))
        if loose:
            raise ValueError(
                f"buffer {loose[0]!r} is stored to but not allocated per call: a bound "
                "native call may not store into memory it does not own"
            )
        ffi, nulls = self._ffi, len(self._local)
        views = [ffi.null] * nulls + [
            ffi.view(shared[name]) if name in shared else None for name in self.binding.bufs
        ] or [ffi.null]  # each keeps its array alive
        slots = [(nulls + n, name) for n, name in enumerate(self.binding.bufs) if name not in shared]
        view, block, invoke, tabs = ffi.view, ffi.block, self._invoke, self._tabs
        zero = not set(self.binding.zero) <= set(zeroed)

        def call(arrays: Dict[str, np.ndarray], fed: Optional[Dict[str, np.ndarray]] = None) -> Dict[str, np.ndarray]:
            held = views.copy()
            for slot, name in slots:
                held[slot] = view(arrays[name])
            checked = self._fed_tables(fed) if fed else tabs  # held until the kernel returns
            invoke(block(held), checked[1], zero)
            return arrays

        return call
