"""Structural kernel caching: compile once, run many — in memory and on disk.

Lowering a stage-I program through sparse iteration lowering, sparse buffer
lowering and horizontal fusion is pure Python tree rewriting and dominates
the cost of :func:`~repro.core.codegen.build.build`.  The same *structure* is
lowered over and over — the tuner revisits format configurations, models run
the same kernel every layer/epoch, benchmarks sweep feature sizes over one
graph.  This module provides

* :func:`structural_fingerprint` — a stable content hash of a program's
  structure: the printed program text (axes, buffers, iteration bodies, value
  dtypes), the per-axis structural data (``indptr`` / ``indices`` contents,
  lengths, nnz), the flattened-buffer layout and the build
  configuration — what lowering reads, and nothing of either emitter (a
  stored tier artifact names the emitter that printed it).  Buffer *values*
  are deliberately excluded: two programs
  with the same structure but different data lower to the same loop nest, and
  the value arrays are rebound at execution time.  Value *dtypes* do
  participate — a float32 entry can never serve a float64 caller.
* :class:`CacheEntry` — one cached compilation product: the lowered stage-III
  program and one lazily resolved slot per compiled tier.
* :class:`KernelCache` — a thread-safe LRU map from fingerprint to
  :class:`CacheEntry`, with hit/miss statistics and an optional persistent
  :class:`DiskKernelCache` layer underneath, so a fresh process warm-starts
  without re-lowering, re-emitting NumPy source or re-running the C compiler.
* :class:`DiskKernelCache` — the fingerprint-keyed on-disk store under
  ``$REPRO_KERNEL_CACHE`` (or ``~/.cache/repro-kernels``): versioned,
  corruption-tolerant, written atomically (temp file + rename).

The process-wide default cache used by ``build()`` lives here; a
:class:`~repro.runtime.session.Session` can hold its own isolated cache.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import threading
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, Mapping, Optional, Tuple, Union

import numpy as np

from ..._files import StoreStats, atomic_write, env_root
from ...obs import Counters
from ..nputils import MAX_LANES
from ..program import PrimFunc
from .native import NATIVE_VERSION, NativeBinding, native_tag

#: Bumped whenever the fingerprint recipe itself changes, so stale on-disk
#: entries from an older scheme can never be confused for current ones.
#: v3: the NumPy emitter's version and lane budget left the recipe.
FINGERPRINT_VERSION = 3

#: Bumped whenever the persisted payload layout changes (directory ``v<N>``).
#: v2: the pickle no longer carries the NumPy source; ``<fingerprint>.py`` is
#: the stored source, written lazily and validated by its header line.
#: v3: the pickle no longer carries the stage-II program, whose body reached
#: the first caller's operand arrays.
#: v4: a shared object is ``<key>.so``, named by its C text; no ``.c`` is
#: stored, and every native record is ``{native_version, tag, key, binding}``.
DISK_SCHEMA_VERSION = 4

#: Environment variable naming the on-disk cache root.  Unset disables the
#: persistent layer; the values ``0`` / ``off`` / ``false`` disable it too.
CACHE_ENV_VAR = "REPRO_KERNEL_CACHE"


def _hash_array(digest: "hashlib._Hash", array: Optional[np.ndarray]) -> None:
    if array is None:
        digest.update(b"none")
        return
    arr = np.ascontiguousarray(array)
    digest.update(str(arr.dtype).encode())
    digest.update(str(arr.shape).encode())
    digest.update(arr.tobytes())


def structural_fingerprint(func: PrimFunc, config: Optional[Mapping[str, Any]] = None) -> str:
    """A stable hash of the program structure and build configuration.

    Two calls return the same fingerprint exactly when the programs lower to
    the same stage-III loop nest: the printed program (iteration structure,
    buffer shapes and value dtypes), every axis's structural arrays, the
    flat-buffer layout and *config* must all match.  So must the data of the
    tables a program states itself (auxiliary buffers that are no axis's,
    like hyb's ``rowmap``): they are structure too.  Value data bound to
    buffers does not participate, and neither does anything only an emitter
    reads: bumping one re-prints that tier's artifact (see
    :meth:`DiskKernelCache.get_source`) and re-lowers nothing.
    """
    digest = hashlib.sha256()
    digest.update(f"|fingerprint:v{FINGERPRINT_VERSION}".encode())
    digest.update(func.script().encode())
    for axis in func.axes:
        digest.update(f"|axis:{type(axis).__name__}:{axis.name}:{axis.length}".encode())
        digest.update(f":{getattr(axis, 'nnz', '')}:{getattr(axis, 'nnz_cols', '')}".encode())
        _hash_array(digest, getattr(axis, "indptr", None))
        _hash_array(digest, getattr(axis, "indices", None))
    for buf in list(func.buffers) + list(func.aux_buffers):
        digest.update(f"|buf:{buf.name}:{buf.dtype}:{buf.scope}".encode())
    # An axis's tables, materialised by lowering, hold the arrays hashed above.
    of_axes = {f"{axis.name}_{kind}" for axis in func.axes for kind in ("indptr", "indices")}
    for buf in func.aux_buffers:
        if buf.name not in of_axes:
            _hash_array(digest, buf.data)
    for flat in func.flat_buffers:
        digest.update(f"|flat:{flat.name}:{flat.size}:{flat.dtype}:{flat.scope}".encode())
    if config:
        digest.update(repr(sorted(config.items())).encode())
    return digest.hexdigest()


class CacheStats(Counters):
    """Hit/miss counters of one :class:`KernelCache`.

    ``hits`` counts every lookup satisfied without lowering (from memory or
    from disk); ``disk_hits`` counts the subset that was loaded from the
    persistent layer.  A miss that finds the entry a racing thread lowered
    meanwhile stays a miss.  ``lowerings`` / ``emissions`` count the lowering
    passes and NumPy-source emissions actually executed (threads racing on
    one cold fingerprint lower it once), so a warm-started process can
    assert both are zero — and so can a cold one whose kernels the native
    tier serves, since source is emitted only for a tier that is asked to
    run.  ``native_hits`` counts native (.so) artifacts loaded from disk
    without invoking the C compiler; ``native_rebuilds`` those built by
    actually running it (cold cache, version/platform skew, or corruption —
    skew always rebuilds).
    """

    NAMES = (
        "hits", "misses", "evictions", "disk_hits", "disk_misses", "lowerings", "emissions",
        "native_hits", "native_rebuilds",
    )

    def __init__(self, disk: Optional[StoreStats] = None):
        super().__init__()
        #: The persistent layer's own counters (attached when it is resolved).
        self.disk = disk

    @property
    def disk_errors(self) -> int:
        """Files of the persistent layer that failed their check or could not
        be written: the disk layer's counter itself, whichever path counted."""
        return self.disk.errors if self.disk is not None else 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


@dataclass
class CacheEntry:
    """One cached compilation product, shared by every build that hits it.

    ``lowered`` is purely structural (value data detached).

    ``tiers`` holds one slot per compiled tier (``"native"`` / ``"emitted"``):
    absent until :class:`Kernel` is first asked for that tier, then
    ``(emitted, runner)`` for good — what the tier's emitter printed and the
    loaded ``run(arrays)`` runner, either ``None`` when that step declined,
    with the reason in ``declined[tier]``.  ``lock`` serialises the one
    resolution, so threads racing on a first dispatch emit, compile and plan
    once.  Slots are per-process; what persists is each tier's artifact in
    the disk layer (``<fingerprint>.py``; the ``<key>.so`` the json record
    names).
    """

    lowered: PrimFunc
    tiers: Dict[str, Tuple[Any, Any]] = field(default_factory=dict, repr=False)
    declined: Dict[str, str] = field(default_factory=dict, repr=False)
    lock: threading.Lock = field(default_factory=threading.Lock, repr=False)


class DiskKernelCache:
    """Fingerprint-keyed persistent store: lowered programs and tier artifacts.

    Every file lives under ``<root>/v<DISK_SCHEMA_VERSION>/``, is named by
    the structural fingerprint — but a shared object, named by its C text —
    and has one writer, one reader and one check (``docs/runtime.md``, "Disk
    layout", has the same as a table):

    * ``.pkl`` — the lowered program: :meth:`put` when it is first lowered,
      :meth:`get` on a memory miss, valid when schema, fingerprint and
      payload types check out;
    * ``.json`` — readable metadata from :meth:`put` plus the ``native``
      validity record from :meth:`publish_native` (the only part read back);
    * ``.py`` — the emitted NumPy source: :meth:`put_source` when the emitted
      tier first emits, :meth:`get_source` when a later process first asks,
      valid when its first line names this fingerprint, this NumPy emitter
      (version and lane budget) and the hash of the rest;
    * ``<key>.so`` — the native tier's shared object, compiled when a
      fingerprint whose record names no loadable artifact first prints the
      text; ``key`` is :func:`~repro.core.codegen.native.artifact_key` of the
      text, so every fingerprint of one program family names the same file.
      :meth:`get_native` hands a later process the record's key and binding
      (it prints no C and hashes nothing) when the record was written by this
      native-emitter version on this platform + ABI.

    So a fingerprint the native tier serves never has a ``.py``.  Writes are
    atomic (temporary file + :func:`os.replace`), so processes sharing the
    directory need no lock between them; a file that fails its
    check is a miss, counted in ``stats.errors`` and overwritten by the
    rebuild — never an import of something stale.
    """

    def __init__(self, root: Union[str, Path, None] = None):
        if root is None:
            # Disable tokens name no directory; fall back to the default
            # location (an explicit Session(persistent=True) asked for it).
            root = env_root(CACHE_ENV_VAR) or "~/.cache/repro-kernels"
        self.root = Path(root).expanduser()
        self.dir = self.root / f"v{DISK_SCHEMA_VERSION}"
        self.stats = StoreStats()

    @classmethod
    def from_env(cls) -> Optional["DiskKernelCache"]:
        """The cache named by ``$REPRO_KERNEL_CACHE``, or ``None`` if disabled."""
        root = env_root(CACHE_ENV_VAR)
        return None if root is None else cls(root)

    # -- paths -----------------------------------------------------------------
    def _path(self, key: str, suffix: str) -> Path:
        return self.dir / f"{key}{suffix}"

    def __contains__(self, key: str) -> bool:
        return self._path(key, ".pkl").exists()

    def __len__(self) -> int:
        if not self.dir.is_dir():
            return 0
        return sum(1 for _ in self.dir.glob("*.pkl"))

    # -- read ------------------------------------------------------------------
    def get(self, key: str) -> Optional[CacheEntry]:
        """Load one entry, or ``None`` on miss / corruption / version skew."""
        pkl_path = self._path(key, ".pkl")
        try:
            blob = pkl_path.read_bytes()
        except OSError:
            self.stats.count("misses")
            return None
        try:
            payload = pickle.loads(blob)
            if not isinstance(payload, dict):
                raise TypeError("payload is not a dict")
            if payload["schema"] != DISK_SCHEMA_VERSION:
                raise ValueError(f"schema {payload['schema']} != {DISK_SCHEMA_VERSION}")
            if payload["fingerprint"] != key:
                raise ValueError("fingerprint mismatch (renamed or corrupted entry)")
            lowered = payload["program"]
            if not isinstance(lowered, PrimFunc):
                raise TypeError("program payload is not a PrimFunc")
        except Exception:
            self.stats.count("errors")
            self._discard(key)
            return None
        self.stats.count("hits")
        return CacheEntry(lowered=lowered)

    # -- write -----------------------------------------------------------------
    def put(self, key: str, entry: CacheEntry) -> None:
        """Persist one entry; failures are swallowed (the cache is best-effort)."""
        payload = {
            "schema": DISK_SCHEMA_VERSION,
            "fingerprint": key,
            "name": entry.lowered.name,
            "program": entry.lowered,
        }
        # Update the existing metadata, so a native record survives: the
        # program and the compiled artifact are written by different paths.
        meta = {
            **self._meta(key),
            "schema": DISK_SCHEMA_VERSION,
            "fingerprint": key,
            "fingerprint_version": FINGERPRINT_VERSION,
            "name": entry.lowered.name,
            "numpy": np.__version__,
        }
        self._write(
            (self._path(key, ".pkl"), pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)),
            (self._path(key, ".json"), json.dumps(meta, indent=2).encode()),
        )

    def _meta(self, key: str) -> Dict[str, Any]:
        """The json metadata of *key* (``{}`` when missing or unreadable)."""
        try:
            meta = json.loads(self._path(key, ".json").read_text())
        except (OSError, ValueError):
            return {}
        return meta if isinstance(meta, dict) else {}

    def _write(self, *files: Tuple[Path, bytes]) -> None:
        """Write *files* atomically, in order; a failure is counted, not raised."""
        try:
            self.dir.mkdir(parents=True, exist_ok=True)
            for path, data in files:
                atomic_write(path, data)
        except OSError:
            self.stats.count("errors")
            return
        self.stats.count("writes")

    # -- emitted NumPy source --------------------------------------------------
    @staticmethod
    def _source_header(key: str, source: str) -> str:
        from .emit_numpy import EMITTER_VERSION

        return (
            f"# fingerprint: {key} emitter: v{EMITTER_VERSION} max_lanes: {MAX_LANES} "
            f"sha256: {hashlib.sha256(source.encode()).hexdigest()}"
        )

    def get_source(self, key: str) -> Optional[str]:
        """The stored NumPy source of *key*, or ``None`` on a miss.

        A file whose first line does not name this fingerprint, the emitter
        version and lane budget of this process and the hash of the rest —
        truncated, renamed, hand-edited, not text, printed by another
        emitter — is a miss counted in ``stats.errors``; the re-emission
        overwrites it.
        """
        try:
            header, _, source = self._path(key, ".py").read_text().partition("\n")
        except FileNotFoundError:
            return None
        except (OSError, ValueError):
            header, source = "", ""
        if header != self._source_header(key, source):
            self.stats.count("errors")
            return None
        return source

    def put_source(self, key: str, source: str) -> None:
        """Store freshly emitted NumPy source under its validity header."""
        text = self._source_header(key, source) + "\n" + source
        self._write((self._path(key, ".py"), text.encode()))

    def _discard(self, key: str) -> None:
        for suffix in (".pkl", ".py", ".json"):
            try:
                self._path(key, suffix).unlink()
            except OSError:
                pass

    # -- native artifacts ------------------------------------------------------
    def so_path(self, artifact: str) -> Path:
        """Where the shared object of the C text *artifact* names lives."""
        return self._path(artifact, ".so")

    def get_native(self, key: str) -> Optional[Tuple[str, NativeBinding]]:
        """``(artifact, binding)`` from *key*'s native record, or ``None``.

        What a later process needs to load *key*'s native tier without printing
        it: the key of ``<artifact>.so`` and what fills the blocks of its
        ``run``.  A record written by another native-emitter version or on
        another platform + ABI, a declined program's, or one that does not
        read back is a miss: the caller prints the program, and the record
        is rewritten.
        """
        record = self._meta(key).get("native")
        try:
            if record["native_version"] != NATIVE_VERSION or record["tag"] != native_tag():
                return None
            artifact, stored = record["key"], record["binding"]
            if not artifact.isalnum():  # a file name in this directory, nothing else
                raise ValueError(f"artifact key {artifact!r}")
            binding = NativeBinding(
                tuple(stored["bufs"]),
                tuple((kind, name) for kind, name in stored["tabs"]),
                tuple(int(value) for value in stored["ipar"]),
                tuple(float(value) for value in stored["fpar"]),
                tuple((what, why) for what, why in stored["serial"]),
                tuple((kind, name, int(bound), link) for kind, name, bound, link in stored["facts"]),
                tuple(str(name) for name in stored["zero"]),
            )
        except (KeyError, TypeError, ValueError, AttributeError):
            return None
        return artifact, binding

    def get_native_decline(self, key: str) -> Optional[str]:
        """Why this version of the native emitter declined *key*'s program, if a
        process recorded that (:meth:`publish_native_decline`)."""
        record = self._meta(key).get("native")
        if not isinstance(record, dict) or record.get("native_version") != NATIVE_VERSION:
            return None
        reason = record.get("native_declined")
        return reason if isinstance(reason, str) else None

    def publish_native(self, key: str, artifact: str, binding: NativeBinding) -> None:
        """Record that *key*'s program prints the C text whose shared object is
        ``<artifact>.so``, bound by *binding*: enough for the next process to
        load it without printing.  Written after the ``.so`` landed, so a
        crash in between leaves a record-less fingerprint, an ordinary miss."""
        self._set_native(key, {
            "native_version": NATIVE_VERSION,
            "tag": native_tag(),
            "key": artifact,
            "binding": binding._asdict(),
        })

    def publish_native_decline(self, key: str, reason: str) -> None:
        """Record that this version of the native emitter declines *key*'s
        program (a property of the program, never of the machine), so a later
        process goes straight to the next tier."""
        self._set_native(key, {"native_version": NATIVE_VERSION, "native_declined": reason})

    def _set_native(self, key: str, record: Dict[str, Any]) -> None:
        """Merge *record* into *key*'s json metadata (best-effort)."""
        meta = self._meta(key)
        meta["native"] = record
        self._write((self._path(key, ".json"), json.dumps(meta, indent=2).encode()))

    def clear(self) -> None:
        if self.dir.is_dir():
            for path in self.dir.iterdir():
                try:
                    path.unlink()
                except OSError:
                    pass

    def __repr__(self) -> str:
        return f"DiskKernelCache({str(self.root)!r}, entries={len(self)})"


#: Sentinel: resolve the disk layer from the environment on first use.
_DISK_FROM_ENV = "auto"


class KernelCache:
    """A thread-safe LRU cache from structural fingerprint to :class:`CacheEntry`.

    Entries hold the lowered stage-III program and the compiled tiers
    resolved from it so far; value data is rebound per build, so one entry
    serves every workload that shares the structure.

    ``disk`` selects the persistent layer: the default ``"auto"`` resolves
    ``$REPRO_KERNEL_CACHE`` lazily on first use (no environment variable, no
    disk I/O); ``None``/``False`` disables it; a path or
    :class:`DiskKernelCache` enables it explicitly.  Disk lookups satisfy
    misses of the in-memory layer and promote the entry; every store is
    written through.

    Threads racing on one cold fingerprint lower it once (:meth:`lowering`).
    Processes sharing a directory do not coordinate: each lowers for itself,
    and the atomic writes and the text-named ``<key>.so`` keep them correct.
    """

    def __init__(self, capacity: int = 256, disk: Any = _DISK_FROM_ENV):
        if capacity <= 0:
            raise ValueError("cache capacity must be positive")
        self.capacity = int(capacity)
        self._entries: "OrderedDict[str, CacheEntry]" = OrderedDict()
        self.stats = CacheStats()
        self._lock = threading.RLock()
        self._disk = disk
        #: fingerprint -> (its lowering lock, how many builders hold or await it).
        self._lowerings: Dict[str, Tuple[threading.Lock, int]] = {}

    # -- persistent layer ------------------------------------------------------
    @property
    def disk(self) -> Optional[DiskKernelCache]:
        """The resolved persistent layer (may be ``None``)."""
        with self._lock:
            if self._disk == _DISK_FROM_ENV:
                self._disk = DiskKernelCache.from_env()
            elif self._disk is False:
                self._disk = None
            elif self._disk is not None and not isinstance(self._disk, DiskKernelCache):
                self._disk = DiskKernelCache(self._disk)
            if self._disk is not None:
                self.stats.disk = self._disk.stats
            return self._disk

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def get(self, key: str) -> Optional[CacheEntry]:
        """Look up one fingerprint in memory, then on disk; ``None`` on miss.

        The lock covers only the in-memory bookkeeping: disk reads (file I/O
        and unpickling) run outside it so a slow persistent layer never
        blocks other threads' memory hits.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
            else:
                disk = self.disk
        if entry is not None:
            self.stats.count("hits")
            return entry
        if disk is None:
            self.stats.count("misses")
            return None
        loaded = disk.get(key)
        evicted = 0
        with self._lock:
            # Another thread may have stored the entry while we read disk;
            # prefer the shared one so its compiled runner is reused.
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
            elif loaded is not None:
                evicted = self._store(key, loaded)
        if entry is not None:
            self.stats.count("hits")
            return entry
        if loaded is None:
            self.stats.count("disk_misses", "misses")
            return None
        self.stats.count("disk_hits", "hits")
        self.stats.count("evictions", by=evicted)
        return loaded

    def put(self, key: str, lowered: PrimFunc) -> CacheEntry:
        """Insert the entry of a freshly lowered program and return it.

        The disk write-through (pickling + atomic file writes) happens
        outside the lock; the persisted programs are immutable once built, so
        concurrent writers of the same key produce identical payloads.
        """
        entry = CacheEntry(lowered=lowered)
        with self._lock:
            evicted = self._store(key, entry)
            disk = self.disk
        self.stats.count("evictions", by=evicted)
        if disk is not None:
            disk.put(key, entry)
        return entry

    def _store(self, key: str, entry: CacheEntry) -> int:
        """Insert under the lock; returns how many entries were evicted."""
        self._entries[key] = entry
        self._entries.move_to_end(key)
        evicted = 0
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            evicted += 1
        return evicted

    @contextmanager
    def lowering(self, key: str) -> Iterator[Optional[CacheEntry]]:
        """Hold *key*'s lowering lock after a missed :meth:`get`.

        Yields the entry a builder that held the lock before this one stored,
        or ``None``: then the caller lowers and calls :meth:`put` inside the
        ``with``.  The re-check counts no hit or miss (the ``get`` did).  A
        lowering that raises releases the lock like any other, so the next
        builder lowers.  A lock lives only while a builder holds or awaits it.
        """
        with self._lock:
            lock, users = self._lowerings.get(key, (threading.Lock(), 0))
            self._lowerings[key] = (lock, users + 1)
        try:
            with lock:
                with self._lock:
                    entry = self._entries.get(key)
                    if entry is not None:
                        self._entries.move_to_end(key)
                yield entry
        finally:
            with self._lock:
                lock, users = self._lowerings.pop(key)
                if users > 1:
                    self._lowerings[key] = (lock, users - 1)

    def clear(self) -> None:
        """Drop the in-memory entries and reset statistics (disk is kept)."""
        with self._lock:
            self._entries.clear()
            self.stats = CacheStats(disk=self.stats.disk)


#: Process-wide cache used by ``build()`` unless a caller supplies its own.
_GLOBAL_CACHE = KernelCache()


def global_kernel_cache() -> KernelCache:
    """The process-wide kernel cache shared by default ``build()`` calls."""
    return _GLOBAL_CACHE


def resolve_cache(cache: Any) -> Optional[KernelCache]:
    """Normalise a ``cache`` argument: None -> global, False -> disabled."""
    if cache is None:
        return _GLOBAL_CACHE
    if cache is False:
        return None
    if isinstance(cache, KernelCache):
        return cache
    raise TypeError(f"cache must be a KernelCache, None or False, got {type(cache)}")
