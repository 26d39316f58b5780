"""Persistent tuning records: remember the best decomposition per structure.

Tuning is the expensive step of the compile-once/run-many story: the paper
amortises the search because the sparse structure is known ahead of time and
reused across runs.  A :class:`TuningRecord` captures the outcome of one
:func:`~repro.tune.autoscheduler.autotune` call — the winning configuration,
its predicted and measured costs and enough provenance to audit it — keyed by
the *structural fingerprint* of the tuning task, so a fresh process (or a
fresh :class:`~repro.runtime.session.Session`) replays the decision with zero
re-measurement.

The on-disk store follows the same discipline as
:class:`~repro.core.codegen.cache.DiskKernelCache`:

* one JSON file per record under ``<root>/v<RECORD_SCHEMA_VERSION>/``,
  named ``<fingerprint>.json``;
* writes go through a temporary file plus an atomic :func:`os.replace`;
* reads treat any failure (truncated file, schema skew, fingerprint
  mismatch) as a miss, count it in ``stats.errors`` and discard the entry
  (one read-validate-discard helper, ``_read``; counters are bumped under a
  lock, as the kernel store's are: a served session reads both stores from
  several threads);
* the root directory is ``$REPRO_TUNING_RECORDS`` (values ``0``/``off``/...
  disable the store) or ``~/.cache/repro-tuning`` when asked for explicitly.

Next to the per-fingerprint *record* the store also keeps a per-fingerprint
*measurement corpus* under ``<root>/corpus-v<CORPUS_SCHEMA_VERSION>/``: every
phase-2 (feature_vector, predicted_us, measured_s) triple the autoscheduler
produces, with the same atomic-write/corruption-tolerant discipline.  The
corpus is the training set of :class:`~repro.sim.learned.RidgeCostModel`
and the neighbour index of :mod:`~repro.tune.transfer`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Union

from .._files import StoreStats, atomic_write, env_root

#: Bumped whenever the persisted record layout changes.
RECORD_SCHEMA_VERSION = 1

#: Bumped whenever the persisted corpus layout changes.
CORPUS_SCHEMA_VERSION = 1

#: Per-fingerprint cap on persisted measurement triples (oldest dropped).
CORPUS_MAX_ENTRIES = 512

#: Environment variable naming the on-disk record root.  Unset disables the
#: persistent layer; the values ``0`` / ``off`` / ``false`` disable it too.
RECORDS_ENV_VAR = "REPRO_TUNING_RECORDS"


def _jsonable_value(value: Any) -> Any:
    """Coerce one config value for JSON round trips.

    Tuples become lists; numpy scalars/arrays become their Python
    equivalents (a config assembled from ``np.int64`` candidates must
    persist just like one built from plain ints).
    """
    if isinstance(value, (tuple, list)):
        return [_jsonable_value(item) for item in value]
    if hasattr(value, "item") and callable(value.item) and getattr(value, "ndim", None) == 0:
        return value.item()  # numpy scalar
    if hasattr(value, "tolist") and callable(value.tolist):
        return value.tolist()  # numpy array
    return value


def _jsonable_config(config: Dict[str, Any]) -> Dict[str, Any]:
    """Normalise a configuration for JSON round trips."""
    return {key: _jsonable_value(value) for key, value in config.items()}


@dataclass
class TuningRecord:
    """The persisted outcome of one autotuning run.

    ``config`` is the winning configuration; ``predicted_us`` is its cost
    under the GPU model, ``measured_s`` its best wallclock through the
    runtime (``None`` when the run was predict-only).  ``evaluated`` counts
    configurations examined by the search that produced the record.
    """

    fingerprint: str
    workload: str
    config: Dict[str, Any]
    predicted_us: Optional[float] = None
    measured_s: Optional[float] = None
    evaluated: int = 0
    strategy: str = ""
    seed: int = 0
    metadata: Dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> Dict[str, Any]:
        return {
            "schema": RECORD_SCHEMA_VERSION,
            "fingerprint": self.fingerprint,
            "workload": self.workload,
            "config": _jsonable_config(self.config),
            "predicted_us": self.predicted_us,
            "measured_s": self.measured_s,
            "evaluated": self.evaluated,
            "strategy": self.strategy,
            "seed": self.seed,
            "metadata": self.metadata,
        }

    @classmethod
    def from_json(cls, payload: Dict[str, Any]) -> "TuningRecord":
        if not isinstance(payload, dict):
            raise TypeError("record payload is not a dict")
        if payload.get("schema") != RECORD_SCHEMA_VERSION:
            raise ValueError(
                f"record schema {payload.get('schema')} != {RECORD_SCHEMA_VERSION}"
            )
        config = payload["config"]
        if not isinstance(config, dict):
            raise TypeError("record config is not a dict")
        return cls(
            fingerprint=payload["fingerprint"],
            workload=payload["workload"],
            config=config,
            predicted_us=payload.get("predicted_us"),
            measured_s=payload.get("measured_s"),
            evaluated=int(payload.get("evaluated", 0)),
            strategy=payload.get("strategy", ""),
            seed=int(payload.get("seed", 0)),
            metadata=payload.get("metadata", {}),
        )


#: What ``json.loads`` and the two payload validators raise on a damaged or
#: stale file.  Anything else is a bug in the store and propagates, so it
#: cannot silently unlink a good record.
_BAD_FILE = (ValueError, KeyError, TypeError, AttributeError)


def _validate_corpus_payload(payload: Any, fingerprint: str) -> Dict[str, Any]:
    """Check one corpus payload's shape; raises on anything suspicious."""
    if not isinstance(payload, dict):
        raise TypeError("corpus payload is not a dict")
    if payload.get("schema") != CORPUS_SCHEMA_VERSION:
        raise ValueError(
            f"corpus schema {payload.get('schema')} != {CORPUS_SCHEMA_VERSION}"
        )
    if payload.get("fingerprint") != fingerprint:
        raise ValueError("corpus fingerprint mismatch (renamed or corrupted file)")
    if not isinstance(payload.get("workload"), str):
        raise TypeError("corpus workload is not a string")
    if not isinstance(payload.get("feature_version"), int):
        raise TypeError("corpus feature_version is not an int")
    entries = payload.get("entries")
    if not isinstance(entries, list):
        raise TypeError("corpus entries is not a list")
    for entry in entries:
        if not isinstance(entry, dict):
            raise TypeError("corpus entry is not a dict")
        features = entry.get("features")
        if not isinstance(features, list) or not all(
            isinstance(v, (int, float)) for v in features
        ):
            raise TypeError("corpus entry features is not a numeric list")
        for key in ("predicted_us", "measured_s"):
            if not isinstance(entry.get(key), (int, float)):
                raise TypeError(f"corpus entry {key} is not numeric")
    return payload


@dataclass
class _StoreStats(StoreStats):
    """The record counters, and the measurement corpus's beside them."""

    corpus_hits: int = 0
    corpus_misses: int = 0
    corpus_errors: int = 0
    corpus_writes: int = 0


class TuningRecordStore:
    """Fingerprint-keyed persistent store of :class:`TuningRecord` entries."""

    def __init__(self, root: Union[str, Path, None] = None):
        if root is None:
            root = env_root(RECORDS_ENV_VAR) or "~/.cache/repro-tuning"
        self.root = Path(root).expanduser()
        self.dir = self.root / f"v{RECORD_SCHEMA_VERSION}"
        self.corpus_dir = self.root / f"corpus-v{CORPUS_SCHEMA_VERSION}"
        self.stats = _StoreStats()

    @classmethod
    def from_env(cls) -> Optional["TuningRecordStore"]:
        """The store named by ``$REPRO_TUNING_RECORDS``, or ``None`` if disabled."""
        root = env_root(RECORDS_ENV_VAR)
        return None if root is None else cls(root)

    def _path(self, fingerprint: str) -> Path:
        return self.dir / f"{fingerprint}.json"

    def __contains__(self, fingerprint: str) -> bool:
        return self._path(fingerprint).exists()

    def __len__(self) -> int:
        if not self.dir.is_dir():
            return 0
        return sum(1 for _ in self.dir.glob("*.json"))

    # -- read ------------------------------------------------------------------
    def _read(self, path: Path, check: Callable[[Any], Any], kind: str = "") -> Any:
        """What *check* makes of the json at *path*, or ``None``.

        A missing file is a miss; one that does not parse or that *check*
        rejects is an error, and is discarded so it cannot be read again.
        *kind* prefixes the counters (``"corpus_"``).
        """
        try:
            text = path.read_text()
        except OSError:
            self.stats.count(f"{kind}misses")
            return None
        try:
            value = check(json.loads(text))
        except _BAD_FILE:
            self.stats.count(f"{kind}errors")
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self.stats.count(f"{kind}hits")
        return value

    def get(self, fingerprint: str) -> Optional[TuningRecord]:
        """Load one record, or ``None`` on miss / corruption / schema skew."""

        def check(payload: Any) -> TuningRecord:
            record = TuningRecord.from_json(payload)
            if record.fingerprint != fingerprint:
                raise ValueError("fingerprint mismatch (renamed or corrupted record)")
            return record

        return self._read(self._path(fingerprint), check)

    # -- write -----------------------------------------------------------------
    def _atomic_write_json(self, path: Path, payload: Dict[str, Any]) -> bool:
        """Write ``payload`` to ``path`` via tmp-file + ``os.replace``."""
        try:
            data = json.dumps(payload, indent=2, sort_keys=True).encode()
            path.parent.mkdir(parents=True, exist_ok=True)
            atomic_write(path, data)
        except (OSError, TypeError, ValueError):
            return False
        return True

    def put(self, record: TuningRecord) -> None:
        """Persist one record atomically; failures are swallowed (best-effort)."""
        # Best-effort: an unwritable directory or an unserialisable
        # config costs the persisted record, never the tuning result.
        written = self._atomic_write_json(self._path(record.fingerprint), record.to_json())
        self.stats.count("writes" if written else "errors")

    # -- measurement corpus ------------------------------------------------------
    def _corpus_path(self, fingerprint: str) -> Path:
        return self.corpus_dir / f"{fingerprint}.json"

    def get_corpus(
        self, fingerprint: str, feature_version: Optional[int] = None
    ) -> Optional[Dict[str, Any]]:
        """Load one fingerprint's corpus payload, or ``None``.

        Misses, truncated/corrupt files, schema skew and (when
        ``feature_version`` is given) feature-layout skew all return ``None``;
        damaged or stale files are discarded so they cannot poison training.
        """

        def check(payload: Any) -> Dict[str, Any]:
            payload = _validate_corpus_payload(payload, fingerprint)
            if feature_version is not None and payload["feature_version"] != feature_version:
                raise ValueError("corpus feature-version skew")
            return payload

        return self._read(self._corpus_path(fingerprint), check, "corpus_")

    def add_corpus(
        self,
        fingerprint: str,
        workload: str,
        entries: Any,
        task_features: Any = None,
        feature_version: int = 0,
        cap: int = CORPUS_MAX_ENTRIES,
    ) -> None:
        """Append measurement triples to one fingerprint's corpus (best-effort).

        Each entry is ``{"features", "predicted_us", "measured_s", "config"}``.
        The merged list keeps the most recent ``cap`` entries; a payload whose
        workload or feature version no longer matches is reset rather than
        mixed.
        """
        existing = self.get_corpus(fingerprint, feature_version)
        if existing is not None and existing["workload"] != workload:
            existing = None
        merged = list(existing["entries"]) if existing else []
        merged.extend(_jsonable_value(entry) for entry in entries)
        if cap > 0:
            merged = merged[-cap:]
        if task_features is None and existing is not None:
            task_features = existing.get("task_features")
        payload = {
            "schema": CORPUS_SCHEMA_VERSION,
            "fingerprint": fingerprint,
            "workload": workload,
            "feature_version": feature_version,
            "task_features": _jsonable_value(task_features),
            "entries": merged,
        }
        written = self._atomic_write_json(self._corpus_path(fingerprint), payload)
        self.stats.count("corpus_writes" if written else "corpus_errors")

    def corpus_fingerprints(self) -> list:
        """Fingerprints with a corpus file, sorted for deterministic training."""
        if not self.corpus_dir.is_dir():
            return []
        return sorted(path.stem for path in self.corpus_dir.glob("*.json"))

    def corpus_size(self) -> int:
        return len(self.corpus_fingerprints())

    def clear(self) -> None:
        for directory in (self.dir, self.corpus_dir):
            if directory.is_dir():
                for path in directory.iterdir():
                    try:
                        path.unlink()
                    except OSError:
                        pass

    def __repr__(self) -> str:
        return f"TuningRecordStore({str(self.root)!r}, records={len(self)})"


def resolve_record_store(records: Any) -> Optional[TuningRecordStore]:
    """Normalise a ``records`` argument.

    ``None`` resolves ``$REPRO_TUNING_RECORDS`` (no variable means no
    persistence); ``False`` disables persistence explicitly; ``True`` uses
    the default location; a path or :class:`TuningRecordStore` selects an
    explicit store.
    """
    if records is None:
        return TuningRecordStore.from_env()
    if records is False:
        return None
    if records is True:
        return TuningRecordStore()
    if isinstance(records, TuningRecordStore):
        return records
    return TuningRecordStore(records)
