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
  (counters are bumped under a lock, as the kernel store's are: a served
  session reads both stores from several threads);
* the root directory is ``$REPRO_TUNING_RECORDS`` (values ``0``/``off``/...
  disable the store) or ``~/.cache/repro-tuning`` when asked for explicitly.

The store reads and clears ``v<RECORD_SCHEMA_VERSION>/`` only; any other
directory under the root (a ``corpus-v1/`` an older release wrote) is ignored.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional, Union

from .._files import StoreStats, atomic_write, env_root

#: Bumped whenever the persisted record layout changes.
RECORD_SCHEMA_VERSION = 1

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


#: What ``json.loads`` and the record validator raise on a damaged or stale
#: file.  Anything else is a bug in the store and propagates, so it cannot
#: silently unlink a good record.
_BAD_FILE = (ValueError, KeyError, TypeError, AttributeError)


class TuningRecordStore:
    """Fingerprint-keyed persistent store of :class:`TuningRecord` entries."""

    def __init__(self, root: Union[str, Path, None] = None):
        if root is None:
            root = env_root(RECORDS_ENV_VAR) or "~/.cache/repro-tuning"
        self.root = Path(root).expanduser()
        self.dir = self.root / f"v{RECORD_SCHEMA_VERSION}"
        self.stats = StoreStats()

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

    def get(self, fingerprint: str) -> Optional[TuningRecord]:
        """Load one record, or ``None`` on miss / corruption / schema skew.

        A missing file is a miss; one that does not parse, or whose schema or
        fingerprint does not match, is an error and is discarded so it cannot
        be read again.
        """
        path = self._path(fingerprint)
        try:
            text = path.read_text()
        except OSError:
            self.stats.count("misses")
            return None
        try:
            record = TuningRecord.from_json(json.loads(text))
            if record.fingerprint != fingerprint:
                raise ValueError("fingerprint mismatch (renamed or corrupted record)")
        except _BAD_FILE:
            self.stats.count("errors")
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self.stats.count("hits")
        return record

    def put(self, record: TuningRecord) -> None:
        """Persist one record atomically; failures are swallowed (best-effort)."""
        # Best-effort: an unwritable directory or an unserialisable
        # config costs the persisted record, never the tuning result.
        path = self._path(record.fingerprint)
        try:
            data = json.dumps(record.to_json(), indent=2, sort_keys=True).encode()
            path.parent.mkdir(parents=True, exist_ok=True)
            atomic_write(path, data)
        except (OSError, TypeError, ValueError):
            self.stats.count("errors")
            return
        self.stats.count("writes")

    def clear(self) -> None:
        if self.dir.is_dir():
            for path in self.dir.iterdir():
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
