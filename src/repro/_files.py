"""What the persistent stores share: the atomic file write, the root a store's
environment variable names, and one locked bag of event counters."""

from __future__ import annotations

import os
import tempfile
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

#: Values of a store's environment variable that disable the store.
_DISABLED_ENV_VALUES = frozenset({"", "0", "off", "false", "disabled", "none"})


def env_root(var: str) -> Optional[str]:
    """The directory ``$<var>`` names, or ``None`` when it is unset or one of
    the values that disable the store (``0`` / ``off`` / ``false`` / ...)."""
    value = os.environ.get(var)
    if value is None or value.strip().lower() in _DISABLED_ENV_VALUES:
        return None
    return value


def atomic_write(path: Path, data: bytes) -> None:
    """Write *data* to *path* through a temporary file in the same directory and
    :func:`os.replace`: a reader sees the old file or the new one, never a part.

    The directory must exist.  Whatever goes wrong is raised, after the
    temporary file is removed; what to swallow and count is the caller's.
    """
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


@dataclass
class StoreStats:
    """Event counters of one persistent store.  A store is read outside any
    cache lock, by every thread that misses: events are counted through
    :meth:`count`, under a lock of their own."""

    hits: int = 0
    misses: int = 0
    errors: int = 0
    writes: int = 0
    lock: threading.Lock = field(default_factory=threading.Lock, repr=False, compare=False)

    def count(self, counter: str) -> None:
        with self.lock:
            setattr(self, counter, getattr(self, counter) + 1)
