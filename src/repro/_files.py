"""The one atomic file write the persistent stores share."""

from __future__ import annotations

import os
import tempfile
from pathlib import Path


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
