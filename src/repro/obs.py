"""One way to count events: :class:`Counters`, a locked bag of named integers.

Every stats class of the package (the session's, the kernel cache's, a
persistent store's, a serving tenant's) is a :class:`Counters` subclass that
declares its names once in ``NAMES``.  Callers count through :meth:`count`
after leaving whatever lock guards their own bookkeeping, so no counter is
ever bumped under a borrowed lock.
"""

from __future__ import annotations

import threading
from typing import Dict, Tuple


class Counters:
    """Named event counters behind one lock; a counter reads as an attribute.

    Serving and concurrent builds count from several threads and tests
    assert exact values, so every update is a read-modify-write under
    :attr:`_lock`.  Derived values (rates, means) are properties of the
    subclass.
    """

    NAMES: Tuple[str, ...] = ()

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts: Dict[str, int] = dict.fromkeys(self.NAMES, 0)

    def count(self, *names: str, by: int = 1) -> None:
        """Add *by* to each named counter.  An unknown name raises
        :class:`KeyError` before any counter moves."""
        counts = self._counts
        with self._lock:
            for name in names:
                if name not in counts:
                    raise KeyError(name)
            for name in names:
                counts[name] += by

    def __getattr__(self, name: str) -> int:
        try:
            return self.__dict__["_counts"][name]
        except KeyError:
            raise AttributeError(name) from None

    def as_dict(self) -> Dict[str, int]:
        """A copy of every counter, taken under the lock."""
        with self._lock:
            return dict(self._counts)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value}" for name, value in self.as_dict().items())
        return f"{type(self).__name__}({fields})"
