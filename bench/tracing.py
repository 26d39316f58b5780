"""Spans around the calls into each layer, recorded from the benchmark's files.

:class:`Tracer` wraps the functions named in :data:`bench.layers.SPANS` and
keeps one record per call in memory::

    {"id", "parent", "unit", "case", "phase", "name", "layer", "t0", "t1"}

``unit`` is shared by every span of one unit of work (one call, forward,
burst, window or zoo pass), on whichever thread it ran; ``parent`` is the
enclosing span on the same thread.  A span's *self time* is its duration
minus the part covered by its direct children, so the self times of one unit
add up to the time spent inside traced code.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

import layers


def _resolve(target: str) -> Tuple[Any, str, Any]:
    """``(owner, attribute, current value)`` for ``module:attr[.attr]``."""
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, leaf = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    # ``__dict__`` keeps classmethod/staticmethod wrappers intact.
    return owner, leaf, vars(owner)[leaf]


class Tracer:
    """In-memory span recorder; install() patches, uninstall() restores."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.missing: List[str] = []
        self.phase = "setup"
        self.case: Optional[str] = None
        self.unit: Optional[int] = None
        self._units = itertools.count()
        self._ids = itertools.count()
        self._local = threading.local()
        self._patched: List[Tuple[Any, str, Any]] = []
        self._lowered: List[Any] = []          # stage-III programs, for the IR size

    # -- unit bracketing ---------------------------------------------------------
    def begin_unit(self, case: str) -> None:
        self.case = case
        self.unit = next(self._units)

    def end_unit(self) -> None:
        self.case = None
        self.unit = None

    # -- patching ------------------------------------------------------------------
    def _wrap(self, name: str, layer: str, fn: Callable) -> Callable:
        spans, ids, local = self.spans, self._ids, self._local
        keep = self._lowered if name == "lower.stage2to3" else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            record = [span_id, stack[-1] if stack else None, self.unit, self.case,
                      self.phase, name, layer, clock(), 0.0]
            stack.append(span_id)
            try:
                result = fn(*args, **kwargs)
                if keep is not None:
                    keep.append(result)
                return result
            finally:
                record[8] = clock()
                stack.pop()
                spans.append(record)

        return traced

    def install(self) -> None:
        self.missing = []
        for name, layer, target in layers.SPANS:
            try:
                owner, attr, current = _resolve(target)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"missing:{target}")
                continue
            if isinstance(current, (classmethod, staticmethod)):
                wrapped: Any = type(current)(self._wrap(name, layer, current.__func__))
            else:
                wrapped = self._wrap(name, layer, current)
            self._set(owner, attr, current, wrapped)
            if isinstance(owner, type(sys)):
                # ``from x import f`` copied the function into other modules.
                for module in list(sys.modules.values()):
                    if module is owner or not getattr(module, "__name__", "").startswith("repro"):
                        continue
                    for key, value in list(vars(module).items()):
                        if value is current:
                            self._set(module, key, current, wrapped)

    def _set(self, owner: Any, attr: str, original: Any, wrapped: Any) -> None:
        setattr(owner, attr, wrapped)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- aggregation ---------------------------------------------------------------
    def self_times(self) -> Dict[Tuple[str, str], float]:
        """Seconds of self time per ``(phase, span name)``."""
        covered: Dict[int, float] = defaultdict(float)
        for span_id, parent, _u, _c, _p, _n, _l, t0, t1 in self.spans:
            if parent is not None:
                covered[parent] += t1 - t0
        totals: Dict[Tuple[str, str], float] = defaultdict(float)
        for span_id, _parent, _u, _c, phase, name, _l, t0, t1 in self.spans:
            totals[(phase, name)] += (t1 - t0) - covered.get(span_id, 0.0)
        return totals

    def counts(self) -> Dict[Tuple[str, str], int]:
        """Calls per ``(phase, span name)``."""
        totals: Dict[Tuple[str, str], int] = defaultdict(int)
        for record in self.spans:
            totals[(record[4], record[5])] += 1
        return totals

    def script_lines(self) -> int:
        """Lines of printed stage-III IR over every program lowered so far."""
        total = 0
        for program in self._lowered:
            script = getattr(program, "script", None)
            if callable(script):
                total += len(script().splitlines())
        return total

    def as_json(self) -> Dict[str, Any]:
        keys = ("id", "parent", "unit", "case", "phase", "name", "layer", "t0", "t1")
        return {
            "keys": keys,
            "missing": self.missing,
            "spans": self.spans,
        }
