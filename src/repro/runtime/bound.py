"""Bound kernels: the one warm execution path of eager, graph and serve.

Building a kernel answers *what to run*; binding it answers *what each call
still has to do*.  A :class:`BoundKernel` resolves, once, everything a warm
call would otherwise re-derive — the dispatch tier, which flat buffers are
per-call operands, which are constants, which the kernel overwrites, which it
owns outright (``local`` buffers on the native tier) — and, on the native
tier, marshals the call's constant part (``NativeRunner.bind``), so
that :meth:`BoundKernel.run` is left with handing the per-call arrays to the
bound call and finalising its outputs.  Index tables are operands like any other:
bound with the kernel, and replaced for one call by a table fed under the
same name (native tier; see :func:`~repro.core.codegen.emit_c.load_native`).
``Session`` memoises one per operator application (see ``docs/runtime.md``,
"Warm path: bound kernels"), a :class:`~repro.graph.compile.CompiledGraph`
holds one per unit, and the serving batcher inherits the session's.

A bound kernel keeps no mutable state between calls: operands and constants
the kernel only reads are passed by reference, every buffer it writes is
allocated per call.  :meth:`BoundKernel.run` is therefore re-entrant, and an
array it returns never aliases storage a later call will touch.
"""

from __future__ import annotations

import functools
from typing import Any, Dict, FrozenSet, List, Mapping, Sequence, Tuple

import numpy as np

from ..core.buffers import _np_dtype
from ..core.codegen.native import local_buffers
from ..core.stmt import collect_buffer_stores
from ..ops.registry import finalize


def _flat(value: Any, dtype: np.dtype, private: bool) -> np.ndarray:
    """*value* as a flat C-contiguous array of *dtype*.

    The same array when it already is one (so two feeds of one table stay
    one object), unless *private* asks for a copy the kernel may overwrite.
    """
    if private:
        return np.array(value, dtype=dtype, order="C").reshape(-1)
    array = np.ascontiguousarray(value, dtype=dtype)
    return array if array.ndim == 1 else array.reshape(-1)


class BoundKernel:
    """A built kernel with its dispatch tier and buffer plan resolved.

    Parameters
    ----------
    kernel:
        The :class:`~repro.core.codegen.build.Kernel` to run.
    tier:
        ``"native"`` or ``"emitted"``, as resolved by
        :meth:`Kernel.fast_tier`.  Both bind the auxiliary
        (``indptr``/``indices``) buffers at build time, so a call that feeds
        none marshals none.
    feeds:
        Flat buffer name -> key of :meth:`run`'s *inputs* to fill it from.
        A value buffer named here is required on every call; an auxiliary
        buffer is an optional *table feed*, used on the native tier when the
        call provides its key and ignored by the emitted tier, whose plan is
        fixed to the bound structure (:attr:`feeds_tables` tells which); so
        is a row table the native kernel derives (``J_rowof``).
    outputs:
        ``(result key, flat buffer name, spec)`` per array :meth:`run`
        returns; the spec finalises the raw buffer
        (:func:`repro.ops.registry.finalize`).
    """

    def __init__(
        self,
        kernel: Any,
        tier: str,
        feeds: Mapping[str, str],
        outputs: Sequence[Tuple[str, str, Any]],
    ):
        self.kernel = kernel
        self.tier = tier
        self._outputs = list(outputs)
        func = kernel.func
        aux = {buf.name for buf in func.aux_buffers}
        stored = {store.buffer.name for store in collect_buffer_stores(func.body)}
        backing = {buf.name: buf.data for buf in func.buffers if buf.data is not None}
        # The native kernel owns its ``local`` buffers (scratch inside the C
        # ``run``, or register tiles): no array is made for them here.
        owned = set(local_buffers(func)) if tier == "native" else set()
        #: Arrays every call shares: constants the kernel only reads.
        self._shared: Dict[str, np.ndarray] = {}
        #: (buffer, inputs key, dtype, size, private) per per-call operand.
        self._feeds: List[Tuple[str, str, np.dtype, int, bool]] = []
        #: The same per optional index-table feed (never private: only read).
        self._tables: List[Tuple[str, str, np.dtype, int, bool]] = []
        #: (buffer, source, dtype, private) per constant converted each call:
        #: its source is not a flat array of the kernel dtype (so an in-place
        #: update of the source must be re-read), or the kernel overwrites it.
        self._converted: List[Tuple[str, Any, np.dtype, bool]] = []
        #: (buffer, size, dtype) per buffer the kernel writes from zero.
        self._zeroed: List[Tuple[str, int, np.dtype]] = []
        #: Those of them whose zeros a call stores itself (native tier, below).
        self._written: FrozenSet[str] = frozenset()
        for flat in func.flat_buffers:
            name = flat.name
            dtype = np.dtype(_np_dtype(flat.dtype))
            if name in owned:
                continue
            if name in aux:
                if name in feeds and tier == "native":
                    self._tables.append((name, feeds[name], dtype, flat.size, False))
                continue
            if name in feeds:
                self._feeds.append((name, feeds[name], dtype, flat.size, name in stored))
                continue
            data = kernel.defaults.get(name)
            if data is None:
                data = backing.get(name)
            if data is None:
                if name in stored:
                    self._zeroed.append((name, flat.size, dtype))
                else:
                    self._shared[name] = np.zeros(flat.size, dtype=dtype)
            elif name in stored:
                self._converted.append((name, data, dtype, True))
            elif isinstance(data, np.ndarray) and data.dtype == dtype and data.flags.c_contiguous:
                self._shared[name] = data.reshape(-1)  # a view: in-place updates show
            else:
                self._converted.append((name, data, dtype, False))
        # Fed buffers never read their default again; holding the arrays of
        # the call that built the kernel would pin them for our lifetime.
        for name in feeds:
            if name not in aux:  # a table feed is optional: its default stays
                kernel.defaults.pop(name, None)
        runner = kernel._runner(tier)
        if tier != "native":
            #: What a call starts from, and the runner it hands the rest to.
            self._given, self._call = self._shared, runner
            return
        # The native call is marshalled here, once: the shared constants'
        # pointers, the bound tables, ipar / fpar.  Every buffer the kernel
        # stores to is allocated per call (a private copy or a fresh zero
        # array), which ``bind`` asserts: no call can store into an operand.
        for name, key in feeds.items():
            table = runner.derived.get(name)  # a row table the call may feed
            if table is not None:
                self._tables.append((name, key, table.dtype, table.size, False))
        allocated = {feed[0] for feed in self._feeds if feed[4]}
        allocated.update(name for name, _source, _dtype, private in self._converted if private)
        zeroed = {name for name, _size, _dtype in self._zeroed}
        allocated.update(zeroed)
        # A call hands the kernel zeroed buffers, so it skips the text's
        # ``zero`` entry when that fills nothing else.  Those buffers then get
        # their zeros stored here, not from calloc: fresh pages a kernel
        # first reads (``C = C + ...``) would fault twice, once to map the
        # zero page and once to copy it on the first store.
        clears = frozenset(runner.binding.zero)
        if clears <= zeroed:
            self._written = clears
        self._given, self._call = {}, runner.bind(self._shared, allocated, zeroed)

    @property
    def feeds_tables(self) -> bool:
        """Whether :meth:`run` takes index tables per call (native tier only)."""
        return bool(self._tables)

    def run(self, inputs: Mapping[str, Any]) -> Dict[str, np.ndarray]:
        """One call: marshal the per-call arrays, execute on the bound tier,
        finalise."""
        arrays = dict(self._given)
        tables = ()
        if self._tables and len(inputs) > len(self._feeds):  # every feed is required: more may be tables
            tables = [table for table in self._tables if table[1] in inputs]
        for name, key, dtype, size, private in (*self._feeds, *tables):
            try:
                value = inputs[key]
            except KeyError:
                raise ValueError(f"missing feed for input {key!r}") from None
            array = _flat(value, dtype, private)
            if array.size != size:
                raise ValueError(
                    f"feed for {key!r} has {array.size} elements, expected {size}"
                )
            arrays[name] = array
        for name, source, dtype, private in self._converted:
            arrays[name] = _flat(source, dtype, private)
        for name, size, dtype in self._zeroed:
            if name in self._written:
                array = arrays[name] = np.empty(size, dtype=dtype)
                array.fill(0)
            else:
                arrays[name] = np.zeros(size, dtype=dtype)
        call = self._call
        if tables:  # fed for this call, and checked by the call
            call = functools.partial(call, fed={table[0]: arrays.pop(table[0]) for table in tables})
        out = self.kernel.run(arrays, engine=self.tier, prepared=call)
        results = {}
        for key, name, spec in self._outputs:
            results[key] = finalize(spec, out[name])
        return results

    def __repr__(self) -> str:
        return f"BoundKernel({self.kernel.func.name!r}, tier={self.tier!r})"
