"""Read-after-write hazard analysis for whole-array execution of stage-III nests.

The emitted NumPy tier (:mod:`~repro.core.codegen.emit_numpy`) flattens every
loop nest into *lanes* — one entry per iteration-space point, in serial loop
order — evaluates each expression once over all lanes and turns each store
into a single scatter (the native tier, :mod:`~repro.core.codegen.emit_c`,
runs the nest in serial order and needs none of this).
That is only equivalent to the element-by-element interpreter when no lane
can observe a value another lane of the same nest wrote.
:func:`analyze_hazards` proves exactly that, per top-level nest, and
classifies every store as a plain store or a reduction self-update
(``np.add.at`` / ``np.multiply.at``, which apply lanes unbuffered in lane
order and therefore stay bit-identical to the serial loop).

A program the analysis cannot prove safe raises
:class:`UnsupportedForEmission`: it has no emitted kernel, and
:meth:`repro.core.codegen.build.Kernel.run` executes it on the native tier or
the scalar interpreter, so the analysis is never a correctness risk.

The module also holds the two plan-time helpers emitted kernels call through
their ``helpers`` namespace (:func:`coords_to_positions`,
:func:`sorted_axis_keys`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..axes import (
    Axis,
    DenseFixedAxis,
    DenseVariableAxis,
    SparseFixedAxis,
    SparseVariableAxis,
)
from ..expr import Add, BufferLoad, Expr, Mul, post_order, structural_equal
from ..nputils import MAX_LANES
from ..program import PrimFunc
from ..stmt import (
    AssertStmt,
    Block,
    BufferStore,
    Evaluate,
    ForLoop,
    IfThenElse,
    LetStmt,
    SeqStmt,
    Stmt,
    collect_buffer_loads,
    collect_buffer_stores,
    post_order_stmts,
)

__all__ = [
    "UnsupportedForEmission",
    "analyze_hazards",
    "coords_to_positions",
    "sorted_axis_keys",
]

#: How a store updates its target: ``("add" | "mul", residual expression)``
#: for a self-update ``B[e] = B[e] (+|*) r``, ``None`` for a plain store.
StoreForm = Optional[Tuple[str, Expr]]


class UnsupportedForEmission(Exception):
    """A compiled tier declines the program: the hazard analysis cannot prove it
    safe to batch, or it contains a construct an emitter cannot fix into code."""


def analyze_hazards(func: PrimFunc) -> Dict[int, StoreForm]:
    """Prove each top-level loop nest safe to batch; return ``id(store)`` ->
    :data:`StoreForm` for every store of the program.

    Within one nest, nothing may *read* a buffer the nest *writes*, with
    a single exception: a self-update ``B[e] = B[e] + r`` (or the
    pointwise ``B[e] = B[e] * r``) may read its own target at exactly the
    stored index (that load becomes the ``np.add.at`` / ``np.multiply.at``
    accumulator).  Any other read of a written buffer — in
    a residual (even at another index of the same buffer), a plain store
    value, a store index, a loop bound, a condition or a let binding —
    could observe a different interleaving than the serial interpreter,
    so it is rejected and the caller falls back.  Two store statements
    may not target the same buffer either.
    """
    forms: Dict[int, StoreForm] = {}
    body = func.body
    nests = list(body.stmts) if isinstance(body, SeqStmt) else [body]
    for nest in nests:
        # Init statements run in their own pass (pass 1), so they form a
        # separate store group from the compute-pass stores; written
        # buffers of *both* passes are off-limits for ambient reads.
        written_all = {s.buffer.name for s in collect_buffer_stores(nest)}
        ambient_reads = {
            load.buffer.name for load in _ambient_loads(nest)
        }
        conflicting = ambient_reads & written_all
        if conflicting:
            raise UnsupportedForEmission(
                "loop bounds, conditions or indices read buffers written in "
                f"the same nest: {sorted(conflicting)}"
            )
        for stores in (_pass_stores(nest, "init"), _pass_stores(nest, "compute")):
            _analyze_nest(stores, written_all, forms)
    return forms


def _analyze_nest(
    stores: List[BufferStore], written_all: set, forms: Dict[int, StoreForm]
) -> None:
    seen: Dict[str, int] = {}
    for store in stores:
        seen[store.buffer.name] = seen.get(store.buffer.name, 0) + 1
    for store in stores:
        if len(store.indices) != 1:
            raise UnsupportedForEmission("stage-III stores must use a single flat index")
        residual = _match_reduction(store)
        value_reads = {
            load.buffer.name
            for load in collect_buffer_loads(
                BufferStore(store.buffer, store.indices, residual[1])
                if residual is not None
                else store
            )
        }
        conflicting = value_reads & written_all
        if conflicting:
            kind = "residual" if residual is not None else "value"
            raise UnsupportedForEmission(
                f"store {kind} reads buffers written in the same nest: "
                f"{sorted(conflicting)}"
            )
        if seen[store.buffer.name] > 1:
            raise UnsupportedForEmission(
                f"multiple stores to {store.buffer.name!r} in one nest"
            )
        forms[id(store)] = residual


def _match_reduction(store: BufferStore) -> StoreForm:
    """Match a self-update ``B[e] = B[e] (+|*) r``; return the op and ``r``.

    ``+`` is the reduction accumulator (``np.add.at``); ``*`` is the
    pointwise in-place rescale emitted e.g. by the attention-score
    ``1/sqrt(d)`` scaling nest (``np.multiply.at``).  Both ``ufunc.at``
    forms apply lanes unbuffered in serial order, preserving
    bit-exactness with the interpreter.
    """
    value = store.value
    if not isinstance(value, (Add, Mul)):
        return None
    op = "add" if isinstance(value, Add) else "mul"
    for load, residual in ((value.a, value.b), (value.b, value.a)):
        if (
            isinstance(load, BufferLoad)
            and load.buffer.name == store.buffer.name
            and len(load.indices) == 1
            and structural_equal(load.indices[0], store.indices[0])
        ):
            return op, residual
    return None


def _ambient_loads(stmt: Stmt) -> List[BufferLoad]:
    """Loads evaluated outside store values/indices: loop bounds, conditions,
    let bindings and evaluated expressions of the whole nest."""
    loads: List[BufferLoad] = []

    def visit(expr: Expr) -> None:
        for sub in post_order(expr):
            if isinstance(sub, BufferLoad):
                loads.append(sub)

    for node in post_order_stmts(stmt):
        if isinstance(node, ForLoop):
            visit(node.start)
            visit(node.extent)
        elif isinstance(node, IfThenElse):
            visit(node.condition)
        elif isinstance(node, LetStmt):
            visit(node.value)
        elif isinstance(node, AssertStmt):
            visit(node.condition)
        elif isinstance(node, Evaluate):
            visit(node.value)
    return loads


def _pass_stores(stmt: Stmt, which: str) -> List[BufferStore]:
    """Stores executed during the init pass or the compute pass of *stmt*."""
    collected: List[BufferStore] = []

    def walk(node: Stmt, in_init: bool) -> None:
        if isinstance(node, BufferStore):
            if (which == "init") == in_init:
                collected.append(node)
            return
        if isinstance(node, Block):
            if node.init is not None:
                walk(node.init, True)
            walk(node.body, in_init)
            return
        if isinstance(node, SeqStmt):
            for child in node.stmts:
                walk(child, in_init)
            return
        if isinstance(node, ForLoop):
            walk(node.body, in_init)
            return
        if isinstance(node, IfThenElse):
            walk(node.then_case, in_init)
            if node.else_case is not None:
                walk(node.else_case, in_init)
            return
        if isinstance(node, (LetStmt, AssertStmt)):
            walk(node.body, in_init)
            return

    walk(stmt, False)
    return collected


def sorted_axis_keys(axis: SparseVariableAxis) -> Tuple[np.ndarray, np.ndarray, int]:
    """Per-row-disambiguated key array for one searchsorted over all rows."""
    indptr = axis.indptr
    indices = axis.indices
    stride = int(axis.length) + 2
    row_of = np.repeat(np.arange(len(indptr) - 1, dtype=np.int64), np.diff(indptr))
    keys = indices + row_of * stride
    return keys, indptr.astype(np.int64, copy=False), stride


def coords_to_positions(axis: Axis, parent: np.ndarray, coord: np.ndarray) -> np.ndarray:
    """Vectorized ``axis.coordinate_to_position``; -1 marks structural zeros.

    Emitted stage-IV kernels call it once at plan time, through the
    ``helpers`` namespace.
    """
    if isinstance(axis, DenseFixedAxis):
        return np.where((coord >= 0) & (coord < axis.length), coord, -1)
    if isinstance(axis, DenseVariableAxis):
        extents = axis.indptr[parent + 1] - axis.indptr[parent]
        return np.where((coord >= 0) & (coord < extents), coord, -1)
    if isinstance(axis, SparseVariableAxis):
        keys, starts, stride = sorted_axis_keys(axis)
        targets = coord + parent * stride
        hits = np.searchsorted(keys, targets)
        safe = np.minimum(hits, max(len(keys) - 1, 0))
        found = (hits < len(keys)) & (keys[safe] == targets) if len(keys) else np.zeros_like(targets, dtype=bool)
        return np.where(found, hits - starts[parent], -1)
    if isinstance(axis, SparseFixedAxis):
        table = axis.indices.reshape(-1, axis.nnz_cols)
        if parent.size * axis.nnz_cols > MAX_LANES:
            raise UnsupportedForEmission("ELL coordinate search too large to batch")
        rows = table[parent]
        match = rows == coord[:, None]
        found = match.any(axis=1)
        return np.where(found, match.argmax(axis=1), -1)
    raise UnsupportedForEmission(f"unsupported axis type {type(axis).__name__}")
