"""Dependence analysis of stage-III nests: what may run out of serial order.

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

The native tier asks the same question of one loop at a time:
:func:`loop_independence` proves that the iterations of an innermost loop
touch distinct elements, which is what lets :mod:`~repro.core.codegen.emit_c`
print it under ``#pragma omp simd`` without changing a bit of the result.
:func:`fused_regions` extends that proof across nests: consecutive top-level
nests whose every dependence stays inside one output element ``(row, lane)``
may share one row loop and keep that element in a register tile.

The module also holds the two plan-time helpers emitted kernels call through
their ``helpers`` namespace (:func:`coords_to_positions`,
:func:`sorted_axis_keys`).
"""

from __future__ import annotations

from typing import AbstractSet, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from ..axes import (
    Axis,
    DenseFixedAxis,
    DenseVariableAxis,
    SparseFixedAxis,
    SparseVariableAxis,
)
from ..expr import (
    Add,
    BufferLoad,
    Expr,
    IntImm,
    Mul,
    Sub,
    Var,
    children,
    post_order,
    simplify,
    structural_equal,
)
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
    find_blocks,
    find_loops,
    post_order_stmts,
)
from .native import UnsupportedForEmission

__all__ = [
    "UnsupportedForEmission",
    "affine_in",
    "analyze_hazards",
    "fused_regions",
    "loop_independence",
    "coords_to_positions",
    "sorted_axis_keys",
]

#: How a store updates its target: ``("add" | "mul", residual expression)``
#: for a self-update ``B[e] = B[e] (+|*) r``, ``None`` for a plain store.
StoreForm = Optional[Tuple[str, Expr]]


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


def _mentions(expr: Expr, var: Var) -> bool:
    return expr is var or any(_mentions(kid, var) for kid in children(expr))


def affine_in(expr: Expr, var: Var) -> Optional[Tuple[Expr, Expr]]:
    """``(base, stride)`` with ``expr == base + stride * var``, or ``None``."""
    if expr is var:
        return IntImm(0), IntImm(1)
    if isinstance(expr, (Add, Sub, Mul)):
        a, b = affine_in(expr.a, var), affine_in(expr.b, var)
        if a is None or b is None:
            return None
        if not isinstance(expr, Mul):
            return type(expr)(a[0], b[0]), type(expr)(a[1], b[1])
        for (base, stride), other in ((a, b), (b, a)):
            if isinstance(other[1], IntImm) and other[1].value == 0:  # var-free factor
                return Mul(base, other[0]), Mul(stride, other[0])
        return None
    return None if _mentions(expr, var) else (expr, IntImm(0))


def loop_independence(loop: ForLoop, written: AbstractSet[str]) -> Optional[str]:
    """Why the iterations of *loop* may not run as SIMD lanes; ``None`` if they may.

    *written* names the buffers the enclosing nest stores to (differently
    named buffers never overlap; every other buffer is constant while the nest
    runs).  The iterations are independent when *loop* is innermost and

    * every store under it indexes ``base + var`` with ``base`` free of the
      loop variable — iteration ``k`` owns element ``base + k`` and no other
      (a reduction, whose store does not move, a strided or a data-dependent
      scatter do not qualify) — and stores to one buffer share that index;
    * every load of a written buffer is the accumulator of a self-update
      (:func:`_match_reduction`): it reads exactly the element its own
      iteration stores.  Any other read of a written buffer — a shifted
      ``C[k - 1]``, a bound, a condition, a search argument, the value of
      another store — could see a different iteration's store.

    Lanes are then distinct elements and each element is computed by the serial
    sequence of operations, so any interleaving gives the serial bits.
    """
    var = loop.loop_var
    if find_loops(loop.body):
        return f"{var.name!r} is not an innermost loop"
    targets: Dict[str, Expr] = {}
    accumulators = set()
    for store in collect_buffer_stores(loop):
        name = store.buffer.name
        moved = affine_in(store.indices[0], var) if len(store.indices) == 1 else None
        stride = None if moved is None else simplify(moved[1])
        if not (isinstance(stride, IntImm) and stride.value == 1):
            return f"the store to {name!r} does not move with {var.name!r} at unit stride"
        if not structural_equal(targets.setdefault(name, store.indices[0]), store.indices[0]):
            return f"stores to {name!r} at two different indices"
        form = _match_reduction(store)
        if form is not None:  # the operand of the update that is not its residual
            value = store.value
            accumulators.add(id(value.b if form[1] is value.a else value.a))
    for load in collect_buffer_loads(loop):
        if load.buffer.name in written and id(load) not in accumulators:
            return (
                f"reads {load.buffer.name!r}, which the nest writes, other than as "
                "the accumulator of a self-update"
            )
    return None


class RowNest(NamedTuple):
    """A top-level nest in the shape a fused region takes:
    ``for row: [reduction loops:] for lane: B[row * stride + lane] = ...``."""

    loop: ForLoop  #: the outermost (row) loop: dense, from 0
    feature: ForLoop  #: the innermost (lane) loop: dense, from 0, iterations independent
    name: str  #: the buffer it stores to, at element ``(row, lane)``
    stride: int  #: that buffer's row stride
    dtype: str  #: and element type
    #: ``(buffer, row stride)`` per load; the stride is ``None`` unless the load
    #: reads exactly the element ``(row, lane)`` of a buffer with that stride.
    loads: Tuple[Tuple[str, Optional[int]], ...]
    init: bool  #: the store has a reduction init (run in the interpreter's first pass)
    plain: bool  #: one unconditional store per element: no reduction loop, no init
    dense_reduction: bool  #: a reduction loop with constant bounds encloses the lane loop


def sizes_only(*exprs: Expr) -> bool:
    """Whether the expressions read neither a variable nor a buffer."""
    return not any(isinstance(node, (Var, BufferLoad)) for expr in exprs for node in post_order(expr))


def _from_zero(loop: ForLoop) -> bool:
    start, extent = loop.start, loop.extent
    return isinstance(start, IntImm) and start.value == 0 and isinstance(extent, IntImm)


def _lane(indices: Sequence[Expr], row: Var, lane: Var) -> Optional[int]:
    """``stride`` when the index is exactly ``row * stride + lane`` (a
    non-negative constant stride), else ``None``."""
    by_row = affine_in(indices[0], row) if len(indices) == 1 else None
    by_lane = None if by_row is None else affine_in(simplify(by_row[0]), lane)
    if by_lane is None:
        return None
    stride, rest, unit = simplify(by_row[1]), simplify(by_lane[0]), simplify(by_lane[1])
    exact = isinstance(rest, IntImm) and rest.value == 0 and isinstance(unit, IntImm) and unit.value == 1
    return stride.value if exact and isinstance(stride, IntImm) and stride.value >= 0 else None


def _row_nest(nest: Stmt) -> Union[RowNest, str]:
    """*nest* as a :class:`RowNest`, or why it is none."""
    if not (isinstance(nest, ForLoop) and _from_zero(nest)):
        return "its outermost loop is not a dense loop from 0"
    node, reductions = nest.body, []
    while not (isinstance(node, ForLoop) and not find_loops(node.body)):
        if isinstance(node, ForLoop):
            reductions.append(node)
        elif not (isinstance(node, Block) and node.init is None):
            return "it is not a perfect loop nest around one innermost loop"
        node = node.body
    feature, body, init = node, node.body, None
    if isinstance(body, Block):
        body, init = body.body, body.init
    if not (_from_zero(feature) and isinstance(body, BufferStore)):
        return "its innermost loop is not a dense loop from 0 around one store"
    name = body.buffer.name
    if init is not None and not (
        isinstance(init, BufferStore)
        and init.buffer.name == name
        and len(init.indices) == len(body.indices) == 1
        and structural_equal(init.indices[0], body.indices[0])
        and not collect_buffer_loads(init)
    ):
        return f"the init of {name!r} is not a constant stored to the element it accumulates"
    why = loop_independence(feature, {name})
    if why is not None:
        return why
    row, lane = nest.loop_var, feature.loop_var
    stride = _lane(body.indices, row, lane)
    if stride is None:
        return f"the store to {name!r} is not at [row * stride + lane]"
    return RowNest(
        nest, feature, name, stride, body.buffer.dtype,
        tuple((load.buffer.name, _lane(load.indices, row, lane)) for load in collect_buffer_loads(nest)),
        init is not None, init is None and not reductions,
        any(sizes_only(loop.start, loop.extent) for loop in reductions),
    )


def _joins(run: Sequence[RowNest], new: RowNest) -> Optional[str]:
    """Why *new* may not join the members *run*, if it may not."""
    written = {member.name: member.stride for member in run}
    if run:
        for what, mine, theirs in (
            ("row", new.loop, run[0].loop), ("innermost", new.feature, run[0].feature)
        ):
            if mine.extent.value != theirs.extent.value:
                return f"its {what} loop has extent {mine.extent.value}, the region's {theirs.extent.value}"
        if new.dtype != run[0].dtype:
            return f"it stores {new.dtype}, the region {run[0].dtype}"
    if written.setdefault(new.name, new.stride) != new.stride:
        return f"it stores {new.name!r} at another row stride than the region"
    for member in (*run, new):
        for name, stride in member.loads:
            if name in written and stride != written[name]:
                if member is new:
                    return f"it reads {name!r}, which the region writes, other than at its own element"
                return f"it writes {name!r}, which the region reads other than at that element"
    return None


def _label(nest: Stmt) -> str:
    blocks = find_blocks(nest)
    return blocks[0].name if blocks else getattr(getattr(nest, "loop_var", None), "name", "nest")


def fused_regions(nests: Sequence[Stmt]) -> Tuple[List[Tuple[int, List[RowNest]]], Dict[str, str]]:
    """The runs of consecutive top-level nests that may execute as one loop
    over rows with their output elements in register tiles.

    Returns ``(first nest index, members)`` per region, and ``"fuse <nest>"
    -> reason`` for each nest that ended a run worth fusing.  A run's members
    are :class:`RowNest` shaped, share row extent, lane extent and dtype, and
    every load of a buffer any member stores — before or after it in program
    order — reads the element ``(row, lane)`` the loading iteration owns.  So
    all dependences run inside one element: any order of rows and lanes that
    keeps each element's operations in program order computes the serial
    bits.  A reduction init (the interpreter's first pass) may sit next to its
    compute pass when no earlier nest touches the buffer and nothing else
    initialises it; a nest where it may not is no member.

    A run becomes a region only where fusing pays by a property of the
    program: at least two nests, one of them with a dense reduction loop —
    whose accumulator row the serial nest loads and stores once per reduction
    step and whose init or element-wise consumer the region folds into the
    tile.  (A lone sparse reduction re-runs its gather once per tile: slower.)
    """
    if len(nests) < 2:  # a lone nest (most eager operators): nothing to prove
        return [], {}
    forms: List[Union[RowNest, str]] = [_row_nest(nest) for nest in nests]
    inits: Dict[str, int] = {}
    for nest in nests:
        for block in find_blocks(nest):
            for store in collect_buffer_stores(block.init) if block.init is not None else ():
                inits[store.buffer.name] = inits.get(store.buffer.name, 0) + 1
    touched: set = set()
    for k, (nest, form) in enumerate(zip(nests, forms)):
        if isinstance(form, RowNest) and form.init and (form.name in touched or inits[form.name] > 1):
            forms[k] = f"the init of {form.name!r} cannot move next to its compute pass"
        touched.update(s.buffer.name for s in collect_buffer_stores(nest))
        touched.update(load.buffer.name for load in collect_buffer_loads(nest))

    regions: List[Tuple[int, List[RowNest]]] = []
    declined: Dict[str, str] = {}
    run: List[RowNest] = []

    def pays() -> bool:
        return any(member.dense_reduction for member in run)

    def close(end: int) -> None:
        if len(run) >= 2 and pays():
            regions.append((end - len(run), list(run)))
        run.clear()

    for k, form in enumerate(forms):
        why = form if isinstance(form, str) else _joins(run, form)
        if why is None:
            run.append(form)
            continue
        if run and pays():
            declined[f"fuse {_label(nests[k])}"] = why
        if isinstance(form, str):
            close(k)
            continue
        # Plain stores at the end of the run that nothing in it reads (the init
        # nest of the accumulator *form* updates) belong with what follows: cut
        # the run in front of as many of them as *form* joins.
        used = [name for member in run for name in (member.name, *dict(member.loads))]
        carried: List[RowNest] = []
        while run and run[-1].plain and used.count(run[-1].name) == 1:
            carried.insert(0, run.pop())
        while carried and _joins(carried, form):
            run.append(carried.pop(0))
        close(k - len(carried))
        if _joins(carried, form) is None:  # alone, a nest may still read what it writes elsewhere
            run.extend([*carried, form])
    close(len(forms))
    return regions, declined


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
