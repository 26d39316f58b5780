"""Sparse iteration lowering: stage I (coordinate space) to stage II (position space).

Implements the four steps of Section 3.3.1 of the paper:

1. **Auxiliary buffer materialization** — the ``indptr`` / ``indices`` arrays
   referenced by axes become explicit sparse buffers so that loop extents and
   coordinate translation can read them.
2. **Nested loop generation** — one loop per axis of every sparse iteration
   (or a single loop for a fused axis group), separated by TensorIR-style
   blocks wherever an inner extent depends on an outer loop variable.
3. **Coordinate translation** — buffer indices are rewritten from coordinate
   space to position space following equations (1)-(5); a binary-search
   intrinsic is emitted when a coordinate cannot be matched to an iterator
   position directly.
4. **Read/write region analysis** — each block is annotated with the buffer
   regions it reads and writes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..axes import Axis, DenseFixedAxis, DenseVariableAxis, SparseFixedAxis, SparseVariableAxis
from ..buffers import SparseBuffer
from ..expr import (
    BINARY_SEARCH,
    GE,
    ROW_UPPER_BOUND,
    Add,
    And,
    BinaryOp,
    BufferLoad,
    Call,
    Cast,
    Expr,
    IntImm,
    Not,
    Select,
    StringImm,
    Sub,
    Var,
    simplify,
)
from ..program import STAGE_COORDINATE, STAGE_POSITION, PrimFunc
from ..sparse_iteration import ITER_REDUCTION, FusedAxisGroup, SparseIteration
from ..stmt import (
    Block,
    BufferRegion,
    BufferStore,
    Evaluate,
    ForLoop,
    IfThenElse,
    SeqStmt,
    Stmt,
    collect_buffer_loads,
    collect_buffer_stores,
)

class AuxBuffers:
    """Registry of auxiliary buffers materialised for axes."""

    def __init__(self) -> None:
        self.indptr: Dict[int, SparseBuffer] = {}
        self.indices: Dict[int, SparseBuffer] = {}
        self.extra_axes: List[Axis] = []

    def all_buffers(self) -> List[SparseBuffer]:
        buffers: List[SparseBuffer] = []
        for buf in list(self.indptr.values()) + list(self.indices.values()):
            if not any(existing is buf for existing in buffers):
                buffers.append(buf)
        return buffers


def materialize_aux_buffers(axes: Sequence[Axis]) -> AuxBuffers:
    """Step 1: create explicit buffers for indptr/indices arrays of axes."""
    aux = AuxBuffers()
    for axis in axes:
        if isinstance(axis, (DenseVariableAxis, SparseVariableAxis)):
            parent = axis.parent
            indptr_axis = DenseFixedAxis(f"{axis.name}_indptr_dim", (parent.length if parent else 0) + 1)
            aux.extra_axes.append(indptr_axis)
            buf = SparseBuffer(f"{axis.name}_indptr", [indptr_axis], dtype="int32")
            if axis.indptr is not None:
                buf.bind(axis.indptr)
            aux.indptr[id(axis)] = buf
        if isinstance(axis, (SparseFixedAxis, SparseVariableAxis)):
            parent = axis.parent
            if isinstance(axis, SparseFixedAxis):
                inner = DenseFixedAxis(f"{axis.name}_cols_dim", axis.nnz_cols)
                indices_axes = [parent, inner] if parent is not None else [inner]
            else:
                inner = DenseVariableAxis(
                    f"{axis.name}_dense",
                    parent,
                    axis.length,
                    axis.nnz,
                    indptr=axis.indptr,
                )
                indices_axes = [parent, inner]
            aux.extra_axes.append(inner)
            buf = SparseBuffer(f"{axis.name}_indices", indices_axes, dtype="int32")
            if axis.indices is not None:
                buf.bind(axis.indices)
            aux.indices[id(axis)] = buf
    return aux


def lower_sparse_iterations(func: PrimFunc) -> PrimFunc:
    """Lower every sparse iteration of a stage-I program to stage-II loops."""
    if func.stage != STAGE_COORDINATE:
        raise ValueError(f"lower_sparse_iterations expects a stage-I program, got {func.stage}")

    aux = materialize_aux_buffers(func.axes)
    lowered_parts: List[Stmt] = []
    for iteration in func.sparse_iterations():
        lowered_parts.append(_lower_iteration(iteration, aux, func))

    body: Stmt = SeqStmt(lowered_parts) if len(lowered_parts) != 1 else lowered_parts[0]
    lowered = PrimFunc(
        func.name,
        axes=list(func.axes) + aux.extra_axes,
        buffers=list(func.buffers),
        body=body,
        stage=STAGE_POSITION,
        aux_buffers=[*func.aux_buffers, *aux.all_buffers()],  # the program's own tables first
        attrs=dict(func.attrs),
    )
    # Buffer-domain hints (Figure 7): value ranges of the auxiliary buffers,
    # after those the program states for its own tables.  An ELL axis pads
    # with -1: its indices lie in [-1, length).
    domains: Dict[str, Tuple[int, int]] = dict(func.attrs.get("buffer_domains", {}))
    for axis in func.axes:
        if isinstance(axis, (DenseVariableAxis, SparseVariableAxis)):
            domains[f"{axis.name}_indptr"] = (0, axis.nnz_total())
        if isinstance(axis, (SparseFixedAxis, SparseVariableAxis)):
            domains[f"{axis.name}_indices"] = (-1 if axis.is_fixed else 0, axis.length)
    lowered.attrs["buffer_domains"] = domains
    return lowered


# ---------------------------------------------------------------------------
# Per-iteration lowering
# ---------------------------------------------------------------------------

class _AxisState:
    """Lowering state of one iteration axis: its loop, position and coordinate."""

    def __init__(self, axis: Axis, kind: str, coord_var: Var):
        self.axis = axis
        self.kind = kind
        self.coord_var = coord_var          # the stage-I iterator variable
        self.loop_var: Optional[Var] = None  # the stage-II position variable
        self.position: Optional[Expr] = None
        self.coordinate: Optional[Expr] = None


def _lower_iteration(iteration: SparseIteration, aux: AuxBuffers, func: PrimFunc) -> Stmt:
    flat_axes = list(iteration.flat_axes)
    states: Dict[int, _AxisState] = {}
    for axis, var, kind in zip(flat_axes, iteration.iter_vars, iteration.kinds):
        states[id(axis)] = _AxisState(axis, kind, var)

    # ---- step 2: build the loop skeleton (outermost to innermost) -----------
    loop_descriptions: List[Tuple[str, object]] = []  # ("axis", state) or ("fused", [states])
    for item in iteration.axes:
        if isinstance(item, FusedAxisGroup):
            loop_descriptions.append(("fused", [states[id(a)] for a in item.axes]))
        else:
            loop_descriptions.append(("axis", states[id(item)]))

    loops: List[ForLoop] = []
    block_breaks: List[int] = []  # indices in `loops` after which a block boundary sits
    guards: List[Optional[Expr]] = []  # per loop: the condition its body runs under
    for desc_kind, payload in loop_descriptions:
        if desc_kind == "axis":
            state: _AxisState = payload  # type: ignore[assignment]
            loop, needs_block = _make_axis_loop(state, states, aux)
            if needs_block and loops:
                block_breaks.append(len(loops))
            loops.append(loop)
            guards.append(_slot_guard([state], aux))
        else:
            group_states: List[_AxisState] = payload  # type: ignore[assignment]
            loop = _make_fused_loop(group_states, aux)
            loops.append(loop)
            guards.append(_slot_guard(group_states, aux))

    # ---- step 3: coordinate translation of the body --------------------------
    translator = _CoordinateTranslator(states, aux)
    body = translator.translate_stmt(iteration.body)
    init = None if iteration.init is None else translator.translate_stmt(iteration.init)

    # ---- step 4: region analysis + innermost block ---------------------------
    reads = [BufferRegion(l.buffer, l.indices) for l in collect_buffer_loads(body)]
    writes = [BufferRegion(s.buffer, s.indices) for s in collect_buffer_stores(body)]
    reduction_vars = [
        states[id(a)].loop_var
        for a in flat_axes
        if states[id(a)].kind == ITER_REDUCTION and states[id(a)].loop_var is not None
    ]
    inner_block = Block(
        f"{iteration.name}_compute",
        body,
        init=init,
        reads=reads,
        writes=writes,
        annotations={"sparse_iteration": iteration.name},
        iter_vars=[states[id(a)].loop_var for a in flat_axes if states[id(a)].loop_var is not None],
        iter_kinds=[states[id(a)].kind for a in flat_axes],
    )
    inner_block.annotations["reduction_vars"] = reduction_vars

    # ---- assemble nest, inserting structural blocks at the recorded breaks ---
    current: Stmt = inner_block
    for index in range(len(loops) - 1, -1, -1):
        if guards[index] is not None:
            current = IfThenElse(guards[index], current)
        current = loops[index].with_body(current)
        if index in block_breaks:
            current = Block(f"{iteration.name}_outer_{index}", current,
                            annotations={"structural": True})
    return current


def _slot_guard(loop_states: List[_AxisState], aux: AuxBuffers) -> Optional[Expr]:
    """The condition a slot of an ELL axis holds a non-zero under: its
    coordinate is not the ``-1`` of a padded slot.

    A sparse iteration visits non-zeros, so the body under a
    :class:`SparseFixedAxis` loop (the fused loop of a group with one) runs
    only where the slot's coordinate is ``>= 0``.  Every tier runs that one
    guarded program.  The guard covers the loop's whole body, but a block's
    ``init`` still runs: the init pass of every tier visits both branches of
    a condition, so a row that is all padding is initialised all the same.
    """
    conds: List[Expr] = []
    for state in loop_states:
        coordinate = state.coordinate
        if (
            isinstance(state.axis, SparseFixedAxis)
            and isinstance(coordinate, BufferLoad)
            and coordinate.buffer is aux.indices.get(id(state.axis))
        ):
            conds.append(GE(coordinate, IntImm(0)))
    if not conds:
        return None
    guard = conds[0]
    for cond in conds[1:]:
        guard = And(guard, cond)
    return guard


def _make_axis_loop(
    state: _AxisState, states: Dict[int, _AxisState], aux: AuxBuffers
) -> Tuple[ForLoop, bool]:
    """Create the loop for a single (non-fused) axis and fill in its state."""
    axis = state.axis
    loop_var = Var(f"{state.coord_var.name}_p", "int32")
    state.loop_var = loop_var
    needs_block = False

    if isinstance(axis, DenseFixedAxis):
        extent: Expr = IntImm(axis.length)
        state.position = loop_var
        state.coordinate = loop_var
    elif isinstance(axis, SparseFixedAxis):
        extent = IntImm(axis.nnz_cols)
        state.position = loop_var
        parent_pos = _parent_position(axis, states)
        indices_buf = aux.indices[id(axis)]
        state.coordinate = BufferLoad(indices_buf, [parent_pos, loop_var])
    elif isinstance(axis, (DenseVariableAxis, SparseVariableAxis)):
        parent_pos = _parent_position(axis, states)
        indptr_buf = aux.indptr[id(axis)]
        extent = Sub(
            BufferLoad(indptr_buf, [Add(parent_pos, IntImm(1))]),
            BufferLoad(indptr_buf, [parent_pos]),
        )
        state.position = loop_var
        if isinstance(axis, SparseVariableAxis):
            indices_buf = aux.indices[id(axis)]
            state.coordinate = BufferLoad(indices_buf, [parent_pos, loop_var])
        else:
            state.coordinate = loop_var
        needs_block = True
    else:  # pragma: no cover - the four kinds above are exhaustive
        raise TypeError(f"unsupported axis type {type(axis)}")

    return ForLoop(loop_var, IntImm(0), extent, body=Evaluate(IntImm(0))), needs_block


def _make_fused_loop(group_states: List[_AxisState], aux: AuxBuffers) -> ForLoop:
    """Create a single loop over the flattened non-zero space of fused axes.

    The fused loop ranges over the total number of (padded) non-zeros of the
    innermost fused axis.  Positions and coordinates of the member axes are
    recovered from the fused variable: the row is found with an upper-bound
    search on the indptr array, matching how fused SDDMM kernels recover the
    row index of an edge.
    """
    last = group_states[-1].axis
    fused_var = Var("_".join(s.coord_var.name for s in group_states) + "_fused", "int32")
    extent = IntImm(last.nnz_total())

    # Innermost axis: global position is the fused variable itself.
    for depth, state in enumerate(group_states):
        axis = state.axis
        state.loop_var = fused_var
        if axis is last:
            if isinstance(axis, (SparseVariableAxis, DenseVariableAxis)):
                indptr_buf = aux.indptr[id(axis)]
                parent_state = group_states[depth - 1] if depth > 0 else None
                if parent_state is not None:
                    parent_pos = parent_state.position
                else:
                    parent_pos = IntImm(0)
                local = Sub(fused_var, BufferLoad(indptr_buf, [parent_pos]))
                state.position = local
                if isinstance(axis, SparseVariableAxis):
                    indices_buf = aux.indices[id(axis)]
                    state.coordinate = BufferLoad(indices_buf, [parent_pos, local])
                else:
                    state.coordinate = local
            elif isinstance(axis, SparseFixedAxis):
                parent_state = group_states[depth - 1] if depth > 0 else None
                nnz_cols = IntImm(axis.nnz_cols)
                local = Call("floormod", [fused_var, nnz_cols]) if False else fused_var % nnz_cols
                state.position = local
                parent_pos = parent_state.position if parent_state else IntImm(0)
                indices_buf = aux.indices[id(axis)]
                state.coordinate = BufferLoad(indices_buf, [parent_pos, local])
            else:
                state.position = fused_var
                state.coordinate = fused_var
        else:
            # Ancestor axes: recover their position from the fused variable.
            child = group_states[depth + 1].axis
            if isinstance(child, (SparseVariableAxis, DenseVariableAxis)):
                indptr_buf = aux.indptr[id(child)]
                row = Sub(
                    Call(ROW_UPPER_BOUND, [StringImm(child.name), fused_var], dtype="int32"),
                    IntImm(0),
                )
                state.position = row
                state.coordinate = row if axis.is_dense else _sparse_coord(axis, states_of(group_states, depth), row, aux)
            else:
                per_parent = IntImm(child.row_extent(0))
                row = fused_var // per_parent
                state.position = row
                state.coordinate = row
    return ForLoop(fused_var, IntImm(0), extent, body=Evaluate(IntImm(0)),
                   annotations={"fused_axes": [s.axis.name for s in group_states]})


def states_of(group_states: List[_AxisState], depth: int) -> Dict[int, _AxisState]:
    return {id(s.axis): s for s in group_states[: depth + 1]}


def _sparse_coord(axis: Axis, states: Dict[int, _AxisState], position: Expr, aux: AuxBuffers) -> Expr:
    indices_buf = aux.indices[id(axis)]
    parent_pos = _parent_position(axis, states)
    return BufferLoad(indices_buf, [parent_pos, position])


def _parent_position(axis: Axis, states: Dict[int, _AxisState]) -> Expr:
    """Position of the parent axis in the current iteration (0 if absent)."""
    parent = axis.parent
    if parent is None:
        return IntImm(0)
    state = states.get(id(parent))
    if state is None or state.position is None:
        return IntImm(0)
    return state.position


# ---------------------------------------------------------------------------
# Coordinate translation (step 3)
# ---------------------------------------------------------------------------

class _CoordinateTranslator:
    """Rewrites coordinate-space buffer accesses into position space."""

    def __init__(self, states: Dict[int, _AxisState], aux: AuxBuffers):
        self.states = states
        self.aux = aux
        # Substitution used for *non-buffer-index* scalar appearances of the
        # iterator variables (rare) and for index expressions on dense axes.
        self.coord_substitution: Dict[Var, Expr] = {
            s.coord_var: s.coordinate for s in states.values() if s.coordinate is not None
        }

    # -- statements ------------------------------------------------------------
    def translate_stmt(self, stmt: Stmt) -> Stmt:
        if isinstance(stmt, SeqStmt):
            return SeqStmt([self.translate_stmt(s) for s in stmt.stmts])
        if isinstance(stmt, BufferStore):
            indices = self._translate_buffer_indices(stmt.buffer, stmt.indices)
            return BufferStore(stmt.buffer, indices, self.translate_expr(stmt.value))
        if isinstance(stmt, IfThenElse):
            return IfThenElse(
                self.translate_expr(stmt.condition),
                self.translate_stmt(stmt.then_case),
                None if stmt.else_case is None else self.translate_stmt(stmt.else_case),
            )
        if isinstance(stmt, Evaluate):
            return Evaluate(self.translate_expr(stmt.value))
        if isinstance(stmt, SparseIteration):
            raise ValueError(
                "nested sparse iterations must be lowered separately; decompose the "
                "program so each sparse iteration is a top-level statement"
            )
        return stmt

    # -- expressions ------------------------------------------------------------
    def translate_expr(self, expr: Expr) -> Expr:
        if isinstance(expr, BufferLoad):
            indices = self._translate_buffer_indices(expr.buffer, expr.indices)
            return BufferLoad(expr.buffer, indices)
        if isinstance(expr, Var):
            return self.coord_substitution.get(expr, expr)
        if isinstance(expr, BinaryOp):
            return type(expr)(self.translate_expr(expr.a), self.translate_expr(expr.b))
        if isinstance(expr, Not):
            return Not(self.translate_expr(expr.a))
        if isinstance(expr, Select):
            return Select(
                self.translate_expr(expr.condition),
                self.translate_expr(expr.true_value),
                self.translate_expr(expr.false_value),
            )
        if isinstance(expr, Cast):
            return Cast(self.translate_expr(expr.value), expr.dtype)
        if isinstance(expr, Call):
            return Call(expr.func, [self.translate_expr(a) for a in expr.args], expr.dtype)
        return expr

    def _translate_buffer_indices(self, buffer: SparseBuffer, indices: Sequence[Expr]) -> List[Expr]:
        """Equation (1): translate each buffer index from coordinates to positions."""
        positions: List[Expr] = []
        for buffer_axis, index in zip(buffer.axes, indices):
            position = self._translate_one(buffer, buffer_axis, index, positions)
            positions.append(simplify(position))
        return positions

    def _translate_one(
        self,
        buffer: SparseBuffer,
        buffer_axis: Axis,
        index: Expr,
        earlier_positions: List[Expr],
    ) -> Expr:
        # Fast path: the index is exactly an iterator variable bound to the
        # same axis object -> reuse its position (no search necessary).
        if isinstance(index, Var):
            state = self._state_of_var(index)
            if state is not None and state.axis is buffer_axis:
                return state.position if state.position is not None else index

        # General path: compute the coordinate value, then compress it.
        coordinate = self.translate_expr(self._coordinate_value(index))
        if buffer_axis.is_dense:
            return coordinate
        # Sparse buffer axis: need the parent's position within this buffer.
        parent_pos = self._buffer_parent_position(buffer, buffer_axis, earlier_positions)
        return Call(
            BINARY_SEARCH,
            [StringImm(buffer_axis.name), parent_pos, coordinate],
            dtype="int32",
        )

    def _coordinate_value(self, index: Expr) -> Expr:
        """Substitute iterator variables by their coordinate expressions."""
        if isinstance(index, Var):
            return self.coord_substitution.get(index, index)
        return index

    def _state_of_var(self, var: Var) -> Optional[_AxisState]:
        for state in self.states.values():
            if state.coord_var is var:
                return state
        return None

    def _buffer_parent_position(
        self, buffer: SparseBuffer, buffer_axis: Axis, earlier_positions: List[Expr]
    ) -> Expr:
        parent = buffer_axis.parent
        if parent is None:
            return IntImm(0)
        for axis, position in zip(buffer.axes, earlier_positions):
            if axis is parent:
                return position
        state = self.states.get(id(parent))
        if state is not None and state.position is not None:
            return state.position
        return IntImm(0)
