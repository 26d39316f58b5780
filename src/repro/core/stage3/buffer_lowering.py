"""Sparse buffer lowering: stage II (position space) to stage III (flat loops).

Implements Section 3.4.1 of the paper: all axes disappear, every
multi-dimensional sparse buffer becomes a one-dimensional flat buffer, and
each access is rewritten to a flat offset following equations (6)-(8).

The flattening walks the buffer's axes left to right and accumulates an
offset expression:

* a fixed axis (dense-fixed or sparse-fixed) multiplies the running offset by
  its per-row extent and adds the position index;
* a variable axis (dense-variable or sparse-variable) replaces the running
  offset — which at that point equals its parent's position — by
  ``indptr[offset] + position``.

This matches the paper's example: ``A[i, j]`` becomes ``A[J_indptr[i] + j]``
and ``C[i, k]`` becomes ``C[i * feat_size + k]``.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..axes import Axis, DenseFixedAxis, DenseVariableAxis, SparseFixedAxis, SparseVariableAxis
from ..buffers import FlatBuffer, SparseBuffer
from ..expr import Add, BinaryOp, BufferLoad, Call, Cast, Expr, IntImm, Mul, Not, Select, simplify
from ..program import STAGE_LOOP, STAGE_POSITION, PrimFunc
from ..stmt import (
    AssertStmt,
    Block,
    BufferRegion,
    BufferStore,
    Evaluate,
    ForLoop,
    IfThenElse,
    LetStmt,
    SeqStmt,
    Stmt,
)


class _Flattener:
    """Holds the sparse-to-flat buffer mapping for one program."""

    def __init__(self, func: PrimFunc):
        self.func = func
        self.flat: Dict[str, FlatBuffer] = {}
        self.aux_indptr_flat: Dict[int, FlatBuffer] = {}
        for buffer in list(func.buffers) + list(func.aux_buffers):
            flat = FlatBuffer(buffer.name, buffer.flat_size(), buffer.dtype, buffer.scope)
            self.flat[buffer.name] = flat
        # Map axis id -> flat indptr buffer, used while flattening accesses to
        # buffers that contain a variable axis.
        for buffer in func.aux_buffers:
            if buffer.name.endswith("_indptr"):
                axis_name = buffer.name[: -len("_indptr")]
                for axis in func.axes:
                    if axis.name == axis_name:
                        self.aux_indptr_flat[id(axis)] = self.flat[buffer.name]

    # -- expression / statement rewriting -------------------------------------
    def flatten_stmt(self, stmt: Stmt) -> Stmt:
        if isinstance(stmt, SeqStmt):
            return SeqStmt([self.flatten_stmt(s) for s in stmt.stmts])
        if isinstance(stmt, ForLoop):
            return ForLoop(
                stmt.loop_var,
                self.flatten_expr(stmt.start),
                self.flatten_expr(stmt.extent),
                self.flatten_stmt(stmt.body),
                kind=stmt.kind,
                thread_tag=stmt.thread_tag,
                annotations=dict(stmt.annotations),
            )
        if isinstance(stmt, Block):
            new = stmt.with_body(self.flatten_stmt(stmt.body))
            if stmt.init is not None:
                new.init = self.flatten_stmt(stmt.init)
            new.reads = [self._flatten_region(r) for r in stmt.reads]
            new.writes = [self._flatten_region(r) for r in stmt.writes]
            return new
        if isinstance(stmt, BufferStore):
            index = self.flatten_access(stmt.buffer, stmt.indices)
            return BufferStore(self._flat_of(stmt.buffer), [index], self.flatten_expr(stmt.value))
        if isinstance(stmt, IfThenElse):
            return IfThenElse(
                self.flatten_expr(stmt.condition),
                self.flatten_stmt(stmt.then_case),
                None if stmt.else_case is None else self.flatten_stmt(stmt.else_case),
            )
        if isinstance(stmt, Evaluate):
            return Evaluate(self.flatten_expr(stmt.value))
        if isinstance(stmt, LetStmt):
            return LetStmt(stmt.var, self.flatten_expr(stmt.value), self.flatten_stmt(stmt.body))
        if isinstance(stmt, AssertStmt):
            return AssertStmt(self.flatten_expr(stmt.condition), stmt.message, self.flatten_stmt(stmt.body))
        return stmt

    def flatten_expr(self, expr: Expr) -> Expr:
        if isinstance(expr, BufferLoad):
            index = self.flatten_access(expr.buffer, expr.indices)
            return BufferLoad(self._flat_of(expr.buffer), [index])
        if isinstance(expr, BinaryOp):
            return type(expr)(self.flatten_expr(expr.a), self.flatten_expr(expr.b))
        if isinstance(expr, Not):
            return Not(self.flatten_expr(expr.a))
        if isinstance(expr, Select):
            return Select(
                self.flatten_expr(expr.condition),
                self.flatten_expr(expr.true_value),
                self.flatten_expr(expr.false_value),
            )
        if isinstance(expr, Cast):
            return Cast(self.flatten_expr(expr.value), expr.dtype)
        if isinstance(expr, Call):
            return Call(expr.func, [self.flatten_expr(a) for a in expr.args], expr.dtype)
        return expr

    def flatten_access(self, buffer, indices: Sequence[Expr]) -> Expr:
        """Compute the flat offset of a position-space access (equations 6-8).

        A variable axis compresses the rectangular space spanned by its parent
        chain into ``nnz_total()`` slots, addressed through ``indptr``.  Axes
        *before* the parent (e.g. the head axis of a batched attention buffer
        ``S[H, I, J]``) form an independent batch prefix: one full segment of
        ``nnz_total()`` slots per prefix position, so the offset becomes
        ``prefix * nnz_total + indptr[parent] + position``.
        """
        if isinstance(buffer, FlatBuffer):
            return self.flatten_expr(indices[0])
        if not isinstance(buffer, SparseBuffer):
            raise TypeError(f"cannot flatten access to {buffer!r}")
        offset: Optional[Expr] = None
        # (axis, flattened index, running offset *before* this axis) for every
        # axis already folded into `offset`; lets a later variable axis find
        # its parent's own position and the batch prefix preceding it.
        processed: list[tuple[Axis, Expr, Optional[Expr]]] = []
        for axis, raw_index in zip(buffer.axes, indices):
            index = self.flatten_expr(raw_index)
            offset_before = offset
            if isinstance(axis, (DenseFixedAxis,)):
                extent: Optional[int] = axis.length
                offset = index if offset is None else Add(Mul(offset, IntImm(extent)), index)
            elif isinstance(axis, SparseFixedAxis):
                extent = axis.nnz_cols
                offset = index if offset is None else Add(Mul(offset, IntImm(extent)), index)
            elif isinstance(axis, (DenseVariableAxis, SparseVariableAxis)):
                indptr_flat = self.aux_indptr_flat.get(id(axis))
                if indptr_flat is None:
                    # The axis has no materialised indptr buffer (e.g. the
                    # access happens inside an auxiliary buffer that shares
                    # the parent's indptr); fall back to the dense-variable
                    # flattening through the shared indptr of the axis itself.
                    indptr_flat = self._materialize_indptr(axis)
                parent_pos: Optional[Expr] = None
                prefix: Optional[Expr] = None
                for depth, (p_axis, p_index, p_before) in enumerate(processed):
                    if p_axis is axis.parent:
                        if depth != len(processed) - 1:
                            # An axis sitting *between* the parent and its
                            # variable child has no flattening rule (it would
                            # need one indptr segment per interior position);
                            # refuse rather than compute colliding offsets.
                            raise ValueError(
                                f"buffer {buffer.name!r}: axis "
                                f"{processed[depth + 1][0].name!r} appears between "
                                f"variable axis {axis.name!r} and its parent "
                                f"{p_axis.name!r}; reorder the buffer axes so the "
                                f"parent immediately precedes the variable axis"
                            )
                        parent_pos = p_index
                        prefix = p_before
                        break
                if parent_pos is None:
                    parent_pos = offset if offset is not None else IntImm(0)
                segment = Add(BufferLoad(indptr_flat, [parent_pos]), index)
                if prefix is None:
                    offset = segment
                else:
                    offset = Add(Mul(prefix, IntImm(axis.nnz_total())), segment)
            else:  # pragma: no cover
                raise TypeError(f"unsupported axis type {type(axis)}")
            processed.append((axis, index, offset_before))
        if offset is None:
            raise ValueError(f"buffer {buffer.name!r} access with no indices")
        return simplify(offset)

    def _materialize_indptr(self, axis: Axis) -> FlatBuffer:
        """Create (once) a flat indptr buffer for an axis discovered late."""
        name = f"{axis.name}_indptr"
        if name in self.flat:
            self.aux_indptr_flat[id(axis)] = self.flat[name]
            return self.flat[name]
        size = (axis.parent.length if axis.parent is not None else 0) + 1
        flat = FlatBuffer(name, size, "int32")
        self.flat[name] = flat
        self.aux_indptr_flat[id(axis)] = flat
        # Register a backing sparse buffer so the runtime can bind data.
        indptr_dim = DenseFixedAxis(f"{axis.name}_indptr_dim", size)
        backing = SparseBuffer(name, [indptr_dim], dtype="int32")
        if getattr(axis, "indptr", None) is not None:
            backing.bind(axis.indptr)
        self.func.aux_buffers.append(backing)
        return flat

    def _flat_of(self, buffer) -> FlatBuffer:
        if isinstance(buffer, FlatBuffer):
            return buffer
        return self.flat[buffer.name]

    def _flatten_region(self, region: BufferRegion) -> BufferRegion:
        try:
            index = self.flatten_access(region.buffer, region.indices)
        except (ValueError, KeyError):
            # No flattening rule for this access, or a buffer this program
            # does not declare: the annotation keeps its position-space form.
            return region
        return BufferRegion(self._flat_of(region.buffer), [index])


def lower_sparse_buffers(func: PrimFunc) -> PrimFunc:
    """Lower a stage-II program to stage III by flattening all sparse buffers."""
    if func.stage != STAGE_POSITION:
        raise ValueError(f"lower_sparse_buffers expects a stage-II program, got {func.stage}")
    flattener = _Flattener(func)
    body = flattener.flatten_stmt(func.body)
    lowered = PrimFunc(
        func.name,
        axes=list(func.axes),
        buffers=list(func.buffers),
        body=body,
        stage=STAGE_LOOP,
        aux_buffers=list(func.aux_buffers),
        flat_buffers=list(flattener.flat.values()),
        attrs=dict(func.attrs),
    )
    return lowered
