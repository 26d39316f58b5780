"""Stage-II schedule primitives (Section 3.3.2).

The :class:`Schedule` object wraps a stage-II (or stage-III) PrimFunc and
exposes the loop/data transformations the paper relies on: ``split``,
``fuse``, ``reorder``, ``bind``, ``unroll``, ``vectorize``, ``parallel``,
``cache_read``, ``cache_write``, ``rfactor`` and ``tensorize``.

Loop restructuring primitives (split/fuse/reorder/bind/...) genuinely rewrite
the loop tree.  Data-movement and rewriting primitives that do not change the
computed values (``cache_read``, ``cache_write``, ``rfactor``, ``tensorize``)
are recorded as block/loop annotations: the NumPy interpreter ignores them
(they are semantics-preserving by construction) while the GPU performance
model uses them to account for shared-memory staging, register caching,
two-stage reductions and tensor-core execution.  This keeps numerical
execution exact while modelling the performance effects the paper studies.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..expr import Add, Expr, FloorDiv, FloorMod, IntImm, LT, Mul, Var, simplify
from ..program import PrimFunc, STAGE_LOOP, STAGE_POSITION
from ..stmt import (
    LOOP_PARALLEL,
    LOOP_THREAD_BINDING,
    LOOP_UNROLLED,
    LOOP_VECTORIZED,
    THREAD_TAGS,
    Block,
    ForLoop,
    IfThenElse,
    SeqStmt,
    Stmt,
    substitute_stmt,
)


class ScheduleError(RuntimeError):
    """Raised when a schedule primitive is applied illegally."""


#: Intrinsics available to :meth:`Schedule.tensorize`: name -> the warp-level
#: MMA tile ``(m, n, k, input dtype)``.  The tensor-core model of
#: :mod:`repro.sim.tensor_core` prices the same table.
TENSOR_INTRINSICS: Dict[str, Tuple[int, int, int, str]] = {
    "mma_m16n16k16": (16, 16, 16, "float16"),
    "mma_m8n32k16": (8, 32, 16, "float16"),
    "mma_m32n8k16": (32, 8, 16, "float16"),
    "wmma_m16n16k16_f32": (16, 16, 16, "float32"),
}


class Schedule:
    """A mutable scheduling session over one PrimFunc."""

    def __init__(self, func: PrimFunc):
        if func.stage not in (STAGE_POSITION, STAGE_LOOP):
            raise ScheduleError(
                f"Schedule operates on stage-II/III programs, got {func.stage}"
            )
        self._func = func
        self.trace: List[Tuple[str, tuple]] = []

    # -- access -----------------------------------------------------------------
    @property
    def func(self) -> PrimFunc:
        """The current (scheduled) program."""
        return self._func

    def get_block(self, name: str) -> Block:
        return self._func.block(name)

    def blocks(self) -> List[Block]:
        return self._func.blocks()

    def get_loops(self, block: Union[str, Block]) -> List[ForLoop]:
        """Loops enclosing *block*, outermost first."""
        if isinstance(block, str):
            block = self.get_block(block)
        path = _path_to(self._func.body, block)
        if path is None:
            raise ScheduleError(f"block {block.name!r} not found")
        return [node for node in path if isinstance(node, ForLoop)]

    # -- loop transformations -----------------------------------------------------
    def split(self, loop: ForLoop, factor: int) -> Tuple[ForLoop, ForLoop]:
        """Split *loop* into (outer, inner) where the inner extent is *factor*."""
        if factor <= 0:
            raise ScheduleError("split factor must be positive")
        loop = self._reacquire(loop.loop_var)
        outer_var = Var(loop.loop_var.name + "_o", "int32")
        inner_var = Var(loop.loop_var.name + "_i", "int32")
        recomposed = Add(Mul(outer_var, IntImm(factor)), inner_var)
        new_index = simplify(Add(loop.start, recomposed))
        body = substitute_stmt(loop.body, {loop.loop_var: new_index})

        exact = isinstance(loop.extent, IntImm) and loop.extent.value % factor == 0
        if isinstance(loop.extent, IntImm):
            outer_extent: Expr = IntImm((loop.extent.value + factor - 1) // factor)
        else:
            outer_extent = simplify(FloorDiv(Add(loop.extent, IntImm(factor - 1)), IntImm(factor)))
        if not exact:
            body = IfThenElse(LT(recomposed, loop.extent), body)

        inner = ForLoop(inner_var, IntImm(0), IntImm(factor), body, kind=loop.kind)
        outer = ForLoop(
            outer_var, IntImm(0), outer_extent, inner,
            kind=loop.kind, thread_tag=loop.thread_tag, annotations=dict(loop.annotations),
        )
        self._replace(loop, outer)
        self.trace.append(("split", (loop.loop_var.name, factor)))
        return self._reacquire(outer_var), self._reacquire(inner_var)

    def fuse(self, outer: ForLoop, inner: ForLoop) -> ForLoop:
        """Fuse two perfectly nested loops into one."""
        outer = self._reacquire(outer.loop_var)
        if outer.body is not inner and not (
            isinstance(outer.body, ForLoop) and outer.body.loop_var is inner.loop_var
        ):
            raise ScheduleError("fuse requires perfectly nested loops")
        inner = outer.body  # type: ignore[assignment]
        if not isinstance(inner, ForLoop):
            raise ScheduleError("fuse requires perfectly nested loops")
        fused_var = Var(f"{outer.loop_var.name}_{inner.loop_var.name}_f", "int32")
        mapping = {
            outer.loop_var: simplify(Add(outer.start, FloorDiv(fused_var, inner.extent))),
            inner.loop_var: simplify(Add(inner.start, FloorMod(fused_var, inner.extent))),
        }
        body = substitute_stmt(inner.body, mapping)
        fused = ForLoop(
            fused_var, IntImm(0), simplify(Mul(outer.extent, inner.extent)), body,
            kind=outer.kind, thread_tag=outer.thread_tag,
        )
        self._replace(outer, fused)
        self.trace.append(("fuse", (outer.loop_var.name, inner.loop_var.name)))
        return self._reacquire(fused_var)

    def reorder(self, *loops: ForLoop) -> None:
        """Reorder perfectly nested consecutive loops into the given order."""
        if len(loops) < 2:
            return
        loops = tuple(self._reacquire(l.loop_var) for l in loops)
        wanted = {id(l) for l in loops}
        # The requested loops must currently form a perfectly nested chain
        # with no block boundary in between (blocks forbid cross-block
        # reordering, Section 3.3.1 step 2).
        current_chain = _loop_chain(self._func.body, wanted)
        if current_chain is None:
            raise ScheduleError("reorder requires perfectly nested loops")
        innermost_body = current_chain[-1].body
        new_nest: Stmt = innermost_body
        for loop in reversed(loops):
            new_nest = loop.with_body(new_nest)
        self._replace(current_chain[0], new_nest)
        self.trace.append(("reorder", tuple(l.loop_var.name for l in loops)))

    # -- loop annotations -----------------------------------------------------------
    def bind(self, loop: ForLoop, thread_tag: str) -> ForLoop:
        """Bind a loop to a GPU thread axis (``blockIdx.x``, ``threadIdx.x``, ...)."""
        if thread_tag not in THREAD_TAGS:
            raise ScheduleError(f"unknown thread tag {thread_tag!r}")
        return self._set_kind(loop, LOOP_THREAD_BINDING, thread_tag)

    def unroll(self, loop: ForLoop) -> ForLoop:
        return self._set_kind(loop, LOOP_UNROLLED)

    def vectorize(self, loop: ForLoop) -> ForLoop:
        return self._set_kind(loop, LOOP_VECTORIZED)

    def parallel(self, loop: ForLoop) -> ForLoop:
        return self._set_kind(loop, LOOP_PARALLEL)

    def annotate(self, loop_or_block: Union[ForLoop, Block], key: str, value: object) -> None:
        if isinstance(loop_or_block, ForLoop):
            node = self._reacquire(loop_or_block.loop_var)
        else:
            node = self.get_block(loop_or_block.name)
        node.annotations[key] = value
        self.trace.append(("annotate", (key, value)))

    def _set_kind(self, loop: ForLoop, kind: str, thread_tag: Optional[str] = None) -> ForLoop:
        loop = self._reacquire(loop.loop_var)
        new = ForLoop(loop.loop_var, loop.start, loop.extent, loop.body,
                      kind=kind, thread_tag=thread_tag, annotations=dict(loop.annotations))
        self._replace(loop, new)
        self.trace.append((kind, (loop.loop_var.name, thread_tag)))
        return self._reacquire(loop.loop_var)

    # -- data movement / rewriting annotations ---------------------------------------
    def cache_read(self, block: Union[str, Block], buffer_name: str, scope: str = "shared") -> None:
        """Stage reads of *buffer_name* through on-chip memory (``shared``/``local``)."""
        self._cache(block, buffer_name, scope, "cache_read")

    def cache_write(self, block: Union[str, Block], buffer_name: str, scope: str = "local") -> None:
        """Accumulate writes of *buffer_name* in on-chip memory before spilling."""
        self._cache(block, buffer_name, scope, "cache_write")

    def _cache(self, block: Union[str, Block], buffer_name: str, scope: str, key: str) -> None:
        if scope not in ("shared", "local", "wmma.accumulator", "wmma.matrix_a", "wmma.matrix_b"):
            raise ScheduleError(f"unknown memory scope {scope!r}")
        blk = self.get_block(block) if isinstance(block, str) else self.get_block(block.name)
        known = {b.name for b in self._func.buffers + self._func.aux_buffers}
        if buffer_name not in known:
            raise ScheduleError(f"unknown buffer {buffer_name!r}")
        blk.annotations.setdefault(key, []).append({"buffer": buffer_name, "scope": scope})
        self.trace.append((key, (blk.name, buffer_name, scope)))

    def rfactor(self, block: Union[str, Block], factor: int) -> None:
        """Two-stage (factored) reduction, as used for SDDMM (PRedS-style)."""
        if factor <= 0:
            raise ScheduleError("rfactor factor must be positive")
        blk = self.get_block(block) if isinstance(block, str) else self.get_block(block.name)
        blk.annotations["rfactor"] = {"factor": factor}
        self.trace.append(("rfactor", (blk.name, factor)))

    def tensorize(self, block: Union[str, Block], intrin: str) -> None:
        """Map the block's inner computation onto a Tensor Core MMA intrinsic."""
        if intrin not in TENSOR_INTRINSICS:
            raise ScheduleError(
                f"unknown tensor intrinsic {intrin!r}; available: {sorted(TENSOR_INTRINSICS)}"
            )
        blk = self.get_block(block) if isinstance(block, str) else self.get_block(block.name)
        blk.annotations["tensorize"] = intrin
        self.trace.append(("tensorize", (blk.name, intrin)))

    # -- internal tree surgery ---------------------------------------------------------
    def _replace(self, old: Stmt, new: Stmt) -> None:
        body = _replace_node(self._func.body, old, new)
        if body is self._func.body and old is not new:
            raise ScheduleError("node to replace was not found in the program body")
        self._func = self._func.with_body(body)

    def _reacquire(self, loop_var: Var) -> ForLoop:
        for loop in self._func.loops():
            if loop.loop_var is loop_var:
                return loop
        raise ScheduleError(f"loop {loop_var.name!r} no longer exists")


# ---------------------------------------------------------------------------
# tree helpers
# ---------------------------------------------------------------------------

def _replace_node(stmt: Stmt, old: Stmt, new: Stmt) -> Stmt:
    if stmt is old:
        return new
    if isinstance(stmt, SeqStmt):
        replaced = [_replace_node(s, old, new) for s in stmt.stmts]
        if all(a is b for a, b in zip(replaced, stmt.stmts)):
            return stmt
        return SeqStmt(replaced)
    if isinstance(stmt, ForLoop):
        body = _replace_node(stmt.body, old, new)
        return stmt if body is stmt.body else stmt.with_body(body)
    if isinstance(stmt, Block):
        body = _replace_node(stmt.body, old, new)
        return stmt if body is stmt.body else stmt.with_body(body)
    if isinstance(stmt, IfThenElse):
        then_case = _replace_node(stmt.then_case, old, new)
        else_case = None if stmt.else_case is None else _replace_node(stmt.else_case, old, new)
        if then_case is stmt.then_case and else_case is stmt.else_case:
            return stmt
        return IfThenElse(stmt.condition, then_case, else_case)
    return stmt


def _path_to(stmt: Stmt, target: Stmt) -> Optional[List[Stmt]]:
    if stmt is target:
        return [stmt]
    children: Sequence[Stmt]
    if isinstance(stmt, SeqStmt):
        children = stmt.stmts
    elif isinstance(stmt, ForLoop):
        children = (stmt.body,)
    elif isinstance(stmt, Block):
        children = (stmt.body,)
    elif isinstance(stmt, IfThenElse):
        children = (stmt.then_case,) if stmt.else_case is None else (stmt.then_case, stmt.else_case)
    else:
        return None
    for child in children:
        sub = _path_to(child, target)
        if sub is not None:
            return [stmt] + sub
    return None


def _loop_chain(stmt: Stmt, wanted: set) -> Optional[List[ForLoop]]:
    """Find the perfectly nested chain containing exactly the wanted loops."""
    for node in _walk(stmt):
        if isinstance(node, ForLoop) and id(node) in wanted:
            chain = [node]
            cursor: Stmt = node.body
            while isinstance(cursor, ForLoop) and len(chain) < len(wanted):
                if id(cursor) not in wanted:
                    return None
                chain.append(cursor)
                cursor = cursor.body
            if len(chain) == len(wanted):
                return chain
            return None
    return None


def _walk(stmt: Stmt):
    yield stmt
    if isinstance(stmt, SeqStmt):
        for s in stmt.stmts:
            yield from _walk(s)
    elif isinstance(stmt, ForLoop):
        yield from _walk(stmt.body)
    elif isinstance(stmt, Block):
        yield from _walk(stmt.body)
    elif isinstance(stmt, IfThenElse):
        yield from _walk(stmt.then_case)
        if stmt.else_case is not None:
            yield from _walk(stmt.else_case)
