"""PrimFunc: the container for a SparseTIR program at any stage."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from .axes import Axis
from .buffers import FlatBuffer, SparseBuffer
from .sparse_iteration import SparseIteration
from .stmt import Block, ForLoop, SeqStmt, Stmt, find_blocks, find_loops, post_order_stmts

STAGE_COORDINATE = "stage-I"
STAGE_POSITION = "stage-II"
STAGE_LOOP = "stage-III"


class PrimFunc:
    """A single sparse tensor program.

    The ``stage`` attribute records which IR stage the body is in; composable
    transformations never change the stage, only the two lowering passes do
    (Figure 2 of the paper).
    """

    def __init__(
        self,
        name: str,
        axes: Sequence[Axis],
        buffers: Sequence[SparseBuffer],
        body: Stmt,
        stage: str = STAGE_COORDINATE,
        aux_buffers: Optional[Sequence[SparseBuffer]] = None,
        flat_buffers: Optional[Sequence[FlatBuffer]] = None,
        attrs: Optional[Dict[str, object]] = None,
    ):
        self.name = name
        self.axes: List[Axis] = list(axes)
        self.buffers: List[SparseBuffer] = list(buffers)
        self.aux_buffers: List[SparseBuffer] = list(aux_buffers or [])
        self.flat_buffers: List[FlatBuffer] = list(flat_buffers or [])
        self.body = body
        self.stage = stage
        self.attrs: Dict[str, object] = dict(attrs or {})

    # -- lookups ---------------------------------------------------------------
    def axis(self, name: str) -> Axis:
        for axis in self.axes:
            if axis.name == name:
                return axis
        raise KeyError(f"no axis named {name!r} in {self.name!r}")

    def buffer(self, name: str) -> SparseBuffer:
        for buf in self.buffers + self.aux_buffers:
            if buf.name == name:
                return buf
        raise KeyError(f"no buffer named {name!r} in {self.name!r}")

    def sparse_iterations(self) -> List[SparseIteration]:
        """All sparse iterations of a stage-I program, in program order."""
        return [s for s in post_order_stmts(self.body) if isinstance(s, SparseIteration)]

    def sparse_iteration(self, name: str) -> SparseIteration:
        for it in self.sparse_iterations():
            if it.name == name:
                return it
        raise KeyError(f"no sparse iteration named {name!r} in {self.name!r}")

    def blocks(self) -> List[Block]:
        """All blocks of a stage-II / stage-III program."""
        return find_blocks(self.body)

    def block(self, name: str) -> Block:
        for blk in self.blocks():
            if blk.name == name:
                return blk
        raise KeyError(f"no block named {name!r} in {self.name!r}")

    def loops(self) -> List[ForLoop]:
        return find_loops(self.body)

    # -- rewriting ---------------------------------------------------------------
    def with_body(self, body: Stmt, stage: Optional[str] = None) -> "PrimFunc":
        func = PrimFunc(
            self.name,
            list(self.axes),
            list(self.buffers),
            body,
            stage=stage or self.stage,
            aux_buffers=list(self.aux_buffers),
            flat_buffers=list(self.flat_buffers),
            attrs=dict(self.attrs),
        )
        return func

    def replace_sparse_iteration(self, old: SparseIteration, new: Stmt) -> "PrimFunc":
        """Return a new PrimFunc with *old* replaced by *new* in the body."""
        return self.with_body(_replace(self.body, old, new))

    def __repr__(self) -> str:
        return f"PrimFunc({self.name!r}, stage={self.stage!r})"

    def script(self) -> str:
        """Render a readable, Python-like listing of the program."""
        from .printer import primfunc_script

        return primfunc_script(self)


def _replace(stmt: Stmt, old: Stmt, new: Stmt) -> Stmt:
    if stmt is old:
        return new
    if isinstance(stmt, SeqStmt):
        return SeqStmt([_replace(s, old, new) for s in stmt.stmts])
    if isinstance(stmt, ForLoop):
        return stmt.with_body(_replace(stmt.body, old, new))
    if isinstance(stmt, Block):
        return stmt.with_body(_replace(stmt.body, old, new))
    return stmt
