"""Pseudo-CUDA source emission for lowered programs.

The original SparseTIR emits CUDA C through TVM.  Without an NVIDIA toolchain
in this environment, code generation produces an equivalent, human-readable
CUDA-like listing: one ``__global__`` function per kernel launch group, with
thread-bound loops turned into ``blockIdx``/``threadIdx`` expressions and the
remaining loops kept as ``for`` statements.  The listing is used by tests and
documentation to check that scheduling decisions (thread bindings,
vectorisation, tensorisation) reach the backend, and by the performance model
as a structural description of the kernel.
"""

from __future__ import annotations

from typing import List

from ..core.expr import BinaryOp, BufferLoad, Call, Cast, Expr, FloatImm, IntImm, Not, Select, StringImm, Var
from ..core.codegen.fusion import launch_groups
from ..core.stmt import (
    AssertStmt,
    Block,
    BufferStore,
    Evaluate,
    ForLoop,
    IfThenElse,
    LetStmt,
    SeqStmt,
    Stmt,
    LOOP_THREAD_BINDING,
    LOOP_UNROLLED,
    LOOP_VECTORIZED,
)

_INDENT = "  "

_CTYPE = {
    "float64": "double",
    "float32": "float",
    "float16": "half",
    "int64": "int64_t",
    "int32": "int",
    "int16": "int16_t",
    "int8": "int8_t",
    "uint8": "uint8_t",
    "bool": "bool",
}


def cuda_source(kernel) -> str:
    """The CUDA-like listing of a compiled :class:`~repro.core.codegen.Kernel`."""
    func = kernel.func
    groups = launch_groups(func)
    chunks: List[str] = [f"// generated by repro (SparseTIR reproduction) from {func.name}"]
    params = ", ".join(
        f"{_CTYPE.get(fb.dtype, 'float')}* __restrict__ {fb.name}" for fb in func.flat_buffers
    )
    for index, group in enumerate(groups):
        name = f"{func.name}_kernel_{index}"
        lines = [f"__global__ void {name}({params}) {{"]
        lines.extend(_emit_stmt(group, 1))
        lines.append("}")
        chunks.append("\n".join(lines))
    return "\n\n".join(chunks) + "\n"


def _emit_stmt(stmt: Stmt, depth: int) -> List[str]:
    pad = _INDENT * depth
    if isinstance(stmt, SeqStmt):
        lines: List[str] = []
        for s in stmt.stmts:
            lines.extend(_emit_stmt(s, depth))
        return lines
    if isinstance(stmt, ForLoop):
        if stmt.kind == LOOP_THREAD_BINDING and stmt.thread_tag:
            var = _emit_expr(stmt.loop_var)
            lines = [f"{pad}const int {var} = {stmt.thread_tag};  // extent {_emit_expr(stmt.extent)}"]
            lines.extend(_emit_stmt(stmt.body, depth))
            return lines
        comment = ""
        if stmt.kind == LOOP_VECTORIZED:
            comment = "  // vectorized (float4)"
        elif stmt.kind == LOOP_UNROLLED:
            comment = "  // #pragma unroll"
        var = _emit_expr(stmt.loop_var)
        header = (
            f"{pad}for (int {var} = {_emit_expr(stmt.start)}; "
            f"{var} < {_emit_expr(stmt.start)} + {_emit_expr(stmt.extent)}; ++{var}) {{{comment}"
        )
        return [header] + _emit_stmt(stmt.body, depth + 1) + [f"{pad}}}"]
    if isinstance(stmt, Block):
        lines = [f"{pad}// block {stmt.name}"]
        for key, value in stmt.annotations.items():
            if key in ("tensorize", "rfactor", "cache_read", "cache_write"):
                lines.append(f"{pad}// {key}: {value}")
        if stmt.init is not None:
            lines.append(f"{pad}// init:")
            lines.extend(_emit_stmt(stmt.init, depth))
        lines.extend(_emit_stmt(stmt.body, depth))
        return lines
    if isinstance(stmt, BufferStore):
        target = f"{stmt.buffer.name}[{_emit_expr(stmt.indices[0])}]"
        return [f"{pad}{target} = {_emit_expr(stmt.value)};"]
    if isinstance(stmt, IfThenElse):
        lines = [f"{pad}if ({_emit_expr(stmt.condition)}) {{"]
        lines.extend(_emit_stmt(stmt.then_case, depth + 1))
        if stmt.else_case is not None:
            lines.append(f"{pad}}} else {{")
            lines.extend(_emit_stmt(stmt.else_case, depth + 1))
        lines.append(f"{pad}}}")
        return lines
    if isinstance(stmt, LetStmt):
        return [f"{pad}const int {stmt.var.name} = {_emit_expr(stmt.value)};"] + _emit_stmt(
            stmt.body, depth
        )
    if isinstance(stmt, AssertStmt):
        return [f"{pad}// assume: {_emit_expr(stmt.condition)}"] + _emit_stmt(stmt.body, depth)
    if isinstance(stmt, Evaluate):
        return [f"{pad}{_emit_expr(stmt.value)};"]
    return [f"{pad}// {stmt!r}"]


def _emit_expr(expr: Expr) -> str:
    if isinstance(expr, IntImm):
        return str(expr.value)
    if isinstance(expr, FloatImm):
        return f"{expr.value}f"
    if isinstance(expr, StringImm):
        return f'"{expr.value}"'
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, BufferLoad):
        return f"{expr.buffer.name}[{_emit_expr(expr.indices[0])}]"
    if isinstance(expr, BinaryOp):
        op = expr.op_name
        if op == "//":
            op = "/"
        if op in ("min", "max"):
            return f"{op}({_emit_expr(expr.a)}, {_emit_expr(expr.b)})"
        return f"({_emit_expr(expr.a)} {op} {_emit_expr(expr.b)})"
    if isinstance(expr, Not):
        return f"(!{_emit_expr(expr.a)})"
    if isinstance(expr, Select):
        return (
            f"({_emit_expr(expr.condition)} ? {_emit_expr(expr.true_value)} : "
            f"{_emit_expr(expr.false_value)})"
        )
    if isinstance(expr, Cast):
        return f"(({_CTYPE.get(expr.dtype, 'float')}){_emit_expr(expr.value)})"
    if isinstance(expr, Call):
        args = ", ".join(_emit_expr(a) for a in expr.args)
        return f"{expr.func}({args})"
    return repr(expr)
