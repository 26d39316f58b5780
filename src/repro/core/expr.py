"""Expression nodes of the SparseTIR-style intermediate representation.

The same expression language is shared by all three IR stages described in
the paper (coordinate-space, position-space and the loop-level stage).  The
nodes form a small, immutable AST; transformations build new trees instead
of mutating existing ones.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Mapping, Sequence, Tuple


class Expr:
    """Base class of every expression node."""

    dtype: str = "float32"

    # -- operator sugar ---------------------------------------------------
    def __add__(self, other: Any) -> "Expr":
        return Add(self, wrap(other))

    def __radd__(self, other: Any) -> "Expr":
        return Add(wrap(other), self)

    def __sub__(self, other: Any) -> "Expr":
        return Sub(self, wrap(other))

    def __rsub__(self, other: Any) -> "Expr":
        return Sub(wrap(other), self)

    def __mul__(self, other: Any) -> "Expr":
        return Mul(self, wrap(other))

    def __rmul__(self, other: Any) -> "Expr":
        return Mul(wrap(other), self)

    def __truediv__(self, other: Any) -> "Expr":
        return Div(self, wrap(other))

    def __rtruediv__(self, other: Any) -> "Expr":
        return Div(wrap(other), self)

    def __floordiv__(self, other: Any) -> "Expr":
        return FloorDiv(self, wrap(other))

    def __rfloordiv__(self, other: Any) -> "Expr":
        return FloorDiv(wrap(other), self)

    def __mod__(self, other: Any) -> "Expr":
        return FloorMod(self, wrap(other))

    def __rmod__(self, other: Any) -> "Expr":
        return FloorMod(wrap(other), self)

    def __neg__(self) -> "Expr":
        return Sub(IntImm(0) if self.dtype.startswith("int") else FloatImm(0.0), self)

    # Comparisons intentionally return expression nodes, so ``a < b`` can be
    # used inside IR conditions.  Equality of nodes is structural and exposed
    # through :func:`structural_equal` instead of ``==``.
    def __lt__(self, other: Any) -> "Expr":
        return LT(self, wrap(other))

    def __le__(self, other: Any) -> "Expr":
        return LE(self, wrap(other))

    def __gt__(self, other: Any) -> "Expr":
        return GT(self, wrap(other))

    def __ge__(self, other: Any) -> "Expr":
        return GE(self, wrap(other))

    def equal(self, other: Any) -> "Expr":
        return EQ(self, wrap(other))

    def not_equal(self, other: Any) -> "Expr":
        return NE(self, wrap(other))


def wrap(value: Any) -> Expr:
    """Wrap a Python scalar into an immediate expression node."""
    if isinstance(value, Expr):
        return value
    if isinstance(value, bool):
        return IntImm(int(value), dtype="bool")
    if isinstance(value, int):
        return IntImm(value)
    if isinstance(value, float):
        return FloatImm(value)
    raise TypeError(f"cannot convert {value!r} of type {type(value)} to an Expr")


@dataclass(frozen=True)
class Var(Expr):
    """A scalar variable (loop iterator, function parameter or symbol)."""

    name: str
    dtype: str = "int32"

    def __repr__(self) -> str:
        return self.name

    def __hash__(self) -> int:  # identity hashing: two vars with the same
        return id(self)         # name are distinct unless the same object.

    def __eq__(self, other: object) -> bool:
        return self is other


@dataclass(frozen=True)
class IntImm(Expr):
    """Integer immediate."""

    value: int
    dtype: str = "int32"

    def __repr__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class FloatImm(Expr):
    """Floating point immediate."""

    value: float
    dtype: str = "float32"

    def __repr__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True)
class StringImm(Expr):
    """String immediate, used for intrinsic arguments and annotations."""

    value: str
    dtype: str = "handle"

    def __repr__(self) -> str:
        return repr(self.value)


class BinaryOp(Expr):
    """Base class for binary arithmetic and comparison operations."""

    op_name: str = "?"
    py_op: Callable[[Any, Any], Any] = operator.add

    def __init__(self, a: Expr, b: Expr):
        self.a = wrap(a)
        self.b = wrap(b)
        self.dtype = self._result_dtype()

    def _result_dtype(self) -> str:
        if "float" in self.a.dtype or "float" in self.b.dtype:
            return "float32"
        return self.a.dtype

    def __repr__(self) -> str:
        return f"({self.a!r} {self.op_name} {self.b!r})"


class Add(BinaryOp):
    op_name = "+"
    py_op = operator.add


class Sub(BinaryOp):
    op_name = "-"
    py_op = operator.sub


class Mul(BinaryOp):
    op_name = "*"
    py_op = operator.mul


class Div(BinaryOp):
    op_name = "/"
    py_op = operator.truediv


class FloorDiv(BinaryOp):
    op_name = "//"
    py_op = operator.floordiv


class FloorMod(BinaryOp):
    op_name = "%"
    py_op = operator.mod


class Min(BinaryOp):
    op_name = "min"
    py_op = min

    def __repr__(self) -> str:
        return f"min({self.a!r}, {self.b!r})"


class Max(BinaryOp):
    op_name = "max"
    py_op = max

    def __repr__(self) -> str:
        return f"max({self.a!r}, {self.b!r})"


class CompareOp(BinaryOp):
    def _result_dtype(self) -> str:
        return "bool"


class LT(CompareOp):
    op_name = "<"
    py_op = operator.lt


class LE(CompareOp):
    op_name = "<="
    py_op = operator.le


class GT(CompareOp):
    op_name = ">"
    py_op = operator.gt


class GE(CompareOp):
    op_name = ">="
    py_op = operator.ge


class EQ(CompareOp):
    op_name = "=="
    py_op = operator.eq


class NE(CompareOp):
    op_name = "!="
    py_op = operator.ne


class And(CompareOp):
    op_name = "and"
    py_op = lambda a, b: bool(a) and bool(b)  # noqa: E731


class Or(CompareOp):
    op_name = "or"
    py_op = lambda a, b: bool(a) or bool(b)  # noqa: E731


class Not(Expr):
    """Logical negation."""

    def __init__(self, a: Expr):
        self.a = wrap(a)
        self.dtype = "bool"

    def __repr__(self) -> str:
        return f"(not {self.a!r})"


class Select(Expr):
    """Ternary select: ``condition ? true_value : false_value``."""

    def __init__(self, condition: Expr, true_value: Expr, false_value: Expr):
        self.condition = wrap(condition)
        self.true_value = wrap(true_value)
        self.false_value = wrap(false_value)
        self.dtype = self.true_value.dtype

    def __repr__(self) -> str:
        return f"select({self.condition!r}, {self.true_value!r}, {self.false_value!r})"


class Cast(Expr):
    """Explicit dtype conversion."""

    def __init__(self, value: Expr, dtype: str):
        self.value = wrap(value)
        self.dtype = dtype

    def __repr__(self) -> str:
        return f"cast[{self.dtype}]({self.value!r})"


#: The two structural intrinsics sparse iteration lowering introduces, by
#: :attr:`Call.func`: a coordinate -> position search of an axis row, and the
#: row of a position of a fused axis.  Every backend interprets them, so they
#: live beside :class:`Call` where all of them can reach.
BINARY_SEARCH = "sparse_coord_to_pos"
ROW_UPPER_BOUND = "sparse_row_of_position"


class Call(Expr):
    """Call to a named intrinsic (``binary_search``, ``mma_sync``, ...)."""

    def __init__(self, func: str, args: Sequence[Expr], dtype: str = "int32"):
        self.func = func
        self.args = tuple(wrap(a) for a in args)
        self.dtype = dtype

    def __repr__(self) -> str:
        args = ", ".join(repr(a) for a in self.args)
        return f"{self.func}({args})"


class BufferLoad(Expr):
    """Read one element of a (sparse or flat) buffer.

    At stage I the indices are coordinate-space expressions; after sparse
    iteration lowering they are position-space expressions; after sparse
    buffer lowering a single flat index remains.
    """

    def __init__(self, buffer: Any, indices: Sequence[Expr]):
        self.buffer = buffer
        self.indices = tuple(wrap(i) for i in indices)
        self.dtype = getattr(buffer, "dtype", "float32")

    def __repr__(self) -> str:
        idx = ", ".join(repr(i) for i in self.indices)
        return f"{self.buffer.name}[{idx}]"


# ---------------------------------------------------------------------------
# Functional helpers over expression trees
# ---------------------------------------------------------------------------

def children(expr: Expr) -> Tuple[Expr, ...]:
    """Return the direct sub-expressions of *expr*."""
    if isinstance(expr, BinaryOp):
        return (expr.a, expr.b)
    if isinstance(expr, Not):
        return (expr.a,)
    if isinstance(expr, Select):
        return (expr.condition, expr.true_value, expr.false_value)
    if isinstance(expr, Cast):
        return (expr.value,)
    if isinstance(expr, Call):
        return expr.args
    if isinstance(expr, BufferLoad):
        return expr.indices
    return ()


def post_order(expr: Expr) -> Iterable[Expr]:
    """Yield every node of the expression tree, children before parents."""
    for child in children(expr):
        yield from post_order(child)
    yield expr


def collect_vars(expr: Expr) -> Tuple[Var, ...]:
    """Return the variables appearing in *expr* (deduplicated, in order)."""
    seen: Dict[int, Var] = {}
    for node in post_order(expr):
        if isinstance(node, Var) and id(node) not in seen:
            seen[id(node)] = node
    return tuple(seen.values())


def substitute(expr: Expr, mapping: Mapping[Var, Expr]) -> Expr:
    """Return a copy of *expr* with variables replaced according to *mapping*."""
    if isinstance(expr, Var):
        return mapping.get(expr, expr)
    if isinstance(expr, (IntImm, FloatImm, StringImm)):
        return expr
    if isinstance(expr, BinaryOp):
        return type(expr)(substitute(expr.a, mapping), substitute(expr.b, mapping))
    if isinstance(expr, Not):
        return Not(substitute(expr.a, mapping))
    if isinstance(expr, Select):
        return Select(
            substitute(expr.condition, mapping),
            substitute(expr.true_value, mapping),
            substitute(expr.false_value, mapping),
        )
    if isinstance(expr, Cast):
        return Cast(substitute(expr.value, mapping), expr.dtype)
    if isinstance(expr, Call):
        return Call(expr.func, [substitute(a, mapping) for a in expr.args], expr.dtype)
    if isinstance(expr, BufferLoad):
        return BufferLoad(expr.buffer, [substitute(i, mapping) for i in expr.indices])
    raise TypeError(f"unsupported expression node {type(expr)}")


def structural_equal(a: Expr, b: Expr) -> bool:
    """Structural equality of two expression trees.

    Variables compare by identity (the same ``Var`` object), immediates by
    value, and composite nodes recursively.
    """
    if isinstance(a, Var) or isinstance(b, Var):
        return a is b
    if type(a) is not type(b):
        return False
    if isinstance(a, (IntImm, FloatImm, StringImm)):
        return a.value == b.value
    if isinstance(a, BufferLoad):
        if a.buffer is not b.buffer or len(a.indices) != len(b.indices):
            return False
        return all(structural_equal(x, y) for x, y in zip(a.indices, b.indices))
    if isinstance(a, Call):
        if a.func != b.func or len(a.args) != len(b.args):
            return False
        return all(structural_equal(x, y) for x, y in zip(a.args, b.args))
    kids_a, kids_b = children(a), children(b)
    if len(kids_a) != len(kids_b):
        return False
    return all(structural_equal(x, y) for x, y in zip(kids_a, kids_b))


def simplify(expr: Expr) -> Expr:
    """Constant-fold and apply trivial algebraic identities.

    This keeps the lowered IR readable (e.g. ``i * 1 + 0`` becomes ``i``) and
    speeds up interpretation a little; it is not a general simplifier.
    """
    if isinstance(expr, BinaryOp):
        a = simplify(expr.a)
        b = simplify(expr.b)
        if isinstance(a, (IntImm, FloatImm)) and isinstance(b, (IntImm, FloatImm)):
            value = type(expr).py_op(a.value, b.value)
            if isinstance(expr, CompareOp):
                return IntImm(int(value), dtype="bool")
            if isinstance(value, float) or "float" in expr.dtype:
                return FloatImm(float(value))
            return IntImm(int(value))
        if isinstance(expr, Add):
            if isinstance(a, IntImm) and a.value == 0:
                return b
            if isinstance(b, IntImm) and b.value == 0:
                return a
            if isinstance(a, FloatImm) and a.value == 0.0:
                return b
            if isinstance(b, FloatImm) and b.value == 0.0:
                return a
        if isinstance(expr, Sub) and isinstance(b, IntImm) and b.value == 0:
            return a
        if isinstance(expr, Mul):
            for x, y in ((a, b), (b, a)):
                if isinstance(x, IntImm) and x.value == 1:
                    return y
                if isinstance(x, IntImm) and x.value == 0:
                    return IntImm(0)
                if isinstance(x, FloatImm) and x.value == 1.0:
                    return y
        if isinstance(expr, (FloorDiv, Div)) and isinstance(b, IntImm) and b.value == 1:
            return a
        if isinstance(expr, FloorMod) and isinstance(b, IntImm) and b.value == 1:
            return IntImm(0)
        return type(expr)(a, b)
    if isinstance(expr, Select):
        cond = simplify(expr.condition)
        if isinstance(cond, IntImm):
            return simplify(expr.true_value if cond.value else expr.false_value)
        return Select(cond, simplify(expr.true_value), simplify(expr.false_value))
    if isinstance(expr, Cast):
        return Cast(simplify(expr.value), expr.dtype)
    if isinstance(expr, Call):
        return Call(expr.func, [simplify(a) for a in expr.args], expr.dtype)
    if isinstance(expr, BufferLoad):
        return BufferLoad(expr.buffer, [simplify(i) for i in expr.indices])
    if isinstance(expr, Not):
        a = simplify(expr.a)
        if isinstance(a, IntImm):
            return IntImm(int(not a.value), dtype="bool")
        return Not(a)
    return expr
