"""The stage-I sparse iteration construct.

A sparse iteration (``sp_iter`` in the paper) names an iteration space as an
ordered list of axes, tags every axis as spatial ("S") or reduction ("R"),
binds one iterator variable per axis, and contains a body of statements that
access sparse buffers in *coordinate space*.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence, Tuple, Union

from .axes import Axis
from .expr import Expr, Var
from .stmt import Stmt, substitute_stmt

ITER_SPATIAL = "S"
ITER_REDUCTION = "R"


class FusedAxisGroup:
    """Marker produced by :func:`fuse` for use inside a sparse iteration.

    The fused group keeps the original axes; sparse iteration lowering emits
    a single loop over the whole (flattened) non-zero space of the group,
    which is the behaviour of the ``sparse_fuse`` schedule in Section 3.2.2.
    """

    def __init__(self, axes: Sequence[Axis]):
        if len(axes) < 2:
            raise ValueError("fuse() requires at least two axes")
        self.axes = tuple(axes)

    @property
    def name(self) -> str:
        return "fused_" + "_".join(axis.name for axis in self.axes)

    def __repr__(self) -> str:
        return f"fuse({', '.join(axis.name for axis in self.axes)})"


def fuse(*axes: Axis) -> FusedAxisGroup:
    """Group axes so they are iterated by a single fused loop."""
    return FusedAxisGroup(axes)


AxisOrGroup = Union[Axis, FusedAxisGroup]


class SparseIteration(Stmt):
    """``with sp_iter([...], "SRS", name) as [...]`` — a stage-I construct."""

    def __init__(
        self,
        name: str,
        axes: Sequence[AxisOrGroup],
        kinds: str,
        iter_vars: Sequence[Var],
        body: Stmt,
        init: Optional[Stmt] = None,
    ):
        flat_axes = flatten_axes(axes)
        if len(kinds) != len(flat_axes):
            raise ValueError(
                f"sparse iteration {name!r}: {len(flat_axes)} axes but kinds string "
                f"{kinds!r} has length {len(kinds)}"
            )
        if any(k not in (ITER_SPATIAL, ITER_REDUCTION) for k in kinds):
            raise ValueError(f"sparse iteration {name!r}: kinds must contain only 'S'/'R'")
        if len(iter_vars) != len(flat_axes):
            raise ValueError(
                f"sparse iteration {name!r}: {len(flat_axes)} axes but "
                f"{len(iter_vars)} iterator variables"
            )
        self.name = name
        self.axes = tuple(axes)
        self.kinds = kinds
        self.iter_vars = tuple(iter_vars)
        self.body = body
        self.init = init

    # -- queries --------------------------------------------------------------
    @property
    def flat_axes(self) -> Tuple[Axis, ...]:
        """All axes with fused groups expanded, in order."""
        return tuple(flatten_axes(self.axes))

    def var_of(self, axis: Axis) -> Var:
        """Return the iterator variable bound to an axis."""
        for a, v in zip(self.flat_axes, self.iter_vars):
            if a is axis:
                return v
        raise KeyError(f"axis {axis.name!r} is not part of sparse iteration {self.name!r}")

    def kind_of(self, var: Var) -> str:
        for k, v in zip(self.kinds, self.iter_vars):
            if v is var:
                return k
        raise KeyError(f"{var!r} is not an iterator of sparse iteration {self.name!r}")

    def reduction_vars(self) -> List[Var]:
        return [v for k, v in zip(self.kinds, self.iter_vars) if k == ITER_REDUCTION]

    # -- rewriting --------------------------------------------------------------
    def with_body(self, body: Stmt, init: Optional[Stmt] = None) -> "SparseIteration":
        return SparseIteration(
            self.name, self.axes, self.kinds, self.iter_vars, body,
            init=init if init is not None else self.init,
        )

    def substitute(self, mapping: Mapping[Var, Expr]) -> "SparseIteration":
        body = substitute_stmt(self.body, mapping)
        init = None if self.init is None else substitute_stmt(self.init, mapping)
        return self.with_body(body, init)

    def __repr__(self) -> str:
        names = []
        for item in self.axes:
            names.append(item.name if isinstance(item, Axis) else repr(item))
        head = f"sp_iter([{', '.join(names)}], {self.kinds!r}, {self.name!r})"
        return head + f": {self.body!r}"


def flatten_axes(axes: Sequence[AxisOrGroup]) -> List[Axis]:
    """Expand fused groups into the flat list of member axes."""
    flat: List[Axis] = []
    for item in axes:
        if isinstance(item, FusedAxisGroup):
            flat.extend(item.axes)
        elif isinstance(item, Axis):
            flat.append(item)
        else:
            raise TypeError(f"expected Axis or FusedAxisGroup, got {type(item)}")
    return flat
