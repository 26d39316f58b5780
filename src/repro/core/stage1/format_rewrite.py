"""Format decomposition (Section 3.2.1 and Appendix A).

``decompose_format`` rewrites a stage-I program so that the computation over
one sparse buffer is carried out over a list of *composable formats*: each
:class:`FormatRewriteRule` contributes a new set of axes, a new sparse buffer,
a generated data-copy iteration, and a rewritten compute iteration.  The
original compute iteration on the monolithic format is removed, which mirrors
Figure 5 of the paper.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..axes import Axis
from ..buffers import SparseBuffer
from ..expr import BufferLoad, Expr, Var, substitute, wrap
from ..program import STAGE_COORDINATE, PrimFunc
from ..sparse_iteration import ITER_SPATIAL, SparseIteration
from ..stmt import BufferStore, SeqStmt, Stmt, collect_buffer_loads, collect_buffer_stores, substitute_stmt


class FormatRewriteRule:
    """Description of one composable-format rewrite.

    Parameters
    ----------
    name:
        Suffix identifying the rewrite (e.g. ``"bsr_2"``); generated axes,
        buffers and iterations carry this suffix.
    new_axes:
        The axes describing the new format, in the order of the new buffer's
        dimensions.  Axes must carry concrete ``indptr``/``indices`` arrays if
        the decomposed program is to be executed.
    buffer_name:
        Name of the sparse buffer of the original program being rewritten
        (e.g. ``"A"``).
    original_axes:
        Names of the original buffer's axes covered by this rewrite, e.g.
        ``["I", "J"]``.
    axis_map:
        Mapping from each original axis name to the list of new axis names
        that jointly replace it, e.g. ``{"I": ["IO", "II"], "J": ["JO", "JI"]}``.
    idx_map:
        Affine map from original coordinates to new coordinates
        (``A[i, j] == A_new[idx_map(i, j)]``), taking one expression per
        original axis and returning one per new axis.
    inv_idx_map:
        Inverse affine map from new coordinates to original coordinates.
    dtype:
        Value dtype of the generated buffer (defaults to the original's).
    """

    def __init__(
        self,
        name: str,
        new_axes: Sequence[Axis],
        buffer_name: str,
        original_axes: Sequence[str],
        axis_map: Mapping[str, Sequence[str]],
        idx_map: Callable[..., Tuple[Expr, ...]],
        inv_idx_map: Callable[..., Tuple[Expr, ...]],
        dtype: Optional[str] = None,
    ):
        self.name = name
        self.new_axes = list(new_axes)
        self.buffer_name = buffer_name
        self.original_axes = list(original_axes)
        self.axis_map = {k: list(v) for k, v in axis_map.items()}
        self.idx_map = idx_map
        self.inv_idx_map = inv_idx_map
        self.dtype = dtype
        self._validate()

    def _validate(self) -> None:
        new_names = {axis.name for axis in self.new_axes}
        for original, targets in self.axis_map.items():
            if original not in self.original_axes:
                raise ValueError(
                    f"rule {self.name!r}: axis_map key {original!r} not in original_axes"
                )
            for target in targets:
                if target not in new_names:
                    raise ValueError(
                        f"rule {self.name!r}: axis_map target {target!r} is not a new axis"
                    )
        mapped = [t for targets in self.axis_map.values() for t in targets]
        if len(mapped) != len(set(mapped)):
            raise ValueError(f"rule {self.name!r}: a new axis is mapped from two original axes")

    def new_axis(self, name: str) -> Axis:
        for axis in self.new_axes:
            if axis.name == name:
                return axis
        raise KeyError(f"rule {self.name!r} has no new axis named {name!r}")

    def new_buffer_name(self) -> str:
        return f"{self.buffer_name}_{self.name}"


def decompose_format(
    func: PrimFunc,
    rules: Sequence[FormatRewriteRule],
    include_copy: bool = True,
) -> PrimFunc:
    """Apply format decomposition to every sparse iteration that uses the
    rewritten buffer.

    Format *conversion* is the special case of a single rule.  The generated
    program contains, per rule: one copy iteration (unless ``include_copy``
    is false, for the common pre-processed/stationary-matrix case) and one
    compute iteration specialised to the new format.  The original compute
    iteration over the monolithic format is removed.
    """
    if func.stage != STAGE_COORDINATE:
        raise ValueError("decompose_format operates on stage-I programs")
    if not rules:
        raise ValueError("decompose_format requires at least one rule")
    target_names = {rule.buffer_name for rule in rules}
    if len(target_names) != 1:
        raise ValueError("all rules passed to a single decompose_format call must "
                         "rewrite the same buffer")
    buffer_name = target_names.pop()
    original_buffer = func.buffer(buffer_name)

    new_axes: List[Axis] = list(func.axes)
    new_buffers: List[SparseBuffer] = list(func.buffers)
    copy_iterations: List[SparseIteration] = []
    compute_iterations: List[SparseIteration] = []
    removed: List[SparseIteration] = []

    generated: Dict[str, SparseBuffer] = {}
    for rule in rules:
        for axis in rule.new_axes:
            if not any(existing is axis for existing in new_axes):
                new_axes.append(axis)
        new_buffer = SparseBuffer(
            rule.new_buffer_name(), rule.new_axes, rule.dtype or original_buffer.dtype
        )
        generated[rule.name] = new_buffer
        new_buffers.append(new_buffer)
        if include_copy:
            copy_iterations.append(_make_copy_iteration(rule, original_buffer, new_buffer))

    for iteration in func.sparse_iterations():
        if not _uses_buffer(iteration, original_buffer):
            continue
        removed.append(iteration)
        for rule in rules:
            compute_iterations.append(
                _rewrite_compute_iteration(iteration, rule, original_buffer, generated[rule.name])
            )

    if not removed:
        raise ValueError(
            f"decompose_format: no sparse iteration uses buffer {buffer_name!r}"
        )

    kept = [it for it in func.sparse_iterations() if it not in removed]
    body_parts: List[Stmt] = list(copy_iterations) + kept + compute_iterations
    body: Stmt = SeqStmt(body_parts) if len(body_parts) > 1 else body_parts[0]
    result = PrimFunc(
        func.name,
        axes=new_axes,
        buffers=new_buffers,
        body=body,
        stage=STAGE_COORDINATE,
        aux_buffers=list(func.aux_buffers),
        attrs=dict(func.attrs),
    )
    result.attrs.setdefault("composable_formats", []).extend(rule.name for rule in rules)
    return result


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _uses_buffer(iteration: SparseIteration, buffer: SparseBuffer) -> bool:
    for load in collect_buffer_loads(iteration.body):
        if load.buffer is buffer:
            return True
    for store in collect_buffer_stores(iteration.body):
        if store.buffer is buffer:
            return True
    return False


def _make_copy_iteration(
    rule: FormatRewriteRule, original: SparseBuffer, new_buffer: SparseBuffer
) -> SparseIteration:
    """Generate ``A_new[...] = A[inv_idx_map(...)]`` over the new format."""
    iter_vars = tuple(Var(axis.name.lower() + "_cp", "int32") for axis in rule.new_axes)
    original_coords = rule.inv_idx_map(*iter_vars)
    if not isinstance(original_coords, tuple):
        original_coords = (original_coords,)
    original_coords = tuple(wrap(c) for c in original_coords)
    if len(original_coords) != len(original.axes):
        raise ValueError(
            f"rule {rule.name!r}: inv_idx_map returned {len(original_coords)} coordinates "
            f"but buffer {original.name!r} has {len(original.axes)} axes"
        )
    body = BufferStore(new_buffer, [wrap(v) for v in iter_vars], BufferLoad(original, original_coords))
    kinds = ITER_SPATIAL * len(rule.new_axes)
    return SparseIteration(
        f"copy_{rule.name}", tuple(rule.new_axes), kinds, iter_vars, body
    )


def _rewrite_compute_iteration(
    iteration: SparseIteration,
    rule: FormatRewriteRule,
    original: SparseBuffer,
    new_buffer: SparseBuffer,
) -> SparseIteration:
    """Rewrite one compute iteration for the new format."""
    # 1. Build the new axis list: replace every mapped original axis with its
    #    new axes (in place), keep the rest.
    old_flat = list(iteration.flat_axes)
    old_vars = list(iteration.iter_vars)
    old_kinds = list(iteration.kinds)

    new_axis_list: List[Axis] = []
    new_kinds: List[str] = []
    new_var_list: List[Var] = []
    # iterator variables for the new axes, created once per new axis name
    new_vars_by_name: Dict[str, Var] = {}
    mapped_old_vars: List[Var] = []

    for axis, var, kind in zip(old_flat, old_vars, old_kinds):
        if axis.name in rule.axis_map:
            mapped_old_vars.append(var)
            for target_name in rule.axis_map[axis.name]:
                target_axis = rule.new_axis(target_name)
                new_var = new_vars_by_name.setdefault(
                    target_name, Var(target_name.lower() + f"_{rule.name}", "int32")
                )
                new_axis_list.append(target_axis)
                new_kinds.append(kind)
                new_var_list.append(new_var)
        else:
            new_axis_list.append(axis)
            new_kinds.append(kind)
            new_var_list.append(var)

    # 2. Coordinates of the original (mapped) axes expressed with new vars,
    #    via the inverse index map.  The inverse map takes new coordinates in
    #    new-buffer axis order.
    inv_args = [wrap(new_vars_by_name[a.name]) if a.name in new_vars_by_name else wrap(0)
                for a in rule.new_axes]
    original_coords = rule.inv_idx_map(*inv_args)
    if not isinstance(original_coords, tuple):
        original_coords = (original_coords,)
    original_coords = tuple(wrap(c) for c in original_coords)

    # Substitution for every occurrence of the original iterator variables.
    substitution: Dict[Var, Expr] = {}
    for original_axis_name, coord in zip(rule.original_axes, original_coords):
        for axis, var in zip(old_flat, old_vars):
            if axis.name == original_axis_name:
                substitution[var] = coord

    # 3. Rewrite the body: loads/stores on the original buffer whose indices
    #    are exactly the mapped iteration variables become accesses of the new
    #    buffer with the new iteration variables; everything else goes through
    #    the coordinate substitution.
    new_buffer_indices = [wrap(new_vars_by_name.get(a.name, Var(a.name.lower(), "int32")))
                          for a in rule.new_axes]

    def rewrite_stmt(stmt: Stmt) -> Stmt:
        if isinstance(stmt, SeqStmt):
            return SeqStmt([rewrite_stmt(s) for s in stmt.stmts])
        if isinstance(stmt, BufferStore):
            value = _rewrite_expr(stmt.value)
            if stmt.buffer is original:
                return BufferStore(new_buffer, list(new_buffer_indices), value)
            return BufferStore(stmt.buffer, [_rewrite_expr(i) for i in stmt.indices], value)
        return substitute_stmt(stmt, substitution)

    def _rewrite_expr(expr: Expr) -> Expr:
        if isinstance(expr, BufferLoad) and expr.buffer is original:
            return BufferLoad(new_buffer, list(new_buffer_indices))
        if isinstance(expr, BufferLoad):
            return BufferLoad(expr.buffer, [_rewrite_expr(i) for i in expr.indices])
        from ..expr import BinaryOp, Call, Cast, Not, Select

        if isinstance(expr, BinaryOp):
            return type(expr)(_rewrite_expr(expr.a), _rewrite_expr(expr.b))
        if isinstance(expr, Not):
            return Not(_rewrite_expr(expr.a))
        if isinstance(expr, Select):
            return Select(_rewrite_expr(expr.condition), _rewrite_expr(expr.true_value), _rewrite_expr(expr.false_value))
        if isinstance(expr, Cast):
            return Cast(_rewrite_expr(expr.value), expr.dtype)
        if isinstance(expr, Call):
            return Call(expr.func, [_rewrite_expr(a) for a in expr.args], expr.dtype)
        return substitute(expr, substitution)

    new_body = rewrite_stmt(iteration.body)
    new_init = None if iteration.init is None else rewrite_stmt(iteration.init)
    return SparseIteration(
        f"{iteration.name}_{rule.name}",
        tuple(new_axis_list),
        "".join(new_kinds),
        tuple(new_var_list),
        new_body,
        init=new_init,
    )
