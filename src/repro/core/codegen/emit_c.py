"""Native stage-IV backend: compile a stage-III program as the loop nest it is.

The paper's stage III *is* a loop nest over ``indptr``/``indices``; C has no
need for the whole-array lanes the NumPy tier flattens it into.  This module
prints each ``ForLoop`` / ``Block`` / ``BufferStore`` / ``IfThenElse`` /
``LetStmt`` as the C construct it already is, in the scalar interpreter's own
order: an init pass over every nest, then a compute pass; an out-of-bounds or
structural-zero load evaluates to 0, such a store is dropped, a zero-trip
reduction loop runs no init.  Execution order *is* the oracle's order, so
bit-exactness holds by construction and the hazard analysis the lane model
needs is no precondition here.  The one place the order is relaxed is proven
first: the unchecked body of an innermost loop whose iterations
:func:`~repro.core.codegen.hazards.loop_independence` shows to touch distinct
elements is printed under ``#pragma omp simd`` — each element still sees the
serial sequence of operations, so the bits are the interpreter's.  The same
argument carries a *fused region*: consecutive nests that
:func:`~repro.core.codegen.hazards.fused_regions` proves row- and lane-aligned
run as one loop over rows with every output element in a fixed-width register
tile, and a ``local`` buffer only the region touches is that tile and nothing
else (``docs/runtime.md``, "Fused regions and ``local`` buffers"); and a lone
nest :func:`~repro.core.codegen.hazards.row_tile` accepts (dense ``gemm``)
steps ``TILE_ROWS`` rows through its reduction at once (``docs/runtime.md``,
"Row tiles").

* :func:`emit_c_source` returns ``(c_source, binding)``.  ``run(bufs, tabs,
  ipar, fpar)`` reads the value buffers (``bufs``), the program's auxiliary
  buffers and axis arrays in their own dtype (``tabs``) and every size — loop
  extents, buffer lengths, index-arithmetic constants — from ``ipar`` (float
  literals from ``fpar``).  The source contains **no sizes**: one compilation
  (one ``<key>.so``, named by :func:`artifact_key` of the text) serves every
  structure, shape and feature width of a program family.  ``binding``
  (:class:`NativeBinding`) names the arrays and scalars that fill the four
  blocks.
* The top-level passes that store nothing but ``+0`` into buffers no earlier
  pass reads or writes are called from a second entry, ``zero(bufs, tabs,
  ipar, fpar)``, in front of ``run``; ``binding.zero`` names what it fills,
  and a caller whose buffers arrive zeroed skips it (``docs/runtime.md``,
  "Binding contract").
* An access the index tables' facts prove in bounds is printed unchecked:
  positions of a variable axis lie below its ``indptr[-1]``, coordinates read
  from ``indices`` below the column count — an ELL axis's from ``-1``, and from
  0 inside the ``coordinate >= 0`` guard lowering puts on a padded slot — a
  table with a stated domain (hyb's ``rowmap``) inside it, dense affine
  indices within their extents.  The facts used travel in ``binding.facts``
  and ``load_native`` checks them once per binding (``docs/runtime.md``,
  "Binding contract").
* Three rewrites keep the checked semantics of every other access off the hot
  path without changing what is computed: a subexpression that reads no
  written buffer is materialised once, at the depth of its deepest loop
  variable; a reduction loop the init statements do not index runs them once
  (if its trip count is positive); the bounds guards of an innermost loop's
  operands are hoisted into one range test in front of it — an unchecked body
  when it holds, the checked body otherwise.
* Compiling, loading and calling the text is :mod:`~repro.core.codegen.native`,
  the load side, which never imports this module: a process that finds its
  kernels built does not bring the printer.  The names that lived here before
  that split (:func:`load_native`, :func:`compile_so`, ``CFLAGS``, ...) are
  re-exported, and stay *assignable* here: see the end of this file.

Arithmetic mirrors the interpreter's NumPy scalars (NEP-50 promotion with weak
Python literals, ``-ffp-contract=off``), except that integers are evaluated in
int64 throughout.  Constructs with no bit-exact C form — ``exp``/``tanh``/
``log`` (NumPy's routines are not libm's), boolean arithmetic, float floor
division — raise :class:`UnsupportedForC` and the kernel falls back to the
emitted NumPy tier, so the native tier is never a correctness risk.
"""

from __future__ import annotations

import contextlib
import math
import re
import sys
import types
from typing import (
    AbstractSet, Any, Dict, FrozenSet, Iterator, List, Mapping, NamedTuple, Optional, Sequence, Tuple,
)

import numpy as np

from ..axes import DenseVariableAxis, SparseVariableAxis
from ..buffers import _np_dtype
from .. import expr as ir
from .. import stmt as st
from ..expr import BINARY_SEARCH, ROW_UPPER_BOUND
from ..program import STAGE_LOOP, PrimFunc
from . import native
from .hazards import RowNest, affine_in, fused_regions, loop_independence, row_tile, sizes_only
from .native import (  # noqa: F401  (re-exported: they lived here before the load | emit split)
    _LIB_MEMO,
    _LINK_FLAGS,
    _MEMO_LOCK,
    CFLAGS,
    NATIVE_ENV_VAR,
    NATIVE_VERSION,
    NativeBinding,
    NativeBuildError,
    UnsupportedForEmission,
    artifact_key,
    compile_so,
    find_compiler,
    load_native,
    local_buffers,
    native_tag,
    toolchain_available,
)

#: Bytes of one register tile of a fused region: eight float32 or four float64
#: lanes, the two SSE registers GCC keeps an accumulator in at ``-O2`` (a wider
#: tile spills; ``docs/runtime.md`` has the measurements).  A constant of the
#: emitter, never a feature width: the text stays size-free.
TILE_BYTES = 32

#: Rows of a row tile: the compute pass of a nest :func:`row_tile` accepts runs
#: this many rows per reduction step, one lane loop updating them all (8 rows
#: measured no faster at ``-O2``; ``docs/dead-ends.md``).
TILE_ROWS = 4


class UnsupportedForC(UnsupportedForEmission):
    """The program contains a construct the C emitter cannot fix into code;
    callers treat the native tier as optional, like the emitted one."""


# -- ctype lattice -------------------------------------------------------------
#
# C expressions carry a static type mirroring the NEP-50 promotion of the
# interpreter's scalars: ``f64``/``f32``/``i64`` are strong (array elements,
# int32 ones widened on load), ``u8`` is boolean, ``ilit``/``flit`` are *weak*
# Python scalars (loop variables, literals, ``int()``/``float()`` casts, searched
# rows and positions) whose promotion defers to the other operand, like ``2``.

_CDECL = {
    "f64": "double", "f32": "float", "i64": "int64_t", "i32": "int32_t",
    "ilit": "int64_t", "flit": "double", "u8": "int",
}
_BUFFER_CTYPES = {"float64": "f64", "float32": "f32", "int64": "i64", "int32": "i32"}

_HEAVY = (ir.BufferLoad, ir.Call, ir.Select, ir.Mul, ir.Div, ir.FloorDiv, ir.FloorMod, ir.Min, ir.Max)


def _promote(a: str, b: str) -> str:
    """NEP-50 result type of a binary operation over the ctype lattice."""
    if a == b:
        return a
    pair = {a, b}
    if "u8" in pair:
        raise UnsupportedForC("boolean operand in arithmetic")
    if pair == {"ilit", "flit"}:
        return "flit"
    if "f64" in pair or pair == {"f32", "i64"} or pair == {"i64", "flit"}:
        # int64 does not fit float32; NumPy widens the pair to float64.
        return "f64"
    return "f32" if "f32" in pair else "i64"  # a strong type with a weak scalar


class _CVal(NamedTuple):
    """One emitted C expression: code, static ctype, validity condition.

    ``ok`` is a C condition that is false when evaluating the expression met a
    structural zero (a failed coordinate search), or ``None`` when it cannot.
    The code itself is always safe to evaluate.
    """

    code: str
    ctype: str
    ok: Optional[str] = None


class _Scope(NamedTuple):
    """A binding scope (function body, loop body, let body): its lines and the
    subexpressions already materialised in it, by structural key."""

    depth: int
    lines: List[str]
    temps: Dict[str, _CVal]


#: Names an emitted identifier must not collide with (buffer and loop-variable
#: names become C identifiers verbatim).
_C_RESERVED = {
    "auto", "break", "case", "char", "const", "continue", "default", "do",
    "double", "else", "enum", "extern", "float", "for", "goto", "if",
    "inline", "int", "long", "register", "restrict", "return", "short",
    "signed", "sizeof", "static", "struct", "switch", "typedef", "union",
    "unsigned", "void", "volatile", "while", "ip", "fp", "int32_t", "int64_t",
    "uint64_t", "sqrt", "sqrtf", "fabs", "fabsf", "llabs",
}

#: Includes, macros and helpers; a kernel's source carries the ones it uses.
_PRELUDE = {
    "libm": "#include <math.h>\n#include <stdlib.h>",
    # Zeroed scratch for the ``local`` buffers bufs[lo:hi], sizes in bytes.
    "_alloc": (
        "#include <stdlib.h>\n"
        "static int _alloc(void **bufs, const int64_t *bytes, int lo, int hi) {\n"
        "\tfor (int n = lo; n < hi; ++n)\n"
        "\t\tif (!(bufs[n] = calloc(bytes[n] > 0 ? bytes[n] : 1, 1))) return 0;\n"
        "\treturn 1;\n}"
    ),
    "_IN": "#define _IN(i, n) ((uint64_t)(i) < (uint64_t)(n))",
    "_IN2": "#define _IN2(i, j, n) (_IN(i, n) && _IN(j, n))",
    "_LD": "#define _LD(b, i, n) (_IN(i, n) ? (b)[i] : 0)",
    # searchsorted(indptr, p, side="right") - 1 through a per-position table.
    "_ROW": "#define _ROW(t, p, nnz, rows) ((p) < 0 ? -1 : (p) >= (nnz) ? (rows) : (t)[p])",
    # Python's floor division / modulo; NumPy's 0 on a zero divisor.
    "_fdiv": (
        "static inline int64_t _fdiv(int64_t a, int64_t b) {\n"
        "\treturn b == 0 ? 0 : b == -1 ? -a : a / b - ((a % b != 0) && ((a < 0) != (b < 0)));\n}"
    ),
    "_fmod": (
        "static inline int64_t _fmod(int64_t a, int64_t b) {\n"
        "\tint64_t r = (b == 0 || b == -1) ? 0 : a % b;\n"
        "\treturn (r != 0 && ((r < 0) != (b < 0))) ? r + b : r;\n}"
    ),
    # np.searchsorted(row, key) over row = idx[lo:hi], as a position in it.
    "_find": (
        "static inline int64_t _find(const int64_t *idx, int64_t lo, int64_t hi, int64_t key) {\n"
        "\tint64_t a = lo, b = hi;\n"
        "\twhile (a < b) {\n"
        "\t\tint64_t m = a + ((b - a) >> 1);\n"
        "\t\tif (idx[m] < key) a = m + 1; else b = m;\n"
        "\t}\n"
        "\treturn (a < hi && idx[a] == key) ? a - lo : -1;\n}"
    ),
}


def _and(*conds: Optional[str]) -> Optional[str]:
    present = [c for c in conds if c is not None]
    return " && ".join(present) if present else None


def _bare(code: str) -> str:
    """*code* without a redundant outermost pair of parentheses."""
    if code.startswith("(") and code.endswith(")"):
        depth = 0
        for pos, char in enumerate(code):
            depth += (char == "(") - (char == ")")
            if depth == 0 and pos < len(code) - 1:
                return code
        return code[1:-1]
    return code


def _indent(lines: List[str]) -> List[str]:
    return ["\t" + line for line in lines]  # deep nests: one byte a level


def _block(head: str, body: List[str]) -> List[str]:
    """``head { body }``, without the braces around a single statement (no
    caller follows a block with an ``else``, so none can dangle)."""
    one = body and not body[0].startswith("const ") and all(
        line.startswith("\t") or line == "}" for line in body[1:]
    )
    return [head[:-2], *_indent(body)] if one else [head, *_indent(body), "}"]


def _contains_init(stmt: st.Stmt) -> bool:
    return any(block.init is not None for block in st.find_blocks(stmt))


def _spelled(lit: ir.Expr) -> bool:  # 0, 1 and an integer -1 are printed, not passed in a slot
    return lit.value in (0, 1) or (lit.value == -1 and isinstance(lit, ir.IntImm))


def _is_one(expr: ir.Expr) -> bool:
    return isinstance(expr, ir.IntImm) and expr.value == 1


def _plus_zero(expr: ir.Expr) -> bool:
    """Whether *expr* is a literal stored as all-zero bytes: ``0`` or
    ``+0.0``, never ``-0.0``."""
    literal = isinstance(expr, (ir.IntImm, ir.FloatImm))
    return literal and expr.value == 0 and math.copysign(1.0, expr.value) > 0


class _CEmitter:
    """Prints a program as one C function per top-level nest and pass, called
    in the interpreter's order from ``run``.  Nests that differ only in their
    operands and sizes (the buckets of a hyb matrix, the relations of a fused
    RGCN layer) print the same text and share one function.  A fused region
    is one more function in front of its members' calls: ``run`` makes those
    only when the region's precondition fails.  A pass that only clears what
    no pass before it touches is called from a second entry, ``zero``."""

    def __init__(self, func: PrimFunc):
        if func.stage != STAGE_LOOP:
            raise ValueError(f"emit_c expects a stage-III program, got {func.stage}")
        self.func = func
        self.flat = {fb.name: fb for fb in func.flat_buffers}
        self.aux_names = {buf.name for buf in func.aux_buffers}
        self.axes = {axis.name: axis for axis in func.axes}
        self.bufs: List[str] = []
        self.tabs: List[Tuple[str, str]] = []
        self.ipar: List[int] = []
        self.fpar: List[float] = []
        self.prelude: set[str] = set()
        self.functions: Dict[Tuple[str, str], str] = {}  # (return type, text with placeholder names) -> C name
        self.definitions: List[str] = []
        self.serial: Dict[str, str] = {}  # "vectorize <loop>" / "fuse <nest>" -> why not
        self.loc: Dict[str, int] = {}  # local buffer -> its slot, in front of the operands'
        # The index tables whose invariants the binding checks: indptr table ->
        # (its class, the position count it bounds), where the tables of one
        # class (``J_indptr``, ``J_dense_indptr``) hold the same array; and
        # indices table of a sparse variable axis -> (its class, column count).
        variable = {a.name: a for a in func.axes if isinstance(a, (SparseVariableAxis, DenseVariableAxis))}
        self.indptr_of: Dict[str, Tuple[str, int]] = {}
        self.indices_of: Dict[str, Tuple[str, int]] = {}
        for name in variable:
            owner = name[: -len("_dense")] if name.endswith("_dense") and name[:-6] in variable else name
            table, home = f"{name}_indptr", f"{owner}_indptr"
            if table in self.aux_names:
                cls = home if home in self.aux_names else table
                self.indptr_of[table] = (cls, int(variable[owner].nnz_total()))
        for name, axis in variable.items():
            table, home = f"{name}_indices", self.indptr_of.get(f"{name}_indptr")
            if isinstance(axis, SparseVariableAxis) and table in self.aux_names and home is not None:
                self.indices_of[table] = (home[0], axis.length)
        # Every other table with a buffer domain (Figure 7) -> (its fact kind,
        # the domain): an ELL axis's indices lie in [-1, columns), -1 marking a
        # padded slot ("padded"), and a table the program states, like hyb's
        # rowmap, in [0, bound) ("indices", all of it).
        domains = func.attrs.get("buffer_domains", {})
        self.domain_of: Dict[str, Tuple[str, int, int]] = {
            name: ("padded" if lo == -1 else "indices", lo, hi)
            for name, (lo, hi) in domains.items()
            if name in self.aux_names and lo in (-1, 0)
            and name not in self.indptr_of and name not in self.indices_of
        }
        #: The facts a proof used, by ``(kind, table)``: ``(kind, table, bound,
        #: link)`` (see :class:`NativeBinding`), checked by ``load_native``.
        self.facts: Dict[Tuple[str, str], Tuple[str, str, int, str]] = {}

    def use_indptr(self, table: str) -> Tuple[str, int]:
        """``(class, position count)`` of an indptr table, whose facts the
        binding now checks (with its class's own table, which it must equal)."""
        cls, nnz = self.indptr_of[table]
        self.facts.setdefault(("indptr", cls), ("indptr", cls, nnz, ""))
        if table != cls:
            self.facts.setdefault(("indptr", table), ("indptr", table, nnz, cls))
        return cls, nnz

    def use_indices(self, table: str, everywhere: bool) -> int:
        """The column count of an indices table, whose values the binding now
        checks: below its class's ``indptr[-1]``, or *everywhere*."""
        cls, cols = self.indices_of[table]
        self.use_indptr(cls)
        held = self.facts.get(("indices", table))
        if held is None or (everywhere and held[3]):
            self.facts["indices", table] = ("indices", table, cols, "" if everywhere else cls)
        return cols

    def use_domain(self, table: str) -> Tuple[int, int]:
        """The domain ``[lo, hi)`` of a table with one, whose every entry the
        binding now checks to lie in it."""
        kind, lo, hi = self.domain_of[table]
        self.facts.setdefault((kind, table), (kind, table, hi, ""))
        return lo, hi

    def use_rows(self, table: str) -> int:
        """The row count of an indptr table the binding now checks to run
        from exactly 0 to its position count: every position then has a row."""
        _cls, nnz = self.use_indptr(table)
        self.facts.setdefault(("rows", table), ("rows", table, nnz, ""))
        return self.flat[table].size - 1

    def operand(self, kind: str, name: str) -> str:
        """The ``bufs[n]`` / ``tabs[n]`` slot of a value buffer or a table."""
        if kind == "buf" and name in self.loc:
            return f"bufs[{self.loc[name]}]"
        block, item = (self.bufs, name) if kind == "buf" else (self.tabs, (kind, name))
        if item not in block:
            block.append(item)
        offset = len(self.loc) if kind == "buf" else 0
        return f"{'bufs' if kind == 'buf' else 'tabs'}[{offset + block.index(item)}]"

    def emit(self) -> Tuple[str, NativeBinding]:
        body = self.func.body
        nests = body.stmts if isinstance(body, st.SeqStmt) else (body,)
        regions, declined = fused_regions(nests)
        self.serial.update(declined)
        regions = dict(regions)  # first nest -> members
        home = {first + n: first for first, members in regions.items() for n in range(len(members))}
        # A local buffer every access to which falls inside one region is
        # contracted: it lives in that region's tiles, and in memory only on
        # the region's fallback path.  The first slots of bufs[] are the local
        # buffers': the others first (run() allocates them up front), then each
        # region's own.
        local = local_buffers(self.func)
        where: Dict[str, set] = {name: set() for name in local}
        for k, nest in enumerate(nests if local else ()):
            for access in (*st.collect_buffer_stores(nest), *st.collect_buffer_loads(nest)):
                if access.buffer.name in where:
                    where[access.buffer.name].add(home.get(k, -1 - k))
        contracted = {name: min(at) for name, at in where.items() if len(at) == 1 and min(at) >= 0}
        order = [name for name in local if name not in contracted]
        shared, spans = len(order), {}
        for first in regions:
            lo = len(order)
            order += [name for name in local if contracted.get(name) == first]
            spans[first] = (lo, len(order))
        self.loc = {name: slot for slot, name in enumerate(order)}
        self.ipar += [self.flat[name].nbytes() for name in order]  # what _alloc reads
        run: List[str] = []
        zero: List[str] = []  # the passes that only clear, called from zero()
        cleared: Dict[str, None] = {}  # the buffers they clear
        # The buffers the passes kept in run() so far load or store, and store.
        touched: set = set()
        written: set = set()
        joined: Dict[int, List[str]] = {}  # a member's init call: made beside its compute call
        for mode in ("init", "compute"):  # the interpreter's two passes
            calls: List[str] = []
            clears: List[str] = []
            for k, nest in enumerate(nests):
                first = home.get(k)
                if first == k and mode == "compute":
                    members = regions[first]
                    kept = {name for name, at in contracted.items() if at == first}
                    region = self._emit_region(f"_r{list(regions).index(first)}", members, kept)
                    lo, hi = spans[first]
                    fallback = ["++rc;", *([_ALLOC.format(lo, hi)] if hi > lo else [])]
                walk = _Nest(self, nest)
                call = walk.emit(mode, always=first is None)
                stores = walk.stores
                if first is None and stores and all(stores.values()) and not (
                    stores.keys() & (touched | self.loc.keys()) or walk.loads & written
                ):  # it runs as well in front of every pass before it: from zero()
                    clears += call
                    cleared.update(dict.fromkeys(stores))
                    continue
                touched |= walk.loads | stores.keys()
                written |= stores.keys()
                if first is None:
                    calls += call
                elif mode == "init":
                    joined[k] = call
                else:
                    fallback += joined.pop(k, []) + call
                    if k == first + len(members) - 1:
                        calls += [f"if (!{region}) {{", *_indent(fallback), "}"]
            if clears:
                zero += [f"/* {mode} pass */", *clears]
            if calls:
                run += [f"/* {mode} pass */", *calls]
        tail = ["return 0;"]
        if regions or order:  # the regions that ran as serial nests, or -1: out of memory
            run = ["int rc = 0;", *([_ALLOC.format(0, shared)] if shared else []), *run]
            tail = ["return rc;"]
        if order:
            self.prelude.add("_alloc")
            tail = ["done:", f"for (int n = 0; n < {len(order)}; ++n) free(bufs[n]);", *tail]
        if self.prelude & {"_LD", "_IN2"}:
            self.prelude.add("_IN")
        lines = [
            f"/* {self.func.name!r}: its stage-III loop nests in the interpreter's order, sizes in ipar.",
            f" * Generated by repro.core.codegen.emit_c v{NATIVE_VERSION}; do not edit. */",
            "#include <stdint.h>",
            *(text for name, text in _PRELUDE.items() if name in self.prelude),
            *self.definitions,
            *(_ZERO + ["{", *_indent([*zero, "return 0;"]), "}"] if zero else []),
            f"int run(void **bufs, void **tabs, {_RUN_SCALARS})",
            "{",
            *_indent([*run, *tail]),
            "}",
        ]
        blocks = (
            self.bufs, self.tabs, self.ipar, self.fpar, self.serial.items(), self.facts.values(), cleared,
        )
        return "\n".join(lines) + "\n", NativeBinding(*map(tuple, blocks))

    def _emit_region(self, label: str, members: Sequence[RowNest], contracted: AbstractSet[str]) -> str:
        """Define the function *label* of a fused region; the call ``run`` tests.

        One loop over rows, one over tiles of ``TILE_BYTES``; per tile every
        member in program order (:meth:`_Nest.emit_member`) on tile arrays that
        stand for the buffers the region writes.  A tile is filled from its
        buffer first where a member may read what was there, and written back
        last; a *contracted* buffer has no memory — its tile starts as zeros
        and is never stored.  Each output element sees the serial sequence of
        operations.  The function returns 0, having stored nothing, when a
        member's range test fails or the lane extent is no multiple of the tile.
        """
        lead = members[0]
        strides = {member.name: member.stride for member in members}
        tiles = {name: f"t{n}" for n, name in enumerate(strides)}
        dtype = np.dtype(_np_dtype(lead.dtype))
        width = TILE_BYTES // dtype.itemsize
        # A tile starts from its buffer's content unless the first member to
        # touch the buffer overwrites every element whatever was there.
        seen: set = set()
        fresh = set()
        for member in members:
            reads = {loaded for loaded, _stride in member.loads}
            if member.plain and member.name not in seen | reads:
                fresh.add(member.name)
            seen |= reads | {member.name}

        def spill(name: str, way: str) -> RowNest:
            """The member that fills the tile of buffer *name* from memory
            (``"in"``) or with zeros, or writes it back (``"out"``)."""
            flat, row, lane = self.flat[name], ir.Var("row"), ir.Var("lane")
            index = ir.Add(ir.Mul(row, ir.IntImm(strides[name])), lane)
            value: ir.Expr = ir.BufferLoad(flat, [index])
            if way == "zero":
                value = ir.FloatImm(0.0) if "float" in flat.dtype else ir.IntImm(0)
            copy = st.ForLoop(lane, 0, lead.feature.extent, st.BufferStore(flat, [index], value))
            nest = st.ForLoop(row, 0, lead.loop.extent, copy)
            return RowNest(nest, copy, name, strides[name], flat.dtype, (), False, True, False)

        ways = [(name, "zero" if name in contracted else "in") for name in strides if name not in fresh]
        steps = [(spill(name, way), (name, way)) for name, way in ways]
        steps += [(member, None) for member in members]
        steps += [(spill(name, "out"), (name, "out")) for name in strides if name not in contracted]
        calls, checks = [], []
        for member, memory in steps:
            call, check = _Nest(self, member.loop).emit_member(member, tiles, width, memory)
            calls.append(f"{call};")
            checks += [check] if check else []
        rows, lanes = (f"ipar[{len(self.ipar) + n}]" for n in (0, 1))
        self.ipar += [int(lead.loop.extent.value), int(lead.feature.extent.value)]
        arrays = ", ".join(f"{tile}[{width}]" for tile in tiles.values())
        body = [
            f"if (!({' && '.join(dict.fromkeys([f'{lanes} % {width} == 0', *checks]))})) return 0;",
            f"for (int64_t row = 0; row < {rows}; ++row)",
            f"\tfor (int64_t start = 0; start < {lanes}; start += {width}) {{",
            *_indent(_indent([f"{_CDECL[_BUFFER_CTYPES[str(dtype)]]} {arrays};", *calls])),
            "\t}",
            "return 1;",
        ]
        # It names its operands like run(), from run()'s blocks.
        head = f"static int {label}(void **bufs, void **tabs, {_RUN_SCALARS})"
        self.definitions.append("\n".join([head, "{", *_indent(body), "}"]))
        return f"{label}(bufs, tabs, ipar, fpar)"


def _lower_bounds(cond: ir.Expr) -> List[Tuple[ir.BufferLoad, int]]:
    """``(load, lo)`` per conjunct ``load >= lo`` of *cond* (a literal *lo*)."""
    if isinstance(cond, ir.And):
        return _lower_bounds(cond.a) + _lower_bounds(cond.b)
    if isinstance(cond, ir.GE) and isinstance(cond.a, ir.BufferLoad) and isinstance(cond.b, ir.IntImm):
        return [(cond.a, int(cond.b.value))]
    return []


_PLACEHOLDER = re.compile(r"__(\d+)__")
_RUN_SCALARS = "const int64_t *ipar, const double *fpar"
_ZERO = [
    "/* The passes that store nothing but +0 where no pass before them reads or writes:",
    " * called in front of run(), and skipped by a caller whose buffers arrive zeroed. */",
    f"int zero(void **bufs, void **tabs, {_RUN_SCALARS})",
]
_ALLOC = "if (!_alloc(bufs, ipar, {}, {})) {{ rc = -1; goto done; }}"

_Span = Tuple[ir.Expr, ir.Expr]  # the first and the last value a loop variable takes
_Test = Tuple[str, List[ir.Expr], "_Scope"]  # a range test: its key, the two ends, where they are bound

#: Past this magnitude an interval end is no proof: int64 arithmetic could wrap.
_FINITE = 2**62


class _Rng(NamedTuple):
    """What the binding's facts prove about an integer expression: each value
    it takes lies in ``[lo, hi]``, and where ``lo > hi`` the code is never
    reached.  ``tag`` marks the two halves of a position of a variable axis
    and the position itself: ``("start", class, x)`` is ``indptr[x]``,
    ``("step", class, x)`` a loop variable below ``indptr[x + 1] - indptr[x]``
    and ``("pos", class)`` their sum, which lies in ``[0, indptr[-1])``."""

    lo: int
    hi: int
    tag: Optional[Tuple[str, ...]] = None

    @property
    def empty(self) -> bool:
        return self.lo > self.hi


class _Region:
    """What the walk of a member of a fused region knows beyond that of a nest."""

    def __init__(
        self, tiles: Mapping[str, str], feature: st.ForLoop, width: int, start: str,
        whole: _Span, tile: _Span, memory: Optional[Tuple[str, str]],
    ):
        self.tiles = tiles  # buffer the region writes -> its tile array in the region's function
        self.feature = feature  # the member's lane loop
        self.width = width  # lanes of a tile
        self.start = start  # placeholder of the first lane of the tile being computed
        self.whole, self.tile = whole, tile  # a lane variable's span: over the region, over that tile
        #: ``(buffer, "in" | "out")`` when the member fills the buffer's tile
        #: from memory or writes it back: that access is the one to memory.
        self.memory = memory
        self.lane = ""  # C name of the lane loop being walked
        #: Row and dense reduction variables in scope -> their span; the
        #: accesses a test in front of the region proves in bounds, the scope
        #: those tests are bound in (they read sizes only) and their names.
        self.box: Dict[ir.Var, _Span] = {}
        self.granted: set = set()
        self.check = _Scope(0, [], {})
        self.pre: List[str] = []


class _Nest:
    """Walks one top-level nest in one pass and prints it as a C function.

    Every name taken from the program (buffers, tables, loop variables) is
    printed as a placeholder and every scalar as ``ip[n]`` / ``fp[n]`` of the
    nest's own segment, so the text depends on the structure alone; the first
    nest to print a text lends the function its names.
    """

    def __init__(self, program: _CEmitter, nest: st.Stmt):
        self.program = program
        self.nest = nest
        #: Buffers the nest stores to; loads from any other buffer are
        #: invariant while it runs and may be materialised anywhere in it.
        self.written = {s.buffer.name for s in st.collect_buffer_stores(nest)}
        self._syms: Dict[Any, str] = {}
        self._names: List[str] = []
        self._params: List[Tuple[str, str]] = []  # (declaration, run()'s operand)
        self._ipar: List[int] = []
        self._fpar: List[float] = []
        self._slots: Dict[Any, Tuple[str, Any]] = {}
        self._counter = 0
        self._info_memo: Dict[int, Tuple[Any, ...]] = {}
        self._vars: Dict[ir.Var, Tuple[_CVal, _Scope]] = {}
        #: The function-body scope, and the scope expressions are emitted for
        #: (the innermost open one, or the target of a hoist in progress).
        self._top = self._home = _Scope(0, [], {})
        #: Where statements go, and the lines an expression needs in front of
        #: it (for a hoisted one: its scope's).
        self._sink = self._here = self._top.lines
        #: Accesses ``(buffer, index key)`` the enclosing range test proved in
        #: bounds (the unchecked body), and the log the checked walk of a loop
        #: keeps for building that test (replaced once a nested loop is met).
        self._proven: FrozenSet[Tuple[str, str]] = frozenset()
        self._accesses: Optional[List[Tuple[str, ir.Expr]]] = None
        self._scalars: Optional[List[Tuple[str, str]]] = None  # (declaration, run()'s argument)
        self._region: Optional[_Region] = None  # set by emit_member only
        #: What the binding's facts prove of each variable in scope.
        self._ranges: Dict[ir.Var, _Rng] = {}
        #: Walking a reduction's init: its stores keep their guards.
        self._init = False
        #: Table loads a condition in scope bounds below: structural key ->
        #: (the bound, the depth of the branch it holds in).  An expression
        #: materialised further out than that branch is proven without it.
        self._floors: Dict[str, Tuple[int, int]] = {}
        #: Accesses printed without a guard on the binding's facts, so far.
        self._unguarded = 0
        #: Innermost loops printed as an unchecked SIMD loop, so far; and the
        #: lane loop of a row tile, whose independence is its rows' and lanes'.
        self._simd: List[st.ForLoop] = []
        self._jam: Optional[st.ForLoop] = None
        #: What the pass printed touches: the buffers it loads from, and per
        #: buffer it stores to, whether every such store is a literal ``+0``.
        self.loads: set = set()
        self.stores: Dict[str, bool] = {}

    def emit(self, mode: str, always: bool = False) -> List[str]:
        """Define the nest's function for *mode* (unless an identical one
        exists); the call ``run`` makes, or nothing for an empty pass.  The
        compute pass of a nest ``run`` *always* calls is printed in row tiles
        where :func:`row_tile` allows it (:meth:`_emit_row_tile`)."""
        tile = row_tile(self.nest) if always and mode == "compute" else None
        # A schedule's vectorize request on the row loop is answered by its walk.
        if tile is None or tile[0].loop.kind == st.LOOP_VECTORIZED or not self._emit_row_tile(*tile):
            self._walk(self.nest, mode)
        return [f"{self._define('void', self._top.lines)};"] if self._top.lines else []

    def _emit_row_tile(self, form: RowNest, reduction: st.ForLoop) -> bool:
        """The compute pass of *form* as ``TILE_ROWS`` rows per iteration of
        its row loop, whose one *reduction* loop steps every row of the tile
        in one SIMD lane loop (an unroll-and-jam); the rows left over run the
        nest's own body.  Each element sees the serial sequence of operations
        (:func:`row_tile`), so the bits are the interpreter's.  Prints nothing
        and returns ``False`` unless the lane loop prints as an unchecked SIMD
        loop, which the tile's lane loop then is too: its rows' accesses are
        the same, at rows of the same range.
        """
        nest, row, lanes = form.loop, form.loop.loop_var, form.feature
        var, rng = self._cname(row), self._loop_range(nest)
        rows = self._slot(id(nest.extent), int(nest.extent.value), nest.extent)
        simd = len(self._simd)
        rest = self._scoped(row, _CVal(var, "ilit"), nest.body, "compute", rng)
        if lanes not in self._simd[simd:]:
            return False
        store = lanes.body.body if isinstance(lanes.body, st.Block) else lanes.body
        copies = [ir.Var(f"{row.name}{r}") for r in range(TILE_ROWS)]
        self._jam = st.ForLoop(
            lanes.loop_var, lanes.start, lanes.extent,
            st.SeqStmt([st.substitute_stmt(store, {row: copy}) for copy in copies]),
        )
        step = st.ForLoop(reduction.loop_var, reduction.start, reduction.extent, self._jam)
        values = {copy: _CVal(f"({var} + {r})" if r else var, "ilit") for r, copy in enumerate(copies)}
        with self._open_scope(values, dict.fromkeys(copies, rng)) as tile:
            self._emit_loop(step, "compute")
        self._jam, last = None, self._fresh()
        self._sink.extend([
            f"int64_t {var} = 0;",
            *_block(f"for (const int64_t {last} = {rows} - {TILE_ROWS - 1}; {var} < {last}; {var} += {TILE_ROWS}) {{", tile),
            *_block(f"for (; {var} < {rows}; ++{var}) {{", rest),
        ])
        return True

    def emit_member(
        self, member: RowNest, tiles: Mapping[str, str], width: int, memory: Optional[Tuple[str, str]]
    ) -> Tuple[str, Optional[str]]:
        """Define a member of a fused region as a function of one row and one
        tile: its init, then its reduction loops around a constant-trip lane
        loop on the tile arrays (*tiles*: buffer the region writes -> that array
        in the region's function).  Returns its call and the call of its range
        test, a function of the sizes alone that the region makes in front of
        its loops (``None`` when the member has nothing to test there).
        """
        row, start = self._sym(member.loop.loop_var, "row"), self._sym("start", "start")
        self._params += [(f"int64_t {row}", "row"), (f"int64_t {start}", "start")]
        rows, lanes = (
            self._slot(id(loop.extent), int(loop.extent.value), loop.extent)
            for loop in (member.loop, member.feature)
        )
        first, last = ir.Var("first"), ir.Var("last")
        region = self._region = _Region(
            tiles, member.feature, width, start,
            (ir.IntImm(0), self._last(lanes, self._top)), (first, last), memory,
        )
        region.box[member.loop.loop_var] = (ir.IntImm(0), self._last(rows, self._top))
        ends = {first: _CVal(start, "ilit"), last: _CVal(f"({start} + {width - 1})", "ilit")}
        ranges = {member.loop.loop_var: self._loop_range(member.loop)}
        with self._open_scope({member.loop.loop_var: _CVal(row, "ilit"), **ends}, ranges) as lines:
            if member.init:
                self._walk(member.loop.body, "init")
            self._walk(member.loop.body, "compute")
        self._top.lines.extend(lines)
        # Element-wise members are what the region wants inlined (CFLAGS leave
        # that to the keyword); one with reduction loops is shared by its calls.
        call = self._define("inline void" if member.plain else "void", self._top.lines)
        if not region.pre:
            return call, None
        holds = " && ".join(dict.fromkeys(region.pre))
        return call, self._define("int", [*region.check.lines, f"return {holds};"], operands=False)

    def _tile(self, name: str, way: str) -> Optional[str]:
        """The tile element standing for an access to buffer *name* at the
        member's own element, inside a region that writes the buffer."""
        region = self._region
        if region is None or name not in region.tiles or region.memory == (name, way):
            return None
        key = ("tile", name)
        if key not in self._syms:
            # The region's tile array, by pointer.  ``restrict`` is what lets the
            # compiler keep an accumulator in registers across the reduction
            # loops, and true: nothing else in the member points into that array.
            decl = "const {} *{}" if name not in self.written else "{} *restrict {}"
            decl = decl.format(_CDECL[self._ctype(name)], self._sym(key, f"{name}_t"))
            self._params.append((decl, region.tiles[name]))
        return f"{self._syms[key]}[{region.lane}]"

    def _emit_lanes(self, loop: st.ForLoop, mode: str) -> None:
        """A lane loop of a region: a constant-trip SIMD loop over one tile.

        An access that is affine in the lane, row and dense reduction
        variables is tested once in front of the region, at the two corners of
        that box; one whose index depends on data (a gathered row) per tile,
        with the checked body beside the unchecked one.  A loop that only moves
        a tile (or fills it with a constant) carries no pragma: the compiler
        makes it one 32-byte move and would report no vectorised loop for it.
        """
        region = self._region
        lane = region.lane = self._cname(loop.loop_var)
        value = _CVal(f"({region.start} + {lane})", "ilit")
        head = f"for (int64_t {lane} = 0; {lane} < {region.width}; ++{lane}) {{"

        lanes = self._loop_range(loop)  # the region runs only when the tiles cover them exactly

        def body() -> List[str]:
            return _block(head, self._scoped(loop.loop_var, value, loop.body, mode, lanes))

        log: List[Tuple[str, ir.Expr]] = []
        self._accesses = log
        checked = body()
        self._accesses = None
        found: Dict[Tuple[str, str], _Test] = {}
        for array, index in log:
            key, _pure, free, _heavy = self._info(index)
            if (array, key) in found or (array, key) in region.granted:
                continue
            box = {var: span for var, span in region.box.items() if var in free}
            body_top, self._top = self._top, region.check
            test = self._range_test(array, index, {loop.loop_var: region.whole, **box})
            # Made in front of the region, a test may read nothing but sizes.
            sizes = test is not None and test[2] is region.check and not any(
                isinstance(node, ir.BufferLoad) for end in test[1] for node in ir.post_order(end)
            )  # (its variables, the spans' last values, are sizes)
            proved = self._emit_tests({(array, key): test}) if sizes else {}
            self._top = body_top
            if proved:
                region.granted.add((array, key))
                region.pre += proved.values()
                continue
            test = self._range_test(array, index, {loop.loop_var: region.tile})
            if test is not None:
                found[array, key] = test
        tests = self._emit_tests(found)
        saved, self._proven = self._proven, self._proven | region.granted | frozenset(tests)
        stmt = loop.body
        if isinstance(stmt, st.Block):
            stmt = stmt.body if mode == "compute" else stmt.init
        moves = isinstance(stmt, st.BufferStore) and isinstance(stmt.value, (ir.BufferLoad, ir.IntImm, ir.FloatImm))
        fast = [*([] if moves else ["#pragma omp simd"]), *body()]
        self._proven = saved
        if tests:
            holds = " && ".join(dict.fromkeys(tests.values()))
            fast = [f"if ({holds}) {{", *_indent(fast), "} else {", *_indent(checked), "}"]
        self._sink.extend(fast)

    def _define(self, returns: str, lines: List[str], operands: bool = True) -> str:
        """Define a function of body *lines* (unless an identical one exists)
        over the nest's operands and scalars, or its scalars alone; its call."""
        program = self.program
        if self._scalars is None:  # the nest's segments of the scalar blocks
            self._scalars = []
            for block, local, param, base in (
                (program.ipar, self._ipar, "const int64_t *ip", "ipar"),
                (program.fpar, self._fpar, "const double *fp", "fpar"),
            ):
                if local:
                    self._scalars.append((param, f"{base} + {len(block)}" if block else base))
                    block.extend(local)
        pairs = [*(self._params if operands else ()), *self._scalars]
        params, args = [param for param, _arg in pairs], [arg for _param, arg in pairs]
        text = "\n".join([f"({', '.join(params)})", "{", *_indent(lines), "}"])
        name = program.functions.get((returns, text))
        if name is None:
            name = program.functions[returns, text] = f"_k{len(program.functions)}"
            named = _PLACEHOLDER.sub(lambda m: self._names[int(m.group(1))], text)
            program.definitions.append(f"static {returns} {name}{named}")
        return f"{name}({', '.join(args)})"

    # -- registration ----------------------------------------------------------
    def _fresh(self) -> str:
        self._counter += 1
        return f"_t{self._counter}"

    def _sym(self, key: Any, name: str) -> str:
        """The placeholder of a program name (*name* when it can be printed)."""
        if key not in self._syms:
            self._syms[key] = f"__{len(self._names)}__"
            if name in _C_RESERVED or not name.isidentifier() or name.startswith("_"):
                name = f"v{len(self._names)}"
            while name in self._names:
                name += "_"
            self._names.append(name)
        return self._syms[key]

    def _slot(self, key: Any, value: Any, node: Any = None) -> str:
        """The ``ip[n]`` / ``fp[n]`` reference carrying *value*: one slot per
        role, never per value (equal sizes must not merge in the text)."""
        if key not in self._slots:
            block, name = (self._fpar, "fp") if isinstance(value, float) else (self._ipar, "ip")
            self._slots[key] = (f"{name}[{len(block)}]", node)  # pins a literal keyed by id
            block.append(value)
        return self._slots[key][0]

    def _use(self, helper: str) -> str:
        self.program.prelude.add(helper)
        return helper

    def _operand(self, kind: str, name: str, label: str, decl: str) -> str:
        new = (kind, name) not in self._syms
        token = self._sym((kind, name), label)
        if new:
            const = "" if kind == "buf" and name in self.written else "const "
            self._params.append((f"{const}{decl} *{token}", self.program.operand(kind, name)))
        return token

    def _ctype(self, name: str) -> str:
        flat = self.program.flat.get(name)
        if flat is None:
            raise UnsupportedForC(f"access to unknown flat buffer {name!r}")
        ct = _BUFFER_CTYPES.get(str(np.dtype(_np_dtype(flat.dtype))))
        if ct is None:
            raise UnsupportedForC(f"buffer {name!r} has unsupported dtype {flat.dtype!r}")
        return ct

    def _buffer(self, name: str) -> Tuple[str, str, str]:
        """``(placeholder, element ctype, size reference)`` of a flat buffer."""
        ct = self._ctype(name)
        kind = "aux" if name in self.program.aux_names else "buf"
        size = self._slot(("size", name), int(self.program.flat[name].size))
        return self._operand(kind, name, name, _CDECL[ct]), ct, size

    def _table(self, kind: str, axis: str) -> str:
        decl = "int32_t" if kind == "rowof" else "int64_t"
        return self._operand(kind, axis, f"{axis}_{kind}", decl)

    def _cname(self, var: ir.Var) -> str:
        return self._sym(var, var.name.removesuffix("_it_p"))  # the lowering's suffix

    # -- expression analysis ---------------------------------------------------
    def _info(self, expr: ir.Expr, index_of: str = "") -> Tuple[str, bool, FrozenSet[ir.Var], bool]:
        """``(structural key, pure, free variables, heavy)`` of an expression.

        *Pure* means it loads from no written buffer, so its value depends on
        its variables alone; *heavy* that the node itself (a load, a call, a
        multiplication or division, a choice) is worth a temporary.  A literal
        is keyed by node (sizes that happen to be equal must not change the
        text), but a stride in an index of buffer *index_of* by value: a load
        and a store of one element stay one expression.
        """
        memo = self._info_memo.get(id(expr))
        if memo is not None:
            return memo[1:]
        if isinstance(expr, ir.Var):
            info = (f"${id(expr)}", True, frozenset((expr,)), False)
        elif isinstance(expr, (ir.IntImm, ir.FloatImm)):
            stride = index_of and isinstance(expr, ir.IntImm)
            key = f"{index_of}:{expr.value}" if stride else f"#{id(expr)}"
            info = (repr(expr.value) if _spelled(expr) else key, True, frozenset(), False)
        else:
            load = expr.buffer.name if isinstance(expr, ir.BufferLoad) else ""
            kids = [self._info(kid, load or index_of) for kid in ir.children(expr)]
            pure = all(kid[1] for kid in kids)
            if load:
                head, pure = load, pure and load not in self.written
            elif isinstance(expr, (ir.Call, ir.Cast)):
                head = f"{getattr(expr, 'func', 'cast')}:{expr.dtype}"
            else:
                head = type(expr).__name__ if kids else repr(expr)
            info = (
                f"{head}({','.join(kid[0] for kid in kids)})",
                pure,
                frozenset().union(*(kid[2] for kid in kids)),
                isinstance(expr, _HEAVY),
            )
        self._info_memo[id(expr)] = (expr, *info)  # the reference pins the id
        return info

    # -- what the binding's facts prove ----------------------------------------
    def _in_bounds(self, name: str, index: ir.Expr) -> bool:
        """Whether every value *index* takes addresses an element of buffer
        *name*, given the index tables' facts (``load_native`` checks them
        once per binding, and per call for a fed table).  The facts a failed
        proof consulted are not required of the binding."""
        facts = dict(self.program.facts)
        at = self._range(index)
        if at is None or not (at.empty or (at.lo >= 0 and at.hi < self.program.flat[name].size)):
            self.program.facts = facts
            return False
        self._unguarded += 1
        return True

    def _range(self, expr: ir.Expr) -> Optional[_Rng]:
        """The values an integer expression takes, as far as the loops in scope
        and the index tables' facts prove them (``None``: nothing proven)."""
        if isinstance(expr, ir.IntImm):
            return _Rng(int(expr.value), int(expr.value))
        if isinstance(expr, ir.Var):
            return self._ranges.get(expr)
        if isinstance(expr, ir.Cast):
            return self._range(expr.value) if expr.dtype.startswith("int") else None
        if isinstance(expr, ir.BufferLoad):
            rng = self._table_range(expr)
            floor = self._floors.get(self._info(expr)[0]) if self._floors else None
            if rng is None or floor is None or self._home.depth < floor[1]:
                return rng
            return _Rng(max(rng.lo, floor[0]), rng.hi)  # loaded under a guard that bounds it below
        if isinstance(expr, ir.Call) and expr.func == ROW_UPPER_BOUND:
            return self._row_range(expr)
        if not isinstance(expr, (ir.Add, ir.Sub, ir.Mul, ir.Min, ir.Max)):
            return None
        if isinstance(expr, ir.Add):
            for x, rest in ((expr.a, expr.b), (expr.b, expr.a)):
                if isinstance(rest, ir.Sub) and self._same(x, rest.b):
                    return self._range(rest.a)  # x + (y - x) is y, wrapping or not
        a, b = self._range(expr.a), self._range(expr.b)
        if a is None or b is None:
            return None
        if a.empty or b.empty:
            return _Rng(1, 0)
        if isinstance(expr, ir.Add):
            halves = {a.tag[0], b.tag[0]} if a.tag and b.tag else set()
            if halves == {"start", "step"} and a.tag[1:] == b.tag[1:]:
                # indptr[x] + j, j < indptr[x + 1] - indptr[x]: in [0, indptr[-1])
                nnz = self.program.indptr_of[a.tag[1]][1]
                return _Rng(0, nnz - 1, ("pos", a.tag[1]))
            lo, hi = a.lo + b.lo, a.hi + b.hi
        elif isinstance(expr, ir.Sub):
            lo, hi = a.lo - b.hi, a.hi - b.lo
        elif isinstance(expr, ir.Mul):
            corners = [x * y for x in (a.lo, a.hi) for y in (b.lo, b.hi)]
            lo, hi = min(corners), max(corners)
        else:
            pick = min if isinstance(expr, ir.Min) else max
            lo, hi = pick(a.lo, b.lo), pick(a.hi, b.hi)
        return _Rng(lo, hi) if -_FINITE < lo and hi < _FINITE else None

    def _table_range(self, load: ir.BufferLoad) -> Optional[_Rng]:
        """The values a load of an index table reads: an element that passed
        the table's check or, through a failed guard, 0."""
        program, name = self.program, load.buffer.name
        if name in program.indptr_of:
            cls, nnz = program.use_indptr(name)
            return _Rng(0, nnz, ("start", cls, self._info(load.indices[0])[0]))
        if name in program.domain_of:
            lo, hi = program.use_domain(name)
            return _Rng(lo, hi - 1)
        if name not in program.indices_of:
            return None
        at = self._range(load.indices[0])
        if at is not None and at.tag == ("pos", program.indices_of[name][0]):
            return _Rng(0, program.use_indices(name, everywhere=False) - 1)
        return _Rng(0, max(program.use_indices(name, everywhere=True) - 1, 0))

    def _row_range(self, call: ir.Call) -> Optional[_Rng]:
        """The row a position's search finds (``_ROW``): the per-position
        table is derived from the axis's indptr, so a position below its count
        lies in a row when the table runs from 0 to that count."""
        program, table = self.program, f"{getattr(call.args[0], 'value', '')}_indptr"
        at = self._range(call.args[1])
        if table not in program.indptr_of or at is None:
            return None
        if at.empty:
            return at
        if at.lo < 0 or at.hi >= program.indptr_of[table][1]:
            return None
        return _Rng(0, program.use_rows(table) - 1)

    def _same(self, a: ir.Expr, b: ir.Expr) -> bool:
        """Whether *a* and *b* take the same value wherever both are evaluated:
        one pure expression, or loads at one index of two tables of a class."""
        ka, kb = self._info(a), self._info(b)
        if ka[0] == kb[0]:
            return ka[1]
        indptr = self.program.indptr_of
        if not (isinstance(a, ir.BufferLoad) and isinstance(b, ir.BufferLoad)):
            return False
        if a.buffer.name not in indptr or b.buffer.name not in indptr:
            return False
        at, bt = self._info(a.indices[0]), self._info(b.indices[0])
        if not (at[1] and at[0] == bt[0] and indptr[a.buffer.name][0] == indptr[b.buffer.name][0]):
            return False
        self.program.use_indptr(a.buffer.name)
        self.program.use_indptr(b.buffer.name)
        return True

    def _loop_range(self, loop: st.ForLoop) -> Optional[_Rng]:
        """The values *loop*'s variable takes.  A loop from 0 to
        ``indptr[x + 1] - indptr[x]`` walks the positions of row ``x``."""
        start, extent, indptr = loop.start, loop.extent, self.program.indptr_of
        if isinstance(start, ir.IntImm) and start.value == 0 and isinstance(extent, ir.Sub):
            end, begin = extent.a, extent.b
            if (
                isinstance(end, ir.BufferLoad) and isinstance(begin, ir.BufferLoad)
                and end.buffer.name in indptr and begin.buffer.name in indptr
                and indptr[end.buffer.name][0] == indptr[begin.buffer.name][0]
            ):
                nxt, row = end.indices[0], self._info(begin.indices[0])
                succ = isinstance(nxt, ir.Add) and any(  # nxt is row + 1
                    _is_one(y) and self._info(x)[0] == row[0] for x, y in ((nxt.a, nxt.b), (nxt.b, nxt.a))
                )
                if row[1] and succ:
                    self.program.use_indptr(begin.buffer.name)
                    cls, nnz = self.program.use_indptr(end.buffer.name)
                    return _Rng(0, nnz - 1, ("step", cls, row[0]))
        first, count = self._range(start), self._range(extent)
        if first is None or count is None:
            return None
        if first.empty or count.empty:
            return _Rng(1, 0)
        return _Rng(first.lo, first.hi + count.hi - 1)

    def _scope_of(self, free: FrozenSet[ir.Var]) -> _Scope:
        """The shallowest open scope in which every variable of *free* is bound."""
        scope = self._top
        for var in free:
            bound = self._vars.get(var)
            if bound is None:
                raise UnsupportedForC(f"unbound variable {var.name!r}")
            if bound[1].depth > scope.depth:
                scope = bound[1]
        return scope

    def _bind_temp(self, lines: List[str], val: _CVal) -> _CVal:
        """*val* (and its validity condition) as named constants in *lines*."""
        name, ok = val.code, val.ok
        if not name.isidentifier():
            name = self._fresh()
            lines.append(f"const {_CDECL[val.ctype]} {name} = {_bare(val.code)};")
        if ok is not None and not ok.isidentifier():
            ok = self._fresh()
            lines.append(f"const int {ok} = {_bare(val.ok)};")
        return _CVal(name, val.ctype, ok)

    # -- expression emission ---------------------------------------------------
    def _eval(self, expr: ir.Expr) -> _CVal:
        if isinstance(expr, (ir.IntImm, ir.FloatImm)):
            cast, ct = (int, "ilit") if isinstance(expr, ir.IntImm) else (float, "flit")
            value = cast(expr.value)
            if not np.isfinite(value):
                raise UnsupportedForC("non-finite float literal")
            return _CVal(repr(value) if _spelled(expr) else self._slot(id(expr), value, expr), ct)
        if isinstance(expr, ir.Var):
            bound = self._vars.get(expr)
            if bound is None:
                raise UnsupportedForC(f"unbound variable {expr.name!r}")
            return bound[0]
        key, pure, free, heavy = self._info(expr)
        scope = self._scope_of(free) if pure and heavy else self._home
        hit = scope.temps.get(key)
        if hit is None and scope.depth >= self._home.depth:
            return self._emit(expr)
        if hit is None:
            # Bound further out: materialise it there, once.  That is in front of
            # any range test in progress: it keeps its guards and is no part of it.
            saved = self._home, self._here, self._proven, self._accesses
            self._home, self._here = scope, scope.lines
            self._proven, self._accesses = frozenset(), None
            hit = scope.temps[key] = self._bind_temp(scope.lines, self._emit(expr))
            self._home, self._here, self._proven, self._accesses = saved
        return hit

    def _emit(self, expr: ir.Expr) -> _CVal:
        if isinstance(expr, ir.BufferLoad):
            return self._emit_load(expr)
        if isinstance(expr, ir.BinaryOp):
            return self._emit_binary(expr)
        if isinstance(expr, ir.Not):
            a = self._eval(expr.a)
            return _CVal(f"(!{self._truth(a)})", "u8", a.ok)
        if isinstance(expr, ir.Select):
            cond = self._eval(expr.condition)
            true, false = self._eval(expr.true_value), self._eval(expr.false_value)
            ct = _promote(true.ctype, false.ctype)
            test = self._truth(cond)
            chosen = None  # only the chosen branch can meet a structural zero
            if true.ok is not None or false.ok is not None:
                chosen = f"({test} ? {true.ok or 1} : {false.ok or 1})"
            code = f"({test} ? {self._coerce(true, ct)} : {self._coerce(false, ct)})"
            return _CVal(code, ct, _and(cond.ok, chosen))
        if isinstance(expr, ir.Cast):
            value = self._eval(expr.value)
            if expr.dtype.startswith("int"):  # int(): a weak Python int
                return _CVal(self._coerce(value, "i64"), "ilit", value.ok)
            if expr.dtype.startswith("float"):  # float(): a weak Python float
                return _CVal(self._coerce(value, "f64"), "flit", value.ok)
            return value
        if isinstance(expr, ir.Call):
            return self._emit_call(expr)
        raise UnsupportedForC(f"cannot emit C for {type(expr).__name__}")

    def _index(self, expr: ir.Expr) -> _CVal:
        """An expression the interpreter passes through ``int()``."""
        val = self._eval(expr)
        if val.ctype == "u8":
            raise UnsupportedForC("boolean used as an index")
        return _CVal(self._coerce(val, "i64"), "i64", val.ok)

    def _emit_load(self, expr: ir.BufferLoad) -> _CVal:
        if len(expr.indices) != 1:
            raise UnsupportedForC("stage-III loads must use a single flat index")
        self.loads.add(expr.buffer.name)
        tile = self._tile(expr.buffer.name, "in")
        if tile is not None:  # a region reads what it writes at the element it owns
            code, ct = tile, self._ctype(expr.buffer.name)
        else:
            array, ct, size = self._buffer(expr.buffer.name)
            index = self._index(expr.indices[0])
            plain = f"{array}[{_bare(index.code)}]"
            if index.ok is not None:  # a structural zero loads 0
                code = f"({index.ok} ? {self._use('_LD')}({array}, {_bare(index.code)}, {size}) : 0)"
            elif self._in_bounds(expr.buffer.name, expr.indices[0]):
                code = plain
            else:
                if self._accesses is not None:
                    self._accesses.append((expr.buffer.name, expr.indices[0]))
                proven = (expr.buffer.name, self._info(expr.indices[0])[0]) in self._proven
                code = plain if proven else f"{self._use('_LD')}({array}, {_bare(index.code)}, {size})"
        if ct == "i32":
            code, ct = f"(int64_t){code}", "i64"
        return _CVal(code, ct)

    def _emit_binary(self, expr: ir.BinaryOp) -> _CVal:
        a, b = self._eval(expr.a), self._eval(expr.b)
        ok = _and(a.ok, b.ok)
        kind = type(expr)
        if kind in (ir.And, ir.Or):
            op = "&&" if kind is ir.And else "||"
            return _CVal(f"({self._truth(a)} {op} {self._truth(b)})", "u8", ok)
        ct = _promote(a.ctype, b.ctype)
        ca, cb = self._coerce(a, ct), self._coerce(b, ct)
        if isinstance(expr, ir.CompareOp):  # its op_name is the C operator
            return _CVal(f"({ca} {expr.op_name} {cb})", "u8", ok)
        if ct == "u8":
            raise UnsupportedForC("boolean operand in arithmetic")
        if kind in (ir.Add, ir.Sub, ir.Mul):
            return _CVal(f"({ca} {expr.op_name} {cb})", ct, ok)
        if kind in (ir.Min, ir.Max):
            # Python's min/max: the second operand only when strictly better.
            return _CVal(f"(({cb} {'<' if kind is ir.Min else '>'} {ca}) ? {cb} : {ca})", ct, ok)
        if kind is ir.Div:
            if ct in ("i64", "ilit"):  # true division of integers is a float
                ct = "f64" if ct == "i64" else "flit"
                ca, cb = self._coerce(a, ct), self._coerce(b, ct)
            return _CVal(f"({ca} / {cb})", ct, ok)
        if kind in (ir.FloorDiv, ir.FloorMod) and ct in ("i64", "ilit"):
            helper = self._use("_fdiv" if kind is ir.FloorDiv else "_fmod")
            return _CVal(f"{helper}({ca}, {cb})", ct, ok)
        raise UnsupportedForC(f"unsupported binary op {kind.__name__} over {ct}")

    def _emit_call(self, call: ir.Call) -> _CVal:
        if call.func in (BINARY_SEARCH, ROW_UPPER_BOUND):
            axis = self.program.axes.get(getattr(call.args[0], "value", None))
            if axis is None:
                raise UnsupportedForC(f"unknown axis in {call.func}")
            args = [self._index(arg) for arg in call.args[1:]]
            search = self._emit_row_search if call.func == ROW_UPPER_BOUND else self._emit_coord_search
            return search(axis, *args)
        if call.func in ("sqrt", "abs"):
            a = self._eval(call.args[0])
            if a.ctype == "u8":
                raise UnsupportedForC(f"boolean operand of {call.func}")
            self._use("libm")
            if a.ctype == "f32":
                return _CVal(f"{'sqrtf' if call.func == 'sqrt' else 'fabsf'}({a.code})", "f32", a.ok)
            if call.func == "sqrt":  # np.sqrt of anything else is a float64
                return _CVal(f"sqrt({self._coerce(a, 'f64')})", "f64", a.ok)
            func = "fabs" if a.ctype in ("f64", "flit") else "llabs"
            return _CVal(f"{func}({a.code})", a.ctype, a.ok)
        # exp/tanh/log: NumPy's implementations are not bit-identical to
        # libm's, so these stay on the NumPy tier.
        raise UnsupportedForC(f"intrinsic {call.func!r} has no bit-exact C form")

    def _emit_row_search(self, axis: Any, position: _CVal) -> _CVal:
        """``searchsorted(indptr, p, side="right") - 1``: a table lookup."""
        indptr = getattr(axis, "indptr", None)
        if indptr is None or len(indptr) > 2**31:
            raise UnsupportedForC(f"axis {axis.name!r} has no indptr for row search")
        table = self._table("rowof", axis.name)
        nnz = self._slot(("nnz", axis.name), int(indptr[-1]))
        rows = self._slot(("rows", axis.name), len(indptr) - 1)
        code = f"((int64_t){self._use('_ROW')}({table}, {position.code}, {nnz}, {rows}))"
        return _CVal(code, "ilit", position.ok)  # the interpreter's is a Python int

    def _emit_coord_search(self, axis: Any, parent: _CVal, coord: _CVal) -> _CVal:
        """``axis.coordinate_to_position``: a lower-bound search of the parent's
        row; the position when found, else a structural zero."""
        if not isinstance(axis, SparseVariableAxis) or axis.indptr is None or axis.indices is None:
            raise UnsupportedForC(f"coordinate search on axis {axis.name!r}")
        indptr = self._table("indptr", axis.name)
        rows = self._slot(("rows", axis.name), len(axis.indptr) - 1)
        lo, hi = f"{indptr}[{parent.code}]", f"{indptr}[{parent.code} + 1]"
        indices = self._table("indices", axis.name)
        search = f"{self._use('_find')}({indices}, {lo}, {hi}, {coord.code})"
        found = _CVal(f"({self._use('_IN')}({parent.code}, {rows}) ? {search} : -1)", "i64")
        pos = self._bind_temp(self._here, found).code
        return _CVal(pos, "ilit", _and(parent.ok, coord.ok, f"({pos} >= 0)"))

    def _truth(self, val: _CVal) -> str:
        return val.code if val.ctype == "u8" else f"({val.code} != 0)"

    def _coerce(self, val: _CVal, target: str) -> str:
        """*val* converted the way NumPy converts a scalar to *target*."""
        strong = {"ilit": "i64", "flit": "f64"}
        if strong.get(val.ctype, val.ctype) == strong.get(target, target):
            return val.code
        if val.code in ("0.0", "1.0") and target == "f32":
            return val.code + "f"
        return f"(({_CDECL[target]})({val.code}))"

    # -- statement walk --------------------------------------------------------
    def _walk(self, stmt: st.Stmt, mode: str) -> None:
        """Emit *stmt* in the interpreter's *mode*: ``init`` (above the first
        block), ``init_only`` (inside one) or ``compute``."""
        if isinstance(stmt, st.SeqStmt):
            for child in stmt.stmts:
                self._walk(child, mode)
        elif isinstance(stmt, st.ForLoop):
            if mode == "compute" or _contains_init(stmt.body):
                self._emit_loop(stmt, mode)
        elif isinstance(stmt, st.Block):
            if mode == "compute":
                self._walk(stmt.body, mode)
            else:
                if stmt.init is not None:
                    saved, self._init = self._init, True
                    self._walk(stmt.init, "compute")
                    self._init = saved
                self._walk(stmt.body, "init_only")
        elif mode == "init":
            pass  # the init pass skips leaf statements above the first block
        elif isinstance(stmt, st.IfThenElse):
            if mode == "compute":
                self._emit_if(stmt)
            else:
                # Both branches, unconditionally: inits are idempotent stores.
                for branch in (stmt.then_case, stmt.else_case):
                    if branch is not None:
                        self._walk(branch, mode)
        elif mode == "init_only":
            pass
        elif isinstance(stmt, st.BufferStore):
            self._emit_store(stmt)
        elif isinstance(stmt, st.LetStmt):
            value = self._eval(stmt.value)
            if value.ok is not None:
                raise UnsupportedForC("structural zero inside a let binding")
            name = self._cname(stmt.var)
            head = f"const {_CDECL[value.ctype]} {name} = {_bare(value.code)};"
            body = self._scoped(stmt.var, _CVal(name, value.ctype), stmt.body, mode, self._range(stmt.value))
            self._sink.extend(_block("{", [head, *body]))
        elif isinstance(stmt, st.AssertStmt):
            self._walk(stmt.body, mode)
        elif not isinstance(stmt, st.Evaluate):
            raise UnsupportedForC(f"cannot emit statement of type {type(stmt).__name__}")

    @contextlib.contextmanager
    def _open_scope(
        self, values: Mapping[ir.Var, _CVal], ranges: Optional[Mapping[ir.Var, Optional[_Rng]]] = None
    ) -> Iterator[List[str]]:
        """A new scope that binds *values* (the values each takes: *ranges*);
        yields the lines emitted in it."""
        saved = self._home, self._sink, self._here
        scope = self._home = _Scope(self._home.depth + 1, [], {})
        for var, val in values.items():
            self._vars[var] = (val, scope)
        self._ranges.update((var, rng) for var, rng in (ranges or {}).items() if rng is not None)
        self._sink = self._here = scope.lines
        yield scope.lines
        self._home, self._sink, self._here = saved
        for var in values:
            del self._vars[var]
            self._ranges.pop(var, None)

    def _scoped(
        self, var: ir.Var, val: _CVal, body: st.Stmt, mode: str, rng: Optional[_Rng] = None
    ) -> List[str]:
        """The lines of *body* walked in a new scope that binds *var*."""
        with self._open_scope({var: val}, {var: rng}) as lines:
            self._walk(body, mode)
        return lines

    def _branch(self, stmt: st.Stmt, mode: str) -> List[str]:
        """The lines of *stmt* walked into a block of the current scope."""
        saved = self._sink, self._here
        self._sink = self._here = []
        self._walk(stmt, mode)
        lines = self._sink
        self._sink, self._here = saved
        return lines

    def _emit_if(self, stmt: st.IfThenElse) -> None:
        cond = self._eval(stmt.condition)
        # A structural zero in the condition reads as false.
        test = _bare(_and(cond.ok, self._truth(cond)))
        # The then-branch is a scope of its own, in which a pure table load the
        # condition bounds below (``indices[p] >= 0``: a slot that is no
        # padding) is known to be.
        floors = dict(self._floors)
        for bound in _lower_bounds(stmt.condition):
            key, pure, _free, _heavy = self._info(bound[0])
            if pure:
                self._floors[key] = (bound[1], self._home.depth + 1)
        with self._open_scope({}) as then:
            self._walk(stmt.then_case, "compute")
        self._floors = floors
        text = [f"if ({test}) {{", *_indent(then)]
        if stmt.else_case is not None:
            text += ["} else {", *_indent(self._branch(stmt.else_case, "compute"))]
        self._sink.extend([*text, "}"])

    def _bound(self, expr: ir.Expr) -> _CVal:
        val = self._index(expr)
        if val.ok is not None:
            raise UnsupportedForC("structural zero inside loop bounds")
        return val

    def _emit_loop(self, loop: st.ForLoop, mode: str) -> None:
        region = self._region
        if region is not None and loop is region.feature:
            self._emit_lanes(loop, mode)
            return
        start, extent = self._bound(loop.start), self._bound(loop.extent)
        if isinstance(loop.extent, ir.IntImm):  # a size even when it is 0 or 1
            extent = _CVal(self._slot(id(loop.extent), int(loop.extent.value), loop.extent), "i64")
        if mode != "compute" and self._init_is_invariant(loop):
            # The init statements do not index this (reduction) loop: once is
            # the same as every iteration, and a zero-trip loop runs none.
            self._sink.extend(_block(f"if ({extent.code} > 0) {{", self._branch(loop.body, mode)))
            return
        stop = _bare(extent.code) if start.code == "0" else f"{start.code} + {extent.code}"
        var, end, first = self._cname(loop.loop_var), self._fresh(), _bare(start.code)

        rng = self._loop_range(loop)

        def body(head: str) -> List[str]:
            return _block(head, self._scoped(loop.loop_var, _CVal(var, "ilit"), loop.body, mode, rng))

        plain = f"for (int64_t {var} = {first}, {end} = {stop}; {var} < {end}; ++{var}) {{"
        log: List[Tuple[str, ir.Expr]] = []
        self._accesses, unguarded = log, self._unguarded
        if region is not None and sizes_only(loop.start, loop.extent):
            # A dense reduction loop of a member: an index affine in it is
            # tested at its two ends, in front of the region.
            region.box[loop.loop_var] = (loop.start, self._last(stop, self._top))
        checked = body(plain)
        if region is not None:
            region.box.pop(loop.loop_var, None)
        # Only an innermost loop is versioned: a nested one has replaced the log.
        innermost = self._accesses is log
        tests = self._range_tests(loop, stop, log) if innermost else {}
        self._accesses = None
        # Every access of the body in bounds by the binding's facts: the body
        # printed is already the unchecked one.
        bare = innermost and not log and self._unguarded > unguarded
        # The unchecked body of a loop whose iterations are proven independent
        # is a SIMD loop; a schedule's request for one that is not is recorded.
        requested = loop.kind == st.LOOP_VECTORIZED and mode == "compute"
        why = None
        if loop is not self._jam and (tests or bare or requested):
            why = loop_independence(loop, self.written)
        if requested and (why or not (tests or bare)):
            unmarked = "it has no unchecked body to mark (fewer than two range-tested operands)"
            self.program.serial[f"vectorize {loop.loop_var.name}"] = why or unmarked
        # OpenMP's canonical form: the bound in front of the loop.
        canonical = f"for (int64_t {var} = {first}; {var} < {end}; ++{var}) {{"
        if bare and why is None:
            self._simd.append(loop)
            self._sink.extend([f"const int64_t {end} = {stop};", "#pragma omp simd", *body(canonical)])
            return
        if not tests:
            self._sink.extend(checked)
            return
        saved, self._proven = self._proven, frozenset(tests)
        if why is None:
            fast = [f"const int64_t {end} = {stop};", "#pragma omp simd", *body(canonical)]
        else:
            fast = body(plain)
        self._proven = saved
        test = " && ".join(dict.fromkeys(tests.values()))
        self._sink.extend([f"if ({test}) {{", *_indent(fast), "} else {", *_indent(checked), "}"])

    def _init_is_invariant(self, loop: st.ForLoop) -> bool:
        """Whether the init pass under *loop* is a set of plain stores that read
        neither its variable nor anything they write (so once is the same)."""
        inits = [block.init for block in st.find_blocks(loop.body) if block.init is not None]
        if not all(isinstance(init, st.BufferStore) for init in inits):
            return False
        stored = {init.buffer.name for init in inits}
        # Loop bounds inside the nest are evaluated too; taking every loop's
        # (not only those above an init) errs towards not hoisting.
        exprs = [e for nested in st.find_loops(loop.body) for e in (nested.start, nested.extent)]
        exprs += [e for init in inits for e in (*init.indices, init.value)]
        nodes = [node for expr in exprs for node in ir.post_order(expr)]
        loads = {node.buffer.name for node in nodes if isinstance(node, ir.BufferLoad)}
        return loop.loop_var not in nodes and not loads & stored

    def _range_tests(
        self, loop: st.ForLoop, stop: str, log: List[Tuple[str, ir.Expr]]
    ) -> Dict[Tuple[str, str], str]:
        """access -> C condition, per logged access of an innermost loop whose
        index is affine in the loop variable: with both end points in range,
        every iteration is."""
        start, extent = self._info(loop.start), self._info(loop.extent)
        if not (start[1] and extent[1]):
            return {}  # the bounds read a written buffer: no test may leave the spot
        spans = {loop.loop_var: (loop.start, self._last(stop, self._scope_of(start[2] | extent[2])))}
        found: Dict[Tuple[str, str], _Test] = {}
        for array, index in log:
            access = (array, self._info(index)[0])
            test = None if access in found else self._range_test(array, index, spans)
            if test is not None:
                found[access] = test
        if len(found) < 2:  # a lone guard is cheaper than a second loop
            found = {}
        return self._emit_tests(found)

    def _last(self, stop: str, scope: _Scope) -> ir.Var:
        """A variable standing for the last value of a loop that ends at *stop*."""
        last = ir.Var("last")
        self._vars[last] = (_CVal(f"({stop} - 1)", "ilit"), scope)
        return last

    def _range_test(self, array: str, index: ir.Expr, spans: Mapping[ir.Var, _Span]) -> Optional[_Test]:
        """``(key, ends, scope)`` of the test that proves *index* inside *array*
        over *spans* (it is affine in each of those variables — several only
        at non-negative constant strides — so it is in range everywhere when it
        is with all of them at their first and at their last value), or
        ``None``.  *scope* is where the ends are bound."""
        ends = [index, index]
        for var, span in spans.items():
            for side, at in enumerate(span):
                affine = affine_in(ends[side], var)
                if affine is None:
                    return None
                stride = ir.simplify(affine[1])
                if len(spans) > 1 and not (isinstance(stride, ir.IntImm) and stride.value >= 0):
                    return None
                ends[side] = ir.simplify(ir.Add(affine[0], ir.Mul(stride, at)))
        infos = [self._info(end) for end in ends]
        if not (infos[0][1] and infos[1][1]):
            return None  # reads a buffer the loop may write
        try:
            scope = self._scope_of(infos[0][2] | infos[1][2])
        except UnsupportedForC:
            return None  # mentions a variable bound inside the loop
        return f"in:{array}:{infos[0][0]}:{infos[1][0]}", ends, scope

    def _emit_tests(self, found: Mapping[Tuple[str, str], _Test]) -> Dict[Tuple[str, str], str]:
        """access -> the C condition of its range test, bound where its ends are."""
        tests: Dict[Tuple[str, str], str] = {}
        for (array, index_key), (key, ends, scope) in found.items():
            if key not in scope.temps:
                first, final = self._index(ends[0]), self._index(ends[1])
                if first.ok is not None or final.ok is not None:
                    continue
                size = self._buffer(array)[2]
                ends_c = f"{_bare(first.code)}, {_bare(final.code)}"
                test = _CVal(f"{self._use('_IN2')}({ends_c}, {size})", "u8")
                # Hoisted like any other subexpression, out of the loops it
                # does not vary in.
                at_home = scope is self._home
                scope.temps[key] = test if at_home else self._bind_temp(scope.lines, test)
            tests[array, index_key] = scope.temps[key].code
        return tests

    def _emit_store(self, store: st.BufferStore) -> None:
        if len(store.indices) != 1:
            raise UnsupportedForC("stage-III stores must use a single flat index")
        if store.buffer.name in self.program.aux_names:
            raise UnsupportedForC(f"store to auxiliary buffer {store.buffer.name!r}")
        name = store.buffer.name
        self.stores[name] = self.stores.get(name, True) and _plus_zero(store.value)
        tile = self._tile(store.buffer.name, "out")
        if tile is not None:
            value = self._eval(store.value)
            assign = f"{tile} = {_bare(self._coerce(value, self._ctype(store.buffer.name)))};"
            self._sink.append(assign if value.ok is None else f"if ({value.ok}) {assign}")
            return
        array, ct, size = self._buffer(store.buffer.name)
        access = (store.buffer.name, self._info(store.indices[0], store.buffer.name)[0])
        index = self._index(store.indices[0])
        value = self._eval(store.value)
        guard = _and(index.ok, value.ok)
        target = index.code
        # A reduction's init, a fill and a copy keep their guards: unguarded, GCC
        # makes such a loop a call to memset / memcpy, which every artifact
        # would then import.
        fill = self._init or isinstance(store.value, (ir.IntImm, ir.FloatImm, ir.BufferLoad))
        if guard is None and not fill and self._in_bounds(store.buffer.name, store.indices[0]):
            self._sink.append(f"{array}[{_bare(target)}] = {_bare(self._coerce(value, ct))};")
            return
        if guard is None and self._accesses is not None:
            self._accesses.append((store.buffer.name, store.indices[0]))
        if guard is not None or access not in self._proven:
            if "(" in _bare(target):  # more than names and operators: say it once
                target = self._fresh()
                self._sink.append(f"const int64_t {target} = {_bare(index.code)};")
            guard = _and(guard, f"{self._use('_IN')}({_bare(target)}, {size})")
        assign = f"{array}[{_bare(target)}] = {_bare(self._coerce(value, ct))};"
        self._sink.append(assign if guard is None else f"if ({guard}) {assign}")


def emit_c_source(func: PrimFunc) -> Tuple[str, NativeBinding]:
    """Emit the native ``(C source, binding)`` pair for a stage-III program.

    Raises :class:`UnsupportedForC` (a subclass of
    :class:`~repro.core.codegen.emit_numpy.UnsupportedForEmission`) when the
    program falls outside the native fragment; callers fall back to the
    emitted NumPy tier.
    """
    return _CEmitter(func).emit()


class _Reexporting(types.ModuleType):
    """``compile_so`` is the one re-exported function the loader itself calls.
    Replacing it on this module replaces it there, so a wrapper installed as
    ``emit_c.compile_so`` (a test's counter, a tracer's span) still wraps the
    compile step that runs."""

    def __setattr__(self, name: str, value: Any) -> None:
        if name == "compile_so":
            native.compile_so = value
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Reexporting
