"""Core SparseTIR abstraction: axes, sparse buffers, sparse iterations and the
three-stage compilation pipeline (coordinate space -> position space -> flat
loops), plus composable transformations at each stage."""

from .._lazy import lazy_exports

_EXPORTS = {
    "Axis": ".axes",
    "DenseFixedAxis": ".axes",
    "DenseVariableAxis": ".axes",
    "SparseFixedAxis": ".axes",
    "SparseVariableAxis": ".axes",
    "dense_fixed": ".axes",
    "dense_variable": ".axes",
    "sparse_fixed": ".axes",
    "sparse_variable": ".axes",
    "SparseBuffer": ".buffers",
    "FlatBuffer": ".buffers",
    "match_sparse_buffer": ".buffers",
    "PrimFunc": ".program",
    "STAGE_COORDINATE": ".program",
    "STAGE_POSITION": ".program",
    "STAGE_LOOP": ".program",
    "ProgramBuilder": ".script",
    "SparseIteration": ".sparse_iteration",
    "fuse": ".sparse_iteration",
    "FormatRewriteRule": ".stage1",
    "decompose_format": ".stage1",
    "sparse_reorder": ".stage1",
    "sparse_fuse": ".stage1",
    "Schedule": ".stage2",
    "lower_sparse_iterations": ".stage2",
    "lower_sparse_buffers": ".stage3",
    "Kernel": ".codegen",
    "build": ".codegen",
}

__all__ = list(_EXPORTS)

__getattr__ = lazy_exports(globals(), _EXPORTS)
