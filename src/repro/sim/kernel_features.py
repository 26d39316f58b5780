"""Deriving a performance-model workload from a compiled kernel's IR.

The extraction is intentionally conservative and coarse: its purpose is to
make the compilation pipeline schedule-sensitive end-to-end (thread bindings,
vectorisation, caching and tensorisation annotations all change the
estimate), not to replace the analytic workload models the benchmark harness
builds for each operator and baseline.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..core.buffers import dtype_bytes
from ..core.codegen.fusion import is_horizontally_fused, launch_groups
from ..core.expr import BinaryOp, BufferLoad, Call, Expr, IntImm, Sub
from ..core.stmt import (
    Block,
    ForLoop,
    IfThenElse,
    LOOP_THREAD_BINDING,
    LOOP_UNROLLED,
    LOOP_VECTORIZED,
    SeqStmt,
    Stmt,
    collect_buffer_loads,
    collect_buffer_stores,
    find_blocks,
)
from .workload import BlockGroup, KernelWorkload

_DEFAULT_THREADS = 128


def extract_workload(kernel, overrides: Optional[Dict] = None) -> KernelWorkload:
    """Build a :class:`KernelWorkload` from a compiled kernel."""
    overrides = overrides or {}
    func = kernel.func
    data = _binding_data(kernel)
    workload = KernelWorkload(name=func.name)
    groups = launch_groups(func)
    for index, group_stmt in enumerate(groups):
        block_group = _extract_group(f"{func.name}_g{index}", group_stmt, data)
        if block_group is not None:
            workload.add(block_group)
    workload.num_launches = 1 if is_horizontally_fused(func) else len(groups)
    workload.memory_footprint_bytes = sum(fb.nbytes() for fb in func.flat_buffers)
    for key, value in overrides.items():
        setattr(workload, key, value)
    return workload


def _binding_data(kernel) -> Dict[str, np.ndarray]:
    # Run-time defaults first: structurally-cached kernels carry the current
    # workload's value arrays there rather than on the (stripped) buffers.
    data: Dict[str, np.ndarray] = {
        name: np.asarray(value) for name, value in getattr(kernel, "defaults", {}).items()
    }
    for buf in list(kernel.func.buffers) + list(kernel.func.aux_buffers):
        if buf.data is not None and buf.name not in data:
            data[buf.name] = np.asarray(buf.data)
    return data


def _extract_group(name: str, stmt: Stmt, data: Dict[str, np.ndarray]) -> Optional[BlockGroup]:
    spine = _loop_spine(stmt)
    if not spine:
        return None

    grid = 1.0
    threads = 1.0
    serial_iterations = 1.0
    vector_width = 1
    unrolled = False
    for loop in spine:
        extent = _estimate_extent(loop.extent, data)
        if loop.kind == LOOP_THREAD_BINDING and loop.thread_tag and loop.thread_tag.startswith("blockIdx"):
            grid *= extent
        elif loop.kind == LOOP_THREAD_BINDING and loop.thread_tag and loop.thread_tag.startswith("threadIdx"):
            threads *= extent
        elif loop.kind == LOOP_VECTORIZED:
            vector_width = max(vector_width, int(min(extent, 8)))
            serial_iterations *= extent
        else:
            if loop.kind == LOOP_UNROLLED:
                unrolled = True
            serial_iterations *= extent

    if threads <= 1.0 and grid <= 1.0:
        # Unscheduled kernel: treat the outermost loop as the grid dimension.
        outer = spine[0]
        grid = max(1.0, _estimate_extent(outer.extent, data))
        serial_iterations = max(1.0, serial_iterations / grid)
        threads = _DEFAULT_THREADS
    threads = max(1.0, threads)
    grid = max(1.0, grid)

    blocks = find_blocks(stmt)
    flops_per_iteration = 0.0
    load_bytes_per_iteration = 0.0
    store_bytes_per_iteration = 0.0
    uses_tensor_core = False
    shared_mem = 0
    register_caching = False
    dtype = "float32"
    for block in blocks:
        if block.annotations.get("tensorize"):
            uses_tensor_core = True
        for entry in block.annotations.get("cache_read", []):
            shared_mem += 8 * 1024 if entry.get("scope") == "shared" else 0
        if block.annotations.get("cache_write"):
            register_caching = True
        stores = collect_buffer_stores(block.body)
        loads = collect_buffer_loads(block.body)
        for store in stores:
            flops_per_iteration += _count_flops(store.value)
            store_bytes_per_iteration += dtype_bytes(getattr(store.buffer, "dtype", "float32"))
        for load in loads:
            load_dtype = getattr(load.buffer, "dtype", "float32")
            load_bytes_per_iteration += dtype_bytes(load_dtype)
            if load_dtype == "float64":
                # Double precision dominates: the whole group pays the fp64 rate.
                dtype = "float64"
            elif load_dtype in ("float16", "bfloat16") and dtype == "float32":
                dtype = "float16"

    iterations_per_block = threads * serial_iterations
    flops_per_block = flops_per_iteration * iterations_per_block
    read_per_block = load_bytes_per_iteration * iterations_per_block
    write_per_block = store_bytes_per_iteration * iterations_per_block
    if register_caching:
        # Accumulation happens in registers: only the final value is written.
        write_per_block = store_bytes_per_iteration * threads

    return BlockGroup(
        name=name,
        num_blocks=int(round(grid)),
        threads_per_block=int(round(threads)),
        flops_per_block=flops_per_block,
        dram_read_bytes_per_block=read_per_block,
        dram_write_bytes_per_block=write_per_block,
        shared_mem_bytes=shared_mem,
        uses_tensor_core=uses_tensor_core,
        dtype=dtype,
        vector_width=vector_width,
        register_caching=register_caching,
        unrolled=unrolled,
    )


def _loop_spine(stmt: Stmt) -> List[ForLoop]:
    """The chain of loops from the group root down to the innermost block."""
    spine: List[ForLoop] = []
    cursor: Optional[Stmt] = stmt
    while cursor is not None:
        if isinstance(cursor, ForLoop):
            spine.append(cursor)
            cursor = cursor.body
        elif isinstance(cursor, Block):
            cursor = cursor.body
        elif isinstance(cursor, IfThenElse):
            cursor = cursor.then_case
        elif isinstance(cursor, SeqStmt) and cursor.stmts:
            cursor = cursor.stmts[0]
        else:
            cursor = None
    return spine


def _estimate_extent(extent: Expr, data: Dict[str, np.ndarray]) -> float:
    """Estimate a loop extent; data-dependent extents use the bound structure."""
    if isinstance(extent, IntImm):
        return float(extent.value)
    if isinstance(extent, Sub):
        # The canonical CSR pattern: indptr[i + 1] - indptr[i].
        left, right = extent.a, extent.b
        if isinstance(left, BufferLoad) and isinstance(right, BufferLoad):
            name = getattr(left.buffer, "name", "")
            array = data.get(name)
            if array is not None and array.size > 1:
                diffs = np.diff(array)
                if diffs.size:
                    return float(max(diffs.mean(), 1.0))
            return 8.0
    if isinstance(extent, BinaryOp):
        a = _estimate_extent(extent.a, data)
        b = _estimate_extent(extent.b, data)
        try:
            return float(max(type(extent).py_op(a, b), 1.0))
        except (ZeroDivisionError, OverflowError):
            return max(a, b)
    if isinstance(extent, BufferLoad):
        name = getattr(extent.buffer, "name", "")
        array = data.get(name)
        if array is not None and array.size:
            return float(max(array.mean(), 1.0))
    return 8.0


def _count_flops(expr: Expr) -> float:
    """Count floating point operations in one store's value expression."""
    count = 0.0
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, BinaryOp):
            if "float" in node.dtype:
                count += 1.0
            stack.append(node.a)
            stack.append(node.b)
        elif isinstance(node, BufferLoad):
            stack.extend(node.indices)
        elif isinstance(node, Call):
            stack.extend(node.args)
    return max(count, 1.0)
