"""The one table of layer boundaries the traced pass records spans around.

Every row is ``(span name, layer, target)``.  A target is
``"module:attribute"`` (a function, patched in every ``repro`` module that
imported it) or ``"module:Class.method"`` (patched on the class).  Targets
are resolved by name when the traced pass starts; one that no longer
resolves is listed in ``trace.json`` as ``missing:<target>``, contributes
zero to its metric and is **not** a failure: later changes may delete these
functions and cannot edit the benchmark.  Only the end-to-end pass depends
on an API, and only on the stable public surface (``Session.<op>``,
``session.graph()`` / ``model.compile``, ``repro.serve.Server``,
``CSRMatrix.insert_edges/delete_edges``, ``repro.workloads``).

Several targets may share one span name (the twelve ``prepare_<op>``
functions are one boundary); their times add up under that name.
"""

_OPS = (
    "spmm", "sddmm", "pruned_spmm", "batched_spmm", "batched_sddmm", "rgms",
    "sparse_conv", "edge_softmax", "batched_spmm_edges", "gemm", "add", "relu",
)

SPANS = (
    # -- workloads: input generation -----------------------------------------
    ("workloads.generate", "workloads", "repro.workloads.graphs:generate_adjacency"),
    ("workloads.generate", "workloads", "repro.workloads.attention:band_mask"),
    ("workloads.generate", "workloads", "repro.workloads.pruning:block_pruned_weight"),
    ("workloads.generate", "workloads", "repro.workloads.pointcloud:sparse_conv_problem"),
    # -- formats: decomposition and the edit log -----------------------------
    ("formats.decompose", "formats", "repro.formats.hyb:HybFormat.from_csr"),
    ("formats.decompose", "formats", "repro.formats.bsr:BSRMatrix.from_csr"),
    ("formats.delta_edit", "formats", "repro.formats.csr:CSRMatrix.insert_edges"),
    ("formats.delta_edit", "formats", "repro.formats.csr:CSRMatrix.delete_edges"),
    ("formats.merge", "formats", "repro.formats.delta:merge_delta"),
    ("formats.compact", "formats", "repro.formats.csr:CSRMatrix.compact"),
    ("formats.signature", "formats", "repro.formats.csr:CSRMatrix.content_signature"),
    # -- ops.registry: prepare / stage-I build / finalize --------------------
    *(("ops.prepare", "ops.registry", f"repro.ops.registry:prepare_{op}") for op in _OPS),
    ("ops.build_program", "ops.registry", "repro.ops.registry:build_spec_program"),
    ("ops.finalize", "ops.registry", "repro.ops.registry:finalize"),
    # -- core.codegen.cache ----------------------------------------------------
    ("cache.fingerprint", "core.codegen.cache", "repro.core.codegen.cache:structural_fingerprint"),
    ("cache.lookup", "core.codegen.cache", "repro.core.codegen.cache:KernelCache.get"),
    ("cache.disk_load", "core.codegen.cache", "repro.core.codegen.cache:DiskKernelCache.get"),
    ("cache.store", "core.codegen.cache", "repro.core.codegen.cache:KernelCache.put"),
    # -- lowering ----------------------------------------------------------------
    ("lower.stage1to2", "core.stage2", "repro.core.stage2.lowering:lower_sparse_iterations"),
    ("lower.stage2to3", "core.stage3", "repro.core.stage3.buffer_lowering:lower_sparse_buffers"),
    ("lower.hfuse", "core.codegen.fusion", "repro.core.codegen.fusion:horizontal_fuse"),
    # -- emission + cc -----------------------------------------------------------
    ("emit.numpy", "core.codegen.emit_numpy", "repro.core.codegen.emit_numpy:emit_numpy_source"),
    ("emit.numpy_load", "core.codegen.emit_numpy", "repro.core.codegen.emit_numpy:compile_emitted"),
    ("emit.c", "core.codegen.emit_c", "repro.core.codegen.emit_c:emit_c_source"),
    ("emit.c_load", "core.codegen.emit_c", "repro.core.codegen.emit_c:load_native"),
    ("emit.cc", "core.codegen.emit_c", "repro.core.codegen.emit_c:compile_so"),
    # -- core.codegen.build ------------------------------------------------------
    ("build", "core.codegen.build", "repro.core.codegen.build:build"),
    ("kernel.run", "core.codegen.build", "repro.core.codegen.build:Kernel.run"),
    # -- runtime -------------------------------------------------------------------
    ("executor.prepare_arrays", "runtime.executor", "repro.runtime.executor:prepare_arrays"),
    *(("session", "runtime.session", f"repro.runtime.session:Session.{op}") for op in _OPS),
    ("dynamic.overlay", "runtime.dynamic", "repro.runtime.dynamic:overlay_spmm"),
    ("dynamic.overlay", "runtime.dynamic", "repro.runtime.dynamic:overlay_sddmm"),
    # -- graph ---------------------------------------------------------------------
    ("graph.plan", "graph", "repro.graph.fusion:plan_groups"),
    ("graph.compile", "graph", "repro.graph.builder:GraphBuilder.compile"),
    ("graph.run", "graph", "repro.graph.compile:CompiledGraph.run"),
    # -- serve ---------------------------------------------------------------------
    ("serve.make_request", "serve.batching", "repro.serve.batching:make_spmm_request"),
    ("serve.make_request", "serve.batching", "repro.serve.batching:make_sddmm_request"),
    ("serve.coalesce", "serve.batching", "repro.serve.batching:coalesce"),
    ("serve.run_group", "serve.batching", "repro.serve.batching:run_group"),
    ("serve.submit", "serve.server", "repro.serve.server:Server.submit"),
)

#: Span names whose time is compilation: lowering, emission, the C compiler.
#: Their self time inside a *timed* window is an in-band compile.
COMPILE_SPANS = (
    "lower.stage1to2", "lower.stage2to3", "lower.hfuse",
    "emit.numpy", "emit.c", "emit.cc",
)
