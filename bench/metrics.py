"""How every metric is computed.

Names, units, directions and bounds live in ``BENCHMARK.json`` and nowhere
else; this module computes a value for every name listed there, and a name
on one side only is a ``KeyError``.  ``end_to_end`` is what a user of the system sees, measured with
tracing off and gated by the bounds.  ``per_layer`` comes from the separate
traced pass and is reported, never gated.

Every workload reports every metric.  A layer a workload never enters
reports 0 for its time and counts; that *is* the measurement ("this workload
bypasses that layer") and is what lets a later change show that it moved a
layer only where predicted.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Tuple

from harness import CACHE_COUNTERS, MANIFEST, Context, geomean
from layers import COMPILE_SPANS

#: metric -> span whose self time during set-up it reports, in ms
_SETUP_MS = (
    ("workloads.generate_ms", "workloads.generate"),
    ("formats.decompose_ms", "formats.decompose"),
    ("lower.stage1to2_ms", "lower.stage1to2"),
    ("lower.stage2to3_ms", "lower.stage2to3"),
    ("lower.hfuse_ms", "lower.hfuse"),
    ("emit.numpy_ms", "emit.numpy"),
    ("emit.numpy_load_ms", "emit.numpy_load"),
    ("emit.c_ms", "emit.c"),
    ("emit.c_load_ms", "emit.c_load"),
    ("emit.cc_ms", "emit.cc"),
    ("build.miss_ms", "build"),
    ("cache.store_ms", "cache.store"),
    ("graph.plan_ms", "graph.plan"),
    ("graph.compile_ms", "graph.compile"),
)

#: metric -> span whose self time per unit of the timed window it reports, in us
_TIMED_US = (
    ("session.self_us", "session"),
    ("ops.prepare_us", "ops.prepare"),
    ("ops.build_program_us", "ops.build_program"),
    ("ops.finalize_us", "ops.finalize"),
    ("cache.fingerprint_us", "cache.fingerprint"),
    ("cache.lookup_us", "cache.lookup"),
    ("cache.disk_load_us", "cache.disk_load"),
    ("build.self_us", "build"),
    ("executor.prepare_arrays_us", "executor.prepare_arrays"),
    ("kernel.run_us", "kernel.run"),
    ("formats.decompose_us", "formats.decompose"),
    ("formats.delta_edit_us", "formats.delta_edit"),
    ("formats.merge_us", "formats.merge"),
    ("formats.compact_us", "formats.compact"),
    ("formats.signature_us", "formats.signature"),
    ("dynamic.overlay_us", "dynamic.overlay"),
    ("graph.run_us", "graph.run"),
    ("serve.make_request_us", "serve.make_request"),
    ("serve.submit_us", "serve.submit"),
    ("serve.coalesce_us", "serve.coalesce"),
    ("serve.run_group_us", "serve.run_group"),
)

_SESSION_COUNTERS = ("native_runs", "emitted_runs", "vectorized_runs", "interpreted_runs",
                     "format_cache_hits", "format_cache_misses", "overlay_runs")

#: Numbers a workload computes itself (``ctx.extra``); 0 on the others.
_EXTRA = (
    "graph.launches", "graph.nodes_fused", "graph.nodes_unfused",
    "graph.unfused_run_ms", "graph.eager_forward_ms",
    "serve.occupancy", "serve.batches", "serve.cache_hit_frac",
    "serve.degraded_eager", "serve.degraded_inline", "serve.errors",
    "serve.gen_lag_ms", "serve.offered_rps", "serve.achieved_rps", "serve.bare_ratio",
    "dynamic.compactions", "dynamic.compact_window_ms",
    "dynamic.sddmm_window_ms", "dynamic.plain_window_ms", "dynamic.base_query_ms",
    "cold.zoo_size", "cold.first_op_ms",
)


def _table(kind: str, values: Mapping[str, float]) -> Dict[str, Any]:
    """``values`` under the names and units ``BENCHMARK.json`` lists for *kind*."""
    unlisted = set(values) - {m["name"] for m in MANIFEST[kind]}
    if unlisted:
        raise KeyError(f"computed but not in BENCHMARK.json {kind}: {sorted(unlisted)}")
    return {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in MANIFEST[kind]}


def end_to_end(ctx: Context, setup_s: float, artifact_kb: float, rss_mb: float) -> Dict[str, Any]:
    rows = ctx.case_rows()
    return _table("end_to_end", {
        "setup_s": setup_s,
        "ref_ratio": geomean([r["ref_ratio"] for r in rows]),
        "artifact_kb": artifact_kb,
        "peak_rss_mb": rss_mb,
    })


def counter_delta(before: Mapping[str, float], after: Mapping[str, float]) -> Dict[str, float]:
    return {key: after[key] - before.get(key, 0) for key in after}


def per_layer(
    ctx: Context,
    self_s: Mapping[Tuple[str, str], float],
    calls: Mapping[Tuple[str, str], int],
    counters: Mapping[str, float],
    facts: Mapping[str, float],
) -> Dict[str, Any]:
    """Every per-layer metric from the traced pass.

    ``self_s`` / ``calls`` are the tracer's self time and call count per
    ``(phase, span)``; ``counters`` are deltas of the public ``cache.stats``
    and ``SessionStats`` over the traced window; ``facts`` are measured
    scalars (import time, artifact sizes, calibration, untraced latency).
    """
    samples = [s for case in ctx.ours_s.values() for s in case]
    units = max(len(samples), 1)
    mean_us = (sum(samples) / units) * 1e6
    rows = ctx.case_rows()
    timed_us = {span: self_s.get(("timed", span), 0.0) / units * 1e6 for _, span in _TIMED_US}
    inband_us = sum(self_s.get(("timed", span), 0.0) for span in COMPILE_SPANS) / units * 1e6
    traced_total_us = sum(v for (phase, _), v in self_s.items() if phase == "timed") / units * 1e6
    kernel_us = timed_us["kernel.run"]
    macs = [ctx.case_info.get(case, {}).get("macs", 0) * len(s) for case, s in ctx.ours_s.items()]
    kernel_s = self_s.get(("timed", "kernel.run"), 0.0)
    untraced_ms = facts.get("untraced_latency_ms", 0.0)
    traced_ms = geomean([r["median_ms"] for r in rows])

    values: Dict[str, float] = {
        "setup.import_ms": facts.get("import_ms", 0.0),
        "setup.total_ms": facts.get("setup_ms", 0.0),
        "emit.cc_invocations": calls.get(("setup", "emit.cc"), 0),
        "lower.stage3_script_lines": facts.get("stage3_script_lines", 0),
        "emit.numpy_source_bytes": facts.get("numpy_source_bytes", 0),
        "emit.c_source_bytes": facts.get("c_source_bytes", 0),
        "emit.so_bytes": facts.get("so_bytes", 0),
        "cache.artifacts": facts.get("artifacts", 0),
        "unit.latency_us": traced_ms * 1e3,
        "unit.unattributed_us": mean_us - traced_total_us,
        "compile.inband_us": inband_us,
        "session.overhead_us": mean_us - kernel_us,
        "kernel.share": kernel_us / mean_us if mean_us else 0.0,
        "kernel.macs_per_s": sum(macs) / kernel_s if kernel_s else 0.0,
        "unit.py_calls": facts.get("py_calls", 0),
        "unit.alloc_kb": facts.get("alloc_kb", 0.0),
        "e2e.samples": facts.get("untraced_samples", 0),
        "e2e.latency_ms": untraced_ms,
        "e2e.mean_ms": facts.get("untraced_mean_ms", 0.0),
        "e2e.tail_ms": facts.get("untraced_tail_ms", 0.0),
        "e2e.ref_ms": facts.get("untraced_ref_ms", 0.0),
        "machine.calib_start_ms": facts.get("calib_start_ms", 0.0),
        "machine.calib_end_ms": facts.get("calib_end_ms", 0.0),
        "trace.overhead_frac": traced_ms / untraced_ms - 1.0 if untraced_ms else 0.0,
    }
    for name, span in _SETUP_MS:
        values[name] = self_s.get(("setup", span), 0.0) * 1e3
    for name, span in _TIMED_US:
        values[name] = timed_us[span]
    for counter in CACHE_COUNTERS:
        values[f"cache.{counter}"] = counters.get(f"cache.{counter}", 0) / units
    for counter in _SESSION_COUNTERS:
        values[f"session.{counter}"] = counters.get(f"session.{counter}", 0) / units
    for name in _EXTRA:
        values[name] = ctx.extra.get(name, 0.0)
    return _table("per_layer", values)
