"""``graph-models``: compiled forward passes, the third execution path.

Closed loop, one client.  Three models are captured with ``session.graph()``
/ ``model.compile`` and run as ``CompiledGraph.run()``:

* attention on cora, 8 heads x 8 dims — the planner declines to fuse it
  (softmax would leave the C fragment), so it runs as three launches with
  the softmax on the emitted tier;
* a two-layer RGCN on cora split into 8 relations, width 16 — fused into
  one launch;
* one Minkowski sparse-convolution layer over a 400-point scan, 8 channels
  — 27 kernel offsets fused into one launch.

Fused units own their buffers across calls, so a warm forward skips the
per-call rebuild the eager path pays; in exchange the path pays seconds of
compile and first run (one large C translation unit per fused model) that
eager never pays.  That cost is this workload's ``setup_s``.  References
are plain NumPy/SciPy forward passes written in ``refs.py``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List

import numpy as np

import inputs
import refs
from harness import Context, closed_loop, geomean, median_ms

ATTENTION = ("attention-cora-h8-d8", "cora", 8, 8)
RGCN = ("rgcn-cora-R8-d16", "cora", 8, 16)
MINKOWSKI = ("minkowski-pts400-L1-c8", 400, 1, 8)


def _attention(ctx: Context, session: Any) -> Dict[str, Any]:
    from repro.workloads.attention import capture_sparse_attention

    name, graph, heads, dim = ATTENTION
    mask = inputs.graph(graph, ctx.seed)
    gen = inputs.rng(ctx.seed, name)
    q, k, v = (gen.standard_normal((heads, mask.rows, dim)).astype(np.float32) for _ in range(3))

    def compile_(fuse: bool):
        builder = session.graph()
        out = capture_sparse_attention(builder, mask, q, k, v)
        compiled = builder.compile(fuse=fuse)
        return compiled, (lambda: compiled.run()[out.name])

    def eager():
        scores = session.batched_sddmm(
            mask, q, np.ascontiguousarray(k.transpose(0, 2, 1)), scale=1.0 / np.sqrt(dim))
        return session.batched_spmm_edges(mask, session.edge_softmax(mask, scores), v)

    pattern = refs.to_scipy(mask, np.float32)
    return {
        "name": name, "compile": compile_, "eager": eager,
        "ref": lambda: refs.attention(pattern, q, k, v),
        "macs": mask.nnz * heads * dim * 2, "digest": inputs.digest(mask.indices, q, k, v),
    }


def _rgcn(ctx: Context, session: Any) -> Dict[str, Any]:
    from repro.models.rgcn import RGCN as Model

    name, graph, relations, dim = RGCN
    adjacency = inputs.split_relations(inputs.graph(graph, ctx.seed), relations, ctx.seed)
    model = Model(adjacency, in_feats=dim, hidden=dim, num_classes=8, seed=ctx.seed)
    x = inputs.rng(ctx.seed, name).standard_normal((adjacency.shape[1], dim)).astype(np.float32)

    def compile_(fuse: bool):
        forward = model.compile(session, x, fuse=fuse)
        return forward.compiled, forward

    slices = [refs.to_scipy(m, np.float32) for m in adjacency.slices]
    layers = [(layer.params.relation_weights, layer.params.self_weight)
              for layer in (model.layer1, model.layer2)]
    nnz = sum(m.nnz for m in adjacency.slices)
    return {
        "name": name, "compile": compile_, "eager": lambda: model.forward(x, session=session),
        "ref": lambda: refs.rgcn(slices, layers, x),
        "macs": nnz * (dim + 8) + adjacency.shape[1] * dim * (dim + 8) * (relations + 1),
        "digest": inputs.digest(x, *(m.indices for m in adjacency.slices)),
    }


def _minkowski(ctx: Context, session: Any) -> Dict[str, Any]:
    from repro.models.minkowski import MinkowskiBackbone
    from repro.workloads.pointcloud import PointCloudConfig

    name, points, depth, channels = MINKOWSKI
    model = MinkowskiBackbone(
        [(channels, channels)] * depth, seed=ctx.seed,
        # A dense scan: every one of the 27 kernel offsets is populated on
        # every seed, so the fused program has the same shape on all of them.
        config=PointCloudConfig(num_points=points, extent=(8.0, 4.0, 1.2), seed=ctx.seed),
    )
    first = model.layers[0].problem
    x = inputs.rng(ctx.seed, name).standard_normal((first.num_in_points, channels)).astype(np.float32)

    def compile_(fuse: bool):
        forward = model.compile(session, x, fuse=fuse)
        return forward.compiled, forward

    layers = [(l.problem.kernel_maps, l.weights, l.problem.num_out_points) for l in model.layers]
    pairs = sum(l.problem.total_pairs for l in model.layers)
    return {
        "name": name, "compile": compile_, "eager": lambda: model.forward(x, session=session),
        "ref": lambda: refs.sparse_conv_stack(layers, x),
        "macs": pairs * channels * channels,
        "digest": inputs.digest(x, *first.kernel_maps),
    }


def setup(ctx: Context) -> Any:
    from repro.runtime.session import Session

    session = Session()
    models = [build(ctx, session) for build in (_attention, _rgcn, _minkowski)]
    steps: List[Callable[[], None]] = []
    for model in models:
        model["compiled"], model["run"] = model["compile"](True)
        ctx.case_info[model["name"]] = {
            "macs": model["macs"], "inputs": model["digest"],
            "launches": int(model["compiled"].num_kernel_launches),
            "nodes_fused": int(model["compiled"].num_nodes_fused),
            "nodes_unfused": int(model["compiled"].num_nodes_unfused),
        }
        step = _step(ctx, model)
        for _ in range(3):  # the first run compiles the fused kernel
            step()
        steps.append(step)
    return {"session": session, "models": models, "steps": steps}


def _step(ctx: Context, model: Dict[str, Any]) -> Callable[[], None]:
    name, run, ref = model["name"], model["run"], model["ref"]

    def step() -> None:
        out = ctx.ours(name, run)
        expected = ctx.ref(name, ref)
        ctx.check(name, refs.close(out, expected))
    return step


def measure(ctx: Context, state: Any) -> None:
    closed_loop(ctx, state["steps"], block=3)


def steps(state: Any) -> List[Callable[[], None]]:
    return state["steps"]



def verify(ctx: Context, state: Any) -> None:
    """The layer split: the same models unfused and eager, checked bit-exact
    against the fused run (reported per layer, outside the timed window)."""
    info = [ctx.case_info[m["name"]] for m in state["models"]]
    ctx.extra["graph.launches"] = sum(i["launches"] for i in info)
    ctx.extra["graph.nodes_fused"] = sum(i["nodes_fused"] for i in info)
    ctx.extra["graph.nodes_unfused"] = sum(i["nodes_unfused"] for i in info)
    if not ctx.traced:
        return
    unfused_ms, eager_ms = [], []
    for model in state["models"]:
        _compiled, unfused = model["compile"](False)
        fused_out = model["run"]()
        ctx.attempted += 2
        ctx.check(model["name"], np.array_equal(unfused(), fused_out), "fused != unfused")
        ctx.check(model["name"], refs.close(model["eager"](), fused_out), "eager != compiled")
        unfused_ms.append(median_ms(unfused))
        eager_ms.append(median_ms(model["eager"]))
    ctx.extra["graph.unfused_run_ms"] = geomean(unfused_ms)
    ctx.extra["graph.eager_forward_ms"] = geomean(eager_ms)
