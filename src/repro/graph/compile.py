"""Lowering a captured graph into executable kernels.

Each :class:`~repro.graph.fusion.FusionGroup` becomes one prebuilt kernel:

* **singleton groups** build the node's *standalone* program (empty
  namespace), byte-identical to what the eager ``Session`` method builds, so
  they share kernel-cache entries — and persistent warm starts — with eager
  execution;
* **multi-node groups** emit every member's stage-I iterations into one
  program (namespaced ``n<id>_`` per node, sparse axes shared per structure
  object), bind in-group producer outputs directly as buffers, and leave
  cross-group/edge inputs as unbound buffers that are fed at run time.  The
  backend's horizontal-fusion pass launches the merged program as a single
  kernel.

If emitting a merged program fails, no compiled tier accepts it, or the
merge would *demote* native-capable members to the emitted tier (see
:meth:`CompiledGraph._why_not_fused`), the group falls back to node-by-node
singleton kernels — bit-exact by construction, since fusion never alters any
nest's computation or order — and :attr:`CompiledGraph.declined_fusions`
keeps the reason.

At run time the executor walks the units in order, feeds each kernel the
values its ``bindmap`` names, finalises outputs that later units (or the
caller) still need, and drops intermediates as soon as liveness allows.
Every unit — fused or singleton — runs through a
:class:`~repro.runtime.bound.BoundKernel`, the same warm path eager
``Session`` calls take; only ``engine="interpret"`` sessions (and programs
no compiled tier accepts) use the generic :meth:`Kernel.run` ladder.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..core.codegen.native import UnsupportedForEmission
from ..core.script import EmitContext, ProgramBuilder
from ..ops import registry
from ..runtime.bound import BoundKernel
from ..runtime.session import RUN_COUNTERS
from .fusion import FusionGroup, plan_groups
from .ir import DataflowGraph, GraphNode


@dataclass
class _ExecUnit:
    """One prebuilt kernel plus its run-time wiring."""

    kernel: Any
    #: buffer name in the program -> value name to feed it from.
    bindmap: Dict[str, str]
    #: (value name, output buffer name, producing spec) per member node.
    produced: List[Tuple[str, str, Any]]
    node_ids: List[int]
    #: index of the unit's last node in the graph order (liveness horizon).
    max_node_index: int = 0
    fused: bool = False
    #: ``False`` until the first run; then the :class:`BoundKernel`, or
    #: ``None`` when no compiled tier serves the kernel.
    bound: Any = False


class CompiledGraph:
    """An executable lowering of a :class:`DataflowGraph`."""

    def __init__(self, session: Any, graph: DataflowGraph, fuse: bool = True):
        self.session = session
        self.graph = graph
        self.fuse = fuse
        self._fingerprint: Optional[str] = None
        self.units: List[_ExecUnit] = []
        #: Why a multi-node group was not fused: member kinds -> reason.
        self.declined_fusions: Dict[Tuple[str, ...], str] = {}
        self._live = graph.liveness()
        #: node id -> its standalone program's names and kernel, built once for
        #: both the fusion decision and a node-by-node fallback.
        self._standalone: Dict[int, Tuple[Dict[str, str], Any]] = {}
        index_of = {node.id: i for i, node in enumerate(graph.nodes)}
        for group in plan_groups(graph, fuse=fuse):
            unit = None
            if len(group) > 1:
                unit = self._build_fused(group, index_of)
            if unit is None:
                for node in group.nodes:
                    self.units.append(self._build_single(node, index_of))
            else:
                self.units.append(unit)
        session.stats.count("graph_nodes_fused", by=self.num_nodes_fused)
        session.stats.count("graph_nodes_unfused", by=self.num_nodes_unfused)

    # -- lowering ----------------------------------------------------------------
    def _standalone_kernel(self, node: GraphNode) -> Tuple[Dict[str, str], Any]:
        """``(buffer names, kernel)`` of *node*'s own program, built once."""
        built = self._standalone.get(node.id)
        if built is None:
            func, names = registry.build_spec_program(node.spec)
            built = self._standalone[node.id] = (names, self.session.build(func))
        return built

    def _build_single(self, node: GraphNode, index_of: Dict[int, int]) -> _ExecUnit:
        names, kernel = self._standalone_kernel(node)
        bindmap = {
            names[logical]: ref.name for logical, ref in node.input_refs().items()
        }
        return _ExecUnit(
            kernel=kernel,
            bindmap=bindmap,
            produced=[(node.output.name, names["out"], node.spec)],
            node_ids=[node.id],
            max_node_index=index_of[node.id],
            fused=False,
        )

    def _build_fused(self, group: FusionGroup, index_of: Dict[int, int]) -> Optional[_ExecUnit]:
        """One merged kernel for a multi-node group, or ``None`` to fall back."""
        kinds = tuple(node.spec.kind for node in group.nodes)
        ctx = EmitContext(ProgramBuilder("fused_" + "_".join(kinds)))
        buffers: Dict[str, Any] = {}  # value name -> in-program buffer
        bindmap: Dict[str, str] = {}
        produced: List[Tuple[str, str, Any]] = []
        try:
            for node in group.nodes:
                ctx.ns = f"n{node.id}_"
                bind: Dict[str, Any] = {}
                external: List[Tuple[str, Any]] = []
                for logical, ref in node.input_refs().items():
                    if ref.name in buffers:
                        bind[logical] = buffers[ref.name]
                    else:
                        external.append((logical, ref))
                result = registry.emit_spec(ctx, node.spec, bind)
                for logical, ref in external:
                    bindmap[result[logical].name] = ref.name
                    # Later members consuming the same external value bind
                    # this buffer instead of declaring a namespaced duplicate
                    # (one flat copy per call instead of one per consumer).
                    buffers[ref.name] = result[logical]
                buffers[node.output.name] = result["out"]
                produced.append((node.output.name, result["out"].name, node.spec))
            # A value whose last consumer is a member never leaves the kernel:
            # declare it ``local``, the native tier's own scratch (a register
            # tile where a fused region holds every access to it).
            horizon = max(index_of[node.id] for node in group.nodes)
            for value, _buffer, _spec in produced:
                if self._live.get(value, -1) <= horizon:
                    buffers[value].scope = "local"
            kernel = self.session.build(ctx.builder.finish())
            reason = self._why_not_fused(group, kernel)
        except (UnsupportedForEmission, ValueError) as exc:
            # What emitting a member into the shared program and lowering
            # the result raise; anything else is a bug and propagates.
            reason = f"{type(exc).__name__}: {exc}"
        if reason is not None:
            self.declined_fusions[kinds] = reason
            return None
        return _ExecUnit(
            kernel=kernel,
            bindmap=bindmap,
            produced=produced,
            node_ids=[node.id for node in group.nodes],
            max_node_index=max(index_of[node.id] for node in group.nodes),
            fused=True,
        )

    def _why_not_fused(self, group: FusionGroup, kernel: Any) -> Optional[str]:
        """Why the merged *kernel* should not replace its members, or ``None``.

        A merged program inherits the *weakest* member's dispatch tier: one
        node outside the C fragment (e.g. a softmax's ``exp``, kept off the
        native tier for bit-exactness) pins the whole launch to emitted
        NumPy.  When at least one member's standalone program runs natively,
        the saved launch overhead is dwarfed by the lost native speedup, so
        the planner declines the merge and lets the members run
        node-at-a-time on their best tiers.  Only a merge that survives that
        asks for its NumPy source at all; without one it would run
        interpreted, slower than its unfused members.
        """
        if kernel.fast_tier("native") is not None:
            return None
        for node in group.nodes:
            # The same kernel serves the node if the group falls back.
            if self._standalone_kernel(node)[1].fast_tier("native") is not None:
                return "would demote native members to emitted"
        if kernel.fast_tier("emitted") is None:
            return kernel.declined["emitted"]
        return None

    # -- execution ---------------------------------------------------------------
    def _bound(self, unit: _ExecUnit) -> Optional[BoundKernel]:
        """The unit's bound kernel, built on first use.

        ``None`` when no compiled tier serves the kernel under the session's
        engine.  Only values that outlive the unit are finalised and
        returned; a fused unit's intermediates stay inside its kernel.
        """
        if unit.bound is False:
            tier = unit.kernel.fast_tier(self.session.engine)
            bound = None
            if tier is not None:
                escaping = [
                    out for out in unit.produced
                    if self._live.get(out[0], -1) > unit.max_node_index
                ]
                bound = BoundKernel(unit.kernel, tier, unit.bindmap, escaping)
            unit.bound = bound  # one store: a concurrent run sees False or the result
        return unit.bound

    def run(self, feeds: Optional[Mapping[str, np.ndarray]] = None) -> Dict[str, np.ndarray]:
        """Execute the graph; returns output arrays keyed by value name.

        ``feeds`` overrides (or provides) graph inputs by name; inputs
        captured from concrete arrays fall back to those defaults.

        Thread-safe: bound kernels keep no per-call state, so a serving
        front-end can share one compiled graph between the batcher thread
        and degraded inline callers.
        """
        env: Dict[str, np.ndarray] = dict(self.graph.defaults)
        if feeds:
            for name, value in feeds.items():
                if name not in self.graph.inputs:
                    raise ValueError(f"unknown graph input {name!r}")
                env[name] = np.asarray(value)
        live = self._live
        horizon = len(self.graph.nodes)
        output_names = [ref.name for ref in self.graph.outputs]
        for unit in self.units:
            bound = self._bound(unit)
            if bound is not None:
                env.update(bound.run(env))
                self.session.stats.count(RUN_COUNTERS[bound.tier])
            else:
                bindings: Dict[str, np.ndarray] = {}
                for buffer_name, value_name in unit.bindmap.items():
                    if value_name not in env:
                        raise ValueError(f"missing feed for graph input {value_name!r}")
                    bindings[buffer_name] = env[value_name]
                out = self.session.run_kernel(unit.kernel, bindings)
                for value_name, buffer_name, spec in unit.produced:
                    if live.get(value_name, -1) > unit.max_node_index:
                        env[value_name] = registry.finalize(spec, out[buffer_name])
            # Drop intermediates whose last consumer has now run.
            for name in list(env):
                if live.get(name, horizon + 1) <= unit.max_node_index:
                    del env[name]
        return {name: env[name] for name in output_names}

    # -- introspection -----------------------------------------------------------
    @property
    def num_kernel_launches(self) -> int:
        """Total kernel launches per run (1 per horizontally-fused kernel)."""
        return sum(unit.kernel.num_launches for unit in self.units)

    @property
    def num_nodes_fused(self) -> int:
        return sum(len(unit.node_ids) for unit in self.units if unit.fused)

    @property
    def num_nodes_unfused(self) -> int:
        return sum(len(unit.node_ids) for unit in self.units if not unit.fused)

    def fingerprint(self) -> str:
        """The graph's composed structural fingerprint (memoised)."""
        if self._fingerprint is None:
            self._fingerprint = self.graph.fingerprint()
        return self._fingerprint

    def __repr__(self) -> str:
        return (
            f"CompiledGraph({len(self.graph.nodes)} nodes -> {len(self.units)} kernels, "
            f"launches={self.num_kernel_launches})"
        )
