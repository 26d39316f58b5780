"""The fusion pass: group adjacent nodes into shared emitted kernels.

Fusion here is *vertical at the graph level, horizontal at the kernel
level*: the stage-I iterations of every node in a group are emitted into one
program (namespaced per node, sparse axes shared per structure object), the
backend's horizontal-fusion pass launches them as a single grid, and
intermediate tensors stay inside the kernel as ordinary buffers — no
per-node ``prepare_arrays`` copies, no Python dispatch between nodes.

Grouping rule — a node joins the currently-open group exactly when:

* the node's spec is ``fusable`` (it carries an ``emit`` into a shared
  program, and its finalisation is a pure reshape);
* its value dtype matches the group's (mixed-dtype groups would change
  cast-at-boundary semantics versus unfused execution).

Nodes over *different* sparsity structures merge freely: each structure
contributes its own namespaced axis set to the shared program, and nests
over the same structure object share one set of plan index arrays (the
emitter CSEs them).  This is what lets a per-relation RGCN chain or a
per-offset sparse-conv batch — dozens of small nodes over dozens of CSR
slices — collapse into a single launch.

Groups are contiguous runs of the capture order, so executing groups in
sequence — with nests inside each group in capture order — preserves the
original execution order exactly; that is what keeps fused results bit-exact
with node-by-node execution (the per-nest computations are untouched).
Anything that cannot join (unfusable kinds, a dtype change) simply opens a
new group; singleton groups compile to the identical standalone programs
the eager path builds, sharing their kernel-cache entries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from .ir import DataflowGraph, GraphNode


@dataclass
class FusionGroup:
    """A contiguous run of nodes emitted into one program."""

    nodes: List[GraphNode] = field(default_factory=list)
    dtype: Optional[str] = None

    def can_accept(self, node: GraphNode) -> bool:
        spec = node.spec
        if not spec.fusable:
            return False
        if self.dtype is not None and spec.dtype != self.dtype:
            return False
        return True

    def add(self, node: GraphNode) -> None:
        self.nodes.append(node)
        if self.dtype is None:
            self.dtype = node.spec.dtype

    def __len__(self) -> int:
        return len(self.nodes)


def plan_groups(graph: DataflowGraph, fuse: bool = True) -> List[FusionGroup]:
    """Partition the graph's nodes into fusion groups.

    With ``fuse=False`` every node is its own group — the bit-exact
    node-by-node fallback the differential tests and the unfused benchmark
    baseline run.
    """
    groups: List[FusionGroup] = []
    current: Optional[FusionGroup] = None
    for node in graph.topo_order():
        if not fuse or not node.spec.fusable:
            # Unfusable nodes form closed singleton groups: nothing may join.
            group = FusionGroup()
            group.add(node)
            groups.append(group)
            current = None
            continue
        if current is not None and current.can_accept(node):
            current.add(node)
            continue
        current = FusionGroup()
        current.add(node)
        groups.append(current)
    return groups
