"""Lazy capture front-end: records operator calls as graph nodes.

``session.graph()`` returns a :class:`GraphBuilder`.  Its operator methods
are generated from the same ``prepare_<op>`` functions as the eager
``Session`` ones (:data:`repro.ops.registry.OPERATORS`) — same signatures,
same documentation — and call them at capture time, so dtype inference,
tuned-override lookup and format decomposition happen then; but instead of
executing they append a :class:`~repro.graph.ir.GraphNode` and return a
:class:`~repro.graph.ir.TensorRef` for chaining::

    g = session.graph()
    x = g.input("x", features)                  # feedable graph input
    h = g.relu(g.add(g.spmm(csr, x), g.gemm(x, w)))
    compiled = g.compile()                      # fused CompiledGraph
    out = compiled.run()[h.name]

Dense operands may be passed either as arrays (captured as constants, baked
into the node's program) or as ``TensorRef`` edges (graph inputs or upstream
outputs).  Structural arguments — sparse matrices, weights of ``rgms`` /
``sparse_conv``, shapes — are always constants.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from ..ops import registry
from .ir import DataflowGraph, GraphNode, TensorRef


class GraphBuilder:
    """Records operator applications into a :class:`DataflowGraph`."""

    def __init__(self, session: Any):
        self.session = session
        self._nodes: List[GraphNode] = []
        self._inputs: Dict[str, TensorRef] = {}
        self._defaults: Dict[str, np.ndarray] = {}
        self._outputs: List[TensorRef] = []
        self._finished = False

    # -- inputs and outputs ------------------------------------------------------
    def input(
        self,
        name: str,
        value: Optional[np.ndarray] = None,
        shape: Optional[Sequence[int]] = None,
        dtype: Any = None,
    ) -> TensorRef:
        """Declare a feedable graph input.

        Pass a concrete ``value`` (its array becomes the default feed and
        fixes shape/dtype), or an explicit ``shape`` (+ optional ``dtype``,
        default float32) for a pure placeholder.
        """
        if self._finished:
            raise RuntimeError("graph already finished")
        if name in self._inputs:
            raise ValueError(f"duplicate graph input {name!r}")
        if value is not None:
            value = np.asarray(value)
            ref = TensorRef(name, value.shape, str(value.dtype))
            self._defaults[name] = value
        elif shape is not None:
            ref = TensorRef(name, tuple(shape), np.dtype(dtype or "float32").name)
        else:
            raise ValueError("input() needs a value or a shape")
        self._inputs[name] = ref
        return ref

    def output(self, *refs: TensorRef) -> None:
        """Mark graph outputs (defaults to every unconsumed node output)."""
        for ref in refs:
            if any(existing.name == ref.name for existing in self._outputs):
                continue
            self._outputs.append(ref)

    # -- recording ---------------------------------------------------------------
    def _record(self, kind: str, *args: Any, **kwargs: Any) -> TensorRef:
        if self._finished:
            raise RuntimeError("graph already finished")
        spec = registry.prepare(self.session, kind, *args, **kwargs)
        node = GraphNode(len(self._nodes), spec)
        self._nodes.append(node)
        return node.output

    # -- finishing ---------------------------------------------------------------
    def graph(self) -> DataflowGraph:
        """Close the capture and return the :class:`DataflowGraph`."""
        self._finished = True
        outputs = list(self._outputs)
        if not outputs:
            consumed = {
                ref.name
                for node in self._nodes
                for ref in node.input_refs().values()
            }
            outputs = [
                node.output for node in self._nodes if node.output.name not in consumed
            ]
        return DataflowGraph(self._nodes, self._inputs, outputs, self._defaults)

    def compile(self, fuse: bool = True) -> "CompiledGraph":
        """Close the capture and lower it to an executable graph."""
        from .compile import CompiledGraph

        return CompiledGraph(self.session, self.graph(), fuse=fuse)


def _capturing_method(name: str, prepare: Any) -> Any:
    """``GraphBuilder.<name>``: *prepare*'s parameters and docstring, recorded."""

    def method(self, *args: Any, **kwargs: Any) -> TensorRef:
        return self._record(name, *args, **kwargs)

    return registry.as_method(method, "GraphBuilder", prepare, returns="TensorRef")


for _name, _prepare in registry.OPERATORS.items():
    setattr(GraphBuilder, _name, _capturing_method(_name, _prepare))
