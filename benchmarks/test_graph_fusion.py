"""Graph-level fusion contract: fused and unfused whole models agree, in fewer launches.

The other benchmark modules check single operators (or drive the GPU
performance model); this one checks the *graph tier*: whole models captured as
dataflow graphs and compiled once with ``fuse=True`` and once with
``fuse=False``.  Three model families cover the fusion patterns of the
paper's end-to-end workloads:

* **attention** — the SDDMM -> masked-softmax -> SpMM chain over a fig-13
  graph's edge structure (Section 4.3's sparse multi-head attention),
* **rgcn** — per-relation gather-matmul-scatter chains (one RGMS node per
  relation, chained by accumulating adds) over a fig-13 graph whose edges
  are partitioned into relations, the launch-per-relation dispatch a
  framework performs (Figure 20),
* **minkowski** — per-offset gather-GEMM-scatter batches of a sparse-conv
  backbone, the launch-per-offset execution of a TorchSparse-style runtime
  (Figure 23).

Every model must run in strictly fewer kernel launches fused than unfused
(equal when the planner declines a tier-demoting merge, as for attention's
softmax with a C toolchain present) and produce ``np.array_equal`` outputs
both ways; on the native tier RGCN's fused unit must also have contracted its
intermediates out of the operand list.

``test_graph_smoke`` runs scaled-down models, ``test_graph_full`` the fig-13
configurations (``slow``).  Nothing here is timed: compiled forward passes
next to their NumPy/SciPy reference are
``python3 bench/run.py --workload graph-models``.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.formats.csf import CSFTensor
from repro.formats.csr import CSRMatrix
from repro.models.minkowski import MinkowskiBackbone
from repro.models.rgcn import RGCN
from repro.runtime.session import Session
from repro.workloads.attention import capture_sparse_attention
from repro.workloads.graphs import synthetic_graph
from repro.workloads.pointcloud import PointCloudConfig

SMOKE_CONFIG = {
    "attention": [("cora", 2, 4)],          # graph, heads, head_dim
    "rgcn": [("cora", 8, 8)],               # graph, relations, feat
    "minkowski": [(300, 2, 8)],             # points, layers, channels
}

FULL_CONFIG = {
    # GAT-style attention: 8 heads x 8 dims (64-wide features).
    "attention": [("cora", 8, 8), ("citeseer", 8, 8)],
    # Schlichtkrull hidden size 16; 64 relations sits between small and
    # AIFB-scale (91) heterographs.
    "rgcn": [("cora", 64, 16), ("citeseer", 64, 16)],
    # Four submanifold conv layers at 8 channels over two scan densities.
    "minkowski": [(1000, 4, 8), (1500, 4, 8)],
}


def split_relations(csr: CSRMatrix, num_relations: int, seed: int = 0) -> CSFTensor:
    """Partition a graph's edges into relation slices (synthetic heterograph)."""
    rng = np.random.default_rng(seed)
    coo = csr.to_scipy().tocoo()
    rel = rng.integers(0, num_relations, size=coo.nnz)
    slices = []
    for r in range(num_relations):
        mask = rel == r
        mat = sp.coo_matrix(
            (coo.data[mask], (coo.row[mask], coo.col[mask])), shape=coo.shape
        ).tocsr()
        slices.append(CSRMatrix.from_scipy(mat))
    return CSFTensor((num_relations,) + coo.shape, slices)


def _check(workload, fused, unfused, fused_name, unfused_name):
    if fused.num_nodes_fused == 0:
        # The planner kept the members as singletons because a merge would
        # have demoted native-capable kernels to the emitted tier (attention's
        # softmax pins the merged chain off the C fragment).
        assert fused.num_kernel_launches == unfused.num_kernel_launches, workload
    else:
        assert fused.num_kernel_launches < unfused.num_kernel_launches, workload
    assert np.array_equal(fused.run()[fused_name], unfused.run()[unfused_name]), workload


def _run_suite(config):
    for graph_name, heads, head_dim in config["attention"]:
        mask = synthetic_graph(graph_name).csr
        rng = np.random.default_rng(3)
        shape = (heads, mask.rows, head_dim)
        q = rng.standard_normal(shape).astype(np.float32)
        k = rng.standard_normal(shape).astype(np.float32)
        v = rng.standard_normal(shape).astype(np.float32)
        session = Session(persistent=False)
        g1 = session.graph()
        out1 = capture_sparse_attention(g1, mask, q, k, v)
        g2 = session.graph()
        out2 = capture_sparse_attention(g2, mask, q, k, v)
        _check(f"attention-{graph_name}-h{heads}-d{head_dim}",
               g1.compile(fuse=True), g2.compile(fuse=False), out1.name, out2.name)

    for graph_name, relations, feat in config["rgcn"]:
        adjacency = split_relations(synthetic_graph(graph_name).csr, relations, seed=5)
        model = RGCN(adjacency, in_feats=feat, hidden=feat, num_classes=8, seed=1)
        x = np.random.default_rng(2).standard_normal(
            (adjacency.shape[1], feat)).astype(np.float32)
        session = Session(persistent=False)
        fused = model.compile(session, x, fuse=True)
        unfused = model.compile(session, x, fuse=False)
        (unit,) = fused.compiled.units
        if unit.kernel.fast_tier() == "native":
            # Contraction happened, not just a new text: of the unit's 4R + 3
            # values per layer only the graph output is still an operand (the
            # hidden layer is the kernel's own scratch, the rest are tiles) —
            # 2R + 4 operands per layer where every value used to add one.
            bufs = unit.kernel._tier("native")[0][1].bufs
            assert [name for _value, name, _spec in unit.produced if name in bufs] == [unit.produced[-1][1]]
            assert len(bufs) == len(unit.node_ids) + 1 < 2 * len(unit.node_ids)
        _check(f"rgcn-{graph_name}-R{relations}-d{feat}",
               fused.compiled, unfused.compiled, fused.output_name, unfused.output_name)

    for points, layers, channels in config["minkowski"]:
        plan = [(channels, channels)] * layers
        model = MinkowskiBackbone(plan, config=PointCloudConfig(num_points=points, seed=4))
        x = np.random.default_rng(6).standard_normal(
            (model.layers[0].problem.num_in_points, channels)).astype(np.float32)
        session = Session(persistent=False)
        fused = model.compile(session, x, fuse=True)
        unfused = model.compile(session, x, fuse=False)
        _check(f"minkowski-pts{points}-L{layers}-c{channels}",
               fused.compiled, unfused.compiled, fused.output_name, unfused.output_name)


@pytest.mark.figure("graph-fusion")
def test_graph_smoke():
    """Scaled-down models: the CI ``contracts-smoke`` and ``backend-native`` lanes."""
    _run_suite(SMOKE_CONFIG)


@pytest.mark.slow
@pytest.mark.figure("graph-fusion")
def test_graph_full():
    """Fig-13-graph configurations."""
    _run_suite(FULL_CONFIG)
