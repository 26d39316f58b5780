"""End-to-end RGCN inference on a heterogeneous graph (Figure 20 style).

Generates a synthetic heterogeneous graph with the statistics of AIFB
(Table 2), runs the NumPy RGCN forward pass for correctness, and estimates
inference time and GPU memory footprint for every system compared in
Figure 20: PyG, DGL, Graphiler, and SparseTIR without composable formats,
with the 3-D hyb format, and with hyb + Tensor Cores.

Run with:  python examples/rgcn_inference.py
"""

import numpy as np

from repro.models.rgcn import RGCN
from repro.ops.rgms import rgms_reference, rgms_two_stage_reference
from repro.sim.device import V100
from repro.sim.models.rgcn import RGCN_SYSTEMS, rgcn_speedup_table
from repro.workloads.hetero_graphs import synthetic_hetero_graph


def main() -> None:
    feat_size = 32
    graph = synthetic_hetero_graph("aifb", seed=0)
    print(f"graph {graph.name}: {graph.num_nodes} nodes, {graph.num_edges} edges, "
          f"{graph.num_etypes} relations")

    # Correctness: fused RGMS equals the two-stage formulation, and the model runs.
    rng = np.random.default_rng(0)
    features = rng.standard_normal((graph.num_nodes, feat_size)).astype(np.float32)
    weights = rng.standard_normal((graph.num_etypes, feat_size, feat_size)).astype(np.float32) * 0.05
    fused = rgms_reference(graph.adjacency, features, weights)
    two_stage = rgms_two_stage_reference(graph.adjacency, features, weights)
    assert np.allclose(fused, two_stage, atol=1e-3)
    model = RGCN(graph.adjacency, in_feats=feat_size, hidden=feat_size, num_classes=4)
    logits = model.forward(features)
    print(f"RGCN forward pass OK, logits shape {logits.shape}")

    # Figure 20: per-system inference time and memory footprint.
    table = rgcn_speedup_table(graph.adjacency, feat_size, V100)
    baseline = table["graphiler"].duration_us
    print(f"\n{'system':<20s} {'time (us)':>12s} {'speedup vs Graphiler':>22s} {'memory (MiB)':>14s}")
    for system in RGCN_SYSTEMS:
        estimate = table[system]
        print(
            f"{system:<20s} {estimate.duration_us:>12.1f} "
            f"{baseline / estimate.duration_us:>22.2f} "
            f"{estimate.memory_footprint_bytes / 2**20:>14.1f}"
        )


if __name__ == "__main__":
    main()
