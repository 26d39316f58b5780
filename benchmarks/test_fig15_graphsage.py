"""Figure 15: end-to-end GraphSAGE training speedup of PyTorch+SparseTIR vs DGL.

Every duration is a *simulated V100* (or RTX 3070) time from the analytic model of
``repro.sim`` — no kernel is run or timed here.
"""

import pytest

from repro.sim.models.graphsage import estimate_training_time
from repro.workloads.graphs import synthetic_graph

#: Figure 15 uses all Table-1 graphs except ogbn-proteins (and Reddit only on V100).
GRAPHS = ("cora", "citeseer", "pubmed", "ppi", "ogbn-arxiv", "reddit")
FEATURE_SIZES = (64, 64, 16)  # input, hidden, classes (typical GraphSAGE set-up)

PAPER_SPEEDUP = {
    "V100": {"cora": 1.52, "citeseer": 1.49, "pubmed": 1.51, "ppi": 1.18,
             "ogbn-arxiv": 1.12, "reddit": 1.39},
    "RTX3070": {"cora": 1.47, "citeseer": 1.34, "pubmed": 1.19, "ppi": 1.08,
                "ogbn-arxiv": 1.14},
}


@pytest.mark.figure("fig15")
def test_fig15_graphsage_training_speedup(benchmark, device):
    graph_names = [g for g in GRAPHS if not (g == "reddit" and device.name == "RTX3070")]
    graphs = {name: synthetic_graph(name, seed=0).to_csr() for name in graph_names}

    def run():
        results = {}
        for name, csr in graphs.items():
            baseline = estimate_training_time(csr, FEATURE_SIZES, device, backend="dgl")
            ours = estimate_training_time(csr, FEATURE_SIZES, device, backend="sparsetir")
            results[name] = {
                "dgl_us": baseline.total_us,
                "sparsetir_us": ours.total_us,
                "speedup": baseline.total_us / ours.total_us,
            }
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    print(f"\n=== Figure 15 (simulated {device.name}): GraphSAGE training, PyTorch+SparseTIR vs DGL ===")
    print(f"{'graph':<14}{'DGL (us/iter)':>16}{'SparseTIR (us)':>16}{'speedup':>10}{'paper':>8}")
    for name, row in results.items():
        paper = PAPER_SPEEDUP[device.name].get(name, float('nan'))
        print(f"{name:<14}{row['dgl_us']:>16.1f}{row['sparsetir_us']:>16.1f}"
              f"{row['speedup']:>10.2f}{paper:>8.2f}")

    # Shape: SparseTIR integration speeds up training everywhere, with modest
    # (Amdahl-limited) end-to-end factors as in the paper (1.08-1.52x).
    for name, row in results.items():
        assert row["speedup"] > 1.0
        assert row["speedup"] < 3.0
