"""Table 1: statistics of the GNN graphs and the hyb %padding column.

Statistics of the generated structures only: nothing in this table is priced on
the *simulated V100* of ``repro.sim`` (and nothing is timed).
"""

import pytest

from repro.formats.padding import padding_ratio_percent
from repro.workloads.graphs import available_graphs, synthetic_graph


@pytest.mark.figure("table1")
def test_table1_graph_statistics(benchmark):
    def build():
        rows = []
        for name in available_graphs():
            graph = synthetic_graph(name, seed=0)
            padding = padding_ratio_percent(graph.to_csr(), num_col_parts=1)
            rows.append((graph, padding))
        return rows

    rows = benchmark.pedantic(build, rounds=1, iterations=1)

    print("\n=== Table 1: graphs used in GNN experiments (synthetic, scaled; structure statistics, no simulated V100 time) ===")
    print(f"{'graph':<16}{'#nodes':>10}{'#edges':>12}{'%padding':>10}"
          f"{'paper nodes':>14}{'paper edges':>14}{'paper %pad':>12}{'scale':>8}")
    for graph, padding in rows:
        spec = graph.spec
        print(
            f"{graph.name:<16}{graph.num_nodes:>10}{graph.num_edges:>12}{padding:>10.1f}"
            f"{spec.paper_nodes:>14}{spec.paper_edges:>14}{spec.paper_padding_percent:>12.1f}"
            f"{spec.scale:>8.2f}"
        )

    # The synthetic graphs must preserve the statistics the experiments rely on.
    for graph, padding in rows:
        spec = graph.spec
        assert graph.num_nodes == spec.nodes
        assert abs(graph.num_edges - spec.edges) / spec.edges < 0.2
        # padding of the bucketed format stays in the paper's ballpark (4-35%)
        assert 0.0 <= padding < 60.0
