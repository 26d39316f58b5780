"""Table 2: statistics of the heterogeneous graphs and the hyb %padding column.

Statistics of the generated structures only: nothing in this table is priced on
the *simulated V100* of ``repro.sim`` (and nothing is timed).
"""

import pytest

from repro.formats.hyb import HybFormat
from repro.workloads.hetero_graphs import available_hetero_graphs, synthetic_hetero_graph


def _relational_padding_percent(graph) -> float:
    stored = 0
    nnz = 0
    for matrix in graph.adjacency.slices:
        if matrix is None or matrix.nnz == 0:
            continue
        hyb = HybFormat.from_csr(matrix, num_col_parts=1, num_buckets=5)
        stored += hyb.stored
        nnz += hyb.nnz
    return 100.0 * (1.0 - nnz / stored) if stored else 0.0


@pytest.mark.figure("table2")
def test_table2_heterogeneous_graph_statistics(benchmark):
    def build():
        rows = []
        for name in available_hetero_graphs():
            graph = synthetic_hetero_graph(name, seed=0)
            rows.append((graph, _relational_padding_percent(graph)))
        return rows

    rows = benchmark.pedantic(build, rounds=1, iterations=1)

    print("\n=== Table 2: heterogeneous graphs used in RGCN (synthetic, scaled; structure statistics, no simulated V100 time) ===")
    print(f"{'graph':<14}{'#nodes':>9}{'#edges':>10}{'#etypes':>9}{'%padding':>10}"
          f"{'paper nodes':>13}{'paper edges':>13}{'paper %pad':>12}")
    for graph, padding in rows:
        spec = graph.spec
        print(
            f"{graph.name:<14}{graph.num_nodes:>9}{graph.num_edges:>10}{graph.num_etypes:>9}"
            f"{padding:>10.1f}{spec.paper_nodes:>13}{spec.paper_edges:>13}"
            f"{spec.paper_padding_percent:>12.1f}"
        )

    for graph, padding in rows:
        spec = graph.spec
        assert graph.num_etypes == spec.num_etypes
        assert graph.num_nodes == spec.nodes
        assert 0.0 <= padding < 70.0
