"""Figure 14: SDDMM speedup over the DGL/FeatGraph baseline.

Every duration is a *simulated V100* (or RTX 3070) time from the analytic model of
``repro.sim`` — no kernel is run or timed here.
"""

import pytest

from bench_helpers import FEATURE_SIZES, geomean, sddmm_system_durations
from conftest import print_speedup_table
from repro.workloads.graphs import available_graphs, synthetic_graph

SYSTEMS = ("cuSPARSE", "Sputnik", "DGL", "dgSPARSE-csr", "dgSPARSE-coo", "TACO", "SparseTIR")

#: Paper-reported SparseTIR speedups vs the DGL baseline (V100 row of Fig 14).
PAPER_SPARSETIR_SPEEDUP_V100 = {
    "cora": 1.5, "citeseer": 1.4, "pubmed": 1.5, "ppi": 2.3,
    "ogbn-arxiv": 1.6, "ogbn-proteins": 2.1, "reddit": 1.9,
}


@pytest.mark.figure("fig14")
def test_fig14_sddmm_speedup_vs_featgraph(benchmark, device):
    graphs = {name: synthetic_graph(name, seed=0) for name in available_graphs()}

    def run():
        table = {}
        for name, graph in graphs.items():
            csr = graph.to_csr()
            speedups = {system: [] for system in SYSTEMS}
            for feat in FEATURE_SIZES:
                durations = sddmm_system_durations(csr, feat, device)
                base = durations["DGL"]
                for system in SYSTEMS:
                    speedups[system].append(base / durations[system])
            table[name] = {system: geomean(values) for system, values in speedups.items()}
        return table

    table = benchmark.pedantic(run, rounds=1, iterations=1)
    print_speedup_table(
        f"Figure 14 (simulated {device.name}): SDDMM geomean speedup vs DGL (FeatGraph)",
        list(graphs), SYSTEMS, table,
        note="paper reports 1.4-2.3x for SparseTIR on V100; vendor libraries near zero",
    )
    if device.name == "V100":
        print("paper SparseTIR reference:", PAPER_SPARSETIR_SPEEDUP_V100)

    for name, row in table.items():
        # SparseTIR (vectorised loads + rfactor via composable transformations)
        # beats the FeatGraph baseline everywhere...
        assert row["SparseTIR"] > 1.0
        # ...and the general-purpose vendor SDDMM collapses on hyper-sparse graphs.
        assert row["cuSPARSE"] < row["SparseTIR"]
