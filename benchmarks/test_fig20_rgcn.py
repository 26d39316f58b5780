"""Figure 20: end-to-end RGCN inference speedup vs Graphiler and memory footprint.

Every duration is a *simulated V100* (or RTX 3070) time from the analytic model of
``repro.sim`` — no kernel is run or timed here.
"""

import pytest

from repro.sim.models.rgcn import RGCN_SYSTEMS, rgcn_speedup_table
from repro.workloads.hetero_graphs import available_hetero_graphs, synthetic_hetero_graph

FEAT_SIZE = 32

PAPER_HYB_TC_SPEEDUP_V100 = {
    "aifb": 40.2, "mutag": 27.7, "bgs": 17.8, "ogbl-biokg": 8.6, "am": 4.3,
}


@pytest.mark.figure("fig20")
def test_fig20_rgcn_inference(benchmark, device):
    graphs = {name: synthetic_hetero_graph(name, seed=0) for name in available_hetero_graphs()}

    def run():
        table = {}
        for name, graph in graphs.items():
            table[name] = rgcn_speedup_table(graph.adjacency, FEAT_SIZE, device)
        return table

    table = benchmark.pedantic(run, rounds=1, iterations=1)

    print(f"\n=== Figure 20 (simulated {device.name}): RGCN inference speedup vs Graphiler ===")
    print(f"{'graph':<12}" + "".join(f"{s:>18}" for s in RGCN_SYSTEMS) + f"{'paper hyb+TC':>14}")
    for name, estimates in table.items():
        base = estimates["graphiler"].duration_us
        line = f"{name:<12}"
        for system in RGCN_SYSTEMS:
            line += f"{base / estimates[system].duration_us:>18.2f}"
        line += f"{PAPER_HYB_TC_SPEEDUP_V100.get(name, float('nan')):>14.1f}"
        print(line)

    print("\n--- simulated GPU memory footprint (MiB) ---")
    print(f"{'graph':<12}" + "".join(f"{s:>18}" for s in RGCN_SYSTEMS))
    for name, estimates in table.items():
        line = f"{name:<12}"
        for system in RGCN_SYSTEMS:
            line += f"{estimates[system].memory_footprint_bytes / 2**20:>18.1f}"
        print(line)

    for name, estimates in table.items():
        base = estimates["graphiler"].duration_us
        hyb_tc = estimates["sparsetir_hyb_tc"]
        # SparseTIR(hyb+TC) delivers a clear speedup over Graphiler...
        assert base / hyb_tc.duration_us > 1.5
        # ...both composability mechanisms contribute...
        assert hyb_tc.duration_us < estimates["sparsetir_hyb"].duration_us
        assert estimates["sparsetir_hyb"].duration_us < estimates["sparsetir_naive"].duration_us
        # ...and the fused kernel avoids the materialised intermediate.
        assert hyb_tc.memory_footprint_bytes < estimates["graphiler"].memory_footprint_bytes
