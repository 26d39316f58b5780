"""Figure 13: SpMM speedup over cuSPARSE across GNN graphs and systems.

For every graph of Table 1 the benchmark evaluates cuSPARSE, Sputnik,
dgSPARSE, TACO, SparseTIR without format decomposition, and SparseTIR with
the tuned ``hyb`` format, and reports the geometric-mean speedup over
cuSPARSE across the paper's feature sizes {32, 64, 128, 256, 512}.

Every duration is a *simulated V100* (or RTX 3070) time from the analytic model of
``repro.sim`` — no kernel is run or timed here.
"""

import pytest

from bench_helpers import FEATURE_SIZES, geomean, spmm_system_durations
from conftest import print_speedup_table
from repro.runtime import Session
from repro.tune import SpMMProblem
from repro.workloads.graphs import available_graphs, synthetic_graph

SYSTEMS = ("cuSPARSE", "Sputnik", "dgSPARSE", "TACO", "SparseTIR(no-hyb)", "SparseTIR(hyb)")

#: Paper-reported geometric-mean speedups of SparseTIR(hyb) vs cuSPARSE.
PAPER_HYB_SPEEDUP = {
    "V100": {"cora": 2.3, "citeseer": 2.3, "pubmed": 1.6, "ppi": 1.2, "ogbn-arxiv": 1.4,
             "ogbn-proteins": 1.3, "reddit": 1.5},
    "RTX3070": {"cora": 1.9, "citeseer": 1.8, "pubmed": 1.6, "ppi": 1.2, "ogbn-arxiv": 1.3,
                "ogbn-proteins": 1.5, "reddit": 1.6},
}


@pytest.mark.figure("fig13")
def test_fig13_spmm_speedup_vs_cusparse(benchmark, device):
    graphs = {name: synthetic_graph(name, seed=0) for name in available_graphs()}

    def run():
        table = {}
        for name, graph in graphs.items():
            csr = graph.to_csr()
            # Tune the composable format once per graph (amortised, as in §2):
            # a predict-only grid pass over the joint csr / hyb(c, k) x
            # schedule space; the hyb column reports its best hyb candidate.
            session = Session(persistent=False)
            search = session.autotune(
                "spmm", SpMMProblem(csr, 128), device=device, strategy="grid",
                survivors=0, records=False,
            )
            best = min(
                (h for h in search.history if h["config"]["format"] == "hyb"),
                key=lambda h: h["predicted_us"],
            )["config"]
            hyb = session.decompose_hyb(  # memoised by the search: decomposed once
                csr, num_col_parts=best["num_col_parts"], num_buckets=best["num_buckets"]
            )
            speedups = {system: [] for system in SYSTEMS}
            for feat in FEATURE_SIZES:
                durations = spmm_system_durations(
                    csr, feat, device, hyb=hyb,
                    hyb_threads=best["threads_per_block"],
                )
                base = durations["cuSPARSE"]
                for system in SYSTEMS:
                    speedups[system].append(base / durations[system])
            table[name] = {system: geomean(values) for system, values in speedups.items()}
        return table

    table = benchmark.pedantic(run, rounds=1, iterations=1)
    print_speedup_table(
        f"Figure 13 (simulated {device.name}): SpMM geomean speedup vs cuSPARSE",
        list(graphs), SYSTEMS, table,
        note="feature sizes {32,64,128,256,512}; paper reports 1.2-2.3x for SparseTIR(hyb)",
    )
    print("paper SparseTIR(hyb) reference:", PAPER_HYB_SPEEDUP[device.name])

    # Shape checks.  On the power-law citation/social graphs the tuned
    # composable-format kernel beats the vendor library and the
    # no-decomposition ablation, as in the paper.  The reddit/ogbn-proteins
    # instances are scaled down so far that the dense operand fits in L2,
    # which removes the column-partitioning advantage the full-size graphs
    # enjoy (see EXPERIMENTS.md); there the requirement is only that hyb
    # stays within ~30% of cuSPARSE.
    for name in ("cora", "citeseer", "pubmed", "ogbn-arxiv"):
        assert table[name]["SparseTIR(hyb)"] >= 1.0
    for name, row in table.items():
        assert row["SparseTIR(hyb)"] >= 0.65
    assert table["ogbn-arxiv"]["SparseTIR(hyb)"] > table["ogbn-arxiv"]["SparseTIR(no-hyb)"]
    assert table["ppi"]["SparseTIR(hyb)"] > table["ppi"]["SparseTIR(no-hyb)"]
