"""GNN SpMM: composable-format tuning and comparison against baselines.

Generates a power-law graph with the statistics of ogbn-arxiv (Table 1),
searches the joint format/schedule space of the ``hyb`` SpMM with the tuner,
and prints the estimated speedup over every baseline of Figure 13.

Run with:  python examples/gnn_spmm_tuning.py
"""

import numpy as np

from repro.ops.spmm import spmm_reference
from repro.runtime import Session
from repro.sim.baselines import cusparse, dgsparse, sputnik, taco
from repro.sim.device import V100
from repro.sim.gpu_model import GPUModel
from repro.sim.ops.spmm import spmm_csr_workload, spmm_hyb_workload
from repro.tune import SpMMProblem
from repro.workloads.graphs import feature_matrix, synthetic_graph


def main() -> None:
    feat_size = 128
    graph = synthetic_graph("ogbn-arxiv", seed=0)
    csr = graph.to_csr()
    print(f"graph {graph.name}: {graph.num_nodes} nodes, {graph.num_edges} edges "
          f"(scale {graph.spec.scale:.2f} of the original)")

    # Tune the composable format and schedule parameters (Section 2's tuner):
    # a predict-only pass (survivors=0) prices 40 sampled points of the joint
    # csr / hyb(c, k) x schedule space with the GPU cost model.  The comparison
    # below is about the composable format, so take the best hyb candidate.
    session = Session()
    search = session.autotune(
        "spmm", SpMMProblem(csr, feat_size), device=V100,
        strategy="random", max_trials=40, survivors=0,
    )
    best = min(
        (h for h in search.history if h["config"]["format"] == "hyb"),
        key=lambda h: h["predicted_us"],
    )
    print(f"tuner evaluated {search.evaluated} configurations; best hyb: {best['config']} "
          f"-> {best['predicted_us']:.1f} us")

    model = GPUModel(V100)
    tuned_hyb = session.decompose_hyb(
        csr,
        num_col_parts=best["config"]["num_col_parts"],
        num_buckets=best["config"]["num_buckets"],
    )
    durations = {
        "cuSPARSE": model.estimate(cusparse.spmm_workload(csr, feat_size, V100)).duration_us,
        "Sputnik": model.estimate(sputnik.spmm_workload(csr, feat_size, V100)).duration_us,
        "dgSPARSE": model.estimate(dgsparse.spmm_workload(csr, feat_size, V100)).duration_us,
        "TACO": model.estimate(taco.spmm_workload(csr, feat_size, V100)).duration_us,
        "SparseTIR(no-hyb)": model.estimate(
            spmm_csr_workload(csr, feat_size, V100)
        ).duration_us,
        "SparseTIR(hyb)": model.estimate(
            spmm_hyb_workload(
                tuned_hyb, feat_size, V100,
                threads_per_block=best["config"]["threads_per_block"],
            )
        ).duration_us,
    }
    baseline = durations["cuSPARSE"]
    print(f"\n{'system':<20s} {'duration (us)':>14s} {'speedup vs cuSPARSE':>22s}")
    for system, duration in durations.items():
        print(f"{system:<20s} {duration:>14.1f} {baseline / duration:>22.2f}")
    print(f"\nhyb padding ratio: {tuned_hyb.padding_ratio:.1%} "
          f"(paper reports {graph.spec.paper_padding_percent:.1f}% for the full-size graph)")

    # Numerically execute the tuned composable-format kernel on a small
    # feature slice through the session (compiled kernel + kernel cache)
    # and validate it against the dense reference.
    features = feature_matrix(csr.cols, 16, seed=1)
    out = session.spmm(
        csr,
        features,
        format="hyb",
        num_col_parts=best["config"]["num_col_parts"],
        num_buckets=best["config"]["num_buckets"],
    )
    error = float(np.abs(out - spmm_reference(csr, features)).max())
    print(f"tuned hyb kernel executed; max |error| vs dense reference: {error:.2e}")
    print(f"session stats: {session.stats.as_dict()}")

    # With survivors > 0 the same call goes on to phase 2 (docs/tuning.md):
    # the best-predicted candidates are timed through the session's compiled
    # kernels, and the winner is remembered so tuned=True operator calls
    # pick it up automatically.
    auto = session.autotune(
        "spmm", SpMMProblem(csr, 16), max_trials=24, survivors=3, repeats=2
    )
    print(f"\nautoscheduler best ({auto.evaluated} model evals, "
          f"{auto.best_measured_s * 1e3:.2f} ms measured): {auto.best_config}")
    tuned_out = session.spmm(csr, features, tuned=True)
    print("tuned=True output matches:",
          bool(np.allclose(tuned_out, spmm_reference(csr, features), atol=1e-3)))


if __name__ == "__main__":
    main()
