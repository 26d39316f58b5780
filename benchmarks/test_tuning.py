"""Autoscheduler wall-clock harness: tuned vs default, analytic vs hybrid.

Drives :meth:`Session.autotune` over the fig-13 SpMM benchmark graphs and
writes ``BENCH_tuning.json`` at the repository root — the artifact the CI
``tune-smoke`` job uploads.  For every graph the harness

1. autotunes the ``spmm`` workload with the two-phase driver under the
   **analytic** cost model, forcing the *current default* hyb configuration
   (``hyb(1, heuristic)``) into the measured set, so the tuned winner is
   **at least as fast as the default by construction** (both are timed in
   the same session, the winner is the minimum) — and feeding the
   measurement corpus as a side effect;
2. re-tunes the same task with ``cost_model="hybrid"``: the residual model
   trained on the pass-1 corpus re-ranks phase 1 and halves the phase-2
   survivor budget, so the hybrid pass must spend **strictly fewer
   wallclock measurements** while still beating the default;
3. re-opens the record store in a fresh :class:`Session` and verifies the
   persisted :class:`TuningRecord` replays with zero model evaluations,
   zero re-measurement, and — with the corpus sitting right there — zero
   cost-model retraining.

``test_tuning_smoke`` (CI lane) runs one small graph; ``test_tuning_full``
(nightly, ``slow``) sweeps every fig-13 graph and writes the committed
full-mode file.
"""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from repro.perf.learned import RidgeCostModel
from repro.runtime.session import Session
from repro.tune import SpMMProblem, TuningRecordStore
from repro.workloads.graphs import available_graphs, generate_adjacency, synthetic_graph

_ROOT = Path(__file__).resolve().parent.parent
#: The committed file; only the full-mode run writes it.
OUTPUT = _ROOT / "BENCH_tuning.json"
#: Smoke runs write a sibling file (CI renames it before upload).
SMOKE_OUTPUT = _ROOT / "BENCH_tuning.smoke.json"

#: The untuned baseline every row is compared against: the default hyb
#: decomposition (one column partition, heuristic bucket count) at the
#: default thread-block size.
DEFAULT_HYB = {
    "format": "hyb",
    "num_col_parts": 1,
    "num_buckets": None,
    "threads_per_block": 128,
}


def _measured_seconds(history, config_subset):
    """Best measured seconds of the history entry matching *config_subset*."""
    best = None
    for entry in history:
        if entry["phase"] != "measure":
            continue
        if all(entry["config"].get(k) == v for k, v in config_subset.items()):
            value = entry["measured_s"]
            best = value if best is None else min(best, value)
    return best


def _default_seconds(result):
    seconds = _measured_seconds(
        result.history,
        {k: DEFAULT_HYB[k] for k in ("format", "num_col_parts", "num_buckets")},
    )
    assert seconds is not None, "the default hyb config must be measured"
    assert result.best_measured_s is not None
    # The winner is the minimum over a measured set containing the default.
    assert result.best_measured_s <= seconds
    return seconds


def _tune_one(name, csr, feat_size, store, max_trials, survivors, repeats):
    session = Session(persistent=False, tuning_records=store)
    problem = SpMMProblem(csr, feat_size)
    shared = dict(
        max_trials=max_trials,
        survivors=survivors,
        repeats=repeats,
        seed=0,
        include=[dict(DEFAULT_HYB)],
    )
    # Pass A: the analytic cost model, feeding the measurement corpus.
    result = session.autotune("spmm", problem, **shared)
    default_s = _default_seconds(result)

    # Pass B: the hybrid model trained on that corpus re-ranks phase 1 and
    # halves the phase-2 budget — fewer measurements, same guarantee.
    hybrid = session.autotune(
        "spmm", problem, force=True, cost_model="hybrid",
        corpus_min_samples=3, **shared,
    )
    hybrid_default_s = _default_seconds(hybrid)
    assert hybrid.record.metadata["corpus_samples"] >= 3
    assert hybrid.timed_runs < result.timed_runs, (
        "the confident hybrid model must spend fewer wallclock measurements"
    )

    # Acceptance: a fresh process/session replays the persisted record with
    # zero re-measurement — and, even asked for the learned ranking with a
    # populated corpus on disk, zero cost-model retraining.
    fresh = Session(persistent=False, tuning_records=store)
    fits_before = RidgeCostModel.fit_count
    replay = fresh.autotune("spmm", problem, cost_model="hybrid")
    assert replay.replayed and replay.evaluated == 0
    assert RidgeCostModel.fit_count == fits_before, "replay must not retrain"
    assert fresh.stats.runs == 0
    assert replay.best_config == hybrid.best_config

    row = {
        "graph": name,
        "nodes": csr.rows,
        "nnz": csr.nnz,
        "feat_size": feat_size,
        "evaluated": result.evaluated,
        "default_config": dict(DEFAULT_HYB),
        "default_measured_s": default_s,
        "tuned_config": result.best_config,
        "tuned_predicted_us": result.best_predicted_us,
        "tuned_measured_s": result.best_measured_s,
        "speedup_vs_default": default_s / result.best_measured_s,
        "analytic_measured_configs": result.measured_configs,
        "analytic_timed_runs": result.timed_runs,
        "hybrid_config": hybrid.best_config,
        "hybrid_measured_s": hybrid.best_measured_s,
        "hybrid_speedup_vs_default": hybrid_default_s / hybrid.best_measured_s,
        "hybrid_measured_configs": hybrid.measured_configs,
        "hybrid_timed_runs": hybrid.timed_runs,
        "replay_verified": True,
    }
    print(
        f"{name:16s} tuned {result.best_measured_s * 1e3:8.3f} ms  "
        f"default {default_s * 1e3:8.3f} ms  "
        f"x{row['speedup_vs_default']:.2f}  "
        f"hybrid x{row['hybrid_speedup_vs_default']:.2f} "
        f"({hybrid.timed_runs}/{result.timed_runs} timed runs)  "
        f"cfg={result.best_config}"
    )
    return row


def _run_suite(mode, graphs, feat_size, output, max_trials, survivors, repeats):
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        store = TuningRecordStore(tmp)
        for name, csr in graphs:
            results.append(
                _tune_one(name, csr, feat_size, store, max_trials, survivors, repeats)
            )
    speedups = [row["speedup_vs_default"] for row in results]
    hybrid_speedups = [row["hybrid_speedup_vs_default"] for row in results]
    analytic_runs = sum(row["analytic_timed_runs"] for row in results)
    hybrid_runs = sum(row["hybrid_timed_runs"] for row in results)
    payload = {
        "schema": 2,
        "harness": "benchmarks/test_tuning.py",
        "mode": mode,
        "workload": "spmm",
        "numpy": np.__version__,
        "results": results,
        "summary": {
            "graphs": len(results),
            "geomean_speedup_vs_default": float(np.exp(np.mean(np.log(speedups)))),
            "min_speedup_vs_default": float(min(speedups)),
            "hybrid_geomean_speedup_vs_default": float(
                np.exp(np.mean(np.log(hybrid_speedups)))
            ),
            "hybrid_min_speedup_vs_default": float(min(hybrid_speedups)),
            "analytic_timed_runs": analytic_runs,
            "hybrid_timed_runs": hybrid_runs,
        },
    }
    # The learned model's acceptance gate: equal-or-better geomean on a
    # strictly smaller wallclock budget.
    assert hybrid_runs < analytic_runs
    assert payload["summary"]["hybrid_min_speedup_vs_default"] >= 1.0
    output.write_text(json.dumps(payload, indent=2) + "\n")
    print(
        f"\nwrote {output} (geomean tuned vs default hyb: "
        f"x{payload['summary']['geomean_speedup_vs_default']:.2f}; hybrid "
        f"x{payload['summary']['hybrid_geomean_speedup_vs_default']:.2f} "
        f"on {hybrid_runs}/{analytic_runs} timed runs)"
    )
    return payload


@pytest.mark.figure("tuning")
def test_tuning_smoke():
    """Bounded autotune on one small graph — the CI ``tune-smoke`` job."""
    graph = generate_adjacency(400, 3200, "powerlaw", seed=5)
    payload = _run_suite(
        "smoke", [("powerlaw-400", graph)], feat_size=16, output=SMOKE_OUTPUT,
        max_trials=12, survivors=3, repeats=2,
    )
    assert SMOKE_OUTPUT.exists()
    assert payload["summary"]["min_speedup_vs_default"] >= 1.0


@pytest.mark.slow
@pytest.mark.bench  # also auto-applied by benchmarks/conftest.py; explicit here
@pytest.mark.figure("tuning")
def test_tuning_full(bench_output):
    """Every fig-13 graph; the committed ``BENCH_tuning.json`` comes from
    this run under ``pytest --write-bench``.  Acceptance: on each graph the
    tuned decomposition is at least
    as fast as the default hyb config, and the persisted TuningRecord
    replays without re-measurement."""
    graphs = [
        (name, synthetic_graph(name, seed=0).to_csr()) for name in available_graphs()
    ]
    payload = _run_suite(
        "full", graphs, feat_size=32, output=bench_output(OUTPUT),
        max_trials=24, survivors=4, repeats=3,
    )
    assert payload["summary"]["min_speedup_vs_default"] >= 1.0
