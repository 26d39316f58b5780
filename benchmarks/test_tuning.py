"""Autoscheduler contract: the default is in the race, hybrid measures less, records replay.

Drives :meth:`Session.autotune` over the fig-13 SpMM benchmark graphs.  For
every graph the test

1. autotunes the ``spmm`` workload with the two-phase driver under the
   **analytic** cost model, forcing the *current default* hyb configuration
   (``hyb(1, heuristic)``) into the measured set, so the tuned winner is
   **at least as fast as the default by construction** (both are timed in
   the same session, the winner is the minimum) — and feeding the
   measurement corpus as a side effect;
2. re-tunes the same task with ``cost_model="hybrid"``: the residual model
   trained on the pass-1 corpus re-ranks phase 1 and halves the phase-2
   survivor budget, so the hybrid pass must spend **strictly fewer
   wallclock measurements** with the default still in its measured set;
3. re-opens the record store in a fresh :class:`Session` and verifies the
   persisted :class:`TuningRecord` replays with zero model evaluations,
   zero re-measurement, and — with the corpus sitting right there — zero
   cost-model retraining.

``test_tuning_smoke`` runs one small graph, ``test_tuning_full`` (``slow``)
sweeps every fig-13 graph.  The only clock here is the tuner's own; what a
tuned format is worth next to SciPy is ``python3 bench/run.py --workload
eager-large`` (its hyb rows).
"""

import pytest

from repro.runtime.session import Session
from repro.sim.learned import RidgeCostModel
from repro.tune import SpMMProblem, TuningRecordStore
from repro.workloads.graphs import available_graphs, generate_adjacency, synthetic_graph

#: The untuned baseline: the default hyb decomposition (one column partition,
#: heuristic bucket count) at the default thread-block size.
DEFAULT_HYB = {
    "format": "hyb",
    "num_col_parts": 1,
    "num_buckets": None,
    "threads_per_block": 128,
}


def _check_default_in_race(result):
    """The default hyb config was measured, and the winner is no slower."""
    subset = {k: DEFAULT_HYB[k] for k in ("format", "num_col_parts", "num_buckets")}
    measured = [
        entry["measured_s"]
        for entry in result.history
        if entry["phase"] == "measure"
        and all(entry["config"].get(k) == v for k, v in subset.items())
    ]
    assert measured, "the default hyb config must be measured"
    assert result.best_measured_s is not None
    # The winner is the minimum over a measured set containing the default.
    assert result.best_measured_s <= min(measured)


def _tune_one(csr, feat_size, store, max_trials, survivors):
    session = Session(persistent=False, tuning_records=store)
    problem = SpMMProblem(csr, feat_size)
    shared = dict(
        max_trials=max_trials, survivors=survivors, seed=0, include=[dict(DEFAULT_HYB)]
    )
    # Pass A: the analytic cost model, feeding the measurement corpus.
    result = session.autotune("spmm", problem, **shared)
    _check_default_in_race(result)

    # Pass B: the hybrid model trained on that corpus re-ranks phase 1 and
    # halves the phase-2 budget — fewer measurements, same guarantee.
    hybrid = session.autotune(
        "spmm", problem, force=True, cost_model="hybrid", corpus_min_samples=3, **shared
    )
    _check_default_in_race(hybrid)
    assert hybrid.record.metadata["corpus_samples"] >= 3
    assert hybrid.timed_runs < result.timed_runs, (
        "the confident hybrid model must spend fewer wallclock measurements"
    )

    # A fresh process/session replays the persisted record with zero
    # re-measurement — and, even asked for the learned ranking with a
    # populated corpus on disk, zero cost-model retraining.
    fresh = Session(persistent=False, tuning_records=store)
    fits_before = RidgeCostModel.fit_count
    replay = fresh.autotune("spmm", problem, cost_model="hybrid")
    assert replay.replayed and replay.evaluated == 0
    assert RidgeCostModel.fit_count == fits_before, "replay must not retrain"
    assert fresh.stats.runs == 0
    assert replay.best_config == hybrid.best_config


@pytest.mark.figure("tuning")
def test_tuning_smoke(tmp_path):
    """Bounded autotune on one small graph: the CI ``contracts-smoke`` lane."""
    graph = generate_adjacency(400, 3200, "powerlaw", seed=5)
    _tune_one(graph, 16, TuningRecordStore(tmp_path), max_trials=12, survivors=3)


@pytest.mark.slow
@pytest.mark.figure("tuning")
def test_tuning_full(tmp_path):
    """Every fig-13 graph."""
    store = TuningRecordStore(tmp_path)
    for name in available_graphs():
        csr = synthetic_graph(name, seed=0).to_csr()
        _tune_one(csr, 32, store, max_trials=24, survivors=4)
