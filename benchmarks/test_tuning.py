"""Autoscheduler contract: the default is in the race, and records replay.

Drives :meth:`Session.autotune` over the fig-13 SpMM benchmark graphs.  For
every graph the test

1. autotunes the ``spmm`` workload with the two-phase driver, forcing the
   *current default* hyb configuration (``hyb(1, heuristic)``) into the
   measured set, so the tuned winner is **at least as fast as the default
   by construction** (both are timed in the same session, the winner is the
   minimum);
2. re-opens the record store in a fresh :class:`Session` and verifies the
   persisted :class:`TuningRecord` replays the same winner with zero model
   evaluations and zero re-measurement.

``test_tuning_smoke`` runs one small graph, ``test_tuning_full`` (``slow``)
sweeps every fig-13 graph.  The only clock here is the tuner's own; what a
tuned format is worth next to SciPy is ``python3 bench/run.py --workload
eager-large`` (its hyb rows).
"""

import pytest

from repro.runtime.session import Session
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
    result = session.autotune(
        "spmm", problem, max_trials=max_trials, survivors=survivors, seed=0,
        include=[dict(DEFAULT_HYB)],
    )
    _check_default_in_race(result)

    # A fresh process/session replays the persisted record with zero
    # re-measurement.
    fresh = Session(persistent=False, tuning_records=store)
    replay = fresh.autotune("spmm", problem)
    assert replay.replayed and replay.evaluated == 0
    assert fresh.stats.runs == 0
    assert replay.best_config == result.best_config


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
