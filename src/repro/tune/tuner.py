"""The result record of a tuning run."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional


@dataclass
class TuningResult:
    """Outcome of one tuning run.

    Filled in by the format autoscheduler
    (:func:`~repro.tune.autoscheduler.autotune`): the winning configuration
    and its cost, the search history, the workload family and task
    fingerprint, the phase-wise best costs (``best_predicted_us`` from
    the GPU cost model, ``best_measured_s`` from wallclock measurement
    through the runtime), whether the result was **replayed** from a
    persisted :class:`~repro.tune.records.TuningRecord` with zero new work,
    and the record itself.
    """

    best_config: Dict[str, Any]
    best_cost: float
    evaluated: int
    history: List[Dict[str, Any]] = field(default_factory=list)
    workload: str = ""
    fingerprint: str = ""
    strategy: str = ""
    best_predicted_us: Optional[float] = None
    best_measured_s: Optional[float] = None
    replayed: bool = False
    record: Any = None
    #: Phase-1 ranking objective the run used ("analytic"/"learned"/"hybrid").
    cost_model: str = "analytic"
    #: Fingerprint of the corpus neighbour whose seeds replaced phase 2
    #: (transfer tuning), or ``None`` for an ordinary run.
    transferred_from: Optional[str] = None
    transfer_distance: Optional[float] = None
    #: Distinct configurations that reached wallclock measurement, and the
    #: total number of timed runs spent on them (0 when replayed).
    measured_configs: int = 0
    timed_runs: int = 0

    def __repr__(self) -> str:
        cost = "None" if self.best_cost is None else f"{self.best_cost:.3g}"
        return (
            f"TuningResult(best_cost={cost}, evaluated={self.evaluated}, "
            f"replayed={self.replayed}, best_config={self.best_config})"
        )
