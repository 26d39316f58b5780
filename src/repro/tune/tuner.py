"""Search drivers and the SpMM format/schedule tuner."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from ..formats.csr import CSRMatrix
from ..formats.hyb import HybFormat
from ..ops.spmm import spmm_hyb_workload
from ..perf.device import DeviceSpec
from ..perf.gpu_model import GPUModel
from .search_space import ParameterSpace

Objective = Callable[[Dict[str, Any]], float]


@dataclass
class TuningResult:
    """Outcome of one tuning run.

    The first four fields are shared by every search driver; the remainder
    is filled in by the format autoscheduler
    (:func:`~repro.tune.autoscheduler.autotune`): the workload family and
    task fingerprint, the phase-wise best costs (``best_predicted_us`` from
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


def grid_search(space: ParameterSpace, objective: Objective) -> TuningResult:
    """Exhaustively evaluate the space and return the minimum-cost configuration."""
    best_config: Optional[Dict[str, Any]] = None
    best_cost = float("inf")
    history: List[Dict[str, Any]] = []
    count = 0
    for config in space.configurations():
        cost = objective(config)
        history.append({"config": dict(config), "cost": cost})
        count += 1
        if cost < best_cost:
            best_cost = cost
            best_config = dict(config)
    if best_config is None:
        raise ValueError("empty search space")
    return TuningResult(best_config, best_cost, count, history)


def random_search(
    space: ParameterSpace, objective: Objective, trials: int, seed: int = 0
) -> TuningResult:
    """Evaluate up to ``trials`` *distinct* random configurations.

    Sampling is without replacement (:meth:`ParameterSpace.sample`
    deduplicates draws), so a trial budget at or beyond the space size
    degenerates to an exhaustive grid pass: the objective is never invoked
    twice for the same configuration and ``evaluated`` never exceeds
    ``len(space)``.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    best_config: Optional[Dict[str, Any]] = None
    best_cost = float("inf")
    history: List[Dict[str, Any]] = []
    configs = space.sample(min(trials, len(space)), seed=seed)
    for config in configs:
        cost = objective(config)
        history.append({"config": dict(config), "cost": cost})
        if cost < best_cost:
            best_cost = cost
            best_config = dict(config)
    if best_config is None:
        raise ValueError("no configurations evaluated")
    return TuningResult(best_config, best_cost, len(configs), history)


def tune_spmm(
    csr: CSRMatrix,
    feat_size: int,
    device: DeviceSpec,
    space: Optional[ParameterSpace] = None,
    max_trials: Optional[int] = None,
    seed: int = 0,
    session=None,
    objective: str = "model",
    wallclock_repeats: int = 1,
) -> TuningResult:
    """Search composable-format and schedule parameters for the hyb SpMM.

    The default objective is the performance model's estimated kernel
    duration; ``objective="wallclock"`` instead *executes* each candidate
    through the runtime's three-tier dispatch (native kernel, emitted
    kernel, interpreter fallback) and minimises measured seconds — the
    compile-once/run-many loop the stage-IV backend exists for: every
    candidate structure is lowered and emitted once, then timed on its
    cached runner.  Each candidate column-partition / bucket-count pair is
    decomposed at most once — through the
    :class:`~repro.runtime.session.Session`'s content-addressed format cache
    when ``session`` is given (so repeated tuning runs over the same matrix
    share decompositions and any kernels built from them), or a run-local
    memo otherwise.  This is exactly the joint format-and-schedule space of
    the paper.
    """
    from .search_space import ParameterSpace, spmm_search_space

    if objective not in ("model", "wallclock"):
        raise ValueError(f"unknown objective {objective!r}; use 'model' or 'wallclock'")
    if space is None:
        space = spmm_search_space()
        if objective == "wallclock":
            # Schedule-only parameters (thread-block size) do not change the
            # NumPy execution; keeping them would time identical kernels
            # several times and pick among them by noise.
            space = ParameterSpace(
                [c for c in space.choices if c.name in ("num_col_parts", "num_buckets")]
            )
    local: Dict[Any, HybFormat] = {}
    model = GPUModel(device)
    if objective == "wallclock" and session is None:
        from ..runtime.session import Session

        session = Session()

    def decompose(num_col_parts: int, num_buckets: int) -> HybFormat:
        if session is not None:
            return session.decompose_hyb(
                csr, num_col_parts=num_col_parts, num_buckets=num_buckets
            )
        key = (num_col_parts, num_buckets)
        if key not in local:
            local[key] = HybFormat.from_csr(
                csr, num_col_parts=num_col_parts, num_buckets=num_buckets
            )
        return local[key]

    def model_objective(config: Dict[str, Any]) -> float:
        hyb = decompose(config["num_col_parts"], config["num_buckets"])
        workload = spmm_hyb_workload(
            hyb, feat_size, device, threads_per_block=config.get("threads_per_block", 128)
        )
        return model.estimate(workload).duration_us

    features = (
        np.random.default_rng(seed).standard_normal((csr.cols, feat_size)).astype(np.float32)
        if objective == "wallclock"
        else None
    )

    def wallclock_objective(config: Dict[str, Any]) -> float:
        # Warm-up builds (and caches) the kernel; the timed calls measure the
        # run-many path only.
        kwargs = dict(
            format="hyb",
            num_col_parts=config["num_col_parts"],
            num_buckets=config["num_buckets"],
        )
        session.spmm(csr, features, **kwargs)
        best = float("inf")
        for _ in range(max(1, wallclock_repeats)):
            start = time.perf_counter()
            session.spmm(csr, features, **kwargs)
            best = min(best, time.perf_counter() - start)
        return best

    chosen = model_objective if objective == "model" else wallclock_objective
    if max_trials is not None and max_trials < len(space):
        return random_search(space, chosen, trials=max_trials, seed=seed)
    return grid_search(space, chosen)
