"""The workload-generic format autoscheduler: predict, prune, measure, record.

The driver runs the two-phase search the paper's tuning section describes,
generalised over every registered workload family
(:mod:`repro.tune.spaces`):

1. **Predict** — a search strategy (``grid``, ``random``, ``evolutionary`` or
   ``successive_halving``) walks the workload's
   :class:`~repro.tune.search_space.ParameterSpace`, pricing each candidate
   decomposition with the :class:`~repro.sim.gpu_model.GPUModel` cost of its
   analytic kernel workload.  Candidates are deduplicated by their
   *canonical* form (model-inert parameters pinned), and infeasible
   configurations are discarded.
2. **Measure** — the best-predicted candidates with *distinct execution
   behaviour* run through a :class:`~repro.runtime.session.Session`:
   the first (untimed) call compiles and caches the emitted stage-IV kernel,
   subsequent calls time the run-many path only.  ``successive_halving``
   re-measures shrinking survivor sets with doubling repeat counts.

The winning configuration is persisted as a
:class:`~repro.tune.records.TuningRecord` keyed by the structural task
fingerprint, so later sessions — including fresh processes — replay the
decision without re-measuring anything (``TuningResult.replayed``).
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..runtime.session import Session
from ..sim.device import DeviceSpec, V100
from ..sim.gpu_model import estimate_us
from ..sim.learned import FEATURE_VERSION, RidgeCostModel, feature_list, workload_features
from .records import TuningRecord, _jsonable_config, resolve_record_store
from .search_space import ParameterSpace, config_key
from .spaces import InfeasibleConfig, WorkloadSpec, get_workload, task_fingerprint
from .transfer import DEFAULT_MAX_DISTANCE, plan_transfer, task_features, train_from_corpus
from .tuner import TuningResult

STRATEGIES = ("grid", "random", "evolutionary", "successive_halving")

#: Phase-1 ranking objectives: the analytic GPU model alone, the
#: corpus-trained residual model alone, or the residual model only once it
#: is confident (enough samples, tight residual) — the safe default upgrade.
COST_MODELS = ("analytic", "learned", "hybrid")

#: Default cap on phase-1 cost-model evaluations for the sampling strategies.
DEFAULT_MAX_TRIALS = 64


# ---------------------------------------------------------------------------
# Phase 1: candidate generation under the cost model
# ---------------------------------------------------------------------------

class _Predictor:
    """Memoised cost-model objective over canonical configurations.

    ``cost`` returns the phase-1 *ranking score*: the analytic estimate, or —
    when a corpus-trained :class:`RidgeCostModel` is attached — the analytic
    estimate times the learned residual correction.  The raw analytic price
    and the feature vector of every priced configuration stay available for
    the tuning record and the measurement corpus.
    """

    def __init__(
        self,
        spec: WorkloadSpec,
        problem: Any,
        device: DeviceSpec,
        session: Any,
        model: Optional[RidgeCostModel] = None,
        collect_features: bool = False,
    ):
        self.spec = spec
        self.problem = problem
        self.device = device
        #: Phase 1 decomposes hyb / BSR through the session phase 2 measures
        #: with; ``memo`` holds the decompositions a session does not memoise.
        self.session = session
        self.model = model
        self.collect_features = collect_features or model is not None
        self.memo: Dict = {}
        self.costs: Dict[Tuple, float] = {}
        self.analytic: Dict[Tuple, float] = {}
        self.features: Dict[Tuple, List[float]] = {}
        self.history: List[Dict[str, Any]] = []

    def _workload(self, config: Dict[str, Any]) -> Any:
        return self.spec.predict(self.problem, config, self.device, self.session, self.memo)

    def cost(self, config: Dict[str, Any]) -> float:
        """Ranking score of *config*; ``inf`` when infeasible."""
        key = config_key(self.spec.canonical(config))
        if key in self.costs:
            return self.costs[key]
        features: Optional[List[float]] = None
        try:
            workload = self._workload(config)
            analytic = float(estimate_us(workload, self.device))
            if self.collect_features:
                features = feature_list(workload_features(workload, self.device))
                self.features[key] = features
        except InfeasibleConfig:
            analytic = float("inf")
        score = analytic
        if self.model is not None and features is not None and analytic != float("inf"):
            score = float(self.model.predict_us(features, analytic))
        self.costs[key] = score
        self.analytic[key] = analytic
        entry = {
            "phase": "predict",
            "config": dict(config),
            "predicted_us": None if analytic == float("inf") else analytic,
        }
        if self.model is not None:
            entry["score"] = None if score == float("inf") else score
        self.history.append(entry)
        return score

    def analytic_us(self, config: Dict[str, Any]) -> float:
        """The uncorrected analytic estimate of *config*."""
        key = config_key(self.spec.canonical(config))
        if key not in self.analytic:
            self.cost(config)
        return self.analytic[key]

    def features_of(self, config: Dict[str, Any]) -> Optional[List[float]]:
        """The feature vector of *config* (``None`` when infeasible)."""
        key = config_key(self.spec.canonical(config))
        if key in self.features:
            return self.features[key]
        try:
            workload = self._workload(config)
        except InfeasibleConfig:
            return None
        features = feature_list(workload_features(workload, self.device))
        self.features[key] = features
        return features

    @property
    def evaluated(self) -> int:
        return len(self.costs)


def _phase1_candidates(
    strategy: str,
    space: ParameterSpace,
    predictor: _Predictor,
    max_trials: Optional[int],
    seed: int,
) -> List[Tuple[float, Dict[str, Any]]]:
    """Run one search strategy; returns (cost, config) sorted best-first.

    Only one entry per *canonical* configuration survives, so phase 2 never
    sees behavioural duplicates.
    """
    budget = max_trials if max_trials is not None else min(len(space), DEFAULT_MAX_TRIALS)
    if strategy == "grid" or budget >= len(space):
        configs = list(space.configurations())
    elif strategy in ("random", "successive_halving"):
        configs = space.sample(budget, seed=seed)
    elif strategy == "evolutionary":
        configs = _evolutionary(space, predictor, budget, seed)
    else:
        raise ValueError(f"unknown strategy {strategy!r}; use one of {STRATEGIES}")

    ranked: List[Tuple[float, Dict[str, Any]]] = []
    seen = set()
    for config in configs:
        cost = predictor.cost(config)
        key = config_key(predictor.spec.canonical(config))
        if key in seen or cost == float("inf"):
            continue
        seen.add(key)
        ranked.append((cost, config))
    ranked.sort(key=lambda item: item[0])
    return ranked


def _evolutionary(
    space: ParameterSpace,
    predictor: _Predictor,
    budget: int,
    seed: int,
    population_size: int = 16,
    mutation_rate: float = 0.5,
) -> List[Dict[str, Any]]:
    """A small deterministic genetic search over predicted cost.

    Seeds a random population, then repeatedly breeds children from the
    fitter half (uniform crossover + single-parameter mutation), keeping
    only configurations whose canonical form has not been priced yet, until
    the evaluation budget is exhausted or the space stops yielding novelty.
    """
    rng = np.random.default_rng(seed)
    population_size = min(population_size, len(space), budget)
    population = space.sample(population_size, seed=seed)
    evaluated: List[Dict[str, Any]] = []
    seen = set()

    def admit(config: Dict[str, Any]) -> bool:
        key = config_key(predictor.spec.canonical(config))
        if key in seen:
            return False
        seen.add(key)
        predictor.cost(config)
        evaluated.append(config)
        return True

    for config in population:
        if len(evaluated) >= budget:
            return evaluated
        admit(config)

    stale_rounds = 0
    while len(evaluated) < budget and stale_rounds < 3:
        ranked = sorted(evaluated, key=predictor.cost)
        parents = ranked[: max(2, len(ranked) // 2)]
        admitted = 0
        for _ in range(population_size):
            if len(evaluated) >= budget:
                break
            left = parents[int(rng.integers(0, len(parents)))]
            right = parents[int(rng.integers(0, len(parents)))]
            child = space.crossover(left, right, rng)
            if rng.random() < mutation_rate:
                child = space.mutate(child, rng)
            if admit(child):
                admitted += 1
        stale_rounds = 0 if admitted else stale_rounds + 1
    return evaluated


# ---------------------------------------------------------------------------
# Phase 2: wallclock measurement through the session runtime
# ---------------------------------------------------------------------------

def _measure_once(run: Callable[[], Any]) -> float:
    start = time.perf_counter()
    run()
    return time.perf_counter() - start


def _phase2_measure(
    spec: WorkloadSpec,
    problem: Any,
    session: Any,
    candidates: List[Tuple[float, Dict[str, Any]]],
    survivors: int,
    repeats: int,
    halving: bool,
    seed: int,
    fingerprint: str,
    predictor: _Predictor,
    forced: Optional[List[Tuple[float, Dict[str, Any]]]] = None,
) -> List[Tuple[float, float, Dict[str, Any]]]:
    """Measure the best-predicted survivors; returns (seconds, us, config).

    Candidates whose execution-relevant projection coincides collapse onto
    the one with the best predicted cost — measuring both would time the
    same cached kernel twice and pick between them by noise.  ``forced``
    candidates (baselines the caller wants in the comparison) are always
    measured, on top of the ``survivors`` budget.
    """
    chosen: List[Tuple[float, Dict[str, Any]]] = []
    seen_exec = set()
    for cost, config in forced or []:
        exec_key = config_key(spec.exec_config(config))
        if spec.measurable(config) and exec_key not in seen_exec:
            seen_exec.add(exec_key)
            chosen.append((cost, config))
    budget = len(chosen) + survivors
    for cost, config in candidates:
        if len(chosen) >= budget:
            break
        if not spec.measurable(config):
            continue
        exec_key = config_key(spec.exec_config(config))
        if exec_key in seen_exec:
            continue
        seen_exec.add(exec_key)
        chosen.append((cost, config))
    if not chosen:
        return []

    # Deterministic dense operands: a function of the task and seed only.
    rng = np.random.default_rng(
        np.frombuffer(bytes.fromhex(fingerprint[:16]), dtype=np.uint64) ^ np.uint64(seed)
    )
    inputs = spec.make_inputs(problem, rng)

    timings: List[Tuple[float, float, Dict[str, Any]]] = []
    for cost, config in chosen:
        # Warm-up compiles and caches the kernel; it is never timed.
        spec.run(session, problem, config, inputs)
        timings.append((float("inf"), cost, config))

    rounds: List[Tuple[int, int]] = []
    if halving:
        remaining = len(timings)
        round_repeats = 1
        while remaining > 1:
            rounds.append((remaining, round_repeats))
            remaining = max(1, remaining // 2)
            round_repeats *= 2
        rounds.append((1, round_repeats))
    else:
        rounds.append((len(timings), max(1, repeats)))

    for keep, round_repeats in rounds:
        timings = timings[:keep]
        for index, (best, cost, config) in enumerate(timings):
            for _ in range(round_repeats):
                best = min(
                    best, _measure_once(lambda: spec.run(session, problem, config, inputs))
                )
            timings[index] = (best, cost, config)
            predictor.history.append(
                {
                    "phase": "measure",
                    "config": dict(config),
                    "predicted_us": predictor.analytic_us(config),
                    "measured_s": best,
                    "repeats": round_repeats,
                }
            )
        timings.sort(key=lambda item: item[0])
    return timings


# ---------------------------------------------------------------------------
# The driver
# ---------------------------------------------------------------------------

def autotune(
    workload: str,
    problem: Any,
    device: DeviceSpec = V100,
    session: Any = None,
    strategy: str = "evolutionary",
    max_trials: Optional[int] = None,
    survivors: int = 8,
    repeats: int = 3,
    seed: int = 0,
    records: Any = None,
    force: bool = False,
    include: Optional[List[Dict[str, Any]]] = None,
    cost_model: str = "analytic",
    transfer: bool = False,
    transfer_max_distance: float = DEFAULT_MAX_DISTANCE,
    corpus_min_samples: int = 8,
) -> TuningResult:
    """Search the workload's decomposition space and persist the winner.

    Args:
        workload: Registered workload family name
            (see :func:`~repro.tune.spaces.available_workloads`).
        problem: The workload's problem description (e.g.
            :class:`~repro.tune.spaces.SpMMProblem`).
        device: Device whose cost model prunes phase 1.
        session: :class:`~repro.runtime.session.Session` phase 1 decomposes
            formats through and phase 2 measures through (one decomposition
            serves both); ``None`` creates a private one.
        strategy: ``"grid"``, ``"random"``, ``"evolutionary"`` or
            ``"successive_halving"``.
        max_trials: Phase-1 cost-model evaluation budget (defaults to the
            whole space for ``grid``, else ``min(|space|, 64)``).
        survivors: How many best-predicted candidates reach wallclock
            measurement.  ``0`` makes the run predict-only (deterministic:
            same seed, same history).
        repeats: Timed runs per surviving candidate (best-of).
        seed: Seed for sampling, evolution and measurement inputs.
        records: Persistent record store selector — ``None`` resolves
            ``$REPRO_TUNING_RECORDS``, ``False`` disables persistence,
            ``True``/path/:class:`TuningRecordStore` select a store.
        force: Re-run the search even when a record exists.
        include: Configurations that must be measured regardless of their
            predicted rank (e.g. the untuned default, so the result is
            guaranteed at least as fast as the baseline it replaces).  Each
            must be a member of the workload's space; infeasible baselines
            are skipped.  Requires ``survivors > 0`` (forcing baselines into
            a predict-only run would let the baseline win unmeasured).
        cost_model: Phase-1 ranking objective.  ``"analytic"`` uses the GPU
            model alone; ``"learned"`` multiplies it by the residual
            correction of a :class:`~repro.sim.learned.RidgeCostModel`
            trained on the store's measurement corpus; ``"hybrid"`` applies
            the correction only once the model is *confident* (enough
            corpus samples, tight training residual) and then also halves
            the phase-2 survivor budget — fewer wallclock measurements for
            the same search quality.  Without a record store both learned
            modes silently degrade to the analytic ranking.
        transfer: Seed phase 1 from the winning configurations of the
            nearest corpus neighbour in feature space (a structurally
            similar, already-tuned task).  Combined with a confident
            learned model (and no ``include`` baselines) the neighbour's
            knowledge replaces phase 2 entirely: the run is predict-only
            and ``result.transferred_from`` names the source fingerprint.
        transfer_max_distance: Relative feature-space distance bound for a
            corpus entry to count as a near neighbour.
        corpus_min_samples: Minimum corpus triples before a learned model
            is trained at all (also its confidence floor).

    Returns:
        A :class:`~repro.tune.tuner.TuningResult`; ``result.replayed`` is
        True when a persisted record satisfied the call with zero model
        evaluations and zero measurements.
    """
    spec = get_workload(workload)
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; use one of {STRATEGIES}")
    if cost_model not in COST_MODELS:
        raise ValueError(f"unknown cost_model {cost_model!r}; use one of {COST_MODELS}")
    if max_trials is not None and max_trials <= 0:
        raise ValueError("max_trials must be positive")
    store = resolve_record_store(records)
    fingerprint = task_fingerprint(spec, problem)
    space = spec.space(problem)

    if store is not None and not force:
        record = store.get(fingerprint)
        if record is not None and space.contains(record.config):
            if session is not None and hasattr(session, "_remember_tuning"):
                session._remember_tuning(record)
            return TuningResult(
                best_config=dict(record.config),
                best_cost=(
                    record.measured_s
                    if record.measured_s is not None
                    else record.predicted_us
                ),
                evaluated=0,
                history=[],
                workload=workload,
                fingerprint=fingerprint,
                strategy=record.strategy,
                best_predicted_us=record.predicted_us,
                best_measured_s=record.measured_s,
                replayed=True,
                record=record,
                cost_model=cost_model,
            )

    if include and survivors <= 0:
        raise ValueError(
            "include= forces baselines into the measured set; it requires survivors > 0"
        )

    model: Optional[RidgeCostModel] = None
    if cost_model in ("learned", "hybrid") and store is not None:
        model = train_from_corpus(
            store, workload=workload, min_samples=corpus_min_samples
        )
    use_model = model is not None and (cost_model == "learned" or model.confident)

    # Feature vectors for unmeasured candidates are only needed when the
    # model ranks with them; the corpus write recomputes the few measured
    # ones on demand (``features_of``).
    if session is None:
        session = Session()
    predictor = _Predictor(spec, problem, device, session, model=model if use_model else None)
    ranked = _phase1_candidates(strategy, space, predictor, max_trials, seed)

    reference_features = None
    if store is not None:
        reference_features = task_features(
            spec, problem, device, session=session, memo=predictor.memo
        )

    plan = None
    if transfer and store is not None:
        plan = plan_transfer(
            store,
            spec,
            problem,
            device,
            fingerprint,
            features=reference_features,
            max_distance=transfer_max_distance,
            session=session,
            memo=predictor.memo,
        )
        if plan is not None:
            # Seed phase 1 with the neighbour's winners: price them and merge
            # them into the ranked list even when sampling missed them.
            seen = {config_key(spec.canonical(config)) for _, config in ranked}
            for config in plan.seed_configs:
                cost = predictor.cost(config)
                key = config_key(spec.canonical(config))
                if cost != float("inf") and key not in seen:
                    seen.add(key)
                    ranked.append((cost, config))
            ranked.sort(key=lambda item: item[0])

    forced: List[Tuple[float, Dict[str, Any]]] = []
    for config in include or []:
        if not space.contains(config):
            raise ValueError(f"include config {config} is not in the search space")
        cost = predictor.cost(config)
        if cost != float("inf"):  # infeasible baselines never reach the runtime
            forced.append((cost, config))
    if not ranked and not forced:
        raise ValueError(f"no feasible configuration for workload {workload!r}")

    # A confident learned model needs fewer wallclock samples: halve the
    # survivor budget, and with a transferred seed set skip phase 2 outright.
    effective_survivors = survivors
    confident = use_model and model is not None and model.confident
    if confident and survivors > 1:
        effective_survivors = max(1, survivors // 2)
    transferred = bool(plan is not None and confident and not include and survivors > 0)
    if transferred:
        effective_survivors = 0

    measured: List[Tuple[float, float, Dict[str, Any]]] = []
    if effective_survivors > 0:
        measured = _phase2_measure(
            spec,
            problem,
            session,
            ranked,
            effective_survivors,
            repeats,
            halving=(strategy == "successive_halving"),
            seed=seed,
            fingerprint=fingerprint,
            predictor=predictor,
            forced=forced,
        )

    if measured:
        best_seconds, _, best_config = measured[0]
        best_cost: float = best_seconds
        best_measured: Optional[float] = best_seconds
    else:
        if not ranked:
            raise ValueError(f"no feasible configuration for workload {workload!r}")
        _, best_config = ranked[0]
        best_cost = predictor.cost(best_config)
        best_measured = None
    best_predicted = predictor.analytic_us(best_config)

    measured_configs, timed_runs = _persist_corpus(
        store, spec, predictor, fingerprint, workload, reference_features
    )

    metadata: Dict[str, Any] = {
        "device": device.name,
        "space_size": len(space),
        "cost_model": cost_model,
        "corpus_samples": model.n_samples if model is not None else 0,
    }
    if plan is not None:
        metadata["transfer_from"] = plan.source_fingerprint
        metadata["transfer_distance"] = plan.distance
        metadata["transferred"] = transferred
    record = TuningRecord(
        fingerprint=fingerprint,
        workload=workload,
        config=dict(best_config),
        predicted_us=best_predicted,
        measured_s=best_measured,
        evaluated=predictor.evaluated,
        strategy=strategy,
        seed=seed,
        metadata=metadata,
    )
    if store is not None:
        store.put(record)
    if hasattr(session, "_remember_tuning"):
        session._remember_tuning(record)

    return TuningResult(
        best_config=dict(best_config),
        best_cost=best_cost,
        evaluated=predictor.evaluated,
        history=predictor.history,
        workload=workload,
        fingerprint=fingerprint,
        strategy=strategy,
        best_predicted_us=best_predicted,
        best_measured_s=best_measured,
        replayed=False,
        record=record,
        cost_model=cost_model,
        transferred_from=plan.source_fingerprint if transferred else None,
        transfer_distance=plan.distance if transferred else None,
        measured_configs=measured_configs,
        timed_runs=timed_runs,
    )


def _persist_corpus(
    store: Any,
    spec: WorkloadSpec,
    predictor: _Predictor,
    fingerprint: str,
    workload: str,
    reference_features: Any,
) -> Tuple[int, int]:
    """Persist this run's phase-2 triples; returns (measured configs, timed runs).

    Every measured configuration contributes its best wallclock together
    with its feature vector and analytic price — the training data of the
    learned cost model.  The counts are returned for the
    :class:`TuningResult` regardless of whether a store is attached.
    """
    best_by_config: Dict[str, Dict[str, Any]] = {}
    timed_runs = 0
    for entry in predictor.history:
        if entry.get("phase") != "measure":
            continue
        timed_runs += int(entry.get("repeats", 1))
        config = entry["config"]
        features = predictor.features_of(config)
        if features is None:
            continue
        key = repr(config_key(spec.canonical(config)))
        previous = best_by_config.get(key)
        if previous is None or entry["measured_s"] < previous["measured_s"]:
            best_by_config[key] = {
                "features": features,
                "predicted_us": entry["predicted_us"],
                "measured_s": entry["measured_s"],
                "config": _jsonable_config(config),
            }
    if store is not None and best_by_config:
        store.add_corpus(
            fingerprint,
            workload,
            [best_by_config[key] for key in sorted(best_by_config)],
            task_features=(
                feature_list(reference_features) if reference_features is not None else None
            ),
            feature_version=FEATURE_VERSION,
        )
    return len(best_by_config), timed_runs
