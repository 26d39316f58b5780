"""Performance tuning over composable formats and composable transformations.

Section 2 of the paper describes a tuning system that searches the joint
space of format parameters (e.g. the ``hyb`` column-partition count and
bucket widths) and schedule parameters (threads per block, vector widths,
rows per block, ...).  This package implements that search as a
workload-generic **format autoscheduler**:

* :mod:`~repro.tune.search_space` — :class:`ParameterSpace`, the reusable
  config-iteration primitive (enumeration, deduplicated sampling,
  subspacing, mutation/crossover);
* :mod:`~repro.tune.spaces` — the per-workload registry: search spaces over
  composable decompositions for spmm, sddmm, batched attention, rgms,
  sparse_conv and pruned_spmm, each with a cost-model hook and a runtime
  hook;
* :mod:`~repro.tune.autoscheduler` — the two-phase driver
  (:func:`autotune`): predicted-cost pruning with the GPU model, then
  wallclock measurement of the survivors through the cached emitted-kernel
  runtime, under grid / random / evolutionary / successive-halving
  strategies;
* :mod:`~repro.tune.records` — persistent :class:`TuningRecord` storage
  keyed by structural fingerprint, so the search cost is paid once per
  sparsity structure, exactly as the paper argues — plus the per-fingerprint
  *measurement corpus* every phase-2 run feeds;
* :mod:`~repro.tune.transfer` — the learned-cost-model layer over that
  corpus: residual-model training (``cost_model="learned"|"hybrid"``) and
  transfer tuning from the nearest already-tuned neighbour in feature space.
"""

from .autoscheduler import COST_MODELS, DEFAULT_MAX_TRIALS, STRATEGIES, autotune
from .records import (
    RECORDS_ENV_VAR,
    TuningRecord,
    TuningRecordStore,
    resolve_record_store,
)
from .transfer import TransferPlan, plan_transfer, task_features, train_from_corpus
from .search_space import Choice, ParameterSpace, config_key
from .spaces import (
    AttentionProblem,
    InfeasibleConfig,
    PrunedSpMMProblem,
    SDDMMProblem,
    SpMMProblem,
    WorkloadSpec,
    available_workloads,
    get_workload,
    register_workload,
    task_fingerprint,
)
from .tuner import TuningResult

__all__ = [
    "AttentionProblem",
    "COST_MODELS",
    "Choice",
    "DEFAULT_MAX_TRIALS",
    "InfeasibleConfig",
    "ParameterSpace",
    "PrunedSpMMProblem",
    "RECORDS_ENV_VAR",
    "SDDMMProblem",
    "SpMMProblem",
    "STRATEGIES",
    "TransferPlan",
    "TuningRecord",
    "TuningRecordStore",
    "TuningResult",
    "WorkloadSpec",
    "autotune",
    "available_workloads",
    "config_key",
    "get_workload",
    "plan_transfer",
    "register_workload",
    "resolve_record_store",
    "task_features",
    "task_fingerprint",
    "train_from_corpus",
]
