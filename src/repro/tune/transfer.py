"""Transfer tuning: reuse the measurement corpus across related workloads.

Two capabilities build on the per-fingerprint corpus the
:class:`~repro.tune.records.TuningRecordStore` accumulates:

* :func:`train_from_corpus` fits a
  :class:`~repro.sim.learned.RidgeCostModel` on every persisted
  (feature_vector, predicted_us, measured_s) triple, giving
  :func:`~repro.tune.autoscheduler.autotune` its ``cost_model="learned"`` /
  ``"hybrid"`` phase-1 ranking.
* :func:`plan_transfer` finds the nearest already-tuned neighbour of a *new*
  task in feature space.  Each corpus file stores the task's reference
  feature vector (the analytic features of its first feasible
  configuration), so two structurally similar problems — the same graph at a
  different feature size, a re-partitioned variant — land close together
  while unrelated workloads stay far apart.  A close neighbour seeds phase 1
  with its winning configurations; when the learned model is confident the
  autoscheduler skips phase-2 measurement entirely, which is the warm-tenant
  amortisation story of the paper taken one step further.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from ..runtime.session import Session
from ..sim.device import DeviceSpec
from ..sim.learned import FEATURE_VERSION, RidgeCostModel, feature_list, workload_features
from .records import TuningRecordStore
from .search_space import config_key
from .spaces import InfeasibleConfig, WorkloadSpec

#: How many of the neighbour's configurations seed phase 1.
DEFAULT_MAX_SEEDS = 4

#: Default relative feature-space distance below which a corpus entry counts
#: as a near neighbour (0 = identical task features).
DEFAULT_MAX_DISTANCE = 0.1


def task_features(
    spec: WorkloadSpec,
    problem: Any,
    device: DeviceSpec,
    session: Any = None,
    memo: Optional[Dict] = None,
) -> Optional[np.ndarray]:
    """The reference feature vector of one tuning task.

    Uses the analytic workload of the first *feasible* configuration in the
    space's deterministic enumeration order, so the same task always maps to
    the same vector regardless of search strategy or seed.  *session* and
    *memo* are where ``predict`` finds (and leaves) format decompositions;
    both default to private ones.
    """
    session = session if session is not None else Session()
    memo = memo if memo is not None else {}
    for config in spec.space(problem).configurations():
        try:
            workload = spec.predict(problem, config, device, session, memo)
        except InfeasibleConfig:
            continue
        return workload_features(workload, device)
    return None


def feature_distance(a: Any, b: Any) -> float:
    """Relative Euclidean distance between two feature vectors (0 = equal)."""
    va = np.asarray(a, dtype=np.float64)
    vb = np.asarray(b, dtype=np.float64)
    if va.shape != vb.shape:
        return float("inf")
    scale = max(float(np.linalg.norm(va)), float(np.linalg.norm(vb)), 1.0)
    return float(np.linalg.norm(va - vb)) / scale


def train_from_corpus(
    store: Optional[TuningRecordStore],
    workload: Optional[str] = None,
    l2: float = 1e-3,
    min_samples: int = 8,
    max_residual_std: float = 0.75,
) -> Optional[RidgeCostModel]:
    """Fit a residual cost model on the store's accumulated corpus.

    Returns ``None`` when the store is missing or holds fewer than
    ``min_samples`` usable triples (for the given workload family, when
    named).  Training is deterministic: the fingerprint iteration order is
    sorted and the regression is closed-form, so the same corpus always
    yields byte-identical weights.
    """
    if store is None:
        return None
    features: List[List[float]] = []
    predicted: List[float] = []
    measured: List[float] = []
    for fingerprint in store.corpus_fingerprints():
        payload = store.get_corpus(fingerprint, feature_version=FEATURE_VERSION)
        if payload is None:
            continue
        if workload is not None and payload["workload"] != workload:
            continue
        for entry in payload["entries"]:
            features.append(entry["features"])
            predicted.append(entry["predicted_us"])
            measured.append(entry["measured_s"])
    if len(features) < max(1, min_samples):
        return None
    model = RidgeCostModel(
        l2=l2, min_samples=min_samples, max_residual_std=max_residual_std
    )
    try:
        return model.fit(features, predicted, measured)
    except (ValueError, np.linalg.LinAlgError):
        return None


@dataclass
class TransferPlan:
    """A near neighbour found in the corpus, and what to reuse from it."""

    source_fingerprint: str
    distance: float
    seed_configs: List[Dict[str, Any]] = field(default_factory=list)


def plan_transfer(
    store: Optional[TuningRecordStore],
    spec: WorkloadSpec,
    problem: Any,
    device: DeviceSpec,
    fingerprint: str,
    features: Optional[np.ndarray] = None,
    max_distance: float = DEFAULT_MAX_DISTANCE,
    max_seeds: int = DEFAULT_MAX_SEEDS,
    session: Any = None,
    memo: Optional[Dict] = None,
) -> Optional[TransferPlan]:
    """Find the nearest corpus neighbour of a new task and collect its seeds.

    The task's own fingerprint is excluded (a same-fingerprint hit is the
    record-replay path, not transfer).  Seeds are the neighbour's winning
    record configuration followed by its best-measured corpus
    configurations, filtered to members of *this* task's space and
    deduplicated by canonical form.
    """
    if store is None:
        return None
    if features is None:
        features = task_features(spec, problem, device, session=session, memo=memo)
    if features is None:
        return None

    best_fp: Optional[str] = None
    best_distance = float("inf")
    best_payload: Optional[Dict[str, Any]] = None
    for candidate in store.corpus_fingerprints():
        if candidate == fingerprint:
            continue
        payload = store.get_corpus(candidate, feature_version=FEATURE_VERSION)
        if payload is None or payload["workload"] != spec.name:
            continue
        reference = payload.get("task_features")
        if not reference:
            continue
        distance = feature_distance(features, reference)
        if distance < best_distance:
            best_fp, best_distance, best_payload = candidate, distance, payload
    if best_fp is None or best_distance > max_distance:
        return None

    space = spec.space(problem)
    seeds: List[Dict[str, Any]] = []
    seen = set()

    def admit(config: Any) -> None:
        if len(seeds) >= max_seeds or not isinstance(config, dict):
            return
        if not space.contains(config):
            return
        key = config_key(spec.canonical(config))
        if key in seen:
            return
        seen.add(key)
        seeds.append(dict(config))

    record = store.get(best_fp)
    if record is not None:
        admit(record.config)
    assert best_payload is not None
    for entry in sorted(best_payload["entries"], key=lambda e: e["measured_s"]):
        admit(entry.get("config"))
    if not seeds:
        return None
    return TransferPlan(
        source_fingerprint=best_fp,
        distance=best_distance,
        seed_configs=seeds,
    )


__all__ = [
    "TransferPlan",
    "task_features",
    "feature_distance",
    "feature_list",
    "train_from_corpus",
    "plan_transfer",
    "DEFAULT_MAX_DISTANCE",
    "DEFAULT_MAX_SEEDS",
]
