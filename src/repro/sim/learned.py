"""A learned cost model over the tuning-record measurement corpus.

The analytic :func:`~repro.sim.gpu_model.estimate_us` prices phase-1
candidates from first principles; every phase-2 measurement the
autoscheduler performs then tells us how far off that price was.  This
module closes the loop: :func:`workload_features` turns a
:class:`~repro.sim.workload.KernelWorkload` into a fixed-length,
deterministic feature vector, and :class:`RidgeCostModel` fits a closed-form
ridge regression (NumPy only — no external ML dependency) on the *residual*
``log(measured / predicted)`` over the accumulated corpus.  At prediction
time the model multiplies the analytic estimate by the learned correction
factor, so with an empty or uninformative corpus it degrades gracefully to
the analytic ranking.

Only relative numbers matter for phase-1 ranking, so the unit mismatch
between ``predicted_us`` (model microseconds) and ``measured_s`` (simulated
wallclock seconds) is deliberately absorbed by the regression's intercept.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from .device import DeviceSpec
from .gpu_model import GPUModel
from .workload import KernelWorkload

#: Bump when the feature layout below changes; corpus files recorded with a
#: different version are discarded rather than misinterpreted.
FEATURE_VERSION = 1

#: Names of the entries of a feature vector, in order.
FEATURE_NAMES = (
    "log_flops",
    "log_read_bytes",
    "log_write_bytes",
    "log_blocks",
    "log_launches",
    "log_threads_per_block",
    "log_serial_work",          # flops per thread: flops / (blocks * threads)
    "arithmetic_intensity",     # log1p(flops / bytes)
    "flops_imbalance",          # log(max/mean per-block flops)
    "bytes_imbalance",          # log(max/mean per-block bytes)
    "log_footprint_bytes",
    "log_shared_mem",
    "mean_occupancy",
    "log_vector_width",
    "tensor_core_fraction",
    "register_caching_fraction",
    "unrolled_fraction",
    "num_groups",
)

_EPS = 1e-12


def workload_features(workload: KernelWorkload, device: DeviceSpec) -> np.ndarray:
    """A deterministic ``float64`` vector of length ``len(FEATURE_NAMES)``.

    Totals are log-scaled so graphs spanning orders of magnitude remain
    comparable; ratios (imbalance, intensity, occupancy) are unit-free.
    """
    values: Dict[str, float] = {name: 0.0 for name in FEATURE_NAMES}
    groups = workload.groups
    if groups:
        model = GPUModel(device)
        flops = np.concatenate([g.flops_array() for g in groups])
        read_bytes = np.concatenate([g.read_bytes_array() for g in groups])
        write_bytes = np.concatenate([g.write_bytes_array() for g in groups])
        per_block_bytes = read_bytes + write_bytes
        total_flops = float(flops.sum())
        total_bytes = float(per_block_bytes.sum())
        total_blocks = max(1, workload.total_blocks())
        block_weights = np.array([max(1, g.num_blocks) for g in groups], dtype=np.float64)
        threads = np.array([g.threads_per_block for g in groups], dtype=np.float64)
        mean_threads = float(np.average(threads, weights=block_weights))

        values["log_flops"] = np.log1p(total_flops)
        values["log_read_bytes"] = np.log1p(float(read_bytes.sum()))
        values["log_write_bytes"] = np.log1p(float(write_bytes.sum()))
        values["log_blocks"] = np.log1p(float(total_blocks))
        values["log_launches"] = np.log1p(float(workload.num_launches))
        values["log_threads_per_block"] = np.log1p(mean_threads)
        values["log_serial_work"] = np.log1p(total_flops / (total_blocks * mean_threads + _EPS))
        values["arithmetic_intensity"] = np.log1p(total_flops / (total_bytes + _EPS))
        values["flops_imbalance"] = np.log1p(float(flops.max()) / (float(flops.mean()) + _EPS))
        values["bytes_imbalance"] = np.log1p(
            float(per_block_bytes.max()) / (float(per_block_bytes.mean()) + _EPS)
        )
        values["log_footprint_bytes"] = np.log1p(float(workload.memory_footprint_bytes))
        values["log_shared_mem"] = np.log1p(
            float(np.average([g.shared_mem_bytes for g in groups], weights=block_weights))
        )
        values["mean_occupancy"] = float(
            np.average([model.occupancy(g) for g in groups], weights=block_weights)
        )
        values["log_vector_width"] = float(
            np.average([np.log2(max(1, g.vector_width)) for g in groups], weights=block_weights)
        )
        values["tensor_core_fraction"] = float(
            np.average([1.0 if g.uses_tensor_core else 0.0 for g in groups], weights=block_weights)
        )
        values["register_caching_fraction"] = float(
            np.average([1.0 if g.register_caching else 0.0 for g in groups], weights=block_weights)
        )
        values["unrolled_fraction"] = float(
            np.average([1.0 if g.unrolled else 0.0 for g in groups], weights=block_weights)
        )
        values["num_groups"] = float(len(groups))
    return np.array([values[name] for name in FEATURE_NAMES], dtype=np.float64)


class RidgeCostModel:
    """Closed-form ridge regression on the log-residual of the analytic model.

    ``fit`` standardises the features, appends an (unpenalised) intercept and
    solves the normal equations directly — the training is deterministic:
    the same corpus always yields byte-identical weights, which the corpus
    fault battery pins.
    """

    #: Process-wide count of ``fit`` invocations; ``benchmarks/test_tuning.py``
    #: asserts replaying a tuned workload performs zero retraining.
    fit_count = 0

    def __init__(
        self,
        l2: float = 1e-3,
        min_samples: int = 8,
        max_residual_std: float = 0.75,
    ):
        if l2 < 0:
            raise ValueError("l2 must be >= 0")
        self.l2 = float(l2)
        self.min_samples = int(min_samples)
        self.max_residual_std = float(max_residual_std)
        self.weights: Optional[np.ndarray] = None
        self.feature_mean: Optional[np.ndarray] = None
        self.feature_std: Optional[np.ndarray] = None
        self.n_samples = 0
        self.residual_std = float("inf")

    # -- training ----------------------------------------------------------------
    def fit(
        self,
        features: Sequence[Sequence[float]],
        predicted_us: Sequence[float],
        measured_s: Sequence[float],
    ) -> "RidgeCostModel":
        """Fit the residual ``log(measured_s) - log(predicted_us)``."""
        X = np.asarray(features, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError("features must be a 2-D matrix")
        predicted = np.asarray(predicted_us, dtype=np.float64)
        measured = np.asarray(measured_s, dtype=np.float64)
        if not (X.shape[0] == predicted.size == measured.size):
            raise ValueError("features, predicted_us and measured_s must align")
        valid = (predicted > 0) & (measured > 0) & np.isfinite(X).all(axis=1)
        X, predicted, measured = X[valid], predicted[valid], measured[valid]
        if X.shape[0] == 0:
            raise ValueError("no valid training samples")

        target = np.log(measured) - np.log(predicted)
        self.feature_mean = X.mean(axis=0)
        std = X.std(axis=0)
        self.feature_std = np.where(std > _EPS, std, 1.0)
        Xs = (X - self.feature_mean) / self.feature_std
        Xb = np.hstack([np.ones((Xs.shape[0], 1)), Xs])

        penalty = self.l2 * np.eye(Xb.shape[1])
        penalty[0, 0] = 0.0  # the intercept absorbs the unit offset unshrunk
        self.weights = np.linalg.solve(Xb.T @ Xb + penalty, Xb.T @ target)
        self.n_samples = int(X.shape[0])
        self.residual_std = float(np.std(target - Xb @ self.weights))
        RidgeCostModel.fit_count += 1
        return self

    # -- prediction --------------------------------------------------------------
    @property
    def fitted(self) -> bool:
        return self.weights is not None

    @property
    def confident(self) -> bool:
        """Whether the model has seen enough data to trust its corrections."""
        return (
            self.fitted
            and self.n_samples >= self.min_samples
            and self.residual_std <= self.max_residual_std
        )

    def correction(self, features: Sequence[float]) -> float:
        """The multiplicative correction factor for one feature vector."""
        if not self.fitted:
            return 1.0
        x = (np.asarray(features, dtype=np.float64) - self.feature_mean) / self.feature_std
        residual = float(self.weights[0] + x @ self.weights[1:])
        # Clip so one extrapolated outlier cannot invert the whole ranking.
        return float(np.exp(np.clip(residual, -8.0, 8.0)))

    def predict_us(self, features: Sequence[float], analytic_us: float) -> float:
        """The corrected score: analytic estimate times the learned factor.

        Because the intercept absorbs the us-vs-seconds offset the output is
        only meaningful for *ranking* candidates, which is all phase 1 needs.
        """
        return analytic_us * self.correction(features)

    # -- serialisation (debugging / determinism tests) ---------------------------
    def to_json(self) -> Dict[str, object]:
        if not self.fitted:
            return {"fitted": False}
        return {
            "fitted": True,
            "feature_version": FEATURE_VERSION,
            "l2": self.l2,
            "n_samples": self.n_samples,
            "residual_std": self.residual_std,
            "weights": [float(w) for w in self.weights],
            "feature_mean": [float(v) for v in self.feature_mean],
            "feature_std": [float(v) for v in self.feature_std],
        }


def feature_list(vector: np.ndarray) -> List[float]:
    """A JSON-ready representation of one feature vector."""
    return [float(v) for v in np.asarray(vector, dtype=np.float64)]
