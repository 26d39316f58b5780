"""The learned cost model: feature vectors and the ridge residual regression."""

import json

import numpy as np
import pytest

from repro.sim.device import RTX3070, V100
from repro.sim.learned import (
    FEATURE_NAMES,
    FEATURE_VERSION,
    RidgeCostModel,
    feature_list,
    workload_features,
)
from repro.sim.workload import BlockGroup, KernelWorkload


def make_workload(num_blocks=256, flops=1e5, read_bytes=1e4, **group_kwargs):
    group = BlockGroup(
        "g", num_blocks, 128, flops, read_bytes, 1e3, **group_kwargs
    )
    return KernelWorkload("w", [group], memory_footprint_bytes=1e6)


class TestFeatures:
    def test_shape_and_finiteness(self):
        vector = workload_features(make_workload(), V100)
        assert vector.shape == (len(FEATURE_NAMES),)
        assert vector.dtype == np.float64
        assert np.isfinite(vector).all()

    def test_deterministic(self):
        a = workload_features(make_workload(), V100)
        b = workload_features(make_workload(), V100)
        assert np.array_equal(a, b)

    def test_empty_workload_is_zero_vector(self):
        vector = workload_features(KernelWorkload("empty"), V100)
        assert np.array_equal(vector, np.zeros(len(FEATURE_NAMES)))

    def test_sensitive_to_work_and_flags(self):
        base = workload_features(make_workload(), V100)
        more_flops = workload_features(make_workload(flops=1e8), V100)
        tensor_core = workload_features(make_workload(uses_tensor_core=True), V100)
        assert not np.array_equal(base, more_flops)
        assert not np.array_equal(base, tensor_core)

    def test_device_changes_occupancy_feature(self):
        # Occupancy is the only device-dependent feature; the heavy-thread
        # group occupies V100 (2048 threads/SM) and RTX3070 (1536) differently.
        workload = KernelWorkload(
            "w", [BlockGroup("g", 64, 1024, 1e5, 1e4)], memory_footprint_bytes=1e6
        )
        v100 = workload_features(workload, V100)
        rtx = workload_features(workload, RTX3070)
        index = FEATURE_NAMES.index("mean_occupancy")
        assert v100[index] != rtx[index]

    def test_feature_list_json_round_trip(self):
        vector = workload_features(make_workload(), V100)
        as_list = feature_list(vector)
        assert all(isinstance(v, float) for v in as_list)
        assert np.array_equal(np.array(json.loads(json.dumps(as_list))), vector)


def synthetic_corpus(n=64, d=len(FEATURE_NAMES), seed=0, noise=0.0):
    """predicted/measured pairs whose residual is a known linear function."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    true_w = np.zeros(d)
    true_w[:4] = [0.5, -0.3, 0.2, 0.1]
    predicted = np.exp(rng.standard_normal(n))  # positive analytic prices
    residual = X @ true_w + 1.0 + noise * rng.standard_normal(n)
    measured = predicted * np.exp(residual)
    return X, predicted, measured


class TestRidgeCostModel:
    def test_recovers_systematic_residual(self):
        X, predicted, measured = synthetic_corpus()
        model = RidgeCostModel(l2=1e-6).fit(X, predicted, measured)
        assert model.fitted and model.confident
        assert model.residual_std < 0.05
        # Corrected scores track the measured cost far better than the
        # analytic price alone (up to the global unit offset).
        corrected = np.array(
            [model.predict_us(x, p) for x, p in zip(X, predicted)]
        )
        assert np.allclose(
            np.log(corrected) - np.log(measured),
            (np.log(corrected) - np.log(measured)).mean(),
            atol=0.1,
        )

    def test_training_is_deterministic_and_byte_identical(self):
        X, predicted, measured = synthetic_corpus()
        a = RidgeCostModel().fit(X, predicted, measured)
        b = RidgeCostModel().fit(list(map(list, X)), list(predicted), list(measured))
        assert np.array_equal(a.weights, b.weights)
        assert json.dumps(a.to_json(), sort_keys=True) == json.dumps(
            b.to_json(), sort_keys=True
        )

    def test_unfitted_model_is_identity(self):
        model = RidgeCostModel()
        assert not model.fitted and not model.confident
        assert model.correction([1.0, 2.0]) == 1.0
        assert model.predict_us([1.0, 2.0], 42.0) == 42.0

    def test_confidence_needs_samples_and_tight_residual(self):
        X, predicted, measured = synthetic_corpus(n=64)
        few = RidgeCostModel(min_samples=128).fit(X, predicted, measured)
        assert few.fitted and not few.confident
        Xn, pn, mn = synthetic_corpus(n=64, noise=3.0)
        noisy = RidgeCostModel(max_residual_std=0.5).fit(Xn, pn, mn)
        assert noisy.fitted and not noisy.confident

    def test_correction_is_clipped(self):
        X, predicted, measured = synthetic_corpus()
        model = RidgeCostModel(l2=1e-6).fit(X, predicted, measured)
        extreme = np.full(X.shape[1], 1e6)
        assert model.correction(extreme) <= np.exp(8.0) + 1e-9
        assert model.correction(-extreme) >= np.exp(-8.0) - 1e-12

    def test_invalid_samples_filtered_and_empty_rejected(self):
        X, predicted, measured = synthetic_corpus(n=8)
        predicted = predicted.copy()
        predicted[0] = 0.0  # non-positive price: dropped, not log(0)
        model = RidgeCostModel().fit(X, predicted, measured)
        assert model.n_samples == 7
        with pytest.raises(ValueError):
            RidgeCostModel().fit(X[:1], [0.0], [1.0])
        with pytest.raises(ValueError):
            RidgeCostModel().fit([[1.0], [2.0]], [1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            RidgeCostModel(l2=-1.0)

    def test_fit_count_tracks_trainings(self):
        X, predicted, measured = synthetic_corpus(n=16)
        before = RidgeCostModel.fit_count
        RidgeCostModel().fit(X, predicted, measured)
        RidgeCostModel().fit(X, predicted, measured)
        assert RidgeCostModel.fit_count == before + 2

    def test_constant_feature_columns_are_safe(self):
        X, predicted, measured = synthetic_corpus(n=32)
        X = X.copy()
        X[:, 5] = 3.14  # zero variance must not divide by zero
        model = RidgeCostModel().fit(X, predicted, measured)
        assert np.isfinite(model.weights).all()
        assert np.isfinite(model.correction(X[0]))

    def test_feature_version_is_stable_int(self):
        assert isinstance(FEATURE_VERSION, int) and FEATURE_VERSION >= 1
