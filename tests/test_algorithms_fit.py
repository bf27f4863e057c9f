"""Tests for the sparse CP fit metrics."""

import numpy as np
import pytest

from repro.algorithms.fit import cp_fit, cp_inner_product, cp_norm
from repro.tensor.ops import cp_reconstruct
from repro.tensor.random import random_factors
from repro.tensor.sparse import SparseTensor


def rank2_model(shape=(5, 6, 7), seed=0):
    rng = np.random.default_rng(seed)
    factors = [rng.random((s, 2)) for s in shape]
    weights = rng.random(2) + 0.5
    return factors, weights


class TestCpNorm:
    def test_matches_dense_norm(self):
        factors, weights = rank2_model()
        dense = cp_reconstruct(factors, weights)
        assert cp_norm(factors, weights) == pytest.approx(np.linalg.norm(dense))

    def test_default_weights(self):
        factors, _ = rank2_model()
        dense = cp_reconstruct(factors)
        assert cp_norm(factors) == pytest.approx(np.linalg.norm(dense))


class TestCpInnerProduct:
    def test_matches_dense_inner_product(self, small_tensor):
        factors, weights = rank2_model(small_tensor.shape, seed=1)
        dense_model = cp_reconstruct(factors, weights)
        expected = float(np.sum(small_tensor.to_dense() * dense_model))
        assert cp_inner_product(small_tensor, factors, weights) == pytest.approx(expected)

    def test_negative_zero_factor_matches_scalar_loop(self):
        # Half-integer data keeps every product and sum exact, so any
        # summation order gives the scalar loop's bits.
        rng = np.random.default_rng(4)
        shape, rank = (4, 5, 3), 3
        indices = np.stack([rng.integers(0, s, size=30) for s in shape], axis=1)
        tensor = SparseTensor(indices, rng.integers(-4, 5, size=30) * 0.5, shape)
        factors = [rng.integers(-4, 5, size=(s, rank)) * 0.5 for s in shape]
        factors[0][np.asarray(tensor.indices)[0, 0], 1] = -0.0
        weights = np.array([1.5, -0.5, 2.0])
        expected = 0.0
        for coords, value in tensor.to_coords_dict().items():
            model = 0.0
            for r in range(rank):
                row = float(factors[0][coords[0], r])
                for m in range(1, len(shape)):
                    row = row * float(factors[m][coords[m], r])
                model = model + row * float(weights[r])
            expected = expected + value * model
        actual = cp_inner_product(tensor, factors, weights)
        assert np.float64(actual).view(np.uint64) == np.float64(expected).view(np.uint64)

    def test_empty_tensor(self):
        factors, weights = rank2_model((3, 4, 5))
        assert cp_inner_product(SparseTensor.empty((3, 4, 5)), factors, weights) == 0.0

    def test_shape_mismatch(self, small_tensor):
        factors, weights = rank2_model((3, 4, 5))
        with pytest.raises(ValueError):
            cp_inner_product(small_tensor, factors, weights)


class TestCpFit:
    def test_exact_model_has_fit_one(self):
        factors, weights = rank2_model()
        dense = cp_reconstruct(factors, weights)
        tensor = SparseTensor.from_dense(dense)
        assert cp_fit(tensor, factors, weights) == pytest.approx(1.0, abs=1e-6)

    def test_matches_dense_residual(self, small_tensor):
        factors, weights = rank2_model(small_tensor.shape, seed=2)
        dense = small_tensor.to_dense()
        model = cp_reconstruct(factors, weights)
        expected = 1.0 - np.linalg.norm(dense - model) / np.linalg.norm(dense)
        assert cp_fit(small_tensor, factors, weights) == pytest.approx(expected, abs=1e-10)

    def test_fit_at_most_one(self, small_tensor):
        factors = [np.asarray(f) for f in random_factors(small_tensor.shape, 3, seed=3)]
        assert cp_fit(small_tensor, factors) <= 1.0

    def test_zero_tensor_rejected(self):
        factors, weights = rank2_model((3, 4, 5))
        with pytest.raises(ValueError):
            cp_fit(SparseTensor.empty((3, 4, 5)), factors, weights)
