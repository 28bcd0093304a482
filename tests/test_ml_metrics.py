"""Unit tests for ML metrics (APE, MdAPE, top-n overlap)."""

import numpy as np
import pytest

from repro.ml.metrics import (
    absolute_percentage_errors,
    mae,
    mdape,
    rmse,
    top_n_indices,
    top_n_overlap,
)


class TestApe:
    def test_exact_values(self):
        ape = absolute_percentage_errors(np.array([10.0, 20.0]), np.array([12.0, 15.0]))
        np.testing.assert_allclose(ape, [0.2, 0.25])

    def test_mdape_is_median_percent(self):
        y = np.array([10.0, 10.0, 10.0])
        pred = np.array([11.0, 12.0, 13.0])
        assert mdape(y, pred) == pytest.approx(20.0)

    def test_zero_target_rejected(self):
        with pytest.raises(ValueError):
            absolute_percentage_errors(np.array([0.0]), np.array([1.0]))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            absolute_percentage_errors(np.ones(3), np.ones(2))

    def test_rmse_mae(self):
        y = np.array([0.0, 0.0])
        p = np.array([3.0, 4.0])
        assert rmse(y, p) == pytest.approx(np.sqrt(12.5))
        assert mae(y, p) == pytest.approx(3.5)


class TestTopN:
    def test_top_n_indices_minimize(self):
        scores = np.array([5.0, 1.0, 3.0, 2.0])
        np.testing.assert_array_equal(top_n_indices(scores, 2), [1, 3])

    def test_top_n_indices_maximize(self):
        scores = np.array([5.0, 1.0, 3.0, 2.0])
        np.testing.assert_array_equal(
            top_n_indices(scores, 2, minimize=False), [0, 2]
        )

    def test_stable_tie_break(self):
        scores = np.array([1.0, 1.0, 1.0])
        np.testing.assert_array_equal(top_n_indices(scores, 2), [0, 1])

    def test_overlap_identical(self):
        s = np.arange(10.0)
        assert top_n_overlap(s, s, 3) == 1.0

    def test_overlap_disjoint(self):
        a = np.arange(10.0)
        assert top_n_overlap(a, a[::-1], 3) == 0.0

    def test_overlap_partial(self):
        a = np.array([0.0, 1.0, 2.0, 3.0])
        b = np.array([0.0, 3.0, 1.0, 2.0])
        # top-2 of a = {0,1}; top-2 of b = {0,2} -> overlap 1/2
        assert top_n_overlap(a, b, 2) == 0.5

    def test_n_capped_at_size(self):
        s = np.arange(3.0)
        assert top_n_overlap(s, s, 10) == 1.0

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            top_n_indices(np.arange(3.0), 0)
