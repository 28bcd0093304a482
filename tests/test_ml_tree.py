"""Unit tests for the regression tree."""

import numpy as np
import pytest

from repro.ml.tree import RegressionTree


@pytest.fixture()
def rng():
    return np.random.default_rng(0)


class TestFitting:
    def test_constant_target_single_leaf(self, rng):
        X = rng.uniform(size=(30, 3))
        y = np.full(30, 7.0)
        tree = RegressionTree(max_depth=4).fit(X, y)
        np.testing.assert_allclose(tree.predict(X), 7.0)
        assert tree.n_nodes == 1

    def test_perfect_split_on_step_function(self, rng):
        X = rng.uniform(size=(100, 2))
        y = np.where(X[:, 0] > 0.5, 10.0, -10.0)
        tree = RegressionTree(max_depth=2).fit(X, y)
        np.testing.assert_allclose(tree.predict(X), y)
        assert tree.depth >= 1

    def test_leaf_predicts_mean(self):
        X = np.array([[0.0], [0.0], [1.0], [1.0]])
        y = np.array([1.0, 3.0, 10.0, 20.0])
        tree = RegressionTree(max_depth=1).fit(X, y)
        pred = tree.predict(np.array([[0.0], [1.0]]))
        np.testing.assert_allclose(pred, [2.0, 15.0])

    def test_max_depth_zero_is_stump(self, rng):
        X = rng.uniform(size=(50, 2))
        y = rng.normal(size=50)
        tree = RegressionTree(max_depth=0).fit(X, y)
        assert tree.n_nodes == 1
        np.testing.assert_allclose(tree.predict(X), y.mean())

    def test_min_samples_leaf_respected(self, rng):
        X = rng.uniform(size=(20, 1))
        y = rng.normal(size=20)
        tree = RegressionTree(max_depth=10, min_samples_leaf=5).fit(X, y)

        # Count leaf populations by walking predictions back to leaves.
        def leaf_sizes(node, rows):
            if tree.left[node] == -1:
                return [len(rows)]
            mask = X[rows, tree.feature[node]] <= tree.threshold[node]
            return leaf_sizes(tree.left[node], rows[mask]) + leaf_sizes(
                tree.right[node], rows[~mask]
            )

        assert min(leaf_sizes(0, np.arange(20))) >= 5

    def test_gamma_prunes_weak_splits(self, rng):
        X = rng.uniform(size=(60, 2))
        y = rng.normal(scale=0.01, size=60)  # nearly constant
        strict = RegressionTree(max_depth=6, gamma=10.0).fit(X, y)
        loose = RegressionTree(max_depth=6, gamma=0.0).fit(X, y)
        assert strict.n_nodes <= loose.n_nodes
        assert strict.n_nodes == 1

    def test_duplicate_feature_values_no_split(self):
        X = np.ones((10, 2))
        y = np.arange(10.0)
        tree = RegressionTree(max_depth=4).fit(X, y)
        assert tree.n_nodes == 1  # nothing to split on

    def test_gradient_fit_leaf_weight_regularised(self):
        # Single leaf: w* = -G/(H + lambda)
        X = np.ones((4, 1))
        g = np.array([1.0, 1.0, 1.0, 1.0])
        h = np.ones(4)
        tree = RegressionTree(max_depth=0, reg_lambda=4.0)
        tree.fit_gradients(X, g, h)
        assert tree.predict(X)[0] == pytest.approx(-4.0 / 8.0)

    def test_zero_samples_rejected(self):
        tree = RegressionTree()
        with pytest.raises(ValueError):
            tree.fit(np.empty((0, 2)), np.empty(0))

    def test_shape_validation(self):
        tree = RegressionTree()
        with pytest.raises(ValueError):
            tree.fit(np.ones(5), np.ones(5))  # X must be 2-D
        with pytest.raises(ValueError):
            tree.fit_gradients(np.ones((5, 2)), np.ones(4), np.ones(5))

    def test_invalid_hyperparams(self):
        with pytest.raises(ValueError):
            RegressionTree(max_depth=-1)
        with pytest.raises(ValueError):
            RegressionTree(min_samples_leaf=0)
        with pytest.raises(ValueError):
            RegressionTree(reg_lambda=-1.0)


class TestPrediction:
    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            RegressionTree().predict(np.ones((1, 2)))

    def test_predict_validates_shape(self, rng):
        tree = RegressionTree(max_depth=2).fit(
            rng.uniform(size=(20, 2)), rng.normal(size=20)
        )
        with pytest.raises(ValueError):
            tree.predict(np.ones(3))

    def test_prediction_within_target_range(self, rng):
        X = rng.uniform(size=(100, 3))
        y = rng.uniform(5.0, 10.0, size=100)
        tree = RegressionTree(max_depth=6).fit(X, y)
        pred = tree.predict(rng.uniform(size=(50, 3)))
        assert pred.min() >= 5.0 - 1e-9 and pred.max() <= 10.0 + 1e-9

    def test_deterministic(self, rng):
        X = rng.uniform(size=(50, 4))
        y = rng.normal(size=50)
        t1 = RegressionTree(max_depth=4).fit(X, y)
        t2 = RegressionTree(max_depth=4).fit(X, y)
        np.testing.assert_array_equal(t1.predict(X), t2.predict(X))
