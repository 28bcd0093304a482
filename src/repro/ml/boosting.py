"""Newton gradient boosting over regression trees.

A faithful stand-in for ``xgboost.XGBRegressor`` with squared-error
objective: each round fits a :class:`~repro.ml.tree.RegressionTree` to the
current gradients/hessians, shrunk by the learning rate, with optional row
and column subsampling.

Performance targets (execution/computer time) are positive and span
orders of magnitude across a configuration space, so the regressor
supports an optional ``log_target`` transform — fitting ``log(y)`` and
exponentiating predictions — which substantially improves relative-error
metrics such as MdAPE.

Trees grow by presorted exact greedy search (bit-identical to the
historical implementation), and the fitted ensemble is packed into a
:class:`~repro.ml.packed.PackedEnsemble` so prediction is one
vectorized traversal instead of a Python loop over trees.

A fit draws every round's row and column subsets and presorts the
feature ranks in Python, then grows all rounds in one compiled call
(:func:`repro.ml._native.gbt_fit`): gradients, trees and the prediction
update, with the same floats as the numpy loop.  Without the compiled
kernel (or with ``REPRO_NO_NATIVE=1``) the numpy loop
(:meth:`GradientBoostedTrees._numpy_rounds`) grows the identical trees;
it is also the kernel's test oracle.  The ``ml.fit.boosting`` span's
``kernel`` attribute says which one ran.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import telemetry
from repro.ml import _native
from repro.ml.packed import PackedEnsemble
from repro.ml.tree import RegressionTree, _feature_group_ids

__all__ = ["GradientBoostedTrees"]


@dataclass
class GradientBoostedTrees:
    """Boosted regression trees with squared-error objective.

    Parameters
    ----------
    n_estimators:
        Number of boosting rounds.
    learning_rate:
        Shrinkage applied to each tree's contribution.
    max_depth, min_samples_leaf, min_child_weight, reg_lambda, gamma:
        Passed through to each round's tree.
    subsample:
        Row-sampling fraction per round (without replacement).
    colsample:
        Column-sampling fraction per round.
    log_target:
        Fit ``log(y)`` instead of ``y`` (requires strictly positive
        targets); predictions are transformed back.
    random_state:
        Seed for subsampling.
    """

    n_estimators: int = 120
    learning_rate: float = 0.1
    max_depth: int = 4
    min_samples_leaf: int = 1
    min_child_weight: float = 1e-6
    reg_lambda: float = 1.0
    gamma: float = 0.0
    subsample: float = 1.0
    colsample: float = 1.0
    log_target: bool = False
    random_state: int | None = None

    _trees: list = field(init=False, repr=False, default_factory=list)
    _tree_columns: list = field(init=False, repr=False, default_factory=list)
    _base_score: float = field(init=False, repr=False, default=0.0)
    _n_features: int = field(init=False, repr=False, default=0)
    _packed: PackedEnsemble | None = field(init=False, repr=False, default=None)

    def __post_init__(self) -> None:
        if self.n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        if not 0 < self.learning_rate <= 1:
            raise ValueError("learning_rate must be in (0, 1]")
        if not 0 < self.subsample <= 1:
            raise ValueError("subsample must be in (0, 1]")
        if not 0 < self.colsample <= 1:
            raise ValueError("colsample must be in (0, 1]")

    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`predict` is ready — keyed, like it, on ``_trees``."""
        return bool(self._trees)

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GradientBoostedTrees":
        """Fit the ensemble to ``(X, y)``."""
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {X.shape}")
        n, d = X.shape
        if y.shape != (n,):
            raise ValueError("y must be 1-D with one entry per row of X")
        if n == 0:
            raise ValueError("cannot fit on zero samples")
        if self.log_target:
            if np.any(y <= 0):
                raise ValueError("log_target requires strictly positive targets")
            target = np.log(y)
        else:
            target = y

        with telemetry.get().span(
            "ml.fit.boosting",
            category="fit",
            samples=n,
            rounds=self.n_estimators,
        ) as span:
            span.set(kernel=self._fit_rounds(X, target, n, d))
            self._packed = PackedEnsemble.pack(
                self._trees,
                n_features=d,
                columns=self._tree_columns,
                scale=self.learning_rate,
            )
        return self

    def _new_tree(self) -> RegressionTree:
        """An unfitted round tree (constructing it validates the params)."""
        return RegressionTree(
            max_depth=self.max_depth,
            min_samples_leaf=self.min_samples_leaf,
            min_child_weight=self.min_child_weight,
            reg_lambda=self.reg_lambda,
            gamma=self.gamma,
        )

    def _fit_rounds(self, X: np.ndarray, target: np.ndarray, n: int, d: int) -> str:
        """Grow every round's tree; returns which kernel grew them."""
        self._new_tree()  # same parameter errors whichever kernel runs
        rng = np.random.default_rng(self.random_state)
        self._n_features = d
        self._base_score = float(target.mean())

        # Every round's row and column subsets, drawn up front in the
        # historical order (rows, then columns, round by round): the
        # fit itself draws nothing.
        n_rows = max(1, int(round(self.subsample * n)))
        n_cols = max(1, int(round(self.colsample * d)))
        all_rows = np.arange(n)
        all_cols = np.arange(d)
        rows, cols = [], []
        for _ in range(self.n_estimators):
            rows.append(
                rng.choice(n, size=n_rows, replace=False)
                if n_rows < n
                else all_rows
            )
            cols.append(
                np.sort(rng.choice(d, size=n_cols, replace=False))
                if n_cols < d
                else all_cols
            )
        self._tree_columns = cols

        # Presort once per fit; every round's tree sorts integer rank
        # slices instead of re-ranking float columns.
        gid = _feature_group_ids(X)
        nodes = _native.gbt_fit(
            X,
            gid,
            target,
            rows if n_rows < n else None,
            cols,
            base=self._base_score,
            learning_rate=self.learning_rate,
            max_depth=self.max_depth,
            min_samples_leaf=self.min_samples_leaf,
            min_child_weight=self.min_child_weight,
            reg_lambda=self.reg_lambda,
            gamma=self.gamma,
        )
        if nodes is not None:
            self._trees = [self._new_tree()._set_nodes(*arrays) for arrays in nodes]
            return "native"
        self._trees = self._numpy_rounds(X, target, gid, rows, cols)
        return "numpy"

    def _numpy_rounds(
        self,
        X: np.ndarray,
        target: np.ndarray,
        gid: np.ndarray,
        rows: list,
        cols: list,
    ) -> list:
        """The pure-numpy boosting loop: the fallback and the kernel's oracle."""
        n, d = X.shape
        pred = np.full(n, self._base_score)
        # The hessian of ½(pred − t)² is one for every row of every round.
        hess = np.ones(n)
        trees = []
        for round_rows, round_cols in zip(rows, cols):
            grad = pred - target  # d/dpred ½(pred − t)²
            tree = self._new_tree()
            if round_rows.size == n and round_cols.size == d:
                # No subsampling: the np.ix_ slices would be exact
                # copies, so skip them (identical floats either way).
                tree.fit_gradients(X, grad, hess, group_ids=gid)
            elif round_cols.size == d:
                # Row subsampling only: plain row gathers pick the same
                # elements as the np.ix_ outer product, without
                # materialising the index mesh.
                tree.fit_gradients(
                    X[round_rows],
                    grad[round_rows],
                    hess[round_rows],
                    group_ids=gid[round_rows],
                )
            else:
                mesh = np.ix_(round_rows, round_cols)
                tree.fit_gradients(
                    X[mesh], grad[round_rows], hess[round_rows], group_ids=gid[mesh]
                )
            update = tree.predict(X if round_cols.size == d else X[:, round_cols])
            pred = pred + self.learning_rate * update
            trees.append(tree)
        return trees

    def _ensure_packed(self) -> PackedEnsemble:
        """The packed form, rebuilt on demand.

        Models unpickled from blobs written before packing existed (or
        with ``_packed`` stripped) repack here from their trees; packing
        is a pure layout change, so the rebuilt ensemble predicts
        bit-identically to one packed at fit time.
        """
        packed = getattr(self, "_packed", None)
        if packed is None:
            packed = PackedEnsemble.pack(
                self._trees,
                n_features=self._n_features,
                columns=self._tree_columns,
                scale=self.learning_rate,
            )
            self._packed = packed
        return packed

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict targets for each row of ``X``."""
        if not self._trees:
            raise RuntimeError("model is not fitted; call fit() first")
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {X.shape}")
        if X.shape[1] != self._n_features:
            raise ValueError(
                f"X has {X.shape[1]} features, model was fitted with "
                f"{self._n_features}"
            )
        tel = telemetry.get()
        with tel.span(
            "ml.predict",
            category="predict",
            model="boosting",
            rows=X.shape[0],
            trees=len(self._trees),
        ):
            pred = self._ensure_packed().predict(X, base_score=self._base_score)
            if self.log_target:
                return np.exp(pred)
            return pred

    def leaf_indices(self, X: np.ndarray) -> np.ndarray:
        """Packed leaf assignment per ``(row, tree)`` (for caching layers)."""
        if not self._trees:
            raise RuntimeError("model is not fitted; call fit() first")
        return self._ensure_packed().leaf_indices(np.asarray(X, dtype=np.float64))

    def clone(self) -> "GradientBoostedTrees":
        """Return an unfitted copy with identical hyper-parameters."""
        return GradientBoostedTrees(
            n_estimators=self.n_estimators,
            learning_rate=self.learning_rate,
            max_depth=self.max_depth,
            min_samples_leaf=self.min_samples_leaf,
            min_child_weight=self.min_child_weight,
            reg_lambda=self.reg_lambda,
            gamma=self.gamma,
            subsample=self.subsample,
            colsample=self.colsample,
            log_target=self.log_target,
            random_state=self.random_state,
        )
