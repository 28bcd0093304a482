"""Reference (pre-vectorization) ML kernels, kept as the equivalence oracle.

These are verbatim copies of the original kernels that the fast layer
replaced: per-node per-feature argsort tree growth, and Python loops
over trees for ensemble prediction.  They define the bit-exact
behaviour the vectorized kernels in :mod:`repro.ml.tree` and
:mod:`repro.ml.packed` must reproduce — ``tests/test_ml_kernels.py``
compares old vs new across random shapes, and
``benchmarks/test_perf_ml.py`` times old vs new for ``BENCH_ml.json``.

Not part of the public API; nothing outside tests/benchmarks should
import this module.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "reference_fit_gradients",
    "reference_tree_predict",
    "reference_ensemble_predict",
]

_NO_CHILD = -1


def reference_fit_gradients(
    tree, X: np.ndarray, g: np.ndarray, h: np.ndarray, lam: float
) -> None:
    """The original ``RegressionTree.fit_gradients`` node loop.

    Fills ``tree``'s flat node arrays in place.  ``tree`` supplies the
    hyper-parameters (``max_depth``, ``min_samples_leaf``,
    ``min_child_weight``, ``gamma``).
    """
    n, _ = X.shape
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    value: list[float] = []

    def new_node() -> int:
        feature.append(_NO_CHILD)
        threshold.append(np.nan)
        left.append(_NO_CHILD)
        right.append(_NO_CHILD)
        value.append(0.0)
        return len(feature) - 1

    def leaf_weight(rows: np.ndarray) -> float:
        G = g[rows].sum()
        H = h[rows].sum()
        return -G / (H + lam) if (H + lam) > 0 else 0.0

    def build(rows: np.ndarray, depth: int, node: int) -> None:
        value[node] = leaf_weight(rows)
        if depth >= tree.max_depth or rows.size < 2 * tree.min_samples_leaf:
            return
        split = _reference_best_split(tree, X, g, h, rows, lam)
        if split is None:
            return
        j, thr, left_rows, right_rows = split
        feature[node] = j
        threshold[node] = thr
        left_id = new_node()
        right_id = new_node()
        left[node] = left_id
        right[node] = right_id
        build(left_rows, depth + 1, left_id)
        build(right_rows, depth + 1, right_id)

    root = new_node()
    build(np.arange(n), 0, root)

    tree.feature = np.asarray(feature, dtype=np.int64)
    tree.threshold = np.asarray(threshold, dtype=np.float64)
    tree.left = np.asarray(left, dtype=np.int64)
    tree.right = np.asarray(right, dtype=np.int64)
    tree.value = np.asarray(value, dtype=np.float64)


def _reference_best_split(tree, X, g, h, rows, lam):
    """Per-feature argsort split search (the original ``_best_split``)."""
    G = g[rows].sum()
    H = h[rows].sum()
    parent_score = G * G / (H + lam)
    best_gain = tree.gamma
    best: tuple | None = None
    min_leaf = tree.min_samples_leaf

    for j in range(X.shape[1]):
        xj = X[rows, j]
        order = np.argsort(xj, kind="stable")
        xs = xj[order]
        change = np.nonzero(xs[1:] != xs[:-1])[0]  # split after index i
        if change.size == 0:
            continue
        gs = np.cumsum(g[rows][order])
        hs = np.cumsum(h[rows][order])
        n_left = change + 1
        n_right = rows.size - n_left
        ok = (n_left >= min_leaf) & (n_right >= min_leaf)
        GL = gs[change]
        HL = hs[change]
        ok &= (HL >= tree.min_child_weight) & (
            H - HL >= tree.min_child_weight
        )
        if not ok.any():
            continue
        GR = G - GL
        HR = H - HL
        gains = 0.5 * (
            GL * GL / (HL + lam) + GR * GR / (HR + lam) - parent_score
        )
        gains = np.where(ok, gains, -np.inf)
        k = int(np.argmax(gains))
        if gains[k] > best_gain:
            best_gain = gains[k]
            boundary = change[k]
            thr = 0.5 * (xs[boundary] + xs[boundary + 1])
            left_rows = rows[order[: boundary + 1]]
            right_rows = rows[order[boundary + 1 :]]
            best = (int(j), float(thr), left_rows, right_rows)
    return best


def reference_tree_predict(tree, X: np.ndarray) -> np.ndarray:
    """Per-tree frontier walk (the original ``RegressionTree.predict``)."""
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    nodes = np.zeros(n, dtype=np.int64)
    active = tree.left[nodes] != _NO_CHILD
    while active.any():
        idx = np.nonzero(active)[0]
        cur = nodes[idx]
        go_left = X[idx, tree.feature[cur]] <= tree.threshold[cur]
        nodes[idx] = np.where(go_left, tree.left[cur], tree.right[cur])
        active[idx] = tree.left[nodes[idx]] != _NO_CHILD
    return tree.value[nodes]


def reference_ensemble_predict(model, X: np.ndarray) -> np.ndarray:
    """Tree-at-a-time boosted prediction (the original ``predict`` loop)."""
    X = np.asarray(X, dtype=np.float64)
    pred = np.full(X.shape[0], model._base_score)
    for tree, cols in zip(model._trees, model._tree_columns):
        pred = pred + model.learning_rate * reference_tree_predict(
            tree, X[:, cols]
        )
    if model.log_target:
        return np.exp(pred)
    return pred
