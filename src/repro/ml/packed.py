"""Packed tree ensembles: one flat node table, one vectorized traversal.

Ensemble prediction used to loop over trees in Python, re-slicing
``X[:, cols]`` per tree.  Packing concatenates every tree's flat node
arrays into one contiguous table at fit time:

* node child pointers become *absolute* node ids;
* leaves become self-loops (``left == right == self``) with a ``+inf``
  threshold, so a fixed-depth frontier sweep parks rows on their leaf;
* per-tree feature ids are remapped through the tree's column map, so
  prediction reads the caller's full feature matrix directly — no
  per-tree column slices;
* leaf values are pre-scaled (by the boosting learning rate) at pack
  time.

``predict`` then advances *all trees over a block of rows at once*: a
``(n_trees, block)`` frontier matrix takes ``max_depth`` vectorized
steps per block.  The tree-major orientation makes each tree's leaf
values a contiguous row, so the per-tree accumulation — which must
stay a sequential loop in tree order to reproduce the historical
float arithmetic — streams through cache; node ids are ``int32`` and
rows are processed in blocks sized to keep every per-level temporary
resident in L2.  Packed predictions are bit-identical to
tree-at-a-time predictions (:mod:`repro.ml._reference`), just without
120 Python round-trips or column-strided accumulation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ml import _native

__all__ = ["PackedEnsemble"]

_NO_CHILD = -1

#: Rows per traversal block: 2048 rows × 120 trees × 8-byte temporaries
#: ≈ 2 MB per intermediate, sized for the L2 working set.
_BLOCK = 2048


@dataclass(frozen=True)
class PackedEnsemble:
    """Flat, traversal-ready form of a fitted tree ensemble.

    Attributes
    ----------
    feature, threshold, left, right, value:
        Concatenated node arrays over all trees.  ``left``/``right``
        hold absolute node ids; leaves self-loop with threshold
        ``+inf`` and feature 0 (never read past the leaf compare).
    roots:
        Absolute node id of each tree's root, in tree order.
    max_depth:
        Deepest packed tree; the traversal takes exactly this many steps.
    n_features:
        Width of the full feature matrix ``predict`` expects.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    roots: np.ndarray
    max_depth: int
    n_features: int

    @classmethod
    def pack(
        cls,
        trees,
        n_features: int,
        columns=None,
        scale: float | None = None,
    ) -> "PackedEnsemble":
        """Pack fitted :class:`~repro.ml.tree.RegressionTree` objects.

        ``columns`` maps each tree's local feature ids to columns of the
        full feature matrix (``None`` = trees already use full-matrix
        ids).  ``scale`` pre-multiplies every leaf value (the boosting
        learning rate); the product is the identical float the
        per-tree loop computed, so pre-scaling preserves bit-identity.
        """
        if not trees:
            raise ValueError("cannot pack an empty ensemble")
        sizes = np.array([tree.feature.size for tree in trees], dtype=np.int64)
        total = int(sizes.sum())
        if total >= np.iinfo(np.int32).max:
            raise ValueError(f"ensemble too large to pack: {total} nodes")
        roots = np.zeros(len(trees), dtype=np.int64)
        np.cumsum(sizes[:-1], out=roots[1:])
        offset = np.repeat(roots, sizes)
        ids = np.arange(total)
        local_left = np.concatenate([tree.left for tree in trees])
        internal = local_left != _NO_CHILD
        left = np.where(internal, local_left + offset, ids).astype(np.int32)
        right = np.where(
            internal, np.concatenate([tree.right for tree in trees]) + offset, ids
        ).astype(np.int32)
        feature = np.where(
            internal, np.concatenate([tree.feature for tree in trees]), 0
        )
        if columns is not None:
            cols = [np.asarray(c) for c in columns]
            col_base = np.zeros(len(cols), dtype=np.int64)
            np.cumsum([c.size for c in cols[:-1]], out=col_base[1:])
            feature = np.where(
                internal,
                np.concatenate(cols)[np.repeat(col_base, sizes) + feature],
                0,
            )
        feature = feature.astype(np.int32)
        threshold = np.where(
            internal, np.concatenate([tree.threshold for tree in trees]), np.inf
        )
        value = np.concatenate([tree.value for tree in trees])
        if scale is not None:
            value = scale * value
        # Deepest tree: one frontier step per level with an internal node.
        max_depth = 0
        frontier = roots[internal[roots]]
        while frontier.size:
            max_depth += 1
            children = np.concatenate((left[frontier], right[frontier]))
            frontier = children[internal[children]]
        roots = roots.astype(np.int32)
        return cls(
            feature=feature,
            threshold=threshold,
            left=left,
            right=right,
            value=value,
            roots=roots,
            max_depth=max_depth,
            n_features=n_features,
        )

    @property
    def n_trees(self) -> int:
        return self.roots.size

    @property
    def nbytes(self) -> int:
        """Total bytes of the packed node arrays (cache accounting)."""
        return int(
            self.feature.nbytes
            + self.threshold.nbytes
            + self.left.nbytes
            + self.right.nbytes
            + self.value.nbytes
            + self.roots.nbytes
        )

    def _validate(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {X.shape}")
        if X.shape[1] != self.n_features:
            raise ValueError(
                f"X has {X.shape[1]} features, ensemble was packed with "
                f"{self.n_features}"
            )
        return X

    def _leaf_block(self, Xb: np.ndarray) -> np.ndarray:
        """``(n_trees, block)`` leaf ids for a contiguous block of rows.

        Each step gathers the frontier's features/thresholds and
        advances every (tree, row) pair one level.  Rows that reach a
        leaf early stay parked on its self-loop (``x <= +inf`` always
        goes "left" to itself).
        """
        m = Xb.shape[0]
        xflat = np.ascontiguousarray(Xb).ravel()
        row_base = (np.arange(m, dtype=np.int32) * Xb.shape[1])[None, :]
        nodes = np.broadcast_to(self.roots[:, None], (self.n_trees, m)).copy()
        for _ in range(self.max_depth):
            go_left = xflat[self.feature[nodes] + row_base] <= self.threshold[nodes]
            nodes = np.where(go_left, self.left[nodes], self.right[nodes])
        return nodes

    def leaf_indices(self, X: np.ndarray) -> np.ndarray:
        """Absolute leaf node id per ``(row, tree)``."""
        X = self._validate(X)
        n = X.shape[0]
        out = np.empty((n, self.n_trees), dtype=np.int32)
        for start in range(0, n, _BLOCK):
            stop = min(start + _BLOCK, n)
            out[start:stop] = self._leaf_block(X[start:stop]).T
        return out

    def predict(self, X: np.ndarray, base_score: float = 0.0) -> np.ndarray:
        """Sum of (pre-scaled) per-tree leaf values on top of ``base_score``.

        Contributions are added in tree order, one elementwise addition
        per tree, reproducing the historical accumulation loop's float
        arithmetic exactly; splitting rows into blocks does not change
        any row's sequence of additions.  When the compiled kernel is
        available (:mod:`repro.ml._native`) it performs the identical
        comparisons and additions per row; the numpy block traversal
        below is the always-available fallback and test oracle.
        """
        X = self._validate(X)
        native = _native.packed_predict(self, X, base_score)
        if native is not None:
            return native
        n = X.shape[0]
        pred = np.full(n, base_score)
        for start in range(0, n, _BLOCK):
            stop = min(start + _BLOCK, n)
            leaf_values = self.value[self._leaf_block(X[start:stop])]
            out = pred[start:stop]
            for t in range(self.n_trees):
                out += leaf_values[t]
        return pred
