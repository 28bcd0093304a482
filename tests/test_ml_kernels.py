"""Old-vs-new bit-identity for the vectorized ML kernels.

The fast layer (presorted tree growth, packed-ensemble prediction,
pool-score caches) must be a pure performance change: every test here
compares against the reference kernels in :mod:`repro.ml._reference`
(verbatim copies of the pre-vectorization implementations) with exact
array equality, across randomly drawn shapes, tie structures, and
hyper-parameters.
"""

import pickle

import numpy as np
import pytest

from repro.config.encoding import ConfigEncoder, DerivedFeature
from repro.config.space import Parameter, ParameterSpace
from repro.ml import GradientBoostedTrees, PackedEnsemble, RegressionTree
from repro.ml._reference import (
    reference_ensemble_predict,
    reference_fit_gradients,
    reference_tree_predict,
)


def _random_matrix(rng, n, d, case):
    """Feature matrices with the tie/correlation structure that bites."""
    X = rng.normal(size=(n, d))
    if case % 3 == 0:
        X[:, 0] = rng.integers(0, 3, size=n)  # discrete, heavy ties
    if d > 1 and case % 4 == 0:
        X[:, -1] = X[:, 0] * 2  # exactly correlated duplicate column
    if case % 5 == 0:
        X[:, d // 2] = np.round(X[:, d // 2], 1)
    return X


# -- presorted tree growth ----------------------------------------------------


@pytest.mark.parametrize("case", range(30))
def test_tree_fit_bit_identical_to_reference(case):
    rng = np.random.default_rng(case)
    n = int(rng.integers(2, 250))
    d = int(rng.integers(1, 9))
    X = _random_matrix(rng, n, d, case)
    g = rng.normal(size=n)
    h = np.abs(rng.normal(size=n)) + 0.1
    params = dict(
        max_depth=int(rng.integers(0, 7)),
        min_samples_leaf=int(rng.integers(1, 4)),
        min_child_weight=float(rng.choice([1e-6, 0.5, 2.0])),
        reg_lambda=float(rng.choice([0.0, 1.0, 3.0])),
        gamma=float(rng.choice([0.0, 0.1])),
    )
    new = RegressionTree(**params).fit_gradients(X, g, h)
    old = RegressionTree(**params)
    reference_fit_gradients(old, X, g, h, lam=params["reg_lambda"])
    assert np.array_equal(new.feature, old.feature)
    assert np.array_equal(new.threshold, old.threshold, equal_nan=True)
    assert np.array_equal(new.left, old.left)
    assert np.array_equal(new.right, old.right)
    assert np.array_equal(new.value, old.value)


def test_tree_depth_and_n_nodes():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(200, 4))
    y = rng.normal(size=200)
    for max_depth in (0, 1, 3, 8):
        tree = RegressionTree(max_depth=max_depth).fit(X, y)
        assert tree.n_nodes == tree.feature.size
        # Iterative depth must agree with an explicit recursive walk.
        def walk(node):
            if tree.left[node] == -1:
                return 0
            return 1 + max(walk(tree.left[node]), walk(tree.right[node]))

        assert tree.depth == walk(0)
        assert tree.depth <= max_depth
        # n_nodes of a binary tree is odd; a stump has exactly one node.
        assert tree.n_nodes % 2 == 1
        if max_depth == 0:
            assert tree.depth == 0 and tree.n_nodes == 1


def test_unfitted_tree_properties_raise():
    tree = RegressionTree()
    with pytest.raises(RuntimeError):
        tree.depth
    with pytest.raises(RuntimeError):
        tree.n_nodes


# -- packed-ensemble prediction ----------------------------------------------


@pytest.mark.parametrize("case", range(15))
def test_boosting_predict_bit_identical_to_reference(case):
    rng = np.random.default_rng(100 + case)
    n = int(rng.integers(5, 200))
    d = int(rng.integers(1, 8))
    X = _random_matrix(rng, n, d, case)
    y = rng.normal(size=n) ** 2 + 0.1
    model = GradientBoostedTrees(
        n_estimators=int(rng.integers(1, 30)),
        learning_rate=float(rng.uniform(0.05, 0.5)),
        max_depth=int(rng.integers(1, 6)),
        subsample=float(rng.uniform(0.5, 1.0)),
        colsample=float(rng.uniform(0.5, 1.0)),
        log_target=bool(case % 2),
        random_state=case,
    ).fit(X, y)
    X_test = rng.normal(size=(int(rng.integers(1, 400)), d))
    assert np.array_equal(
        model.predict(X_test), reference_ensemble_predict(model, X_test)
    )


def test_packed_leaf_indices_land_on_leaves():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(120, 5))
    y = rng.normal(size=120) ** 2 + 0.1
    model = GradientBoostedTrees(n_estimators=7, random_state=0).fit(X, y)
    packed = model._packed
    leaves = packed.leaf_indices(rng.normal(size=(50, 5)))
    assert leaves.shape == (50, packed.n_trees)
    # A leaf self-loops: stepping once more stays put.
    assert np.array_equal(packed.left[leaves], leaves)
    assert np.array_equal(packed.right[leaves], leaves)


def test_packed_validates_input():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(30, 3))
    model = GradientBoostedTrees(n_estimators=2, random_state=0).fit(
        X, np.abs(rng.normal(size=30)) + 0.1
    )
    with pytest.raises(ValueError, match="2-D"):
        model._packed.leaf_indices(np.zeros(3))
    with pytest.raises(ValueError, match="features"):
        model._packed.leaf_indices(np.zeros((4, 5)))
    with pytest.raises(ValueError, match="empty"):
        PackedEnsemble.pack([], n_features=3)


def test_single_tree_packed_matches_tree_predict():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(80, 4))
    y = rng.normal(size=80)
    tree = RegressionTree(max_depth=5).fit(X, y)
    packed = PackedEnsemble.pack([tree], n_features=4)
    X_test = rng.normal(size=(60, 4))
    assert np.array_equal(packed.predict(X_test), reference_tree_predict(tree, X_test))
    assert np.array_equal(packed.predict(X_test), tree.predict(X_test))


# -- fitted-state consistency (is_fitted vs predict) --------------------------


def test_is_fitted_agrees_with_predict():
    model = GradientBoostedTrees(n_estimators=3, random_state=0)
    assert not model.is_fitted
    with pytest.raises(RuntimeError):
        model.predict(np.zeros((2, 3)))

    # The historical disagreement: _n_features set but _trees empty
    # (e.g. a strategy poking internals) used to report is_fitted=True
    # while predict raised.  Both now key off _trees.
    model._n_features = 3
    assert not model.is_fitted
    with pytest.raises(RuntimeError):
        model.predict(np.zeros((2, 3)))

    rng = np.random.default_rng(0)
    X = rng.normal(size=(30, 3))
    model.fit(X, np.abs(rng.normal(size=30)) + 0.1)
    assert model.is_fitted
    assert model.predict(X).shape == (30,)


# -- pickling / registry round-trip -------------------------------------------


def test_packed_model_pickle_roundtrip():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(60, 4))
    y = np.abs(rng.normal(size=60)) + 0.1
    model = GradientBoostedTrees(n_estimators=5, random_state=1).fit(X, y)
    clone = pickle.loads(pickle.dumps(model))
    assert np.array_equal(clone.predict(X), model.predict(X))


def test_model_without_packed_state_repacks_lazily():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(60, 4))
    y = np.abs(rng.normal(size=60)) + 0.1
    model = GradientBoostedTrees(n_estimators=5, random_state=1).fit(X, y)
    want = model.predict(X)
    # Simulate a blob pickled before the packed layout existed.
    stale = pickle.loads(pickle.dumps(model))
    del stale.__dict__["_packed"]
    assert np.array_equal(stale.predict(X), want)
    assert stale._packed is not None


def test_registry_roundtrip_keeps_packed_predictions(tmp_path):
    from repro.store.db import MeasurementStore
    from repro.store.registry import ModelRegistry, training_key

    rng = np.random.default_rng(8)
    X = rng.normal(size=(40, 3))
    y = np.abs(rng.normal(size=40)) + 0.1

    def fit():
        return GradientBoostedTrees(n_estimators=4, random_state=2).fit(X, y)

    store = MeasurementStore(tmp_path / "models.db")
    registry = ModelRegistry(store)
    key = training_key("gbt", "lab", "obj", X, y, repr(GradientBoostedTrees()))
    fitted = registry.fit_or_load(key, fit)
    loaded = registry.fit_or_load(key, fit)
    assert registry.hits == 1 and registry.misses == 1
    assert getattr(loaded, "_packed", None) is not None
    assert np.array_equal(loaded.predict(X), fitted.predict(X))


# -- encoder memo and pool caches ---------------------------------------------


def _a_times_b(space, config):
    return config[0] * config[1]


def _toy_encoder() -> ConfigEncoder:
    space = ParameterSpace(
        (Parameter("a", (1, 2, 4)), Parameter("b", (10, 20)))
    )
    return ConfigEncoder(space, (DerivedFeature("a_times_b", _a_times_b),))


def test_encoder_memo_is_transparent():
    enc = _toy_encoder()
    configs = [(1, 10), (2, 20), (1, 10), (4, 20)]
    first = enc.encode(configs)
    again = enc.encode(configs)
    assert np.array_equal(first, again)
    assert np.array_equal(first[0], enc.encode_one((1, 10)))
    # Mutating a returned matrix must not poison the memo.
    first[0, 0] = 999.0
    assert np.array_equal(enc.encode([(1, 10)])[0], enc.encode_one((1, 10)))


def test_encoder_pickle_drops_memo():
    enc = _toy_encoder()
    enc.encode([(1, 10), (2, 20)])
    assert enc._memo
    restored = pickle.loads(pickle.dumps(enc))
    assert restored._memo == {}
    assert np.array_equal(
        restored.encode([(1, 10), (2, 20)]), enc.encode([(1, 10), (2, 20)])
    )


def test_telemetry_summary_surfaces_ml_kernels(monkeypatch):
    from repro import telemetry
    from repro.core.surrogate import default_surrogate
    from repro.ml import _native
    from repro.telemetry.hub import Telemetry

    hub = Telemetry()
    with telemetry.use(hub):
        enc = _toy_encoder()
        configs = [(a, b) for a in (1, 2, 4) for b in (10, 20)]
        values = np.array([3.0, 5.0, 2.5, 8.0, 1.5, 9.0])
        surrogate = default_surrogate(enc, random_state=0).fit(configs, values)
        surrogate.predict(configs)
        surrogate.predict(configs)  # second pass is all cache hits
    names = {r.name for r in hub.spans}
    assert {"ml.fit.boosting", "ml.predict"} <= names
    metrics = {s["name"]: s for s in hub.metrics_snapshot()}
    assert metrics["pool_cache.misses"]["value"] == len(configs)
    assert metrics["pool_cache.hits"]["value"] == len(configs)
    text = telemetry.summarize(hub)
    assert "ml kernels" in text
    assert "ml.predict" in text
    assert "pool cache" in text and "hit_rate=50.0%" in text
    # The fit span names the kernel that grew the trees.
    (fit_span,) = [r for r in hub.spans if r.name == "ml.fit.boosting"]
    assert fit_span.attributes["kernel"] == (
        "native" if _native.available() else "numpy"
    )
    monkeypatch.setattr(_native, "gbt_fit", lambda *a, **k: None)
    hub = Telemetry()
    with telemetry.use(hub):
        default_surrogate(enc, random_state=0).fit(configs, values)
    (fit_span,) = [r for r in hub.spans if r.name == "ml.fit.boosting"]
    assert fit_span.attributes["kernel"] == "numpy"


def test_surrogate_cache_matches_fresh_predictions():
    from repro.core.surrogate import default_surrogate

    enc = _toy_encoder()
    configs = [(a, b) for a in (1, 2, 4) for b in (10, 20)]
    values = np.array([3.0, 5.0, 2.5, 8.0, 1.5, 9.0])
    cached = default_surrogate(enc, random_state=0).fit(configs, values)
    fresh = default_surrogate(enc, random_state=0).fit(configs, values)
    subset = configs[2:5]
    # Prime the cache with a different batch, then compare subset scoring.
    cached.predict(configs)
    assert np.array_equal(cached.predict(subset), fresh.predict(subset))
    # Refit clears the cache and changes predictions accordingly.
    cached.fit(configs, values * 2.0)
    assert np.array_equal(
        cached.predict(subset),
        default_surrogate(enc, random_state=0).fit(configs, values * 2.0).predict(subset),
    )


# -- compiled fast path -------------------------------------------------------


def test_native_kernel_matches_numpy_fallback(monkeypatch):
    """The C traversal and the numpy block traversal are bit-identical.

    Covers NaN features (compare false, go right) and the tree-order
    accumulation; skipping when no compiler is available keeps the
    suite green on toolchain-less machines (the numpy path is then the
    only path, and everything else already tests it).
    """
    from repro.ml import _native, packed

    if not _native.available():
        pytest.skip("compiled kernel unavailable in this environment")
    rng = np.random.default_rng(99)
    X = _random_matrix(rng, 500, 7, case=0)
    y = np.abs(rng.normal(size=500)) + 1.0
    model = GradientBoostedTrees(
        n_estimators=37, max_depth=5, subsample=0.8, colsample=0.7,
        log_target=True, random_state=4,
    ).fit(X, y)
    pool = _random_matrix(rng, 3000, 7, case=1)
    pool[5, 2] = np.nan
    with_native = model.predict(pool)
    monkeypatch.setattr(packed._native, "packed_predict", lambda *a: None)
    assert np.array_equal(model.predict(pool), with_native)
    assert np.array_equal(with_native, reference_ensemble_predict(model, pool))


def _assert_same_trees(a: GradientBoostedTrees, b: GradientBoostedTrees) -> None:
    assert len(a._trees) == len(b._trees)
    for s, t in zip(a._trees, b._trees):
        for name in ("feature", "threshold", "left", "right", "value"):
            u, v = getattr(s, name), getattr(t, name)
            assert u.dtype == v.dtype, name
            assert np.array_equal(u, v, equal_nan=True), name
        assert np.array_equal(np.signbit(s.value), np.signbit(t.value))


#: Fit sizes crossing the kernel's insertion/radix sort cutoff (32 rows)
#: and numpy's 8-element and 128-element pairwise-sum blocks.
_FIT_SIZES = (1, 2, 3, 7, 8, 9, 31, 32, 33, 64, 127, 128, 129, 200, 256, 257,
              400, 600)


@pytest.mark.parametrize("case", range(40))
def test_native_fit_matches_numpy_fallback(case, monkeypatch):
    """One compiled call per fit grows the numpy loop's trees bit for bit.

    Cases mix ties, duplicate and NaN columns, row and column
    subsampling, min_child_weight > 1, λ = 0, γ > 0, depth 0, and a
    constant target (zero gradients, so −0.0 leaves).
    """
    from repro.ml import _native

    if not _native.available():
        pytest.skip("compiled kernel unavailable in this environment")
    rng = np.random.default_rng(500 + case)
    n = _FIT_SIZES[case % len(_FIT_SIZES)]
    d = int(rng.integers(1, 9))
    X = _random_matrix(rng, n, d, case)
    if case % 7 == 0:
        X[rng.random(size=(n, d)) < 0.1] = np.nan
    y = np.exp(rng.normal(size=n))
    constant = case % 9 == 0
    if constant:
        y[:] = 1.0  # log(1) = 0: the base score is exact, every gradient 0
    params = dict(
        n_estimators=int(rng.integers(1, 30)),
        learning_rate=float(rng.uniform(0.05, 1.0)),
        max_depth=case % 7,
        min_samples_leaf=int(rng.integers(1, 4)),
        min_child_weight=float(rng.choice([1e-6, 1.0, 3.0])),
        reg_lambda=float(rng.choice([0.0, 1.0, 3.0])),
        gamma=float(rng.choice([0.0, 0.05])),
        subsample=(1.0, 0.6, 0.9)[case % 3],
        colsample=(1.0, 0.5)[case // 3 % 2],
        log_target=bool(case % 2),
        random_state=case,
    )
    native = GradientBoostedTrees(**params).fit(X, y)
    monkeypatch.setattr(_native, "gbt_fit", lambda *a, **k: None)
    fallback = GradientBoostedTrees(**params).fit(X, y)
    _assert_same_trees(native, fallback)
    if constant:
        assert np.signbit(native._trees[0].value).all()
    X_test = _random_matrix(rng, 50, d, case + 1)
    assert np.array_equal(native.predict(X_test), fallback.predict(X_test))
    assert pickle.dumps(native) == pickle.dumps(fallback)


def test_native_fits_in_threads_match_serial():
    """Two threads fitting different models at once grow the serial trees.

    The kernel keeps no global state and cffi drops the GIL for the call,
    so the fits really overlap.
    """
    import threading

    from repro.ml import _native

    if not _native.available():
        pytest.skip("compiled kernel unavailable in this environment")
    rng = np.random.default_rng(21)
    jobs = []
    for k in range(2):
        X = _random_matrix(rng, 400, 6, k)
        y = np.exp(rng.normal(size=400))
        params = dict(n_estimators=60, subsample=0.8, colsample=(1.0, 0.7)[k],
                      random_state=k)
        jobs.append((params, X, y))
    serial = [GradientBoostedTrees(**p).fit(X, y) for p, X, y in jobs]
    threaded: list[list] = [[], []]
    start = threading.Barrier(2)

    def work(k: int) -> None:
        params, X, y = jobs[k]
        start.wait()
        for _ in range(4):
            threaded[k].append(GradientBoostedTrees(**params).fit(X, y))

    threads = [threading.Thread(target=work, args=(k,)) for k in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive()
    for want, got in zip(serial, threaded):
        assert len(got) == 4
        for model in got:
            _assert_same_trees(model, want)


def test_native_fit_rejects_out_of_range_subsets():
    from repro.ml import _native
    from repro.ml.tree import _feature_group_ids

    if not _native.available():
        pytest.skip("compiled kernel unavailable in this environment")
    X = np.arange(8.0).reshape(4, 2)
    gid = _feature_group_ids(X)
    target = np.zeros(4)
    params = dict(base=0.0, learning_rate=0.1, max_depth=2, min_samples_leaf=1,
                  min_child_weight=1e-6, reg_lambda=1.0, gamma=0.0)
    with pytest.raises(ValueError, match="column"):
        _native.gbt_fit(X, gid, target, None, [np.array([0, 2])], **params)
    with pytest.raises(ValueError, match="row"):
        _native.gbt_fit(
            X, gid, target, [np.array([0, 4])], [np.array([0, 1])], **params
        )
    with pytest.raises(ValueError, match="min_samples_leaf"):
        _native.gbt_fit(
            X, gid, target, None, [np.array([0, 1])],
            **{**params, "min_samples_leaf": 0},
        )


def test_unit_hessian_fastpath_matches_reference():
    """h ≡ 1 triggers the synthesized hessian prefix sums; still exact."""
    rng = np.random.default_rng(3)
    X = _random_matrix(rng, 180, 5, case=0)
    g = rng.normal(size=180)
    h = np.ones(180)
    fast = RegressionTree(max_depth=6, min_samples_leaf=3).fit_gradients(X, g, h)
    slow = RegressionTree(max_depth=6, min_samples_leaf=3)
    reference_fit_gradients(slow, X, g, h, fast.reg_lambda)
    assert np.array_equal(fast.feature, slow.feature)
    assert np.array_equal(fast.threshold, slow.threshold, equal_nan=True)
    assert np.array_equal(fast.value, slow.value)


def test_precomputed_group_id_slices_match_per_fit_ranks():
    """Un-renumbered rank slices reproduce per-subset presorting exactly."""
    from repro.ml.tree import _feature_group_ids

    rng = np.random.default_rng(12)
    X = _random_matrix(rng, 120, 6, case=0)
    g = rng.normal(size=120)
    h = np.ones(120)
    gid = _feature_group_ids(X)
    rows = rng.choice(120, size=90, replace=False)
    cols = np.sort(rng.choice(6, size=4, replace=False))
    sliced = RegressionTree(max_depth=4).fit_gradients(
        X[np.ix_(rows, cols)], g[rows], h[rows],
        group_ids=gid[np.ix_(rows, cols)],
    )
    fresh = RegressionTree(max_depth=4).fit_gradients(
        X[np.ix_(rows, cols)], g[rows], h[rows]
    )
    assert np.array_equal(sliced.threshold, fresh.threshold, equal_nan=True)
    assert np.array_equal(sliced.value, fresh.value)


def test_group_ids_shape_mismatch_raises():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(30, 3))
    with pytest.raises(ValueError, match="group_ids"):
        RegressionTree().fit_gradients(
            X, -X[:, 0], np.ones(30), group_ids=np.zeros((30, 2), dtype=np.uint16)
        )
