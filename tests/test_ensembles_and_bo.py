"""Tests for the Didona ensembles (§8.2) and the BO tuner (§9)."""

import numpy as np
import pytest

from repro.core.algorithms import BayesianOptimization
from repro.core.collector import ComponentBatchData
from repro.core.component_models import ComponentModelSet
from repro.core.ensembles import HyBoost, KnnModelSelector, Probing
from repro.core.low_fidelity import LowFidelityModel
from repro.core.objectives import EXECUTION_TIME
from repro.core.problem import TuningProblem
from repro.core.surrogate import default_surrogate


@pytest.fixture(scope="module")
def low_fidelity(lv, lv_histories):
    data = {
        label: ComponentBatchData(
            label, h.configs, h.execution_seconds, h.computer_core_hours
        )
        for label, h in lv_histories.items()
    }
    return LowFidelityModel(
        ComponentModelSet.train(lv, EXECUTION_TIME, data, random_state=0)
    )


@pytest.fixture()
def train(lv_pool):
    configs = list(lv_pool.configs[:60])
    values = lv_pool.objective_values("execution_time")[:60]
    return configs, values


class TestKnnModelSelector:
    def test_fit_predict(self, lv, lv_pool, low_fidelity, train):
        configs, values = train
        ens = KnnModelSelector(
            low_fidelity, default_surrogate(lv.encoder(), 0), lv.encoder()
        )
        ens.fit(configs, values)
        pred = ens.predict(list(lv_pool.configs[60:80]))
        assert pred.shape == (20,)
        assert (pred > 0).all()

    def test_reasonable_accuracy(self, lv, lv_pool, low_fidelity, train):
        configs, values = train
        ens = KnnModelSelector(
            low_fidelity, default_surrogate(lv.encoder(), 0), lv.encoder()
        ).fit(configs, values)
        test = list(lv_pool.configs[60:])
        truth = lv_pool.objective_values("execution_time")[60:]
        rel = np.abs(ens.predict(test) - truth) / truth
        assert np.median(rel) < 0.5

    def test_too_few_samples(self, lv, low_fidelity):
        ens = KnnModelSelector(
            low_fidelity, default_surrogate(lv.encoder(), 0), lv.encoder()
        )
        with pytest.raises(ValueError):
            ens.fit([(2, 1, 1, 2, 1, 1)], np.array([1.0]))

    def test_unfitted_predict(self, lv, low_fidelity):
        ens = KnnModelSelector(
            low_fidelity, default_surrogate(lv.encoder(), 0), lv.encoder()
        )
        with pytest.raises(RuntimeError):
            ens.predict([(2, 1, 1, 2, 1, 1)])


class TestHyBoost:
    def test_corrects_analytical_bias(self, lv, lv_pool, low_fidelity, train):
        configs, values = train
        ens = HyBoost(low_fidelity, default_surrogate(lv.encoder(), 0))
        ens.fit(configs, values)
        pred = ens.predict(configs)
        rel = np.abs(pred - values) / values
        am_rel = np.abs(low_fidelity.predict(configs) - values) / values
        # On training data the corrected model beats the raw AM.
        assert np.median(rel) <= np.median(am_rel) + 1e-9

    def test_empty_predict(self, lv, low_fidelity, train):
        configs, values = train
        ens = HyBoost(low_fidelity, default_surrogate(lv.encoder(), 0))
        ens.fit(configs, values)
        assert ens.predict([]).shape == (0,)

    def test_unfitted(self, lv, low_fidelity):
        ens = HyBoost(low_fidelity, default_surrogate(lv.encoder(), 0))
        with pytest.raises(RuntimeError):
            ens.predict([(2, 1, 1, 2, 1, 1)])


class TestProbing:
    def test_gates_by_local_error(self, lv, lv_pool, low_fidelity, train):
        configs, values = train
        ens = Probing(
            low_fidelity, default_surrogate(lv.encoder(), 0), lv.encoder(),
            tolerance=0.1,
        )
        ens.fit(configs, values)
        pred = ens.predict(list(lv_pool.configs[60:80]))
        assert pred.shape == (20,) and (pred > 0).all()

    def test_extreme_tolerances_select_single_model(
        self, lv, lv_pool, low_fidelity, train
    ):
        configs, values = train
        test = list(lv_pool.configs[60:75])
        trust_all = Probing(
            low_fidelity, default_surrogate(lv.encoder(), 0), lv.encoder(),
            tolerance=1e9,
        ).fit(configs, values)
        np.testing.assert_allclose(
            trust_all.predict(test), low_fidelity.predict(test)
        )
        trust_none = Probing(
            low_fidelity, default_surrogate(lv.encoder(), 0), lv.encoder(),
            tolerance=0.0,
        ).fit(configs, values)
        ml_only = default_surrogate(lv.encoder(), 0).fit(configs, values)
        np.testing.assert_allclose(trust_none.predict(test), ml_only.predict(test))


class TestBayesianOptimization:
    def test_respects_budget(self, lv, lv_pool, lv_histories):
        problem = TuningProblem.create(
            lv, EXECUTION_TIME, lv_pool, budget_runs=15, seed=2,
            histories=lv_histories,
        )
        result = BayesianOptimization(iterations=3).tune(problem)
        assert result.runs_used == 15
        assert result.algorithm == "BO"
        assert result.best_config(lv_pool) in lv_pool.configs

    def test_bootstrap_variant_uses_histories(self, lv, lv_pool, lv_histories):
        problem = TuningProblem.create(
            lv, EXECUTION_TIME, lv_pool, budget_runs=15, seed=2,
            histories=lv_histories,
        )
        result = BayesianOptimization(iterations=3, bootstrap=True).tune(problem)
        assert result.algorithm == "CEAL-BO"
        assert result.runs_used == 15
        assert len(result.measured) == 15  # histories free

    def test_bootstrap_pays_without_histories(self, lv, lv_pool, lv_histories):
        problem = TuningProblem.create(
            lv, EXECUTION_TIME, lv_pool, budget_runs=16, seed=2, histories={},
        )
        # No histories attached -> cannot charge component runs either.
        with pytest.raises(RuntimeError):
            BayesianOptimization(iterations=3, bootstrap=True).tune(problem)

    def test_finds_good_config(self, lv, lv_pool, lv_histories):
        best = lv_pool.best_value("execution_time")
        gaps = []
        for rep in range(4):
            problem = TuningProblem.create(
                lv, EXECUTION_TIME, lv_pool, budget_runs=20, seed=900 + rep,
                histories=lv_histories,
            )
            result = BayesianOptimization(iterations=4).tune(problem)
            gaps.append(result.best_actual_value(lv_pool) / best)
        assert np.mean(gaps) < 1.3

    def test_algorithms_import_skips_scipy_stats(self):
        """EI uses ``ndtr`` and a closed-form pdf, not ``scipy.stats``."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        code = (
            "import sys, repro.core.algorithms; "
            "print('scipy.stats' in sys.modules)"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=env, capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == "False"
