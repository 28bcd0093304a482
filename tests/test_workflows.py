"""Tests for the workflow catalog and measured pools."""

import numpy as np
import pytest

from repro.insitu.measurement import measure_workflow
from repro.workflows.catalog import (
    EXPERT_CONFIGS,
    expert_config,
    make_workflow,
)
from repro.workflows.pools import (
    generate_component_history,
    generate_pool,
    pool_size_for,
)


class TestCatalog:
    def test_space_sizes_match_paper_magnitudes(self, lv, hs, gp):
        # Paper: LV 2.9e9 (raw product here includes infeasible combos),
        # HS 5.1e10, GP 8.5e7 — same orders of magnitude.
        assert 1e9 < lv.space.size() < 1e11
        assert 1e10 < hs.space.size() < 1e12
        assert 1e7 < gp.space.size() < 1e9

    def test_component_config_extraction(self, lv):
        config = (288, 18, 2, 560, 20, 1)
        assert lv.component_config("lammps", config) == (288, 18, 2)
        assert lv.component_config("voro", config) == (560, 20, 1)

    def test_dag_structure(self, gp):
        assert set(gp.graph.successors("gray_scott")) == {"pdf_calc", "gplot"}
        assert set(gp.graph.successors("pdf_calc")) == {"pplot"}

    def test_cycle_rejected(self, lv):
        from repro.insitu.workflow import Coupling, WorkflowDefinition

        with pytest.raises(ValueError, match="cycle"):
            WorkflowDefinition(
                name="bad",
                components=lv.components,
                couplings=(
                    Coupling("lammps", "voro"),
                    Coupling("voro", "lammps"),
                ),
            )

    def test_unknown_coupling_label_rejected(self, lv):
        from repro.insitu.workflow import Coupling, WorkflowDefinition

        with pytest.raises(ValueError, match="unknown component"):
            WorkflowDefinition(
                name="bad",
                components=lv.components,
                couplings=(Coupling("lammps", "ghost"),),
            )

    def test_make_workflow_by_name(self):
        assert make_workflow("LV").name == "LV"
        with pytest.raises(ValueError):
            make_workflow("XX")

    def test_expert_configs_feasible(self):
        for (name, objective), config in EXPERT_CONFIGS.items():
            workflow = make_workflow(name)
            assert workflow.space.contains(config), (name, objective)
            assert workflow.constraint(config), (name, objective)

    def test_expert_config_lookup(self):
        assert expert_config("LV", "execution_time") == (288, 18, 2, 288, 18, 2)
        with pytest.raises(ValueError):
            expert_config("LV", "energy")

    def test_encoder_has_footprint_features(self, lv):
        names = lv.encoder().feature_names()
        assert "lammps.nodes" in names
        assert "voro.total_procs" in names

    def test_buffer_hook_bounds(self, hs):
        config = list(expert_config("HS", "computer_time"))
        buf_pos = hs.space.position("heat.buffer_mb")
        coupling = hs.couplings[0]
        config[buf_pos] = 1
        assert 1 <= hs.buffer_messages(coupling, tuple(config)) <= 8
        config[buf_pos] = 40
        assert hs.buffer_messages(coupling, tuple(config)) <= 8


class TestPoolSizing:
    def test_paper_example(self):
        # 1/n = 0.2%, P = 98.2% -> ~2000
        assert 1900 <= pool_size_for(0.002, 0.982) <= 2100

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            pool_size_for(0.0, 0.9)
        with pytest.raises(ValueError):
            pool_size_for(0.1, 1.0)


class TestPools:
    def test_pool_configs_feasible_and_unique(self, lv, lv_pool):
        assert len(set(lv_pool.configs)) == len(lv_pool)
        for config in lv_pool.configs[:20]:
            assert lv.constraint(config)

    def test_pool_deterministic(self, lv, lv_pool):
        again = generate_pool(lv, len(lv_pool), seed=7)
        assert again.configs == lv_pool.configs
        assert again.measurements[0].execution_seconds == pytest.approx(
            lv_pool.measurements[0].execution_seconds
        )

    def test_different_seed_different_pool(self, lv, lv_pool):
        other = generate_pool(lv, len(lv_pool), seed=8)
        assert other.configs != lv_pool.configs

    def test_objective_values_align(self, lv_pool):
        values = lv_pool.objective_values("execution_time")
        assert values.shape == (len(lv_pool),)
        best = lv_pool.best_index("execution_time")
        assert values[best] == lv_pool.best_value("execution_time")

    def test_lookup(self, lv_pool):
        config = lv_pool.configs[5]
        assert lv_pool.lookup(config).config == config
        with pytest.raises(KeyError):
            lv_pool.lookup((2, 1, 1, 2, 1, 1))

    def test_pool_values_match_direct_measurement(self, lv, lv_pool):
        config = lv_pool.configs[0]
        direct = measure_workflow(lv, config, noise_sigma=0.05, noise_seed=7)
        assert lv_pool.lookup(config).execution_seconds == pytest.approx(
            direct.execution_seconds
        )


class TestComponentHistory:
    def test_history_shapes(self, lv_histories):
        history = lv_histories["lammps"]
        assert len(history) == 120
        assert history.execution_seconds.shape == (120,)
        assert (history.execution_seconds > 0).all()
        assert (history.computer_core_hours > 0).all()

    def test_objective_selector(self, lv_histories):
        history = lv_histories["voro"]
        np.testing.assert_array_equal(
            history.objective_values("execution_time"), history.execution_seconds
        )
        with pytest.raises(ValueError):
            history.objective_values("memory")

    def test_subset(self, lv_histories):
        history = lv_histories["lammps"]
        sub = history.subset([0, 5, 7])
        assert len(sub) == 3
        assert sub.configs[1] == history.configs[5]
        assert sub.execution_seconds[1] == history.execution_seconds[5]

    def test_history_deterministic(self, lv):
        a = generate_component_history(lv, "lammps", size=50, seed=11)
        b = generate_component_history(lv, "lammps", size=50, seed=11)
        assert a.configs == b.configs
        np.testing.assert_array_equal(a.execution_seconds, b.execution_seconds)


class TestProblemArtifacts:
    def test_tune_serve_and_suite_share_pool_and_histories(self, lv):
        """``AutoTuner``, a served session and a suite trial batch built
        from equal inputs hold the very same pool and history objects."""
        from repro.core import AutoTuner
        from repro.core.algorithms import RandomSampling
        from repro.experiments.runner import build_trial_context
        from repro.serve.specs import SessionSpec, build_problem

        inputs = dict(pool_size=60, seed=3, noise_sigma=0.05, history_size=40)

        class Capture(RandomSampling):
            def tune(self, problem, **kwargs):
                self.problem = problem
                return super().tune(problem, **kwargs)

        capture = Capture()
        AutoTuner(
            lv, "execution_time", budget=4, algorithm=capture, **inputs
        ).tune()
        served = build_problem(
            SessionSpec(workflow="LV", objective="execution_time", budget=4,
                        **inputs)
        )
        batch = build_trial_context(
            "LV",
            "execution_time",
            budget=4,
            tasks=[],
            pool_size=inputs["pool_size"],
            pool_seed=inputs["seed"],
            noise_sigma=inputs["noise_sigma"],
            history_size=inputs["history_size"],
        ).artifacts

        tuned = capture.problem
        assert tuned.pool is served.pool is batch.pool
        assert set(tuned.collector.histories) == set(batch.histories)
        for label, history in batch.histories.items():
            assert tuned.collector.histories[label] is history
            assert served.collector.histories[label] is history
