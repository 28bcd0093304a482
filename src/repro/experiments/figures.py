"""One driver per paper figure (Figs. 4–12), as suite-spec builders.

Every trial-running driver is a thin pair: a ``figNN_spec`` builder
declaring the figure's run matrix as a
:class:`~repro.experiments.suite.SuiteSpec`, and a ``figNN_*`` driver
executing it through :func:`~repro.experiments.suite.run_suite` and
shaping the trials into a :class:`FigureResult` whose ``rows`` are
plain dicts (one per plotted bar/point/series entry), ready for
:func:`repro.experiments.reporting.format_table` or downstream
plotting.  Passing ``store=`` to any driver makes its matrix resumable
(finished cells are skipped on re-run); the specs are single-seed by
default and reproduce the legacy hand-wired outputs bit-identically
(pinned in ``tests/test_suite.py``).

Budgets follow the paper's grids; ``repeats`` and ``pool_size`` default
to bench-friendly values (the paper averages 100 repeats on
2000-configuration pools — pass those for full-fidelity runs).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.collector import ComponentBatchData
from repro.core.component_models import ComponentModelSet
from repro.core.low_fidelity import LowFidelityModel
from repro.core.metrics import least_number_of_uses, recall_curve
from repro.core.objectives import COMPUTER_TIME, EXECUTION_TIME
from repro.experiments.presets import (
    AlgorithmFactor,
    ceal_factor,
    history_factors,
    no_history_factors,
)
from repro.experiments.runner import summarize
from repro.experiments.suite import SuiteGroup, SuiteSpec, run_suite
from repro.insitu.measurement import measure_workflow
from repro.workflows.catalog import expert_config, make_workflow
from repro.workflows.pools import problem_artifacts

__all__ = [
    "FigureResult",
    "fig04_lowfid_recall",
    "fig05_best_config",
    "fig05_spec",
    "fig06_mdape",
    "fig06_spec",
    "fig07_recall",
    "fig07_spec",
    "fig08_practicality",
    "fig08_spec",
    "fig09_history_effect",
    "fig09_spec",
    "fig10_ceal_vs_alph",
    "fig10_spec",
    "fig11_alph_recall",
    "fig11_spec",
    "fig12_alph_practicality",
    "fig12_spec",
]

#: Budget grids of the paper's evaluation: execution time is studied at
#: m ∈ {50, 100}, computer time at m ∈ {25, 50} (Fig. 5); GP is only
#: evaluated for computer time (its execution time is pinned by the
#: serial G-Plot, §7.1).
EXEC_GRID = (("LV", 50), ("LV", 100), ("HS", 50), ("HS", 100))
COMP_GRID = (("LV", 25), ("LV", 50), ("HS", 25), ("HS", 50), ("GP", 25), ("GP", 50))


@dataclass
class FigureResult:
    """Structured reproduction of one paper figure."""

    figure: str
    title: str
    rows: list = field(default_factory=list)

    def to_text(self, digits: int = 4) -> str:
        from repro.experiments.reporting import format_table

        return f"{self.figure}: {self.title}\n" + format_table(self.rows, digits=digits)


def _group(
    workflow: str,
    objective: str,
    budget: int,
    factors: tuple,
    repeats: int,
    pool_size: int,
    seed: int,
    recall_max_n: int = 10,
) -> SuiteGroup:
    return SuiteGroup(
        workflow=workflow,
        objective=objective,
        budget=budget,
        algorithms=factors,
        repeats=repeats,
        pool_size=pool_size,
        pool_seed=seed,
        recall_max_n=recall_max_n,
    )


def _grid_spec(
    name: str,
    grids,
    factors: tuple,
    repeats: int,
    pool_size: int,
    seed: int,
    recall_max_n: int = 10,
) -> SuiteSpec:
    """A spec over ``(objective, (workflow, budget)...)`` grids."""
    groups = tuple(
        _group(
            workflow, objective, budget, factors, repeats, pool_size, seed,
            recall_max_n,
        )
        for objective, grid in grids
        for workflow, budget in grid
    )
    return SuiteSpec(name=name, groups=groups)


# ---------------------------------------------------------------------------
# Fig. 4 — recall scores of the combination-function low-fidelity models
# ---------------------------------------------------------------------------


def fig04_lowfid_recall(
    workflow_name: str = "LV",
    pool_size: int = 500,
    max_n: int = 25,
    seed: int = 2021,
) -> FigureResult:
    """Recall of the ACM low-fidelity models vs random selection (Fig. 4).

    Scores ``pool_size`` random configurations of the workflow with the
    max-of-execution-time and sum-of-computer-time models (component
    models trained on the full solo histories) and reports recall against
    the measured ranking, alongside the expectation of a random ranking
    (``n / pool_size``).

    The only figure without a run matrix: it evaluates *models*, not
    tuning algorithms, so it stays a direct driver rather than a suite
    spec.
    """
    artifacts = problem_artifacts(workflow_name, pool_size, seed)
    workflow, pool = artifacts.workflow, artifacts.pool
    data = {
        label: ComponentBatchData(
            label,
            history.configs,
            history.execution_seconds,
            history.computer_core_hours,
        )
        for label, history in artifacts.histories.items()
    }
    result = FigureResult(
        "Fig. 4", f"Low-fidelity recall on {workflow_name} ({pool_size} configs)"
    )
    for objective, series in (
        (COMPUTER_TIME, "sum of computer time"),
        (EXECUTION_TIME, "maximum of execution time"),
    ):
        models = ComponentModelSet.train(workflow, objective, data, random_state=seed)
        scores = LowFidelityModel(models).predict(list(pool.configs))
        truth = pool.objective_values(objective.name)
        curve = recall_curve(scores, truth, max_n)
        random_expect = [100.0 * n / pool_size for n in range(1, max_n + 1)]
        for n in range(1, max_n + 1):
            result.rows.append(
                {
                    "series": series,
                    "top_n": n,
                    "recall_pct": float(curve[n - 1]),
                    "random_pct": random_expect[n - 1],
                }
            )
    return result


# ---------------------------------------------------------------------------
# Fig. 5 — best auto-tuned configuration without historical measurements
# ---------------------------------------------------------------------------


def fig05_spec(
    repeats: int = 10, pool_size: int = 1000, seed: int = 2021
) -> SuiteSpec:
    grids = (("execution_time", EXEC_GRID), ("computer_time", COMP_GRID))
    return _grid_spec(
        "fig05", grids, no_history_factors(), repeats, pool_size, seed
    )


def fig05_best_config(
    repeats: int = 10,
    pool_size: int = 1000,
    seed: int = 2021,
    jobs: int | str | None = None,
    store=None,
) -> FigureResult:
    """Normalized best-configuration performance, RS/GEIST/AL/CEAL (Fig. 5)."""
    result = FigureResult(
        "Fig. 5", "Best configuration auto-tuned without historical measurements"
    )
    spec = fig05_spec(repeats, pool_size, seed)
    outcome = run_suite(spec, jobs=jobs, store=store)
    for group, trials in zip(spec.groups, outcome.by_group()):
        summary = summarize(trials)
        for algo in ("RS", "GEIST", "AL", "CEAL"):
            result.rows.append(
                {
                    "objective": group.objective,
                    "workflow": group.workflow,
                    "samples": group.budget,
                    "algorithm": algo,
                    "normalized": summary[algo]["normalized"],
                    "std": summary[algo]["normalized_std"],
                }
            )
    return result


# ---------------------------------------------------------------------------
# Fig. 6 — MdAPE of the trained models, all vs top-2 % configurations
# ---------------------------------------------------------------------------


def fig06_spec(
    repeats: int = 10, pool_size: int = 1000, seed: int = 2021
) -> SuiteSpec:
    cases = (
        ("LV", "computer_time", 50),
        ("HS", "execution_time", 100),
        ("GP", "computer_time", 25),
    )
    groups = tuple(
        _group(
            workflow, objective, budget, no_history_factors(), repeats,
            pool_size, seed,
        )
        for workflow, objective, budget in cases
    )
    return SuiteSpec(name="fig06", groups=groups)


def fig06_mdape(
    repeats: int = 10,
    pool_size: int = 1000,
    seed: int = 2021,
    jobs: int | str | None = None,
    store=None,
) -> FigureResult:
    """Model MdAPE over all and top-2 % test configurations (Fig. 6)."""
    result = FigureResult(
        "Fig. 6", "Prediction accuracy (MdAPE %) without historical measurements"
    )
    spec = fig06_spec(repeats, pool_size, seed)
    outcome = run_suite(spec, jobs=jobs, store=store)
    for group, trials in zip(spec.groups, outcome.by_group()):
        summary = summarize(trials)
        for algo in ("RS", "GEIST", "AL", "CEAL"):
            result.rows.append(
                {
                    "workflow": group.workflow,
                    "objective": group.objective,
                    "samples": group.budget,
                    "algorithm": algo,
                    "mdape_top2_pct": summary[algo]["mdape_top2"],
                    "mdape_all_pct": summary[algo]["mdape_all"],
                }
            )
    return result


# ---------------------------------------------------------------------------
# Fig. 7 — robustness (recall curves) without historical measurements
# ---------------------------------------------------------------------------


def fig07_spec(
    repeats: int = 10,
    pool_size: int = 1000,
    seed: int = 2021,
    max_n: int = 9,
) -> SuiteSpec:
    cases = (
        ("LV", "execution_time", 100),
        ("HS", "execution_time", 100),
        ("LV", "computer_time", 50),
        ("GP", "computer_time", 50),
    )
    groups = tuple(
        _group(
            workflow, objective, budget, no_history_factors(), repeats,
            pool_size, seed, recall_max_n=max_n,
        )
        for workflow, objective, budget in cases
    )
    return SuiteSpec(name="fig07", groups=groups)


def fig07_recall(
    repeats: int = 10,
    pool_size: int = 1000,
    seed: int = 2021,
    max_n: int = 9,
    jobs: int | str | None = None,
    store=None,
) -> FigureResult:
    """Recall of top-n configurations, four algorithms (Fig. 7)."""
    result = FigureResult("Fig. 7", "Robustness without historical measurements")
    spec = fig07_spec(repeats, pool_size, seed, max_n)
    outcome = run_suite(spec, jobs=jobs, store=store)
    for group, trials in zip(spec.groups, outcome.by_group()):
        summary = summarize(trials)
        for algo in ("RS", "GEIST", "AL", "CEAL"):
            for n in range(1, max_n + 1):
                result.rows.append(
                    {
                        "workflow": group.workflow,
                        "objective": group.objective,
                        "samples": group.budget,
                        "algorithm": algo,
                        "top_n": n,
                        "recall_pct": float(summary[algo]["recall"][n - 1]),
                    }
                )
    return result


# ---------------------------------------------------------------------------
# Fig. 8 — practicality (least number of uses) without histories
# ---------------------------------------------------------------------------


def _practicality_rows(group: SuiteGroup, trials) -> list[dict]:
    """The §7.2.3 rows of one suite group's trials."""
    workflow = make_workflow(group.workflow)
    expert = measure_workflow(
        workflow, expert_config(group.workflow, group.objective), noise_sigma=0
    ).objective(group.objective)
    rows = []
    by_algo: dict[str, list] = {}
    for t in trials:
        by_algo.setdefault(t.algorithm, []).append(t)
    for algo, ts in by_algo.items():
        # The paper's N = c / Δp with the algorithm's average collection
        # cost and average improvement over the expert (per-trial ratios
        # would average incomparable subsets when some trials fail to
        # beat the expert).
        mean_cost = float(np.mean([t.cost for t in ts]))
        mean_value = float(np.mean([t.best_value for t in ts]))
        uses = least_number_of_uses(mean_cost, mean_value, expert)
        recouped = np.mean([t.best_value < expert for t in ts])
        rows.append(
            {
                "workflow": group.workflow,
                "objective": group.objective,
                "samples": group.budget,
                "algorithm": algo,
                "least_uses": uses,
                "recouped_fraction": float(recouped),
                "expert_value": expert,
            }
        )
    return rows


def fig08_spec(
    repeats: int = 10, pool_size: int = 1000, seed: int = 2021
) -> SuiteSpec:
    factors = (
        AlgorithmFactor.make("AL", "al"),
        ceal_factor("CEAL", use_history=False),
    )
    groups = tuple(
        _group(workflow, "computer_time", 50, factors, repeats, pool_size, seed)
        for workflow in ("LV", "HS")
    )
    return SuiteSpec(name="fig08", groups=groups)


def fig08_practicality(
    repeats: int = 10,
    pool_size: int = 1000,
    seed: int = 2021,
    jobs: int | str | None = None,
    store=None,
) -> FigureResult:
    """Least number of uses, AL vs CEAL, computer time, 50 samples (Fig. 8)."""
    result = FigureResult(
        "Fig. 8", "Practicality without historical measurements (computer time)"
    )
    spec = fig08_spec(repeats, pool_size, seed)
    outcome = run_suite(spec, jobs=jobs, store=store)
    for group, trials in zip(spec.groups, outcome.by_group()):
        result.rows.extend(_practicality_rows(group, trials))
    return result


# ---------------------------------------------------------------------------
# Fig. 9 — effect of historical component measurements on CEAL
# ---------------------------------------------------------------------------


def fig09_spec(
    repeats: int = 10, pool_size: int = 1000, seed: int = 2021
) -> SuiteSpec:
    factors = (
        ceal_factor("CEAL w/o histories", use_history=False),
        ceal_factor("CEAL w/ histories", use_history=True),
    )
    grids = (("execution_time", EXEC_GRID), ("computer_time", COMP_GRID))
    return _grid_spec("fig09", grids, factors, repeats, pool_size, seed)


def fig09_history_effect(
    repeats: int = 10,
    pool_size: int = 1000,
    seed: int = 2021,
    jobs: int | str | None = None,
    store=None,
) -> FigureResult:
    """CEAL with vs without free historical measurements (Fig. 9)."""
    result = FigureResult("Fig. 9", "Effect of historical measurements on CEAL")
    spec = fig09_spec(repeats, pool_size, seed)
    outcome = run_suite(spec, jobs=jobs, store=store)
    for group, trials in zip(spec.groups, outcome.by_group()):
        summary = summarize(trials)
        for algo in summary:
            result.rows.append(
                {
                    "objective": group.objective,
                    "workflow": group.workflow,
                    "samples": group.budget,
                    "algorithm": algo,
                    "normalized": summary[algo]["normalized"],
                }
            )
    return result


# ---------------------------------------------------------------------------
# Figs. 10–12 — CEAL vs ALpH with historical measurements
# ---------------------------------------------------------------------------


def fig10_spec(
    repeats: int = 10, pool_size: int = 1000, seed: int = 2021
) -> SuiteSpec:
    grids = (("execution_time", EXEC_GRID), ("computer_time", COMP_GRID))
    return _grid_spec("fig10", grids, history_factors(), repeats, pool_size, seed)


def fig10_ceal_vs_alph(
    repeats: int = 10,
    pool_size: int = 1000,
    seed: int = 2021,
    jobs: int | str | None = None,
    store=None,
) -> FigureResult:
    """Best configuration, CEAL vs ALpH, with histories (Fig. 10)."""
    result = FigureResult("Fig. 10", "CEAL vs ALpH with historical measurements")
    spec = fig10_spec(repeats, pool_size, seed)
    outcome = run_suite(spec, jobs=jobs, store=store)
    for group, trials in zip(spec.groups, outcome.by_group()):
        summary = summarize(trials)
        for algo in ("CEAL", "ALpH"):
            result.rows.append(
                {
                    "objective": group.objective,
                    "workflow": group.workflow,
                    "samples": group.budget,
                    "algorithm": algo,
                    "normalized": summary[algo]["normalized"],
                }
            )
    return result


def fig11_spec(
    repeats: int = 10,
    pool_size: int = 1000,
    seed: int = 2021,
    max_n: int = 9,
) -> SuiteSpec:
    cases = (
        ("LV", "execution_time", 50),
        ("HS", "execution_time", 50),
        ("LV", "computer_time", 25),
        ("GP", "computer_time", 25),
    )
    groups = tuple(
        _group(
            workflow, objective, budget, history_factors(), repeats,
            pool_size, seed, recall_max_n=max_n,
        )
        for workflow, objective, budget in cases
    )
    return SuiteSpec(name="fig11", groups=groups)


def fig11_alph_recall(
    repeats: int = 10,
    pool_size: int = 1000,
    seed: int = 2021,
    max_n: int = 9,
    jobs: int | str | None = None,
    store=None,
) -> FigureResult:
    """Recall curves, CEAL vs ALpH, with histories (Fig. 11)."""
    result = FigureResult("Fig. 11", "Robustness with historical measurements")
    spec = fig11_spec(repeats, pool_size, seed, max_n)
    outcome = run_suite(spec, jobs=jobs, store=store)
    for group, trials in zip(spec.groups, outcome.by_group()):
        summary = summarize(trials)
        for algo in ("CEAL", "ALpH"):
            for n in range(1, max_n + 1):
                result.rows.append(
                    {
                        "workflow": group.workflow,
                        "objective": group.objective,
                        "samples": group.budget,
                        "algorithm": algo,
                        "top_n": n,
                        "recall_pct": float(summary[algo]["recall"][n - 1]),
                    }
                )
    return result


def fig12_spec(
    repeats: int = 10, pool_size: int = 1000, seed: int = 2021
) -> SuiteSpec:
    cases = (
        ("LV", "execution_time", 50),
        ("HS", "execution_time", 100),
        ("LV", "computer_time", 25),
        ("LV", "computer_time", 50),
        ("HS", "computer_time", 25),
        ("HS", "computer_time", 50),
    )
    groups = tuple(
        _group(
            workflow, objective, budget, history_factors(), repeats,
            pool_size, seed,
        )
        for workflow, objective, budget in cases
    )
    return SuiteSpec(name="fig12", groups=groups)


def fig12_alph_practicality(
    repeats: int = 10,
    pool_size: int = 1000,
    seed: int = 2021,
    jobs: int | str | None = None,
    store=None,
) -> FigureResult:
    """Least number of uses, CEAL vs ALpH, with histories (Fig. 12)."""
    result = FigureResult("Fig. 12", "Practicality with historical measurements")
    spec = fig12_spec(repeats, pool_size, seed)
    outcome = run_suite(spec, jobs=jobs, store=store)
    for group, trials in zip(spec.groups, outcome.by_group()):
        result.rows.extend(_practicality_rows(group, trials))
    return result
