"""User-facing auto-tuner facade.

Wires together pool generation, component histories, the budgeted
collector, a tuning algorithm (CEAL by default), and the searcher —
the full collector/modeler/searcher loop of paper Fig. 3 — behind one
call::

    from repro.core import AutoTuner
    from repro.workflows import make_lv

    outcome = AutoTuner(make_lv(), "computer_time", budget=50).tune()
    print(outcome.best_config, outcome.best_value)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config.space import Configuration
from repro.core.algorithms import make_algorithm
from repro.core.metrics import recall_curve
from repro.core.objectives import Objective, get_objective
from repro.core.problem import AutotuneResult, TuningProblem
from repro.insitu.workflow import WorkflowDefinition
from repro.workflows.pools import MeasuredPool, problem_artifacts

__all__ = ["AutoTuner", "TuningOutcome"]


@dataclass(frozen=True)
class TuningOutcome:
    """Everything a user wants back from one tuning session."""

    result: AutotuneResult
    pool: MeasuredPool
    best_config: Configuration
    best_value: float
    pool_best_value: float
    runs_used: int
    cost: float

    @property
    def gap_to_pool_best(self) -> float:
        """Recommendation value normalised by the pool optimum (≥ 1)."""
        return self.best_value / self.pool_best_value

    def recall(self, max_n: int = 10) -> np.ndarray:
        """Recall curve of the final model over the pool (Fig. 7 style)."""
        return recall_curve(
            self.result.predict_pool(self.pool),
            self.pool.objective_values(self.result.objective.name),
            max_n,
        )


@dataclass
class AutoTuner:
    """Tune one workflow for one objective under a run budget.

    Parameters
    ----------
    workflow:
        The in-situ workflow to tune.
    objective:
        ``"execution_time"``, ``"computer_time"``, or an
        :class:`~repro.core.objectives.Objective`.
    budget:
        Total workflow-run budget ``m``.
    algorithm:
        Any :class:`~repro.core.algorithms.TuningAlgorithm`; defaults to
        CEAL with paper-default hyper-parameters.
    pool_size:
        Candidate-pool size (§5 sizing; the paper uses 2000).
    use_history:
        Make free historical component measurements available (§7.5).
    seed:
        Reproducibility seed for pool sampling and tuning randomness.
    noise_sigma:
        Measurement-noise level of the simulated runs.
    checkpoint_path:
        When set, the tuning session checkpoints its resumable state
        here after every measurement cycle (see
        :mod:`repro.core.driver`).
    resume:
        Restore the session from ``checkpoint_path`` and finish it; the
        completed run is bit-identical to an uninterrupted one.
    store:
        A :class:`~repro.store.db.MeasurementStore` (or database path):
        every paid measurement is durably recorded through it, and
        ``warm_start`` can draw on what earlier sessions stored.
    warm_start:
        ``"off"``, ``"components"``, or ``"full"`` (see
        :class:`~repro.core.problem.TuningProblem`); requires ``store``.
    """

    workflow: WorkflowDefinition
    objective: Objective | str
    budget: int = 50
    algorithm: object | None = None
    pool_size: int = 2000
    use_history: bool = False
    seed: int = 0
    noise_sigma: float = 0.05
    history_size: int = 500
    pool: MeasuredPool | None = None
    checkpoint_path: str | None = None
    resume: bool = False
    store: object | None = None
    warm_start: str = "off"

    def __post_init__(self) -> None:
        if isinstance(self.objective, str):
            self.objective = get_objective(self.objective)
        if self.algorithm is None:
            self.algorithm = make_algorithm("ceal", use_history=self.use_history)

    def tune(self) -> TuningOutcome:
        """Run the full collector/modeler/searcher loop."""
        artifacts = problem_artifacts(
            self.workflow, self.pool_size, self.seed, self.noise_sigma,
            self.history_size, pool=self.pool,
        )
        pool = artifacts.pool
        problem = TuningProblem.create(
            workflow=self.workflow,
            objective=self.objective,
            pool=pool,
            budget_runs=self.budget,
            seed=self.seed,
            histories=artifacts.histories,
            store=self.store,
            warm_start=self.warm_start,
            encoder=artifacts.encoder,
        )
        # Only forward checkpoint options when asked for: user-supplied
        # algorithms may override ``tune(problem)`` without them.
        if self.checkpoint_path is not None or self.resume:
            result = self.algorithm.tune(
                problem,
                checkpoint_path=self.checkpoint_path,
                resume=self.resume,
            )
        else:
            result = self.algorithm.tune(problem)
        best_config = result.best_config(pool)
        best_value = result.best_actual_value(pool)
        return TuningOutcome(
            result=result,
            pool=pool,
            best_config=best_config,
            best_value=best_value,
            pool_best_value=pool.best_value(self.objective.name),
            runs_used=result.runs_used,
            cost=result.cost(),
        )
