"""BO: Bayesian-optimization tuner (paper §9 future work).

The paper names Bayesian optimisation as an alternative black-box
technique for the bootstrapping method, attractive because it
"naturally consider[s] noise in selecting top configurations".  This
implements batched BO over the candidate pool with a Gaussian-process
surrogate (:mod:`repro.ml.gaussian_process`) and expected-improvement
acquisition, in two flavours:

* plain BO (``bootstrap=False``) — random seed batch, like AL; and
* **CEAL-BO** (``bootstrap=True``) — the bootstrapping method with BO as
  the black-box stage: the seed batch is the low-fidelity model's top
  picks plus ``m0/2`` random configurations, exactly CEAL's phase-2
  opening move.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from repro.core.algorithms.base import SearchStrategy, TuningAlgorithm
from repro.core.component_models import ComponentModelSet
from repro.core.driver import TuningSession
from repro.core.low_fidelity import LowFidelityModel
from repro.ml.gaussian_process import GaussianProcessRegressor

__all__ = ["BayesianOptimization", "BayesianOptimizationStrategy"]


class _GpPoolModel:
    """Adapter: GP over encoded configurations with a ``predict`` API."""

    def __init__(self, encoder, gp: GaussianProcessRegressor):
        self.encoder = encoder
        self.gp = gp

    def fit(self, configs, values):
        self.gp.fit(self.encoder.encode(configs), np.asarray(values))
        return self

    def predict(self, configs):
        if len(configs) == 0:
            return np.empty(0)
        return self.gp.predict(self.encoder.encode(configs))

    def expected_improvement(self, configs, best_observed: float) -> np.ndarray:
        """EI of *improvement below* the incumbent (minimisation)."""
        X = self.encoder.encode(configs)
        mean, std = self.gp.predict_latent(X)
        best = float(self.gp.to_latent(np.array([best_observed]))[0])
        z = (best - mean) / np.maximum(std, 1e-12)
        # The standard normal cdf and pdf, bit-identical to
        # ``scipy.stats.norm`` without importing ``scipy.stats``.
        pdf = np.exp(-(z**2) / 2.0) / np.sqrt(2 * np.pi)
        return (best - mean) * ndtr(z) + std * pdf


class BayesianOptimizationStrategy(SearchStrategy):
    """Batched expected-improvement acquisition over the pool."""

    def __init__(
        self,
        name: str,
        iterations: int,
        initial_fraction: float,
        bootstrap: bool,
        component_runs_fraction: float,
    ) -> None:
        self.name = name
        self.iterations = iterations
        self.initial_fraction = initial_fraction
        self.bootstrap = bootstrap
        self.component_runs_fraction = component_runs_fraction
        self._cycle = 0
        self._plan: list[int] | None = None
        self._component_data = None

    def prepare(self, session: TuningSession) -> None:
        problem = session.problem
        m = session.budget
        if self.bootstrap:
            if problem.collector.histories:
                self._component_data = problem.collector.free_component_history()
                self._m_workflow = m
            else:
                n_batches = max(2, round(self.component_runs_fraction * m))
                self._component_data = problem.collector.measure_components(
                    n_batches, problem.rng
                )
                self._m_workflow = m - n_batches
                session.annotate(component_batches=n_batches)
            self._build_low_fidelity(session)
        else:
            self._m_workflow = m
            self._low_fidelity = None
        self._m_init = min(
            max(2, round(self.initial_fraction * self._m_workflow)),
            self._m_workflow - 1,
        )
        self._build_gp(session)

    def _build_low_fidelity(self, session: TuningSession) -> None:
        problem = session.problem
        self._low_fidelity = LowFidelityModel(
            ComponentModelSet.train(
                problem.workflow,
                problem.objective,
                self._component_data,
                random_state=problem.seed,
                registry=problem.model_registry,
            )
        )

    def _build_gp(self, session: TuningSession) -> None:
        self._model = _GpPoolModel(
            session.problem.workflow.encoder(), GaussianProcessRegressor()
        )

    def ask(self, session: TuningSession):
        tracker = session.tracker
        if self._cycle == 0:
            self._cycle = 1
            session.annotate(kind="seed")
            if self.bootstrap:
                n_random = max(1, self._m_init // 3)
                seed_batch = session.problem.sample_unmeasured(
                    tracker.remaining, n_random
                )
                tracker.mark(seed_batch)
                candidates = tracker.remaining
                top = tracker.take_top(
                    self._low_fidelity.predict(candidates),
                    candidates,
                    self._m_init - n_random,
                )
                tracker.mark(top)
                return seed_batch + top
            seed_batch = session.problem.sample_unmeasured(
                tracker.remaining, self._m_init
            )
            tracker.mark(seed_batch)
            return seed_batch
        if self._plan is None:
            self._plan = session.plan_batches(
                self._m_workflow - self._m_init, self.iterations
            )
        index = self._cycle - 1
        if index >= len(self._plan):
            return []
        self._cycle += 1
        measured = session.collector.measured
        session.timed_fit(self._model, list(measured), list(measured.values()))
        candidates = tracker.remaining
        if not candidates:
            return []
        ei = self._model.expected_improvement(candidates, min(measured.values()))
        batch = tracker.take_top(-ei, candidates, self._plan[index])
        tracker.mark(batch)
        session.annotate(max_ei=float(ei.max()))
        return batch

    def finalize(self, session: TuningSession):
        measured = session.collector.measured
        session.timed_fit(self._model, list(measured), list(measured.values()))
        return self._model

    def state_dict(self) -> dict:
        return {
            "cycle": self._cycle,
            "plan": self._plan,
            "component_data": self._component_data,
            "m_workflow": self._m_workflow,
            "m_init": self._m_init,
        }

    def load_state(self, state: dict, session: TuningSession) -> None:
        self._cycle = state["cycle"]
        self._plan = state["plan"]
        self._component_data = state["component_data"]
        self._m_workflow = state["m_workflow"]
        self._m_init = state["m_init"]
        if self.bootstrap:
            self._build_low_fidelity(session)
        else:
            self._low_fidelity = None
        # The GP refits from scratch on all measured data in every
        # acquisition step, so a fresh instance continues bit-identically.
        self._build_gp(session)


@dataclass
class BayesianOptimization(TuningAlgorithm):
    """Batched BO over the candidate pool.

    Parameters
    ----------
    iterations:
        Acquisition batches after the seed batch.
    initial_fraction:
        Budget share of the seed batch.
    bootstrap:
        Seed with the low-fidelity (component-combined) model's top
        picks instead of pure random — BO slotted into the paper's
        bootstrapping method.
    component_runs_fraction:
        ``m_R/m`` when bootstrapping without free histories.
    """

    iterations: int = 6
    initial_fraction: float = 0.3
    bootstrap: bool = False
    component_runs_fraction: float = 0.3
    name: str = "BO"

    def __post_init__(self) -> None:
        if self.bootstrap:
            self.name = "CEAL-BO"

    def make_strategy(self) -> BayesianOptimizationStrategy:
        return BayesianOptimizationStrategy(
            self.name,
            self.iterations,
            self.initial_fraction,
            self.bootstrap,
            self.component_runs_fraction,
        )
