"""Measured configuration pools (the paper's §7.1 experimental protocol).

Two kinds of pre-measured data back every experiment:

* :class:`MeasuredPool` — ``p`` random *feasible* workflow
  configurations (paper: ``p = 2000``, sized by the tail bound of §5,
  ``p ≈ -n·ln(1-P)``), each measured once in the in-situ mode.  The pool
  doubles as the auto-tuners' candidate set ``C_pool`` and as the test
  set for recall/MdAPE metrics.
* :class:`ComponentHistory` — per configurable component, random solo
  configurations with standalone execution/computer times (paper: 500
  per component), used to train component models and as historical
  measurements ``D_hist`` in §7.5.

:func:`problem_artifacts` bundles one pool, the histories of every
configurable component and a feature encoder: the inputs every tuning
problem is built from, whether by ``AutoTuner``, a served session or a
suite trial.

Generation is deterministic given the seed and memoised in process
(a bounded :class:`~repro.cache.LruCache` each for pools and
histories).  Regenerating through the vectorized DES sweep is
cheap (a 2000-config pool takes a fraction of a second), so nothing is
cached on disk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro import telemetry
from repro.cache import LruCache
from repro.config.encoding import ConfigEncoder
from repro.config.space import Configuration
from repro.insitu.fast import measure_batch
from repro.insitu.measurement import WorkflowMeasurement, stable_seed
from repro.insitu.workflow import WorkflowDefinition
from repro.workflows.catalog import make_workflow

__all__ = [
    "MeasuredPool",
    "ComponentHistory",
    "ProblemArtifacts",
    "generate_pool",
    "generate_component_history",
    "pool_size_for",
    "problem_artifacts",
]


#: Generated pools and histories, LRU-bounded so a long-lived serve
#: daemon cycling many distinct specs does not pin every pool ever
#: generated.  Capacity is entries, not bytes: pools dominate the
#: per-entry cost and are roughly uniform within a workload.
_POOL_MEMO = LruCache("pool", 128, prefix="workflows.cache")
_HISTORY_MEMO = LruCache("history", 128, prefix="workflows.cache")


def pool_size_for(top_fraction: float, probability: float) -> int:
    """Pool size so its best config is in the top ``top_fraction`` w.p. ``probability``.

    The §5 bound: ``p ≈ -n · ln(1 - P)`` with ``n = 1/top_fraction``.
    For the paper's example (0.2 %, 98.2 %) this gives ≈ 2000.
    """
    if not 0 < top_fraction < 1 or not 0 < probability < 1:
        raise ValueError("top_fraction and probability must be in (0, 1)")
    return math.ceil(-(1.0 / top_fraction) * math.log(1.0 - probability))


@dataclass(frozen=True)
class MeasuredPool:
    """Random feasible configurations with measured in-situ performance."""

    workflow_name: str
    configs: tuple[Configuration, ...]
    measurements: tuple[WorkflowMeasurement, ...]

    def __len__(self) -> int:
        return len(self.configs)

    def objective_values(self, objective: str) -> np.ndarray:
        """Measured values of one objective, aligned with :attr:`configs`."""
        return np.array(
            [m.objective(objective) for m in self.measurements], dtype=np.float64
        )

    def best_index(self, objective: str) -> int:
        """Index of the pool's best configuration for ``objective``."""
        return int(np.argmin(self.objective_values(objective)))

    def best_value(self, objective: str) -> float:
        """The pool's best measured value (the "1" of the paper's plots)."""
        return float(self.objective_values(objective).min())

    def lookup(self, config: Configuration) -> WorkflowMeasurement:
        """Measurement of a pool configuration."""
        try:
            index = self.configs.index(tuple(config))
        except ValueError:
            raise KeyError(f"configuration {config!r} is not in the pool") from None
        return self.measurements[index]


@dataclass(frozen=True)
class ComponentHistory:
    """Solo measurements of one component (the paper's 500-sample sets)."""

    workflow_name: str
    label: str
    configs: tuple[Configuration, ...]
    execution_seconds: np.ndarray
    computer_core_hours: np.ndarray

    def __len__(self) -> int:
        return len(self.configs)

    def objective_values(self, objective: str) -> np.ndarray:
        """Per-config solo values of a workflow-level objective."""
        if objective == "execution_time":
            return self.execution_seconds
        if objective == "computer_time":
            return self.computer_core_hours
        raise ValueError(f"unknown objective {objective!r}")

    def subset(self, indices) -> "ComponentHistory":
        """History restricted to ``indices`` (budgeted component runs)."""
        indices = np.asarray(indices, dtype=np.int64)
        return ComponentHistory(
            workflow_name=self.workflow_name,
            label=self.label,
            configs=tuple(self.configs[i] for i in indices),
            execution_seconds=self.execution_seconds[indices],
            computer_core_hours=self.computer_core_hours[indices],
        )


def generate_pool(
    workflow: WorkflowDefinition,
    size: int = 2000,
    seed: int = 2021,
    noise_sigma: float = 0.05,
    replicates: int = 1,
) -> MeasuredPool:
    """Sample and measure ``size`` random feasible configurations.

    Deterministic given ``(workflow.name, size, seed, noise_sigma,
    replicates)`` and memoised; pass distinct seeds for independent
    pools.

    ``replicates > 1`` measures each configuration that many times with
    independent noise and records the mean — the noise-mitigation
    practice the paper's §9 describes ("existing methods select the
    average/median of three to five measurements").  The noise-ablation
    benchmark contrasts tuning quality on single-shot vs averaged pools.
    """
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    key = (workflow.name, size, seed, noise_sigma, replicates)
    memoised = _POOL_MEMO.get(key)
    if memoised is not None:
        return memoised
    with telemetry.get().span(
        "pool.generate", category="pool", workflow=workflow.name, size=size
    ):
        rng = np.random.default_rng(
            stable_seed("pool", workflow.name, size, seed)
        )
        configs = workflow.space.sample(
            rng, size, constraint=workflow.constraint, unique=True
        )
        # One vectorized sweep for the whole pool (bit-identical to the
        # former per-config measure_workflow loop; the DES oracle is the
        # fallback for ineligible workflows or REPRO_NO_FAST_DES=1).
        measurements = tuple(
            measure_batch(
                workflow,
                configs,
                noise_sigma=noise_sigma,
                noise_seed=seed,
                replicates=replicates,
            )
        )
        pool = MeasuredPool(workflow.name, tuple(configs), measurements)
    _POOL_MEMO.put(key, pool)
    return pool


def generate_component_history(
    workflow: WorkflowDefinition,
    label: str,
    size: int = 500,
    seed: int = 2021,
    noise_sigma: float = 0.05,
) -> ComponentHistory:
    """Sample and solo-measure ``size`` random component configurations.

    Deterministic given ``(workflow.name, label, size, seed,
    noise_sigma)`` and memoised in process.
    """
    key = (workflow.name, label, size, seed, noise_sigma)
    memoised = _HISTORY_MEMO.get(key)
    if memoised is not None:
        return memoised
    with telemetry.get().span(
        "history.generate",
        category="pool",
        workflow=workflow.name,
        label=label,
        size=size,
    ):
        history = _generate_history(workflow, label, size, seed, noise_sigma)
    _HISTORY_MEMO.put(key, history)
    return history


def _generate_history(
    workflow: WorkflowDefinition,
    label: str,
    size: int,
    seed: int,
    noise_sigma: float,
) -> ComponentHistory:
    app = workflow.app(label)
    machine = workflow.machine
    rng = np.random.default_rng(
        stable_seed("history", workflow.name, label, size, seed)
    )

    def feasible(comp_config: Configuration) -> bool:
        placement = app.placement(comp_config)
        return (
            placement.busy_cores_per_node <= machine.node.cores
            and placement.procs >= placement.procs_per_node
            and placement.nodes <= machine.max_nodes
        )

    configs = app.space.sample(rng, size, constraint=feasible, unique=True)
    noise_rng = np.random.default_rng(
        stable_seed("history-noise", workflow.name, label, size, seed)
    )
    exec_times = np.empty(size)
    comp_hours = np.empty(size)
    for i, comp_config in enumerate(configs):
        solo = workflow.solo_run(label, comp_config)
        factor = float(np.exp(noise_rng.normal(0.0, noise_sigma)))
        exec_times[i] = solo.execution_seconds * factor
        comp_hours[i] = solo.computer_core_hours * factor
    return ComponentHistory(
        workflow_name=workflow.name,
        label=label,
        configs=tuple(configs),
        execution_seconds=exec_times,
        computer_core_hours=comp_hours,
    )


@dataclass(frozen=True)
class ProblemArtifacts:
    """The immutable, shareable inputs of a tuning problem.

    Everything here is a deterministic function of
    :func:`problem_artifacts`' arguments and is never mutated after
    construction (pools and histories are frozen dataclasses over
    arrays; the workflow definition and encoder only memoise
    deterministic derived values), so handing one bundle to many
    problems is bit-identical to rebuilding it per problem.
    """

    workflow: WorkflowDefinition
    pool: MeasuredPool
    histories: dict
    encoder: ConfigEncoder


def problem_artifacts(
    workflow: WorkflowDefinition | str,
    pool_size: int,
    seed: int,
    noise_sigma: float = 0.05,
    history_size: int = 500,
    *,
    pool: MeasuredPool | None = None,
) -> ProblemArtifacts:
    """Pool, component histories and encoder of one tuning problem.

    The §7.1 protocol's inputs: ``pool_size`` random feasible
    configurations plus ``history_size`` solo runs of every component
    with more than one configuration, all drawn from ``seed``.
    ``workflow`` is a definition or a catalog name; ``pool`` replaces
    the generated pool with a prebuilt one.  Pools and histories come
    from the in-process memos, so equal arguments share the same
    objects; the bundle and its encoder are new on every call.
    """
    if isinstance(workflow, str):
        workflow = make_workflow(workflow)
    if pool is None:
        pool = generate_pool(workflow, pool_size, seed, noise_sigma)
    histories = {
        label: generate_component_history(
            workflow, label, history_size, seed, noise_sigma
        )
        for label in workflow.labels
        if workflow.app(label).space.size() > 1
    }
    return ProblemArtifacts(workflow, pool, histories, workflow.encoder())
