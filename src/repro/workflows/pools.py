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

Generation is deterministic given the seed and memoised in process
(a bounded LRU).  Regenerating through the vectorized DES sweep is
cheap (a 2000-config pool takes a fraction of a second), so nothing is
cached on disk.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro import telemetry
from repro.config.space import Configuration
from repro.insitu.fast import measure_batch
from repro.insitu.measurement import WorkflowMeasurement, stable_seed
from repro.insitu.workflow import WorkflowDefinition

__all__ = [
    "MeasuredPool",
    "ComponentHistory",
    "generate_pool",
    "generate_component_history",
    "pool_size_for",
]


class _Memo:
    """Thread-safe LRU memo for generated pools/histories.

    Bounded so a long-lived serve daemon cycling many distinct specs
    does not pin every pool ever generated.  Capacity is entries, not
    bytes — pools are the dominant per-entry cost and roughly uniform
    within a workload.
    """

    def __init__(self, capacity: int = 128):
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: OrderedDict = OrderedDict()

    # The mapping subset the generators use (``get`` and item
    # assignment), so a test may swap a memo for a plain dict.

    def get(self, key):
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
            return value

    def __setitem__(self, key, value) -> None:
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)


_POOL_MEMO = _Memo()
_HISTORY_MEMO = _Memo()


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
    tel = telemetry.get()
    key = (workflow.name, size, seed, noise_sigma, replicates)
    memoised = _POOL_MEMO.get(key)
    if memoised is not None:
        tel.counter("cache_hits").inc()
        return memoised

    tel.counter("cache_misses").inc()
    with tel.span(
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
    _POOL_MEMO[key] = pool
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
    tel = telemetry.get()
    key = (workflow.name, label, size, seed, noise_sigma)
    memoised = _HISTORY_MEMO.get(key)
    if memoised is not None:
        tel.counter("cache_hits").inc()
        return memoised
    tel.counter("cache_misses").inc()
    with tel.span(
        "history.generate",
        category="pool",
        workflow=workflow.name,
        label=label,
        size=size,
    ):
        history = _generate_history(workflow, label, size, seed, noise_sigma)
    _HISTORY_MEMO[key] = history
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
