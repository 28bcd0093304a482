"""Session specs: the JSON-serialisable recipe of one tuning session.

A served session must be *reconstructible from a small JSON document*:
eviction drops the in-memory session and keeps only (spec, checkpoint)
on disk; crash recovery re-lists those files and rebuilds.  Everything
a :class:`~repro.core.problem.TuningProblem` needs — pool, component
histories, RNG — is a deterministic function of the spec fields, so a
rehydrated problem is bit-identical to the one the checkpoint was
written from (the same property offline ``--resume`` relies on).

The builders here share their parts with
:meth:`repro.core.autotuner.AutoTuner.tune`: the same
:func:`~repro.workflows.pools.problem_artifacts` bundle and the same
:func:`~repro.core.algorithms.make_algorithm` table, so a session driven
through the server matches an offline ``algorithm.tune(problem)`` run
bit for bit.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

from repro.core.algorithms import ALGORITHMS, make_algorithm
from repro.core.objectives import get_objective
from repro.core.problem import TuningProblem
from repro.serve.artifacts import spec_key
from repro.serve.protocol import ServeError
from repro.workflows.pools import problem_artifacts

__all__ = [
    "ALGORITHMS",
    "SessionSpec",
    "build_algorithm",
    "build_problem",
]

_WORKFLOWS = ("LV", "HS", "GP")
_OBJECTIVES = ("execution_time", "computer_time")
_WARM_STARTS = ("off", "components", "full")


@dataclass(frozen=True)
class SessionSpec:
    """Deterministic recipe of one served tuning session.

    Field semantics match the ``repro tune`` CLI / ``AutoTuner``:
    ``seed`` drives pool sampling, component histories, and the tuning
    RNG; ``warm_start`` needs the daemon to be bound to a measurement
    store.  ``history_size`` is exposed (the AutoTuner default is 500)
    so hundred-session load tests can keep setup cheap.
    """

    workflow: str = "LV"
    objective: str = "computer_time"
    algorithm: str = "ceal"
    budget: int = 50
    pool_size: int = 1000
    seed: int = 0
    use_history: bool = False
    warm_start: str = "off"
    noise_sigma: float = 0.05
    history_size: int = 500

    def __post_init__(self) -> None:
        if self.workflow not in _WORKFLOWS:
            raise ServeError(
                "bad_request",
                f"workflow must be one of {_WORKFLOWS}, got {self.workflow!r}",
            )
        if self.objective not in _OBJECTIVES:
            raise ServeError(
                "bad_request",
                f"objective must be one of {_OBJECTIVES}, "
                f"got {self.objective!r}",
            )
        if self.algorithm not in ALGORITHMS:
            raise ServeError(
                "bad_request",
                f"algorithm must be one of {ALGORITHMS}, "
                f"got {self.algorithm!r}",
            )
        if self.warm_start not in _WARM_STARTS:
            raise ServeError(
                "bad_request",
                f"warm_start must be one of {_WARM_STARTS}, "
                f"got {self.warm_start!r}",
            )
        if int(self.budget) < 2:
            raise ServeError("bad_request", "budget must be at least 2")
        if int(self.pool_size) < 2:
            raise ServeError("bad_request", "pool_size must be at least 2")

    @classmethod
    def from_dict(cls, data: dict) -> "SessionSpec":
        """Build a spec from a JSON body, rejecting unknown fields."""
        if not isinstance(data, dict):
            raise ServeError("bad_request", "spec must be a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ServeError(
                "bad_request", f"unknown spec field(s): {', '.join(unknown)}"
            )
        try:
            return cls(**data)
        except (TypeError, ValueError) as exc:
            raise ServeError("bad_request", f"bad spec: {exc}") from None

    def as_dict(self) -> dict:
        return asdict(self)


def build_algorithm(spec: SessionSpec):
    """The spec's tuning algorithm instance (strategy factory)."""
    try:
        return make_algorithm(spec.algorithm, use_history=spec.use_history)
    except ValueError as exc:
        raise ServeError("bad_request", str(exc)) from None


def build_problem(spec: SessionSpec, store=None, artifacts=None):
    """A fresh :class:`~repro.core.problem.TuningProblem` for ``spec``.

    Deterministic given (spec, store contents): the pool and component
    histories come from :func:`~repro.workflows.pools.problem_artifacts`
    with the spec's :func:`~repro.serve.artifacts.spec_key` fields,
    exactly as ``AutoTuner.tune`` builds them — which is what makes
    eviction and crash recovery transparent.

    ``artifacts`` (a cached
    :class:`~repro.workflows.pools.ProblemArtifacts` bundle) skips the
    rebuild: the immutable pieces are shared by reference, while the
    mutable problem state (collector, RNG) is still assembled fresh
    here — which is why a cache-served problem is bit-identical to a
    rebuilt one.
    """
    if artifacts is None:
        artifacts = problem_artifacts(*spec_key(spec))
    return TuningProblem.create(
        workflow=artifacts.workflow,
        objective=get_objective(spec.objective),
        pool=artifacts.pool,
        budget_runs=int(spec.budget),
        seed=int(spec.seed),
        histories=artifacts.histories,
        store=store,
        warm_start=spec.warm_start,
        encoder=artifacts.encoder,
    )
