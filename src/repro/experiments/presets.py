"""Per-experiment algorithm hyper-parameters and declarative algorithm specs.

The paper adjusts the hyper-parameters of GEIST, AL, ALpH and CEAL per
setting "and select[s] the best settings for each algorithm" (§7.3).
This module records the settings our own tuning pass selected, so every
figure driver uses the same ones and the choices are documented in one
place.

It also owns the *declarative* algorithm layer of the suite engine
(:mod:`repro.experiments.suite`): an :class:`AlgorithmFactor` names an
algorithm by ``kind`` (one of :data:`~repro.core.algorithms.ALGORITHMS`)
plus plain-data ``params`` — hashable into a suite cell's content key
and loadable from a TOML/JSON suite spec — and :func:`resolve_algorithm`
turns it back into the :class:`~repro.experiments.runner.AlgorithmSpec`
the trial runner executes, through the same
:func:`~repro.core.algorithms.make_algorithm` table ``repro tune`` and
served sessions use.  The classic spec tuples the figure drivers share
(:func:`no_history_specs` / :func:`history_specs`) live here too.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import partial

from repro.core.algorithms import ALGORITHMS, make_algorithm
from repro.core.ceal import CealSettings
from repro.experiments.runner import AlgorithmSpec

__all__ = [
    "AlgorithmFactor",
    "ceal_factor",
    "ceal_settings_for",
    "factor_from_ceal_settings",
    "history_factors",
    "history_specs",
    "no_history_factors",
    "no_history_specs",
    "resolve_algorithm",
]

#: Tuned CEAL settings without historical measurements, keyed by
#: (workflow, small-budget?).  ``None`` entries fall back to the global
#: default (m_R = 0.5 m, m_0 = 0.10 m, I = 8).
_NO_HISTORY_PRESETS: dict = {
    # GP's computer-time landscape is learned quickly from diverse
    # samples; small budgets favour a larger random share.
    ("GP", True): dict(component_runs_fraction=0.3, random_fraction=0.3, iterations=6),
    ("HS", True): dict(component_runs_fraction=0.4, random_fraction=0.2, iterations=8),
}

#: Budgets at or below this are "small" (the paper's m = 25 column).
SMALL_BUDGET = 30


def ceal_settings_for(
    workflow_name: str, budget: int, use_history: bool
) -> CealSettings:
    """The tuned CEAL settings for one experimental cell."""
    if use_history:
        return CealSettings(use_history=True)
    preset = _NO_HISTORY_PRESETS.get((workflow_name, budget <= SMALL_BUDGET))
    if preset is None:
        return CealSettings(use_history=False)
    return CealSettings(use_history=False, **preset)


# -- declarative algorithm factors ---------------------------------------------------


def _check_kind(kind: str) -> None:
    if kind not in ALGORITHMS:
        raise ValueError(
            f"unknown algorithm kind {kind!r}; expected one of "
            f"{sorted(ALGORITHMS)}"
        )


@dataclass(frozen=True)
class AlgorithmFactor:
    """One algorithm level of a suite factor, as plain data.

    ``name`` is the display name — it also feeds
    :func:`~repro.experiments.runner.trial_seed`, so two factors with
    the same name draw the same per-repeat random streams (exactly like
    the :class:`~repro.experiments.runner.AlgorithmSpec` it resolves
    to).  ``params`` is a sorted tuple of ``(key, value)`` pairs of
    JSON-representable values, making the factor hashable, comparable,
    and serialisable into a suite cell's content key.
    """

    name: str
    kind: str
    params: tuple = ()

    @classmethod
    def make(cls, name: str, kind: str, **params) -> "AlgorithmFactor":
        _check_kind(kind)
        return cls(name=name, kind=kind, params=tuple(sorted(params.items())))

    def param_dict(self) -> dict:
        return dict(self.params)

    def identity(self) -> dict:
        """JSON-stable identity for content hashing."""
        return {"name": self.name, "kind": self.kind,
                "params": [list(p) for p in self.params]}


def resolve_algorithm(
    factor: AlgorithmFactor,
    workflow_name: str | None = None,
    budget: int | None = None,
) -> AlgorithmSpec:
    """Resolve a declarative factor into an executable algorithm spec.

    The factory calls :func:`~repro.core.algorithms.make_algorithm` with
    the factor's kind and params.  ``workflow_name`` and ``budget`` are
    the resolution context of a CEAL factor with ``preset=True``, whose
    settings are :func:`ceal_settings_for` its cell.
    """
    _check_kind(factor.kind)
    params = factor.param_dict()
    if factor.kind == "ceal" and params.pop("preset", False):
        use_history = bool(params.pop("use_history", False))
        if params:
            raise ValueError(
                f"CEAL factor {factor.name!r}: preset=True does not combine "
                f"with explicit settings {sorted(params)}"
            )
        if workflow_name is None or budget is None:
            raise ValueError(
                f"CEAL factor {factor.name!r} uses preset=True, which needs "
                "a (workflow, budget) resolution context"
            )
        params = asdict(ceal_settings_for(workflow_name, budget, use_history))
    return AlgorithmSpec(
        factor.name, partial(make_algorithm, factor.kind, **params)
    )


def ceal_factor(
    name: str = "CEAL", *, preset: bool = False, **settings
) -> AlgorithmFactor:
    """A CEAL factor from explicit settings or the per-cell preset."""
    if preset:
        return AlgorithmFactor.make(
            name, "ceal", preset=True,
            use_history=bool(settings.pop("use_history", False)),
        )
    return AlgorithmFactor.make(name, "ceal", **settings)


def factor_from_ceal_settings(
    name: str, settings: CealSettings
) -> AlgorithmFactor:
    """Lift a concrete :class:`CealSettings` into a declarative factor.

    Every field is carried (including defaults), so resolving the
    factor reconstructs ``settings`` exactly — the sensitivity sweeps
    rely on this to route arbitrary settings through the suite engine.
    """
    return AlgorithmFactor.make(name, "ceal", **asdict(settings))


# -- the figure drivers' shared comparison sets --------------------------------------


def no_history_factors() -> tuple[AlgorithmFactor, ...]:
    """§7.4 comparison set without histories: RS, GEIST, AL, CEAL.

    The CEAL member uses ``preset=True``: its tuned settings are
    selected per cell from :func:`ceal_settings_for` at resolution
    time, exactly as the legacy per-figure helpers did.
    """
    return (
        AlgorithmFactor.make("RS", "rs"),
        AlgorithmFactor.make("GEIST", "geist"),
        AlgorithmFactor.make("AL", "al"),
        ceal_factor("CEAL", preset=True, use_history=False),
    )


def history_factors() -> tuple[AlgorithmFactor, ...]:
    """§7.5 comparison set with histories: CEAL vs ALpH."""
    return (
        AlgorithmFactor.make("CEAL", "ceal", use_history=True),
        AlgorithmFactor.make("ALpH", "alph", use_history=True),
    )


def no_history_specs(
    workflow_name: str, budget: int
) -> tuple[AlgorithmSpec, ...]:
    """Executable form of :func:`no_history_factors` for one cell."""
    return tuple(
        resolve_algorithm(f, workflow_name, budget)
        for f in no_history_factors()
    )


def history_specs() -> tuple[AlgorithmSpec, ...]:
    """Executable form of :func:`history_factors`."""
    return tuple(resolve_algorithm(f) for f in history_factors())
