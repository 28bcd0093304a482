"""Comparison auto-tuning algorithms (paper §7.3).

All consume a :class:`~repro.core.problem.TuningProblem` and return an
:class:`~repro.core.problem.AutotuneResult`; CEAL itself lives in
:mod:`repro.core.ceal`.
"""

from functools import partial

from repro.core.algorithms.active_learning import ActiveLearning
from repro.core.algorithms.alph import Alph
from repro.core.algorithms.bandit import RegionBandit
from repro.core.algorithms.base import (
    CandidateTracker,
    SearchStrategy,
    TuningAlgorithm,
    split_batches,
)
from repro.core.algorithms.bayesian import BayesianOptimization
from repro.core.algorithms.geist import Geist
from repro.core.algorithms.low_fidelity_only import LowFidelityOnly
from repro.core.algorithms.random_sampling import RandomSampling

__all__ = [
    "ALGORITHMS",
    "ActiveLearning",
    "Alph",
    "BayesianOptimization",
    "CandidateTracker",
    "Geist",
    "LowFidelityOnly",
    "RandomSampling",
    "RegionBandit",
    "SearchStrategy",
    "TuningAlgorithm",
    "make_algorithm",
    "split_batches",
]


def _ceal(**settings) -> TuningAlgorithm:
    # repro.core.ceal imports this package, so import it on use.
    from repro.core.ceal import Ceal, CealSettings

    return Ceal(CealSettings(**settings))


#: Constructor of every algorithm kind, keyed by the name ``repro tune``,
#: served specs and suite factors all use.
_KINDS = {
    "ceal": _ceal,
    "rs": RandomSampling,
    "al": ActiveLearning,
    "geist": Geist,
    "alph": Alph,
    "bo": BayesianOptimization,
    "ceal-bo": partial(BayesianOptimization, bootstrap=True),
    "lowfid": LowFidelityOnly,
    "bandit": RegionBandit,
}

#: Every algorithm kind ``repro tune``, ``repro serve`` and suites accept.
ALGORITHMS = tuple(_KINDS)

#: The kinds that read ``use_history``.
_HISTORY_KINDS = ("ceal", "alph")


def make_algorithm(kind: str, **params) -> TuningAlgorithm:
    """The tuning algorithm named ``kind`` (one of :data:`ALGORITHMS`).

    ``params`` are the kind's constructor arguments (CEAL's are the
    :class:`~repro.core.ceal.CealSettings` fields).  ``use_history``
    treats solo component measurements as free for CEAL and ALpH; the
    other kinds ignore it, so a caller may pass one flag to any kind.
    Omitted parameters keep the constructor's defaults.
    """
    try:
        factory = _KINDS[kind]
    except KeyError:
        raise ValueError(
            f"unknown algorithm kind {kind!r}; expected one of {ALGORITHMS}"
        ) from None
    if kind not in _HISTORY_KINDS:
        params.pop("use_history", None)
    return factory(**params)
