"""Comparison auto-tuning algorithms (paper §7.3).

All consume a :class:`~repro.core.problem.TuningProblem` and return an
:class:`~repro.core.problem.AutotuneResult`; CEAL itself lives in
:mod:`repro.core.ceal`.
"""

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

#: Every algorithm kind ``repro tune`` and ``repro serve`` accept.
ALGORITHMS = ("ceal", "rs", "al", "geist", "alph", "bo", "ceal-bo", "lowfid")


def make_algorithm(kind: str, use_history: bool = False) -> TuningAlgorithm:
    """The tuning algorithm named ``kind`` (one of :data:`ALGORITHMS`).

    ``use_history`` treats solo component measurements as free (CEAL
    and ALpH); the other kinds ignore it.
    """
    if kind == "ceal":
        # repro.core.ceal imports this package, so import it on use.
        from repro.core.ceal import Ceal, CealSettings

        return Ceal(CealSettings(use_history=use_history))
    if kind == "rs":
        return RandomSampling()
    if kind == "al":
        return ActiveLearning()
    if kind == "geist":
        return Geist()
    if kind == "alph":
        return Alph(use_history=use_history)
    if kind == "bo":
        return BayesianOptimization()
    if kind == "ceal-bo":
        return BayesianOptimization(bootstrap=True)
    if kind == "lowfid":
        return LowFidelityOnly()
    raise ValueError(f"unknown algorithm {kind!r}; expected one of {ALGORITHMS}")
