"""``tune`` workload: a fixed list of cold one-shot tunes, one after another.

RS, GEIST, AL, ALpH and CEAL on LV, HS and GP for both objectives, at the
paper's m = 50 and pool 2000.  Each tune gets a fresh pool seed derived
from the workload seed and is timed from building the workflow through
``AutoTuner(...).tune()`` -- what ``repro tune`` pays after its imports.
The run makes as many passes over the list, each with new seeds, as fit in
``--seconds`` at the nominal ``PASS_S`` (at least one).
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time

from common import HERE, derive_seed, peak_rss_mb, units

ALGORITHMS = ("rs", "geist", "al", "alph", "ceal")
WORKFLOWS = ("LV", "HS", "GP")
OBJECTIVES = ("execution_time", "computer_time")
BUDGET = 50
POOL_SIZE = 2000
TUNES = tuple(
    (algorithm, workflow, objective)
    for algorithm in ALGORITHMS
    for workflow in WORKFLOWS
    for objective in OBJECTIVES
)
#: Nominal seconds of one pass over TUNES on a 2-core x86 box.
PASS_S = 18.0
#: Result digests of the first pass at this seed are pinned in REFERENCE.
DEFAULT_SEED = 0
REFERENCE = HERE / "reference" / "tune_digests.json"


def ready() -> None:
    """Import everything a tune needs (the set-up probe's work)."""
    from repro.core import AutoTuner  # noqa: F401
    from repro.workflows import make_workflow  # noqa: F401


def make_algorithm(name: str):
    from repro.core import ActiveLearning, Alph, Ceal, CealSettings, Geist
    from repro.core import RandomSampling

    return {
        "rs": RandomSampling,
        "geist": Geist,
        "al": ActiveLearning,
        "alph": lambda: Alph(use_history=False),
        "ceal": lambda: Ceal(CealSettings(use_history=False)),
    }[name]()


def _tune(algorithm: str, workflow: str, objective: str, seed: int):
    from repro.core import AutoTuner
    from repro.workflows import make_workflow

    tuner = AutoTuner(
        make_workflow(workflow),
        objective,
        budget=BUDGET,
        algorithm=make_algorithm(algorithm),
        pool_size=POOL_SIZE,
        seed=seed,
    )
    return tuner.tune()


def _check(outcome, objective: str) -> list:
    problems = []
    if outcome.runs_used != BUDGET:
        problems.append(f"runs_used {outcome.runs_used} != budget {BUDGET}")
    pool = outcome.pool
    try:
        measured = pool.lookup(outcome.best_config).objective(objective)
    except KeyError:
        problems.append("best config is not in the pool")
    else:
        if measured != outcome.best_value:
            problems.append(
                f"best value {outcome.best_value!r} != pool value {measured!r}"
            )
    return problems


def _digest(outcome) -> str:
    payload = json.dumps(
        [
            [int(v) if isinstance(v, int) else float(v) for v in outcome.best_config],
            repr(float(outcome.best_value)),
            outcome.runs_used,
            repr(float(outcome.cost)),
        ]
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def tune_key(index: int) -> str:
    return "/".join(TUNES[index])


def run(seed: int, seconds: float, check_reference: bool = True) -> dict:
    reference = None
    if check_reference and seed == DEFAULT_SEED:
        reference = json.loads(REFERENCE.read_text())
    attempted = failed = 0
    problems: list = []
    pass_s: list = []
    tune_s: dict = {algorithm: [] for algorithm in ALGORITHMS}
    norms: list = []
    digests: dict = {}
    started = time.perf_counter()
    for pass_no in range(units(seconds, PASS_S)):
        pass_start = time.perf_counter()
        for index, (algorithm, workflow, objective) in enumerate(TUNES):
            tune_seed = derive_seed("tune", seed, pass_no, index)
            attempted += 1
            t0 = time.perf_counter()
            try:
                outcome = _tune(algorithm, workflow, objective, tune_seed)
            except Exception as exc:  # a failed tune is counted, not fatal
                failed += 1
                problems.append(f"{tune_key(index)}: {type(exc).__name__}: {exc}")
                continue
            elapsed = time.perf_counter() - t0
            issues = _check(outcome, objective)
            if pass_no == 0:
                digests[tune_key(index)] = _digest(outcome)
                norms.append(outcome.gap_to_pool_best)
                if reference is not None:
                    if reference.get(tune_key(index)) != digests[tune_key(index)]:
                        issues.append("result digest differs from the reference")
            if issues:
                failed += 1
                problems.extend(f"{tune_key(index)}: {i}" for i in issues)
            tune_s[algorithm].append(elapsed)
        pass_s.append(time.perf_counter() - pass_start)
    wall = time.perf_counter() - started
    return {
        "metrics": {
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "best_norm_mean": (statistics.fmean(norms) if norms else 0.0, "ratio"),
            "work_s": (statistics.median(pass_s), "s"),
        },
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "wall_s": wall,
        "info": {
            "passes": len(pass_s),
            "tunes_per_pass": len(TUNES),
            "tune_p50_s": {
                a: statistics.median(t) for a, t in tune_s.items() if t
            },
        },
        "digests": digests,
    }
