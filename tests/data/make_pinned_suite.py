"""Regenerate ``pinned_suite.json`` — suite-engine outputs at test scale.

The pins hold the deterministic outputs of the cheap suite-backed
drivers at test scale: a generic RS-vs-CEAL trial batch, the headline
claim, Fig. 8 and a small Fig. 13 sweep.  They were first captured
before the figure drivers moved onto ``repro.experiments.suite``, so
``tests/test_suite.py`` asserting them proves the engine reproduces
the older drivers bit-identically.

Regenerate with ``PYTHONPATH=src python tests/data/make_pinned_suite.py``
only for an *intentional* behaviour change; an unchanged engine
rewrites the file byte-identically.
"""

import json
from pathlib import Path

from repro.core.ceal import CealSettings
from repro.experiments.figures import fig08_practicality
from repro.experiments.headline import headline_claims
from repro.experiments.presets import AlgorithmFactor
from repro.experiments.sensitivity import sweep_ceal
from repro.experiments.suite import (
    SuiteGroup,
    SuiteSpec,
    _metrics_payload,
    run_suite,
)

OUT = Path(__file__).parent / "pinned_suite.json"

REPEATS = 2
POOL = 150
SEED = 7


def trial_rows():
    """Deterministic fields of a small generic RS-vs-CEAL trial batch."""
    group = SuiteGroup(
        workflow="LV",
        objective="execution_time",
        budget=8,
        algorithms=(
            AlgorithmFactor.make("RS", "rs"),
            AlgorithmFactor.make("CEAL", "ceal", use_history=True),
        ),
        repeats=REPEATS,
        pool_size=POOL,
        pool_seed=SEED,
    )
    result = run_suite(SuiteSpec(name="small", groups=(group,)))
    return [_metrics_payload(t) for t in result.trials]


def sweep_rows():
    settings = [
        ("I=2", CealSettings(use_history=False, iterations=2)),
        ("I=4 (hist)", CealSettings(use_history=True, iterations=4)),
    ]
    return sweep_ceal(
        settings, workflow_name="LV", objective_name="computer_time",
        budget=10, repeats=REPEATS, pool_size=POOL, seed=SEED,
    )


def main() -> None:
    payload = {
        "repeats": REPEATS,
        "pool_size": POOL,
        "seed": SEED,
        # The key predates the suite engine; it stays so the file
        # regenerates byte-identically.
        "run_trials": trial_rows(),
        "headline": headline_claims(
            repeats=REPEATS, pool_size=POOL, seed=SEED
        ).rows,
        "fig08": fig08_practicality(
            repeats=REPEATS, pool_size=POOL, seed=SEED
        ).rows,
        "sweep": sweep_rows(),
    }
    OUT.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
