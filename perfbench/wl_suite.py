"""``suite`` workload: a one-group slice of ``examples/suites/headline_ci.toml``.

LV, execution_time, m = 50, pool 1000, RS vs CEAL at the file's 20
repeats, run serially.  Pass 1 executes and persists every cell into a
fresh store and builds the report; pass 2 resumes on the filled store,
executes no cell and rebuilds the report, which must be byte-identical.
The pool seed is derived from the workload seed.  The run makes as many
run/resume pairs, each on a new pool seed and a new store, as fit in
``--seconds`` at the nominal ``PAIR_S`` (at least one).
"""

from __future__ import annotations

import json
import shutil
import statistics
import tempfile
import time

from common import WORK, derive_seed, peak_rss_mb, units

REPEATS = 20
CELLS = 2 * REPEATS
#: Nominal seconds of one run/resume pair on a 2-core x86 box.
PAIR_S = 36.0


def make_spec(pool_seed: int):
    from repro.experiments.suite import spec_from_dict

    return spec_from_dict(
        {
            "suite": {
                "name": "headline-ci-slice",
                "repeats": REPEATS,
                "pool_size": 1000,
                "pool_seeds": [pool_seed],
                "confidence": 0.95,
            },
            "factors": {
                "workflows": ["LV"],
                "objectives": ["execution_time"],
                "budgets": [50],
            },
            "algorithms": [
                {"name": "RS", "kind": "rs"},
                {"name": "CEAL", "kind": "ceal", "params": {"use_history": False}},
            ],
        }
    )


def _open_store(directory: str):
    from repro.store import MeasurementStore

    return MeasurementStore(f"{directory}/suite.db")


def ready() -> None:
    """Imports, spec and store open (the set-up probe's work)."""
    make_spec(0)
    directory = tempfile.mkdtemp(dir=WORK)
    try:
        _open_store(directory).close()
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def _report(result, report_s: list) -> str:
    """The report as ``repro suite`` prints it; its build time is recorded."""
    t0 = time.perf_counter()
    text = json.dumps(result.report(), indent=2, sort_keys=True)
    report_s.append(time.perf_counter() - t0)
    return text


def run(seed: int, seconds: float) -> dict:
    from repro.experiments.suite import run_suite

    attempted = failed = 0
    problems: list = []
    run_s: list = []
    resume_s: list = []
    report_s: list = []
    norms: list = []
    started = time.perf_counter()
    for pair in range(units(seconds, PAIR_S)):
        spec = make_spec(derive_seed("suite", seed, pair) % 100_000)
        directory = tempfile.mkdtemp(dir=WORK)
        store = _open_store(directory)
        try:
            t0 = time.perf_counter()
            first = run_suite(spec, jobs=1, store=store)
            first_text = _report(first, report_s)
            t1 = time.perf_counter()
            second = run_suite(spec, jobs=1, store=store)
            second_text = _report(second, report_s)
            t2 = time.perf_counter()
        finally:
            store.close()
            shutil.rmtree(directory, ignore_errors=True)
        run_s.append(t1 - t0)
        resume_s.append(t2 - t1)
        attempted += first.cells_run + 2
        if first.cells_run != CELLS:
            failed += 1
            problems.append(f"pass 1 ran {first.cells_run} of {CELLS} cells")
        if second.cells_run != 0 or second.cells_cached != CELLS:
            failed += 1
            problems.append(
                f"resume ran {second.cells_run} cells, "
                f"found {second.cells_cached} cached"
            )
        if second_text != first_text:
            failed += 1
            problems.append("resumed report differs from the run report")
        if pair == 0:
            norms = [t.normalized for t in first.trials]
    return {
        "metrics": {
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "best_norm_mean": (statistics.fmean(norms), "ratio"),
            "work_s": (
                statistics.median(r + s for r, s in zip(run_s, resume_s)), "s"
            ),
        },
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "wall_s": time.perf_counter() - started,
        "info": {
            "pairs": len(run_s),
            "cells_per_pass": CELLS,
            "jobs": 1,
            "suite_run_s": statistics.median(run_s),
            "suite_resume_s": statistics.median(resume_s),
            "report_p50_s": statistics.median(report_s),
        },
    }
