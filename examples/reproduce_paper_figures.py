"""Regenerate paper figures/tables from Python (or use the CLI).

Equivalent CLI:

    python -m repro reproduce --target table2
    python -m repro reproduce --target fig05 --repeats 10 --pool 1000 --jobs auto

This script regenerates Table 2 and Figure 4 at small scale, then runs a
small repeated-trial comparison with the parallel execution engine; swap
in any driver from ``repro.experiments`` (fig04..fig13, table1, table2).

Repeated trials fan out over ``--jobs`` worker processes (or the
``REPRO_JOBS`` environment variable; ``auto`` = one per CPU).  Results
are bit-identical to serial execution — parallelism only changes
wall-clock time.

Run:  python examples/reproduce_paper_figures.py --jobs auto
"""

import argparse
import time

from repro.experiments import (
    fig04_lowfid_recall,
    no_history_specs,
    run_trials,
    summarize,
    table2_best_vs_expert,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--jobs",
        default=None,
        help="worker processes for repeated trials "
        "('auto' = one per CPU; default REPRO_JOBS or serial)",
    )
    parser.add_argument("--repeats", type=int, default=8)
    parser.add_argument("--pool", type=int, default=300)
    args = parser.parse_args()

    table2 = table2_best_vs_expert(pool_size=2000)
    print(table2.to_text())
    print()

    fig4 = fig04_lowfid_recall(pool_size=500, max_n=10)
    print(fig4.to_text())
    print()

    started = time.perf_counter()
    trials = run_trials(
        "LV",
        "computer_time",
        no_history_specs("LV", 25),
        budget=25,
        repeats=args.repeats,
        pool_size=args.pool,
        jobs=args.jobs,
    )
    elapsed = time.perf_counter() - started
    print(f"Fig. 5-style cell (LV computer time, m=25, {args.repeats} repeats)")
    for name, stats in summarize(trials).items():
        print(
            f"  {name:6s} normalized={stats['normalized']:.3f}  "
            f"mean trial wall={stats['wall_seconds']:.2f}s"
        )
    busy = sum(t.wall_seconds for t in trials)
    print(f"  total wall {elapsed:.1f}s for {busy:.1f}s of trial work "
          f"(jobs={args.jobs or 'serial'})")
    print()
    print("For the full evaluation: pytest benchmarks/ --benchmark-only -m slow")
    print("(set REPRO_BENCH_REPEATS / REPRO_BENCH_POOL / REPRO_BENCH_JOBS "
          "for paper-scale runs)")


if __name__ == "__main__":
    main()
