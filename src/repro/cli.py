"""Command-line interface.

Six subcommands::

    python -m repro tune --workflow LV --objective computer_time --budget 50
    python -m repro reproduce --target fig05 --repeats 10 --pool 1000
    python -m repro suite run examples/suites/smoke.toml --store runs.db
    python -m repro store stats runs.db
    python -m repro serve --state-dir .repro-serve --port 8765
    python -m repro telemetry diff runs.db --baseline main

``tune`` runs the auto-tuner once and prints the recommendation;
``reproduce`` regenerates one of the paper's tables/figures and prints
the rows; ``suite`` compiles a declarative TOML/JSON experiment spec
into a run matrix, executes it resumably (``run``/``resume``) and
prints the statistical analysis report (``report``); ``serve`` runs the
tuning-as-a-service daemon (:mod:`repro.serve`) until SIGTERM, leaving
every session at a resumable checkpoint.

Machine-readable results go to stdout; diagnostics go to stderr through
the ``repro`` logger (``-v`` for progress + telemetry summary, ``-vv``
for debug, ``-q`` for errors only), so piping stdout stays clean.  Both
subcommands accept ``--telemetry PATH`` (with ``--telemetry-format
{chrome,jsonl}``) to record spans and metrics of the run — the chrome
format loads directly in Perfetto / ``chrome://tracing`` — plus
``--telemetry-store PATH`` to persist an end-of-run snapshot into a
measurement store for cross-run history, and ``--progress`` for live
heartbeats on stderr.  ``telemetry`` queries that history: ``report``
prints one run, ``diff`` gates on p50/p90 self-time regressions
(non-zero exit — the CI hook), ``baseline`` names a run durably.
"""

from __future__ import annotations

import argparse
import logging
import sys

__all__ = ["main", "build_parser"]

log = logging.getLogger("repro")

_TARGETS = {
    "headline": ("headline_claims", True),
    "table1": ("table1_parameter_spaces", False),
    "table2": ("table2_best_vs_expert", False),
    "fig04": ("fig04_lowfid_recall", False),
    "fig05": ("fig05_best_config", True),
    "fig06": ("fig06_mdape", True),
    "fig07": ("fig07_recall", True),
    "fig08": ("fig08_practicality", True),
    "fig09": ("fig09_history_effect", True),
    "fig10": ("fig10_ceal_vs_alph", True),
    "fig11": ("fig11_alph_recall", True),
    "fig12": ("fig12_alph_practicality", True),
    "fig13": ("fig13_sensitivity", True),
}

def _jobs_value(text: str) -> str:
    """Validate --jobs at parse time, before any pool is generated."""
    from repro.experiments.runner import resolve_jobs

    try:
        resolve_jobs(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    """Diagnostics and telemetry flags shared by every subcommand."""
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="diagnostics to stderr (-v progress + telemetry summary, "
        "-vv debug)")
    parser.add_argument(
        "-q", "--quiet", action="store_true",
        help="suppress warnings; only errors go to stderr")
    parser.add_argument(
        "--telemetry", metavar="PATH", default=None,
        help="record spans/metrics of this run to PATH")
    parser.add_argument(
        "--telemetry-format", choices=("chrome", "jsonl"), default="chrome",
        help="trace file format: 'chrome' loads in Perfetto/"
        "chrome://tracing, 'jsonl' streams one JSON object per line "
        "(default: chrome)")
    parser.add_argument(
        "--telemetry-store", metavar="PATH", default=None,
        help="persist an end-of-run telemetry snapshot (per-span self "
        "times, counters, provenance) into this measurement store for "
        "cross-run history and 'repro telemetry diff'")
    parser.add_argument(
        "--telemetry-label", metavar="NAME", default=None,
        help="label the persisted run (with --telemetry-store) so it "
        "can be referenced by name instead of run key")
    parser.add_argument(
        "--progress", action="store_true",
        help="live progress heartbeats on stderr: an in-place dashboard "
        "on a TTY, one JSON line per heartbeat otherwise; observe-only "
        "(results are bit-identical either way)")


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CEAL in-situ workflow auto-tuning reproduction (SC '21)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    tune = sub.add_parser("tune", help="auto-tune one workflow")
    _add_common_flags(tune)
    tune.add_argument("--workflow", choices=("LV", "HS", "GP"), default="LV")
    tune.add_argument(
        "--objective",
        choices=("execution_time", "computer_time"),
        default="computer_time",
    )
    tune.add_argument("--budget", type=int, default=50,
                      help="workflow-run budget m")
    tune.add_argument(
        "--algorithm", default="ceal",
        help="tuning algorithm kind (default: ceal); an unknown kind "
        "lists the choices")
    tune.add_argument("--pool-size", type=int, default=1000)
    tune.add_argument("--seed", type=int, default=0)
    tune.add_argument("--use-history", action="store_true",
                      help="treat solo component measurements as free")
    tune.add_argument("--checkpoint", metavar="PATH", default=None,
                      help="checkpoint the session to PATH after every "
                      "measurement cycle")
    tune.add_argument("--resume", action="store_true",
                      help="resume the session from --checkpoint (requires "
                      "the same workflow/objective/budget/seed)")
    tune.add_argument("--store", metavar="PATH", default=None,
                      help="measurement store database: every paid "
                      "measurement of this run is recorded there "
                      "(created if missing)")
    tune.add_argument("--warm-start", choices=("off", "components", "full"),
                      default="off",
                      help="reuse stored measurements (requires --store): "
                      "'components' seeds component models from stored "
                      "solo runs instead of paying component batches; "
                      "'full' also adopts matching stored workflow "
                      "measurements as free samples")

    rep = sub.add_parser("reproduce", help="regenerate a paper table/figure")
    _add_common_flags(rep)
    rep.add_argument("--target", choices=sorted(_TARGETS), required=True)
    rep.add_argument("--repeats", type=int, default=10)
    rep.add_argument("--pool", type=int, default=1000)
    rep.add_argument("--seed", type=int, default=2021)
    rep.add_argument(
        "--jobs",
        type=_jobs_value,
        default=None,
        metavar="N",
        help="worker processes for trial fan-out ('auto' = one per CPU; "
        "default: REPRO_JOBS or serial); results are identical to serial",
    )
    rep.add_argument("--chart", action="store_true",
                     help="also render an ASCII chart of the rows")

    store = sub.add_parser(
        "store", help="inspect or maintain a measurement store"
    )
    _add_common_flags(store)
    store.add_argument("action", choices=("stats", "gc", "export"))
    store.add_argument("path", help="store database path")
    store.add_argument(
        "--keep-sessions", type=int, default=None, metavar="N",
        help="gc: keep only the N newest sessions' measurements "
        "(default: keep all, drop only cached models and orphans)")

    suite = sub.add_parser(
        "suite", help="run a declarative experiment suite"
    )
    _add_common_flags(suite)
    suite.add_argument(
        "action", choices=("run", "resume", "report"),
        help="'run' executes the spec's matrix (skipping cells already "
        "in --store) and prints the analysis report; 'resume' is 'run' "
        "requiring --store; 'report' only reads cached cells")
    suite.add_argument("spec", help="suite spec file (.toml or .json)")
    suite.add_argument(
        "--store", metavar="PATH", default=None,
        help="measurement store holding finished cells: completed cells "
        "are skipped on re-run and a killed suite resumes where it "
        "left off (created if missing)")
    suite.add_argument(
        "--jobs", type=_jobs_value, default=None, metavar="N",
        help="worker processes for cell fan-out ('auto' = one per CPU; "
        "default: REPRO_JOBS or serial); results are identical to serial")
    suite.add_argument(
        "--max-cells", type=int, default=None, metavar="K",
        help="execute at most K pending cells this invocation (matrix "
        "order) — budgeted incremental runs; pair with --store")
    suite.add_argument(
        "--report", metavar="PATH", default=None, dest="report_path",
        help="also write the JSON report to PATH (stdout always gets it "
        "when the matrix is complete)")
    suite.add_argument(
        "--record-measurements", action="store_true",
        help="additionally write every paid trial measurement through "
        "to --store's measurement tables")
    suite.add_argument(
        "--chart", action="store_true",
        help="also render an ASCII chart of the report: per-algorithm "
        "confidence-interval bars and significance calls")

    serve = sub.add_parser(
        "serve", help="run the tuning-as-a-service daemon"
    )
    _add_common_flags(serve)
    serve.add_argument(
        "--state-dir", metavar="DIR", default=".repro-serve",
        help="session state directory (spec + checkpoint per session); "
        "a restarted daemon recovers every session found here "
        "(default: .repro-serve)")
    serve.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default: 127.0.0.1)")
    serve.add_argument(
        "--port", type=int, default=8765,
        help="bind port; 0 picks a free one, printed on the readiness "
        "line (default: 8765)")
    serve.add_argument(
        "--store", metavar="PATH", default=None,
        help="shared measurement store: sessions record paid runs into "
        "it and warm_start specs draw on it (created if missing)")
    serve.add_argument(
        "--max-active", type=int, default=64, metavar="N",
        help="resident-session budget; least-recently-used idle "
        "sessions beyond it are evicted to their checkpoints and "
        "rehydrated transparently on next touch (default: 64)")
    serve.add_argument(
        "--workers", type=int, default=4, metavar="N",
        help="worker threads for CPU-bound ask/tell work (default: 4)")
    serve.add_argument(
        "--request-timeout", type=float, default=60.0, metavar="SEC",
        help="per-request budget; exceeding it returns a structured "
        "'timeout' error (default: 60)")

    tel = sub.add_parser(
        "telemetry", help="query persisted telemetry history"
    )
    _add_common_flags(tel)
    tel.add_argument(
        "action", choices=("report", "diff", "baseline"),
        help="'report' prints one run's top self-time spans and "
        "metrics; 'diff' compares a run against --baseline and exits "
        "non-zero on a p50/p90 self-time regression beyond --threshold "
        "(the CI gate); 'baseline' durably names a run via --name")
    tel.add_argument(
        "store", nargs="?", default=None,
        help="measurement store holding persisted runs (written by "
        "--telemetry-store); optional with --floors")
    tel.add_argument(
        "run", nargs="?", default=None,
        help="run reference: run key, label, numeric id, or a baseline "
        "name (default: the newest run)")
    tel.add_argument(
        "--baseline", metavar="REF", default=None,
        help="diff: the reference run to compare against (run key, "
        "label, id, or baseline name)")
    tel.add_argument(
        "--name", metavar="NAME", default="baseline",
        help="baseline: the durable name to give the run "
        "(default: 'baseline')")
    tel.add_argument(
        "--threshold", type=float, default=None, metavar="FRAC",
        help="diff: flag spans whose p50/p90 self time grew by more "
        "than FRAC (default: 0.20)")
    tel.add_argument(
        "--top", type=int, default=None, metavar="N",
        help="number of top self-time spans to report/watch "
        "(default: 10 for diff, 15 for report)")
    tel.add_argument(
        "--floors", nargs="+", metavar="PATH", default=None,
        help="check committed benchmark floors (BENCH_*.json) instead "
        "of store runs; exits non-zero when any speedup is below its "
        "floor")
    return parser


def _setup_logging(verbose: int, quiet: bool) -> None:
    """Route diagnostics to stderr; stdout stays machine-readable.

    Idempotent — ``main()`` may be called repeatedly in one process
    (tests), so the handler is replaced rather than stacked.
    """
    for handler in list(log.handlers):
        log.removeHandler(handler)
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("repro: %(message)s"))
    log.addHandler(handler)
    log.propagate = False
    if quiet:
        log.setLevel(logging.ERROR)
    elif verbose >= 2:
        log.setLevel(logging.DEBUG)
    elif verbose == 1:
        log.setLevel(logging.INFO)
    else:
        log.setLevel(logging.WARNING)


def _make_hub(args):
    """A telemetry hub per the CLI flags (``None`` when not requested).

    Either ``--telemetry`` (a trace file) or ``--telemetry-store`` (a
    persisted history snapshot) is enough to install a live hub.
    """
    if not (args.telemetry or args.telemetry_store):
        return None
    from repro.telemetry import JsonlSink, Telemetry

    sinks = (
        [JsonlSink(args.telemetry)]
        if args.telemetry and args.telemetry_format == "jsonl"
        else []
    )
    return Telemetry(sinks=sinks)


def _make_progress(args):
    """A progress sink per ``--progress`` (``None`` when not requested)."""
    if not getattr(args, "progress", False):
        return None
    from repro.telemetry.progress import make_sink

    return make_sink(sys.stderr)


def _finish_telemetry(hub, args) -> None:
    """Write the trace, persist the run snapshot, log the summary."""
    from repro import telemetry

    if args.telemetry:
        if args.telemetry_format == "chrome":
            telemetry.write_chrome_trace(args.telemetry, hub)
        log.info(
            "telemetry written to %s (%s)",
            args.telemetry, args.telemetry_format,
        )
    if args.telemetry_store:
        from repro.telemetry.persist import flush_run

        run_key = flush_run(
            args.telemetry_store,
            hub,
            label=args.telemetry_label or "",
            session=args.command,
        )
        log.info(
            "telemetry run %s persisted to %s",
            run_key, args.telemetry_store,
        )
    hub.close()
    if log.isEnabledFor(logging.INFO):
        for line in telemetry.summarize(hub).splitlines():
            log.info("%s", line)


def _cmd_tune(args, out) -> int:
    from repro.core import AutoTuner
    from repro.core.algorithms import make_algorithm
    from repro.workflows import make_workflow

    try:
        algorithm = make_algorithm(args.algorithm, use_history=args.use_history)
    except ValueError as exc:
        log.error("%s", exc)
        return 2
    workflow = make_workflow(args.workflow)
    if args.resume and not args.checkpoint:
        log.error("--resume requires --checkpoint PATH")
        return 2
    if args.warm_start != "off" and not args.store:
        log.error("--warm-start requires --store PATH")
        return 2
    store = None
    if args.store:
        from repro.store import MeasurementStore

        store = MeasurementStore(args.store)
    log.info(
        "tuning %s/%s with %s, budget %d, pool %d, seed %d",
        args.workflow, args.objective, args.algorithm, args.budget,
        args.pool_size, args.seed,
    )
    outcome = AutoTuner(
        workflow,
        objective=args.objective,
        budget=args.budget,
        algorithm=algorithm,
        pool_size=args.pool_size,
        use_history=args.use_history,
        seed=args.seed,
        checkpoint_path=args.checkpoint,
        resume=args.resume,
        store=store,
        warm_start=args.warm_start,
    ).tune()
    named = workflow.space.as_dict(outcome.best_config)
    print(f"workflow      : {args.workflow}", file=out)
    print(f"objective     : {args.objective}", file=out)
    print(f"algorithm     : {args.algorithm}", file=out)
    print(f"budget        : {outcome.runs_used} runs", file=out)
    print("recommended configuration:", file=out)
    for key, value in named.items():
        print(f"  {key:24s} = {value}", file=out)
    unit = outcome.result.objective.unit
    print(f"tuned value   : {outcome.best_value:.3f} {unit}", file=out)
    print(
        f"pool optimum  : {outcome.pool_best_value:.3f} {unit} "
        f"(gap {outcome.gap_to_pool_best:.3f}x)",
        file=out,
    )
    print(f"tuning cost   : {outcome.cost:.2f} {unit}", file=out)
    if store is not None:
        trace = outcome.result.trace
        detail = dict(trace[0].detail) if trace else {}
        print(f"store         : {args.store}", file=out)
        if args.warm_start != "off":
            print(
                f"warm start    : {args.warm_start} "
                f"(solo samples reused {detail.get('warm_components', 0)}, "
                f"measurements adopted {detail.get('warm_adopted', 0)})",
                file=out,
            )
    return 0


def _cmd_reproduce(args, out) -> int:
    import repro.experiments as experiments

    func_name, takes_scale = _TARGETS[args.target]
    log.info("reproducing %s (%s)", args.target, func_name)
    func = getattr(experiments, func_name)
    if takes_scale:
        result = func(
            repeats=args.repeats,
            pool_size=args.pool,
            seed=args.seed,
            jobs=args.jobs,
        )
    elif args.target == "fig04":
        result = func(seed=args.seed)
    elif args.target == "table2":
        result = func(pool_size=max(args.pool, 2000), seed=args.seed)
    else:
        result = func()
    print(result.to_text(), file=out)
    if args.chart:
        from repro.experiments.viz import render_figure

        print(file=out)
        print(render_figure(result), file=out)
    return 0


def _cmd_store(args, out) -> int:
    import json
    import os

    from repro.store import MeasurementStore

    if not os.path.exists(args.path):
        log.error("store database %s does not exist", args.path)
        return 2
    store = MeasurementStore(args.path)
    try:
        if args.action == "stats":
            payload = store.stats()
        elif args.action == "export":
            payload = store.export()
        else:
            payload = store.gc(keep_sessions=args.keep_sessions)
            log.info("gc: %s", payload)
    finally:
        store.close()
    json.dump(payload, out, indent=2, default=str)
    print(file=out)
    return 0


def _cmd_suite(args, out) -> int:
    import json
    import os

    from repro.experiments.suite import (
        SuiteIncompleteError,
        load_spec,
        run_suite,
    )

    if args.action in ("resume", "report") and not args.store:
        log.error("suite %s requires --store PATH", args.action)
        return 2
    if args.action == "report" and not os.path.exists(args.store):
        log.error("store database %s does not exist", args.store)
        return 2
    if args.record_measurements and not args.store:
        log.error("--record-measurements requires --store PATH")
        return 2
    try:
        spec = load_spec(args.spec)
    except (OSError, ValueError, KeyError) as exc:
        log.error("cannot load suite spec %s: %s", args.spec, exc)
        return 2
    log.info(
        "suite %s: %d group(s), %d cell(s)",
        spec.name, len(spec.groups),
        sum(len(g.algorithms) * g.repeats for g in spec.groups),
    )
    result = run_suite(
        spec,
        jobs=args.jobs,
        store=args.store,
        # 'report' never executes cells; it only assembles cached ones.
        max_cells=0 if args.action == "report" else args.max_cells,
        record_measurements=args.record_measurements,
    )
    log.info(
        "suite %s: %d cell(s) run, %d cached, %d pending",
        spec.name, result.cells_run, result.cells_cached,
        sum(t is None for t in result.trials),
    )
    try:
        report = result.report()
    except SuiteIncompleteError as exc:
        if args.action == "report":
            log.error("%s", exc)
            return 2
        log.warning("%s", exc)
        return 0
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text, file=out)
    if args.chart:
        from repro.experiments.viz import render_report

        print(file=out)
        print(render_report(report), file=out)
    if args.report_path:
        with open(args.report_path, "w") as fh:
            fh.write(text + "\n")
        log.info("report written to %s", args.report_path)
    return 0


def _cmd_telemetry(args, out) -> int:
    import os

    from repro.telemetry import regress

    if args.floors:
        report = regress.check_floors(args.floors)
        print(regress.render_floors(report), file=out)
        return 0 if report["ok"] else 1
    if not args.store:
        log.error("telemetry %s requires a store database path", args.action)
        return 2
    if not os.path.exists(args.store):
        log.error("store database %s does not exist", args.store)
        return 2
    from repro.store import MeasurementStore

    store = MeasurementStore(args.store)
    try:
        if args.action == "baseline":
            try:
                marker = regress.set_baseline(store, args.name, args.run)
            except LookupError as exc:
                log.error("%s", exc)
                return 2
            print(f"baseline {args.name} = {marker['run_key']}", file=out)
            return 0
        try:
            current = regress.load_run(store, args.run)
        except LookupError as exc:
            log.error("%s", exc)
            return 2
        if args.action == "report":
            print(
                regress.render_run(current, top=args.top or 15), file=out
            )
            return 0
        if args.baseline is None:
            log.error("telemetry diff requires --baseline REF")
            return 2
        try:
            baseline = regress.load_run(store, args.baseline)
        except LookupError as exc:
            log.error("%s", exc)
            return 2
        report = regress.diff_runs(
            baseline,
            current,
            threshold=(
                regress.DEFAULT_THRESHOLD
                if args.threshold is None
                else args.threshold
            ),
            top=args.top or regress.DEFAULT_TOP,
        )
        print(regress.render_diff(report), file=out)
        return 0 if report["ok"] else 1
    finally:
        store.close()


def _cmd_serve(args, out) -> int:
    """Run the tuning daemon until SIGTERM/SIGINT.

    A graceful signal drains in-flight requests, leaves every session
    at a durable cycle-boundary checkpoint, and returns 0 — so the
    normal post-command path still flushes ``--telemetry-store``
    snapshots (server request counters, latency histograms, session
    gauges all land in the persisted run).
    """
    from repro.serve.http import run_daemon
    from repro.serve.sessions import SessionManager

    manager = SessionManager(
        args.state_dir, store=args.store, max_active=args.max_active
    )
    if manager.recovered:
        log.info(
            "recovered %d checkpointed session(s) from %s",
            len(manager.recovered), args.state_dir,
        )
    try:
        return run_daemon(
            manager,
            args.host,
            args.port,
            workers=args.workers,
            request_timeout=args.request_timeout,
            out=out,
        )
    finally:
        if manager.store is not None:
            manager.store.close()


def main(argv: list[str] | None = None, out=None) -> int:
    """CLI entry point; returns a process exit code."""
    import contextlib

    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    _setup_logging(args.verbose, args.quiet)
    hub = _make_hub(args)
    sink = _make_progress(args)
    with contextlib.ExitStack() as stack:
        if hub is not None:
            from repro import telemetry

            stack.enter_context(telemetry.use(hub))
        if sink is not None:
            from repro.telemetry import progress

            stack.enter_context(progress.use(sink))
            stack.callback(sink.close)
        try:
            return _dispatch(args, out)
        finally:
            if hub is not None:
                _finish_telemetry(hub, args)


def _dispatch(args, out) -> int:
    if args.command == "tune":
        return _cmd_tune(args, out)
    if args.command == "reproduce":
        return _cmd_reproduce(args, out)
    if args.command == "store":
        return _cmd_store(args, out)
    if args.command == "suite":
        return _cmd_suite(args, out)
    if args.command == "serve":
        return _cmd_serve(args, out)
    if args.command == "telemetry":
        return _cmd_telemetry(args, out)
    raise AssertionError("unreachable")


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
