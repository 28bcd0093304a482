"""The repository benchmark: ``tune``, ``suite`` and ``serve`` workloads.

Run from the repository root::

    python3 perfbench/run.py --workload tune --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all          # every workload, untraced

``--trace 0`` measures the end-to-end metrics with no tracing installed.
``--trace 1`` runs it with the per-layer tracer of ``layers.py``
installed, prints the layers ranked by self time, and reports the
per-layer metrics.  The last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
exit code is non-zero when an output check fails.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from common import (
    ROOT,
    SRC,
    emit,
    guard_environment,
    machine_record,
    prepare_process,
    probe_setup,
)

WORKLOADS = ("tune", "suite", "serve")


def _workload_module(name: str):
    import importlib

    return importlib.import_module(f"wl_{name}")


def _print_ranked(workload: str, layer: dict, wall_s: float) -> None:
    """Layers ranked by self time, then a drill-down of each layer's metrics."""
    groups: dict = {}
    for name, (value, unit) in layer.items():
        groups.setdefault(name.split(".")[0], []).append((name, value, unit))

    def self_s(items) -> float:
        return sum(v for n, v, _ in items if n.endswith(".self_s"))

    ranked = sorted(groups.items(), key=lambda kv: (-self_s(kv[1]), kv[0]))
    print(f"## {workload}: layers ranked by self time (work {wall_s:.3f} s)")
    print("| rank | layer | self_s | share of work |")
    print("|---|---|---|---|")
    for rank, (name, items) in enumerate(ranked, 1):
        print(f"| {rank} | {name} | {self_s(items):.3f} | {self_s(items) / wall_s:.1%} |")
    for name, items in ranked:
        print(f"### {name}")
        for metric, value, unit in sorted(
            items, key=lambda i: (not i[0].endswith(".self_s"), -i[1], i[0])
        ):
            print(f"- {metric}: {value:.6g} {unit}")


def _declared(traced: bool) -> list:
    """Metric names ``BENCHMARK.json`` declares for this kind of run."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in doc["per_layer" if traced else "end_to_end"]]


def run_one(workload: str, seed: int, seconds: float, traced: bool) -> int:
    module = _workload_module(workload)
    record = machine_record()  # also warms the native kernel's one-time build
    print("machine " + json.dumps(record, sort_keys=True), flush=True)
    if traced or workload != "serve":
        setup_s, import_s = probe_setup(workload)
    if not traced:
        result = module.run(seed, seconds)
        if workload != "serve":
            result["metrics"]["setup_s"] = (setup_s, "s")
        metrics = result["metrics"]
    else:
        import layers

        if workload == "serve":
            result = module.run(seed, seconds, tracer=True)
            spans, extra = result["spans"], result["layer"]
        else:
            tracer = layers.Tracer()
            layers.install(tracer)
            result = module.run(seed, seconds)
            snap = tracer.snapshot()
            spans = snap["spans"]
            covered = sum(snap["top_s"].values())
            extra = {
                "bench.unattributed_ratio": (
                    max(0.0, 1.0 - covered / result["wall_s"]), "ratio"
                )
            }
        metrics = layers.layer_metrics(spans)
        metrics.update(_unreached_defaults())
        metrics.update(extra)
        metrics["setup.import_s"] = (import_s, "s")
        calls = sum(entry["calls"] for entry in spans.values())
        metrics["bench.trace_overhead_ratio"] = (
            calls * layers.call_cost_s() / result["wall_s"], "ratio"
        )
        _print_ranked(workload, metrics, result["wall_s"])
    fail_ratio = result["failed"] / max(1, result["attempted"])
    print(
        "info "
        + json.dumps(
            {"workload": workload, "seed": seed, "fail_ratio": fail_ratio,
             **result["info"]},
            sort_keys=True,
        ),
        flush=True,
    )
    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    declared = _declared(traced)
    if sorted(declared) != sorted(metrics):
        raise RuntimeError(
            f"metrics {sorted(metrics)} do not match BENCHMARK.json {declared}"
        )
    correct = result["failed"] == 0 and not result["problems"]
    emit(
        correct,
        result["attempted"],
        result["failed"],
        {name: metrics[name] for name in declared},
    )
    return 0 if correct else 1


def _unreached_defaults() -> dict:
    """Zero rows for the layers only the ``serve`` workload reports."""
    return {
        "serve.http.self_s": (0.0, "s"),
        "serve.rehydrate.count": (0, "count"),
        "serve.rehydrate.p50_ms": (0.0, "ms"),
        "serve.evicted": (0, "count"),
        "serve.cache.problem.hit_ratio": (0.0, "ratio"),
        "serve.cache.model.hit_ratio": (0.0, "ratio"),
        "serve.cache.snapshot.hit_ratio": (0.0, "ratio"),
        "bench.unattributed_ratio": (0.0, "ratio"),
    }


def run_all(seed: int, seconds: float) -> int:
    """Every workload in its own interpreter; prints each metric and unit."""
    status = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"{workload}: no result (exit {proc.returncode})")
            status = 1
            continue
        print(f"{workload}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for name, metric in result["metrics"].items():
            print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
        if proc.returncode != 0 or not result["correct"]:
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    guarded = guard_environment()
    if guarded:
        print(
            "perfbench: refusing to time a different program; unset "
            + ", ".join(guarded),
            file=sys.stderr,
        )
        return 2
    prepare_process()
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())
