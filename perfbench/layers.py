"""Per-layer tracing for the benchmark, installed from outside the program.

The tracer wraps the public entry points of each ``repro`` layer at every
module attribute, dict entry and class that binds them, and keeps per-span
counters in memory:

* ``calls`` — outermost entries into the span (a span re-entered on the
  same thread, e.g. ``Collector.measure`` delegating to
  ``Collector.measure_batch``, is counted once);
* ``units`` — work items handed to the outermost call (rows, configs);
* ``total_s`` / ``self_s`` — duration, and duration minus the time of
  wrapped children on the same thread.

Nothing is added to ``src/``: the benchmark calls :func:`install` before
it runs a workload (or, for ``serve``, inside the daemon's launcher).
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time

__all__ = [
    "SPANS", "LAYER_METRICS", "Tracer", "install", "layer_metrics", "call_cost_s",
]


def _len_arg(index, keyword):
    def units(args, kwargs):
        value = args[index] if len(args) > index else kwargs.get(keyword, ())
        try:
            return len(value)
        except TypeError:
            return 0

    return units


#: span name -> [(module, qualname, units function or None)].  A
#: ``Class.method`` target also wraps every loaded subclass override.
SPANS = {
    "workflows.pool": [("repro.workflows.pools", "generate_pool", None)],
    "workflows.history": [
        ("repro.workflows.pools", "generate_component_history", None)
    ],
    "insitu.measure": [
        ("repro.insitu.fast", "measure_batch", _len_arg(1, "configs")),
        ("repro.insitu.fast", "run_coupled_batch", _len_arg(1, "configs")),
    ],
    "config.sample": [("repro.config.space", "ParameterSpace.sample", None)],
    "config.encode": [
        ("repro.config.encoding", "ConfigEncoder.encode", _len_arg(1, "configs"))
    ],
    "ml.fit": [
        ("repro.ml.boosting", "GradientBoostedTrees.fit", _len_arg(1, "X"))
    ],
    "ml.predict": [
        ("repro.ml.boosting", "GradientBoostedTrees.predict", _len_arg(1, "X")),
        ("repro.ml.packed", "PackedEnsemble.predict", _len_arg(1, "X")),
    ],
    "core.tune": [("repro.core.algorithms.base", "TuningAlgorithm.tune", None)],
    "core.rank": [("repro.core.driver", "TuningSession.rank_candidates", None)],
    "core.measure": [
        ("repro.core.collector", "Collector.measure", None),
        ("repro.core.collector", "Collector.measure_batch", None),
    ],
    "core.checkpoint": [("repro.core.driver", "save_checkpoint_payload", None)],
    "store.record": [
        ("repro.store.db", "MeasurementStore.record", _len_arg(2, "rows"))
    ],
    "store.query": [("repro.store.db", "MeasurementStore.query", None)],
    "store.metadata": [
        ("repro.store.db", "MeasurementStore.set_metadata", None),
        ("repro.store.db", "MeasurementStore.get_metadata", None),
    ],
    "store.model": [
        ("repro.store.db", "MeasurementStore.put_model", None),
        ("repro.store.db", "MeasurementStore.get_model", None),
    ],
    "experiments.report": [("repro.experiments.suite", "build_report", None)],
    "experiments.stats.permutation": [
        ("repro.experiments.stats", "paired_permutation_test", None)
    ],
    "experiments.stats.bootstrap": [
        ("repro.experiments.stats", "bootstrap_ci", None)
    ],
    "experiments.stats.wilcoxon": [
        ("repro.experiments.stats", "wilcoxon_signed_rank", None)
    ],
    "serve.create": [("repro.serve.sessions", "SessionManager.create", None)],
    "serve.ask": [("repro.serve.sessions", "SessionManager.ask", None)],
    "serve.tell": [("repro.serve.sessions", "SessionManager.tell", None)],
    # One stash per eviction (LRU overflow, explicit evict, shutdown).
    "serve.stash": [("repro.serve.artifacts", "ArtifactCache.stash_snapshot", None)],
}

#: Per-layer metric -> (span, field, unit) for the span-derived metrics.
LAYER_METRICS = {
    "workflows.pool.calls": ("workflows.pool", "calls", "count"),
    "workflows.pool.self_s": ("workflows.pool", "self_s", "s"),
    "workflows.history.self_s": ("workflows.history", "self_s", "s"),
    "insitu.measure.calls": ("insitu.measure", "calls", "count"),
    "insitu.measure.configs": ("insitu.measure", "units", "count"),
    "insitu.measure.self_s": ("insitu.measure", "self_s", "s"),
    "config.sample.self_s": ("config.sample", "self_s", "s"),
    "config.encode.calls": ("config.encode", "calls", "count"),
    "config.encode.rows": ("config.encode", "units", "count"),
    "config.encode.self_s": ("config.encode", "self_s", "s"),
    "ml.fit.calls": ("ml.fit", "calls", "count"),
    "ml.fit.rows": ("ml.fit", "units", "count"),
    "ml.fit.self_s": ("ml.fit", "self_s", "s"),
    "ml.predict.calls": ("ml.predict", "calls", "count"),
    "ml.predict.rows": ("ml.predict", "units", "count"),
    "ml.predict.self_s": ("ml.predict", "self_s", "s"),
    "core.tune.self_s": ("core.tune", "self_s", "s"),
    "core.rank.calls": ("core.rank", "calls", "count"),
    "core.rank.self_s": ("core.rank", "self_s", "s"),
    "core.measure.self_s": ("core.measure", "self_s", "s"),
    "core.checkpoint.calls": ("core.checkpoint", "calls", "count"),
    "core.checkpoint.self_s": ("core.checkpoint", "self_s", "s"),
    "store.record.calls": ("store.record", "calls", "count"),
    "store.record.rows": ("store.record", "units", "count"),
    "store.record.self_s": ("store.record", "self_s", "s"),
    "store.query.self_s": ("store.query", "self_s", "s"),
    "store.metadata.calls": ("store.metadata", "calls", "count"),
    "store.metadata.self_s": ("store.metadata", "self_s", "s"),
    "store.model.self_s": ("store.model", "self_s", "s"),
    "experiments.report.self_s": ("experiments.report", "self_s", "s"),
    "experiments.stats.permutation.calls": (
        "experiments.stats.permutation", "calls", "count"
    ),
    "experiments.stats.permutation.self_s": (
        "experiments.stats.permutation", "self_s", "s"
    ),
    "experiments.stats.bootstrap.self_s": (
        "experiments.stats.bootstrap", "self_s", "s"
    ),
    "experiments.stats.wilcoxon.self_s": (
        "experiments.stats.wilcoxon", "self_s", "s"
    ),
    "serve.create.self_s": ("serve.create", "self_s", "s"),
    "serve.ask.self_s": ("serve.ask", "self_s", "s"),
    "serve.tell.self_s": ("serve.tell", "self_s", "s"),
}

#: Modules imported before wrapping, so every binding and subclass exists.
_PRELOAD = (
    "repro.core",
    "repro.core.algorithms",
    "repro.core.algorithms.low_fidelity_only",
    "repro.experiments",
    "repro.experiments.suite",
    "repro.serve.sessions",
    "repro.serve.specs",
    "repro.serve.http",
    "repro.store",
    "repro.cli",
)


class Tracer:
    """Thread-safe span counters with per-thread self-time accounting."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self.spans = {name: _zero() for name in SPANS}
        #: Summed duration of outermost spans, per thread name.
        self.top_s: dict = {}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, units=None):
        perf_counter = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            for frame in stack:
                if frame[0] == name:
                    return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                count = units(args, kwargs) if units is not None else 0
                with self._lock:
                    if stack:
                        stack[-1][1] += elapsed
                    else:
                        thread = threading.current_thread().name
                        self.top_s[thread] = self.top_s.get(thread, 0.0) + elapsed
                    entry = self.spans[name]
                    entry["calls"] += 1
                    entry["units"] += count
                    entry["total_s"] += elapsed
                    entry["self_s"] += elapsed - frame[1]

        return traced

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "spans": {k: dict(v) for k, v in self.spans.items()},
                "top_s": dict(self.top_s),
            }


def _zero() -> dict:
    return {"calls": 0, "units": 0, "total_s": 0.0, "self_s": 0.0}


def call_cost_s(calls: int = 20_000) -> float:
    """Measured extra seconds one traced call costs over a bare call.

    Best of three timings of ``calls`` calls to a no-op, wrapped and bare.
    Times the number of traced calls, it gives the tracing overhead of a
    run without timing the run twice: on a shared box, two timings of the
    same work differ by far more than the tracer costs.
    """
    tracer = Tracer()
    tracer.spans["calibration"] = _zero()

    def noop():
        return None

    wrapped = tracer.wrap("calibration", noop)
    best = []
    for fn in (noop, wrapped):
        timings = []
        for _ in range(3):
            start = time.perf_counter()
            for _ in range(calls):
                fn()
            timings.append(time.perf_counter() - start)
        best.append(min(timings))
    return max(0.0, (best[1] - best[0]) / calls)


def _rebind(original, wrapper) -> int:
    """Point every ``repro`` module attribute and dict entry at ``wrapper``."""
    bound = 0
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            if value is original:
                setattr(module, attr, wrapper)
                bound += 1
            elif isinstance(value, dict) and not attr.startswith("__"):
                for key, item in list(value.items()):
                    if item is original:
                        value[key] = wrapper
                        bound += 1
    return bound


def _subclasses(cls) -> list:
    seen, todo = [], [cls]
    while todo:
        current = todo.pop()
        if current not in seen:
            seen.append(current)
            todo.extend(current.__subclasses__())
    return seen


def install(tracer: Tracer) -> None:
    """Wrap every target in :data:`SPANS`; raise if one is missing."""
    for module_name in _PRELOAD:
        importlib.import_module(module_name)
    for name, targets in SPANS.items():
        for module_name, qualname, units in targets:
            module = importlib.import_module(module_name)
            if "." in qualname:
                class_name, method = qualname.split(".")
                bound = 0
                for cls in _subclasses(getattr(module, class_name)):
                    original = cls.__dict__.get(method)
                    if original is not None:
                        setattr(cls, method, tracer.wrap(name, original, units))
                        bound += 1
            else:
                original = getattr(module, qualname)
                bound = _rebind(original, tracer.wrap(name, original, units))
            if bound == 0:
                raise RuntimeError(f"no binding of {module_name}.{qualname}")


def layer_metrics(spans: dict) -> dict:
    """The span-derived per-layer metrics, ``{name: (value, unit)}``."""
    out = {}
    for metric, (span, field, unit) in LAYER_METRICS.items():
        entry = spans.get(span) or _zero()
        value = entry[field]
        out[metric] = (int(value) if unit == "count" else float(value), unit)
    return out
