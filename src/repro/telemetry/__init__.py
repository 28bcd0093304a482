"""Unified telemetry: spans, metrics, and trace export for the tuner.

The paper's Fig. 3 loop (collector → modeler → searcher) is a
multi-stage pipeline whose cost profile — measurement vs model-fit vs
pool-ranking time — is what Fig. 8's practicality analysis quantifies.
This package makes that profile observable end to end::

    from repro import telemetry

    hub = telemetry.Telemetry()
    with telemetry.use(hub):
        AutoTuner(make_lv(), "computer_time", budget=20).tune()
    telemetry.write_chrome_trace("trace.json", hub)   # open in Perfetto
    print(telemetry.summarize(hub))

Instrumented layers: the tuning driver (per-cycle spans with
``TuningEvent`` attributes), the collector, model fits
(boosting), the DES engine's event-loop stats, pool generation
and its cache, and the parallel trial runner (per-worker hubs captured
in forked workers and merged back deterministically).

The process-local *current hub* defaults to :data:`NULL`, whose every
operation is a no-op — instrumentation is zero-cost until a real
:class:`Telemetry` hub is installed via :func:`use` or :func:`install`.
Telemetry never perturbs tuning: enabled or disabled, results are
bit-identical.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.telemetry.chrome import (
    complete_event,
    to_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.telemetry.hub import (
    DEFAULT_SECONDS_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    NullTelemetry,
    SpanRecord,
    Telemetry,
)
from repro.telemetry.persist import (
    TELEMETRY_SCHEMA_VERSION,
    aggregate_spans,
    flush_run,
)
from repro.telemetry.sinks import SCHEMA_VERSION, JsonlSink, load_jsonl
from repro.telemetry.summary import render_summary

__all__ = [
    "DEFAULT_SECONDS_BUCKETS",
    "SCHEMA_VERSION",
    "TELEMETRY_SCHEMA_VERSION",
    "Counter",
    "Gauge",
    "Histogram",
    "JsonlSink",
    "NULL",
    "NullTelemetry",
    "SpanRecord",
    "Telemetry",
    "aggregate_spans",
    "complete_event",
    "enabled",
    "flush_run",
    "get",
    "install",
    "load_jsonl",
    "summarize",
    "to_chrome_trace",
    "use",
    "validate_chrome_trace",
    "write_chrome_trace",
]

#: The shared disabled hub (the default).
NULL = NullTelemetry()

_current: Telemetry | NullTelemetry = NULL


def get() -> Telemetry | NullTelemetry:
    """The process-local current hub (:data:`NULL` when disabled)."""
    return _current


def enabled() -> bool:
    """Whether a live hub is installed."""
    return _current.enabled


def install(hub: Telemetry | NullTelemetry | None):
    """Install ``hub`` as the current hub; returns the previous one."""
    global _current
    previous = _current
    _current = hub if hub is not None else NULL
    return previous


@contextmanager
def use(hub: Telemetry | NullTelemetry | None):
    """Install ``hub`` for the duration of a ``with`` block."""
    previous = install(hub)
    try:
        yield _current
    finally:
        install(previous)


def summarize(hub: Telemetry | NullTelemetry | None = None, top: int = 15):
    """Text report of the given (default: current) hub's telemetry."""
    return render_summary(hub if hub is not None else _current, top=top)
