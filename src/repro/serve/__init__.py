"""Tuning as a service: many concurrent sessions behind one daemon.

ROADMAP item 1.  The package splits into orthogonal layers:

* :mod:`repro.serve.protocol` — wire contract: protocol version,
  structured error codes.
* :mod:`repro.serve.specs` — :class:`SessionSpec`, the JSON recipe a
  session is deterministically rebuilt from.
* :mod:`repro.serve.sessions` — :class:`SessionRunner` (steps the
  driver's :class:`~repro.core.driver.TuningRun` one ask/tell request
  at a time) and :class:`SessionManager` (named sessions, LRU
  eviction to checkpoints, crash recovery).
* :mod:`repro.serve.http` — stdlib asyncio JSON-over-HTTP daemon with
  a bounded worker pool and graceful SIGTERM drain.
* :mod:`repro.serve.client` — blocking keep-alive client.
* :mod:`repro.serve.loadgen` — the BENCH_serve load generator.

Start a daemon with ``repro serve --state-dir .serve`` and talk to it
with :class:`ServeClient`; see README's "Tuning as a service" section.
"""

from repro.serve.client import ServeClient
from repro.serve.http import BackgroundServer, TuningServer, run_daemon
from repro.serve.loadgen import apply_floors, run_load
from repro.serve.protocol import ERROR_CODES, PROTOCOL_VERSION, ServeError
from repro.serve.sessions import SessionManager, SessionRunner
from repro.serve.specs import ALGORITHMS, SessionSpec

__all__ = [
    "ALGORITHMS",
    "BackgroundServer",
    "ERROR_CODES",
    "PROTOCOL_VERSION",
    "ServeClient",
    "ServeError",
    "SessionManager",
    "SessionRunner",
    "SessionSpec",
    "TuningServer",
    "apply_floors",
    "run_daemon",
    "run_load",
]
