"""``serve`` workload: closed-loop clients against a ``repro serve`` daemon.

The daemon runs as a subprocess (``daemon.py``) with ``--workers 2``, a
fresh ``--state-dir`` and ``--store``, and a ``--max-active`` a third of
the open session count, so eviction and rehydration run all the time.
``CLIENTS`` threads each hold one keep-alive ``ServeClient`` and drive
``OPEN_PER_CLIENT`` sessions round-robin: a client sends its next request
only when the previous one has returned, and replaces a finished session
by the next one of its share.  A client's share is as many cycles through
``MIX`` (rs/lowfid/ceal/al over LV/HS/GP and both objectives) as fit in
``--seconds`` at the nominal ``CYCLE_S``, at least one, each session with
its own derived seed, so the request mix is the same on every run.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import statistics
import sys
import tempfile
import threading
import time
from collections import deque

from common import (
    HERE,
    SETUP_SAMPLES,
    WORK,
    derive_seed,
    peak_rss_mb,
    percentile,
    spawn_ready,
    stop_process,
    units,
)

CLIENTS = 2
OPEN_PER_CLIENT = 12
MAX_ACTIVE = 8
WORKERS = 2
ALGORITHMS = ("rs", "lowfid", "ceal", "al")
MIX = tuple(
    (algorithm, workflow, objective)
    for objective in ("execution_time", "computer_time")
    for workflow in ("LV", "HS", "GP")
    for algorithm in ALGORITHMS
)
#: Nominal seconds of one cycle through MIX per client on a 2-core x86 box.
CYCLE_S = 21.0
BUDGET = 20
POOL_SIZE = 300
#: Sessions k < len(ALGORITHMS) of client 0 are re-tuned offline and compared.
CHECKED = len(ALGORITHMS)


def ready() -> None:
    """Imports the daemon needs (the set-up probe's import sample)."""
    import repro.serve.http  # noqa: F401


def session_spec(seed: int, client: int, k: int) -> dict:
    algorithm, workflow, objective = MIX[k % len(MIX)]
    return {
        "workflow": workflow,
        "objective": objective,
        "algorithm": algorithm,
        "budget": BUDGET,
        "pool_size": POOL_SIZE,
        "seed": derive_seed("serve", seed, client, k) % 1_000_000,
    }


def _start_daemon(directory: str, trace_out: str | None):
    argv = [sys.executable, str(HERE / "daemon.py")]
    if trace_out:
        argv += ["--trace-out", trace_out]
    argv += [
        "--", "--state-dir", os.path.join(directory, "state"),
        "--store", os.path.join(directory, "store.db"),
        "--port", "0", "--workers", str(WORKERS),
        "--max-active", str(MAX_ACTIVE), "-q",
    ]
    proc, seconds, line = spawn_ready(argv, "listening on")
    port = int(line.split("listening on ")[1].split()[0].rsplit(":", 1)[1])
    return proc, seconds, port


class _Client(threading.Thread):
    """One closed-loop client: its sessions, its latencies, its errors."""

    def __init__(self, index: int, port: int, seed: int, sessions: int):
        super().__init__(name=f"client-{index}")
        self.index, self.port, self.seed = index, port, seed
        self.sessions = sessions
        self.latency_ms: dict = {"create": [], "ask": [], "tell": []}
        self.errors: list = []
        self.created = self.completed = 0
        self.best: dict = {}
        self.busy_s = 0.0

    def _call(self, endpoint: str, fn, *args):
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            elapsed = time.perf_counter() - t0
            self.busy_s += elapsed
            self.latency_ms[endpoint].append(elapsed * 1e3)

    def _open(self, client, ring: deque) -> None:
        k = self.created
        name = f"c{self.index}-s{k}"
        self.created += 1
        try:
            self._call("create", client.create_session,
                       session_spec(self.seed, self.index, k), name)
        except Exception as exc:  # counted as a failed request
            self.errors.append(f"create {name}: {exc}")
            return
        ring.append((k, name))

    def run(self) -> None:
        from repro.serve.client import ServeClient

        ring: deque = deque()
        with ServeClient(port=self.port, timeout=120.0) as client:
            for _ in range(OPEN_PER_CLIENT):
                self._open(client, ring)
            while ring:
                k, name = ring.popleft()
                try:
                    proposal = self._call("ask", client.ask, name)
                    if proposal.get("done"):
                        self.completed += 1
                        self.best[k] = proposal["best"]
                        if self.created < self.sessions:
                            self._open(client, ring)
                        continue
                    self._call("tell", client.tell, name, proposal["ask_id"])
                except Exception as exc:  # the session is abandoned
                    self.errors.append(f"{name}: {exc}")
                    continue
                ring.append((k, name))


def _offline_best(spec: dict) -> dict:
    from repro.serve.specs import SessionSpec, build_algorithm, build_problem

    parsed = SessionSpec.from_dict(spec)
    problem = build_problem(parsed)
    result = build_algorithm(parsed).tune(problem)
    return {
        "recommended_config": list(result.best_config(problem.pool)),
        "recommended_value": float(result.best_actual_value(problem.pool)),
    }


def _pool_best(spec: dict) -> float:
    from repro.workflows import make_workflow
    from repro.workflows.pools import generate_pool

    pool = generate_pool(
        make_workflow(spec["workflow"]), spec["pool_size"], seed=spec["seed"]
    )
    return pool.best_value(spec["objective"])


def _stats(health: dict) -> dict:
    stats = health["stats"]
    cache = stats["cache"]
    return {
        "active": stats["active"],
        "rehydrate_count": stats["rehydrate_ms"].get("count", 0),
        "rehydrate_p50_ms": stats["rehydrate_ms"].get("p50", 0.0),
        "hit_ratio": {
            tier: cache[tier]["hit_ratio"] for tier in ("problem", "model", "snapshot")
        },
    }


def run(seed: int, seconds: float, tracer: bool = False) -> dict:
    from repro.serve.client import ServeClient

    # One thread and one keep-alive connection per client.
    if CLIENTS > (os.cpu_count() or 1):
        raise RuntimeError(f"{CLIENTS} clients exceed nproc={os.cpu_count()}")

    problems: list = []
    base = tempfile.mkdtemp(dir=WORK)
    trace_out = os.path.join(base, "daemon-trace.json") if tracer else None
    setups = []
    try:
        for sample in range(SETUP_SAMPLES):
            directory = os.path.join(base, f"d{sample}")
            os.makedirs(directory)
            last = sample == SETUP_SAMPLES - 1
            proc, setup, port = _start_daemon(directory, trace_out if last else None)
            setups.append(setup)
            if not last and stop_process(proc) != 0:
                problems.append("set-up daemon did not exit 0 on SIGTERM")
        try:
            share = units(seconds, CYCLE_S) * len(MIX)
            clients = [_Client(i, port, seed, share) for i in range(CLIENTS)]
            started = time.perf_counter()
            for client in clients:
                client.start()
            for client in clients:
                client.join()
            window = time.perf_counter() - started
            with ServeClient(port=port) as probe:
                health = _stats(probe.health())
            daemon_rss = peak_rss_mb(proc.pid)
        finally:
            proc.send_signal(signal.SIGTERM)
            code = stop_process(proc, timeout=60)
        if code != 0:
            problems.append(f"daemon exited {code} on SIGTERM")
        spans = None
        if trace_out:
            with open(trace_out) as fh:
                spans = json.load(fh)["spans"]
    finally:
        shutil.rmtree(base, ignore_errors=True)

    latency = {e: [] for e in ("create", "ask", "tell")}
    errors: list = []
    created = completed = 0
    for client in clients:
        for endpoint, values in client.latency_ms.items():
            latency[endpoint].extend(values)
        errors.extend(client.errors)
        created += client.created
        completed += client.completed
    problems.extend(errors)
    if completed != created:
        problems.append(f"{created - completed} of {created} sessions did not complete")
    checked = 0
    for k in range(CHECKED):
        served = clients[0].best.get(k)
        if served is None:
            continue
        offline = _offline_best(session_spec(seed, 0, k))
        checked += 1
        for key, value in offline.items():
            if served.get(key) != value:
                problems.append(
                    f"session c0-s{k} {key} {served.get(key)!r} != offline {value!r}"
                )
    norms = [
        best["recommended_value"] / _pool_best(session_spec(seed, client.index, k))
        for client in clients
        for k, best in sorted(client.best.items())
    ]
    requests = sum(len(v) for v in latency.values())
    ask_p95 = percentile(latency["ask"], 95)
    client_busy = sum(c.busy_s for c in clients)
    result = {
        "metrics": {
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (daemon_rss, "MB"),
            "best_norm_mean": (statistics.fmean(norms) if norms else 0.0, "ratio"),
            "work_s": (window, "s"),
        },
        "attempted": requests + checked + 1,
        "failed": len(problems),
        "problems": problems,
        "wall_s": window,
        "info": {
            "clients": CLIENTS,
            "loop": "closed",
            "sessions": created,
            "open_sessions": CLIENTS * OPEN_PER_CLIENT,
            "max_active": MAX_ACTIVE,
            "max_active_per_open_session": MAX_ACTIVE / (CLIENTS * OPEN_PER_CLIENT),
            "workers": WORKERS,
            "requests": requests,
            "serve_rps": requests / window,
            "ask_p50_ms": percentile(latency["ask"], 50),
            "ask_p95_ms": ask_p95,
            "create_p50_ms": percentile(latency["create"], 50),
            "tell_p50_ms": percentile(latency["tell"], 50),
            "asks": len(latency["ask"]),
            "asks_beyond_p95": sum(v > ask_p95 for v in latency["ask"]),
            "offline_checked": checked,
            "health": health,
        },
    }
    if spans is not None:
        manager_s = sum(
            spans[name]["total_s"] for name in ("serve.create", "serve.ask", "serve.tell")
        )
        result["spans"] = spans
        result["layer"] = {
            "serve.http.self_s": (max(0.0, client_busy - manager_s), "s"),
            "serve.rehydrate.count": (health["rehydrate_count"], "count"),
            "serve.rehydrate.p50_ms": (health["rehydrate_p50_ms"], "ms"),
            "serve.evicted": (spans["serve.stash"]["calls"] - health["active"], "count"),
            "serve.cache.problem.hit_ratio": (health["hit_ratio"]["problem"], "ratio"),
            "serve.cache.model.hit_ratio": (health["hit_ratio"]["model"], "ratio"),
            "serve.cache.snapshot.hit_ratio": (health["hit_ratio"]["snapshot"], "ratio"),
            "bench.unattributed_ratio": (
                max(0.0, 1.0 - client_busy / (CLIENTS * window)), "ratio"
            ),
        }
    return result
