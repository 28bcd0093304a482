"""Shared plumbing: paths, environment guard, machine record, set-up probes."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import queue
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout; git ignores it.
WORK = ROOT / ".bench_build" / "perfbench"

#: Each of these selects a different program than the one benchmarked.
GUARDED_ENV = (
    "REPRO_NO_NATIVE",
    "REPRO_NO_FAST_DES",
    "REPRO_NO_SERVE_CACHE",
    "REPRO_CACHE_DIR",
    "REPRO_JOBS",
    "REPRO_POOL_MEMO_CAPACITY",
    "REPRO_HISTORY_MEMO_CAPACITY",
    "REPRO_STORE",
)

#: Fresh interpreters spawned per run to time set-up; the median is reported.
SETUP_SAMPLES = 3


def derive_seed(*parts) -> int:
    """A 31-bit seed that is a pure function of ``parts``."""
    digest = hashlib.sha256(repr(parts).encode()).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


def units(seconds: float, unit_s: float) -> int:
    """Whole work units that fit in ``seconds`` at nominal speed (at least 1).

    The work of a run depends on ``--seconds`` alone, never on how fast the
    machine happens to be, so every run of a workload does the same work.
    """
    return max(1, int(seconds // unit_s))


def guard_environment() -> list:
    """Names of the guarded variables that are set (empty = ok to time)."""
    return [name for name in GUARDED_ENV if os.environ.get(name)]


def prepare_process() -> None:
    """Make ``repro`` importable and keep temp files inside the checkout."""
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(WORK / "tmp")
    env["PYTHONUNBUFFERED"] = "1"
    return env


def machine_record() -> dict:
    import numpy
    import scipy

    from repro.ml import _native

    # The ceiling keeps git from searching above the checkout for a repository.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        rev = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "native_kernel": _native.available(),
        "git_rev": rev,
    }


def peak_rss_mb(pid: str | int = "self") -> float:
    """``VmHWM`` of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc status")


def spawn_ready(argv: list, marker: str, timeout: float = 60.0):
    """Start ``argv`` and block until a stdout line contains ``marker``.

    Returns ``(process, seconds until the line, the line)``.  A reader
    thread keeps draining stdout afterwards, so the child never blocks on
    a full pipe.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, text=True,
    )
    lines: queue.Queue = queue.Queue()

    def drain() -> None:
        for line in proc.stdout:
            lines.put(line)
        lines.put(None)

    threading.Thread(target=drain, daemon=True).start()
    deadline = start + timeout
    while True:
        try:
            line = lines.get(timeout=max(0.0, deadline - time.perf_counter()))
        except queue.Empty:
            line = None
        if line is None:
            stop_process(proc)
            raise RuntimeError(f"{argv[1:3]} never printed {marker!r}")
        if marker in line:
            return proc, time.perf_counter() - start, line.strip()


def stop_process(proc, timeout: float = 30.0) -> int:
    if proc.poll() is None:
        proc.terminate()
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        code = proc.wait()
    return code


def probe_setup(workload: str) -> tuple:
    """Median set-up seconds and import seconds over fresh interpreters."""
    setups, imports = [], []
    for _ in range(SETUP_SAMPLES):
        proc, seconds, line = spawn_ready(
            [sys.executable, str(HERE / "probe.py"), workload], "ready"
        )
        if proc.wait(timeout=60) != 0:
            raise RuntimeError(f"set-up probe for {workload} failed")
        setups.append(seconds)
        imports.append(float(line.split()[1]))
    return statistics.median(setups), statistics.median(imports)


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    """Print the result line; ``metrics`` maps name -> (value, unit)."""
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        ),
        flush=True,
    )
