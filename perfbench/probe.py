"""Set-up probe: a fresh interpreter that gets ready to run one workload.

``python3 perfbench/probe.py <tune|suite>`` imports what the workload
imports, builds its inputs' spec and opens its store, then prints
``ready <seconds importing repro.core.algorithms>`` and exits.  The parent
times spawn -> ``ready``.
"""

import sys
import time

if __name__ == "__main__":
    started = time.perf_counter()
    import repro.core.algorithms  # noqa: F401

    import_s = time.perf_counter() - started
    workload = sys.argv[1]
    if workload == "tune":
        import wl_tune

        wl_tune.ready()
    elif workload == "suite":
        import wl_suite

        wl_suite.ready()
    elif workload == "serve":
        import wl_serve

        wl_serve.ready()
    else:
        raise SystemExit(f"no set-up probe for workload {workload!r}")
    print(f"ready {import_s:.6f}", flush=True)
