"""Launcher for the ``repro serve`` daemon under the benchmark.

``python3 perfbench/daemon.py [--trace-out PATH] -- <repro serve args>``
installs the per-layer tracer (when ``--trace-out`` is given), runs
``repro.cli.main(["serve", ...])`` until SIGTERM, then writes the span
counters to PATH and exits with the daemon's own exit code.
"""

import json
import os
import sys

if __name__ == "__main__":
    argv = sys.argv[1:]
    split = argv.index("--")
    options, serve_args = argv[:split], argv[split + 1:]
    trace_out = options[options.index("--trace-out") + 1] if options else None
    tracer = None
    if trace_out:
        import layers

        tracer = layers.Tracer()
        layers.install(tracer)
    from repro.cli import main

    code = main(["serve", *serve_args])
    if tracer is not None:
        tmp = trace_out + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(tracer.snapshot(), fh)
        os.replace(tmp, trace_out)
    raise SystemExit(code)
