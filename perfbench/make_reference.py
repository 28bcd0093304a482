"""Regenerate ``reference/tune_digests.json``, the pinned ``tune`` results.

    python3 perfbench/make_reference.py

Runs the first pass of the ``tune`` workload at its default seed and
writes one digest per tune (best config, its value, runs used, cost).
Regenerate only when a change is meant to alter tuning results.
"""

import json

from common import prepare_process

if __name__ == "__main__":
    prepare_process()
    import wl_tune

    result = wl_tune.run(wl_tune.DEFAULT_SEED, 0.0, check_reference=False)
    wl_tune.REFERENCE.parent.mkdir(exist_ok=True)
    wl_tune.REFERENCE.write_text(
        json.dumps(result["digests"], indent=1, sort_keys=True) + "\n"
    )
    print(f"wrote {len(result['digests'])} digests to {wl_tune.REFERENCE}")
