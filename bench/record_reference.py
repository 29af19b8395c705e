#!/usr/bin/env python3
"""Record the reference values that run.py compares against.

    python3 bench/record_reference.py

Writes bench/reference.json from the checked-out program: under ``kernel``,
the certified kernel lower bound of every kernel-workload operation, the
least over seeds 0-2 (the values agree to ~1e-13 across seeds).

It was run once at the commit that added the benchmark; rerun it only when a
change is meant to move these values, and say so.
"""

from __future__ import annotations

import json
import os
import sys

SEEDS = range(3)


def main() -> int:
    import run

    for var in run.BLAS_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(run.SRC))
    import workloads

    run.RESULTS.mkdir(exist_ok=True)
    kernel: dict = {}
    for seed in SEEDS:
        for _, op in workloads.Kernel(seed, run.RESULTS).operations():
            for key, value in op().kernel.items():
                kernel[key] = min(value, kernel.get(key, value))
    out = {"kernel": dict(sorted(kernel.items()))}
    (run.BENCH / "reference.json").write_text(json.dumps(out, indent=2) + "\n")
    print(json.dumps(out, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
