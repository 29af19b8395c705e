#!/usr/bin/env python3
"""Error rates of the equimeasurability check across seeds (not gated).

    python3 bench/seed_sweep.py

Runs ``equimeasure_check`` at 10^5 samples for seeds 0-59 on the true
counterexample operator (k=3, m=2) and on its wrong-weight-exponent mutant,
and prints the false-alarm rate (true operator FAILs) and the miss rate
(mutant PASSes), each with its base, plus the seeds involved. Verdicts are
reported as they come; nothing is tuned. Writes
bench/results/BENCH_seed_sweep.json with machine facts. Takes about a minute.
"""

from __future__ import annotations

import json
import os
import sys
import warnings
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SEEDS = range(60)
SAMPLES = 100_000


def main() -> int:
    import run

    for var in run.BLAS_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(run.SRC))
    import pbergman as pb

    family = pb.FunctionFamily.coordinates(4)
    operators = {
        "true": pb.build_counterexample(3, 2),
        "wrong-weight-exponent": pb.build_counterexample(3, 2, mutate="wrong-weight-exponent"),
    }
    rows = {name: [] for name in operators}
    with warnings.catch_warnings():
        # the mutant's target side warns on every seed; the rates below say more
        warnings.simplefilter("ignore", pb.PoleProximityWarning)
        for seed in SEEDS:
            for name, T in operators.items():
                rep = pb.equimeasure_check(T, family, samples=SAMPLES, seed=seed)
                rows[name].append(
                    {"seed": seed, "verdict": rep.verdict, "max_sigma_ratio": rep.max_sigma_ratio,
                     "inconclusive": rep.inconclusive}
                )
    n = len(SEEDS)
    false_alarms = [r["seed"] for r in rows["true"] if r["verdict"] == "FAIL"]
    misses = [r["seed"] for r in rows["wrong-weight-exponent"] if r["verdict"] == "PASS"]
    inconclusive = [r["seed"] for r in rows["true"] if r["inconclusive"]]
    print(f"equimeasure_check, counterexample(k=3, m=2), {SAMPLES} samples, seeds {SEEDS.start}-{SEEDS.stop - 1}")
    print(f"false-alarm rate (true operator FAILs): {len(false_alarms)}/{n}  seeds {false_alarms}")
    print(f"miss rate (wrong-weight-exponent PASSes): {len(misses)}/{n}  seeds {misses}")
    print(f"true operator flagged inconclusive: {len(inconclusive)}/{n}")
    out = {
        "provenance": {**run.provenance(None), "seeds": [SEEDS.start, SEEDS.stop - 1], "samples": SAMPLES},
        "false_alarms": {"count": len(false_alarms), "base": n, "seeds": false_alarms},
        "misses": {"count": len(misses), "base": n, "seeds": misses},
        "inconclusive": {"count": len(inconclusive), "base": n},
        "runs": rows,
    }
    run.RESULTS.mkdir(exist_ok=True)
    (run.RESULTS / "BENCH_seed_sweep.json").write_text(json.dumps(out, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
