#!/usr/bin/env python3
"""Regenerate the ROADMAP Baseline table from the per-layer timers (not gated).

    python3 bench/baseline_table.py

Each row times library calls through the span recorder of the traced run
(spans.py) and prints the inclusive time of the named layer. Rows whose
measured cost at the seed commit is far over the report's ~2-minute budget
print ``skipped: <reason>`` and are not run. Writes
bench/results/BENCH_baseline.json with machine facts. Single runs: treat the
figures as order-of-magnitude, as the ROADMAP table does.
"""

from __future__ import annotations

import json
import os
import sys
import warnings

NORM_DOMAINS = ("disc", "polydisc(2)", "ball(2)", "hartogs(3)", "fk_ball_prime(3)")
CLOSED_CALLS = 200
SKIPPED = (
    ("pbergman_min_norm ball(2) deg 4 p=3", "about 62-67 s alone at the seed commit, half the report budget"),
    ("pbergman_min_norm ball(2) deg 8 p=1", "about 220 s at the seed commit"),
    ("pbergman_min_norm ball(2) deg 8 p=3", "did not finish in 10 minutes at the seed commit"),
)


def main() -> int:
    import run
    import spans

    for var in run.BLAS_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(run.SRC))
    import numpy as np
    import pbergman as pb

    recorder = spans.Recorder("baseline")
    recorder.install(pb)
    rows = []

    def timed(what: str, layer: str, call, per: float = 1.0, unit: str = "ms"):
        recorder.pass_id = len(rows)
        call()
        total = spans.inclusive_times([s for s in recorder.spans if s[5] == recorder.pass_id])[0][layer]
        scale = {"us": 1e6, "ms": 1e3, "s": 1.0}[unit]
        rows.append({"what": what, "layer": layer, "value": total * scale / per, "unit": unit})
        print(f"| {what} | {rows[-1]['value']:.3g} {unit} |", flush=True)

    print("| what | cost |\n|---|---|")
    for label in NORM_DOMAINS:
        D = pb.parse_domain(label)
        phi = pb.LaurentPolynomial.monomial(D.dimension, (1,) * D.dimension)
        timed(f"closed_norm {label}", "integrate.closed_norm",
              lambda: [pb.closed_norm(D, phi, 1.5) for _ in range(CLOSED_CALLS)], CLOSED_CALLS, "us")
        timed(f"quadrature_norm (monomial) {label}", "integrate.quadrature_norm", lambda: pb.quadrature_norm(D, phi, 1.5))
        for threads in (1, 4):
            timed(f"mc_norm 10^6 {label} threads={threads}", "integrate.mc_norm_batch",
                  lambda: pb.mc_norm(D, phi, 1.5, samples=10**6, rng=0, threads=threads))
    disc = pb.make_catalog_domain("disc")
    for p in (1.0, 2.0, 3.0):
        basis = pb.degree_basis(disc, 20, p)
        timed(f"pbergman_min_norm disc deg 20 p={p:g}", "kernel.pbergman_min_norm",
              lambda: pb.pbergman_min_norm(disc, basis, 0.5), unit="s")
    ball = pb.make_catalog_domain(("ball", 2))
    for degree, p in ((2, 1.0), (2, 3.0), (4, 1.0)):
        basis = pb.degree_basis(ball, degree, p)
        timed(f"pbergman_min_norm ball(2) deg {degree} p={p:g}", "kernel.pbergman_min_norm",
              lambda: pb.pbergman_min_norm(ball, basis, np.array([0.3, 0.4])), unit="s")
    for what, reason in SKIPPED:
        rows.append({"what": what, "skipped": reason})
        print(f"| {what} | skipped: {reason} |")
    T = pb.build_counterexample(3, 2)
    family = pb.pullback_family(T)
    grid = pb.grid_points(T.source, 10)
    for threads in (1, 2):
        cfg = pb.SolverConfig(seed=0, starts=6, threads=threads)
        timed(f"reconstruct_map counterexample 100 points threads={threads}", "reconstruct.reconstruct_map",
              lambda: pb.reconstruct_map(T, family, grid, cfg))

    run.RESULTS.mkdir(exist_ok=True)
    out = {"provenance": run.provenance(0), "rows": rows}
    (run.RESULTS / "BENCH_baseline.json").write_text(json.dumps(out, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sys.exit(main())
