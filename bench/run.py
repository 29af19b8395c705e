#!/usr/bin/env python3
"""Benchmark of the pbergman package.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout of the repository. The package is imported
from ``src/`` of that checkout. One run:

1. times ``setup_s``: five fresh processes each import ``pbergman`` and build
   the workload's inputs from the seed; the median is reported;
2. builds the inputs once more in this process and runs passes over the
   workload's fixed operation list until the next pass would end after
   ``--seconds`` (at least two passes), checking every operation's output;
   ``wall_s`` takes each operation at its fastest pass;
3. prints one line per metric and, as the last line, a JSON object with
   ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones (tracing off). With
``--trace 1`` untraced and traced passes alternate; the metrics are per-layer
figures per traced pass (see spans.py) and the tracing overhead, traced minus
untraced pass time, is printed. Each run writes ``bench/results/BENCH_<workload>-seed<n>-trace<t>.json``
with machine facts and provenance; a traced run also writes its spans there.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
WORKLOAD_NAMES = ("counterexample", "kernel", "norms", "reconstruct")
# One BLAS thread: counterexample, kernel and reconstruct are single-threaded,
# and the thread pools of norms already use both cores.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
KERNEL_REL_TOL = 1e-9

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
    "mc_rel_se": "ratio",
    "kernel_value_rel": "ratio",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def git_sha() -> str:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_lib = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_lib = "unknown"
    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_lib,
        "blas_threads": int(os.environ[BLAS_VARS[0]]),
        "seed": seed,
    }


def summary(values: list) -> dict:
    values = [float(v) for v in values]
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
    else:
        q1 = med = q3 = values[0]
    return {"median": med, "q1": q1, "q3": q3, "runs": len(values)}


def time_setup(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    start = time.perf_counter()
    # no timeout: with one, subprocess polls in steps of up to 50 ms
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def run_pass(index: int, ops: list, outcomes: list, failures: list, check_failed: type) -> list:
    """One pass over the operation list; returns each operation's wall time.
    An operation that raises counts as failed and the pass goes on."""
    times = []
    for name, op in ops:
        start = time.perf_counter()
        try:
            outcomes.append((index, name, op()))
        except check_failed as exc:
            failures.append((index, name, str(exc)))
        except Exception as exc:
            failures.append((index, name, f"{type(exc).__name__}: {exc}"))
            traceback.print_exc(file=sys.stderr)
        times.append(time.perf_counter() - start)
    return times


def fastest_pass(passes: list) -> float:
    """Each operation at its fastest over the passes, summed. Other tenants of
    the machine only ever add time, and on a shared 2-core box they slow whole
    passes by 10-80 %; the per-operation minimum keeps that out of wall_s."""
    return sum(min(column) for column in zip(*passes))


def quality(outcomes: list, failures: list, reference: dict) -> dict:
    """mc_rel_se and kernel_value_rel; a kernel value below its recorded
    seed-commit value also fails its operation."""
    rel_se = [v for _, _, o in outcomes for v in o.mc_rel_se]
    logs = []
    for index, name, o in outcomes:
        for key, value in o.kernel.items():
            ref = reference["kernel"][key]
            if math.isfinite(value) and value >= ref * (1.0 - KERNEL_REL_TOL):
                logs.append(math.log(value / ref))
            else:
                failures.append((index, name, f"kernel value {value!r} for {key} below the recorded {ref!r}"))
    return {
        "mc_rel_se": statistics.median(rel_se) if rel_se else 1.0,
        "kernel_value_rel": math.exp(statistics.fmean(logs)) if logs else 1.0,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_VARS:
        os.environ[var] = "1"  # before numpy is imported, here and in set-up children
    package = SRC / "pbergman"
    if not (package / "__init__.py").is_file():
        print(f"error: {package} not found; run from the root of a pbergman checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import pbergman

    if Path(pbergman.__file__).resolve().parent != package.resolve():
        print(f"error: imported pbergman from {pbergman.__file__}, not from {package}", file=sys.stderr)
        return 2
    import spans
    import workloads

    RESULTS.mkdir(exist_ok=True)
    workload_cls = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        workload_cls(args.seed, RESULTS)
        return 0

    reference = json.loads((BENCH / "reference.json").read_text())
    setup_times = [time_setup(args) for _ in range(SETUP_REPEATS)]
    wl = workload_cls(args.seed, RESULTS)
    ops = wl.operations()
    outcomes: list = []
    failures: list = []
    run_id = f"{args.workload}-seed{args.seed}"
    start = time.perf_counter()

    def fits(last_pass) -> bool:
        return time.perf_counter() - start + sum(last_pass) <= args.seconds

    untraced = [run_pass(0, ops, outcomes, failures, workloads.CheckFailed)]
    traced: list = []
    recorder = None
    if not args.trace:
        # two passes at least, so no operation's time is its first, warm-up run alone
        while len(untraced) < 2 or fits(untraced[-1]):
            untraced.append(run_pass(len(untraced), ops, outcomes, failures, workloads.CheckFailed))
    else:
        # traced and untraced passes alternate, so both see the same machine
        traced_outcomes: list = []
        recorder = spans.Recorder(run_id)
        while not traced or fits(untraced[-1]):
            if traced:
                untraced.append(run_pass(len(untraced) + len(traced), ops, outcomes, failures, workloads.CheckFailed))
                if not fits(traced[-1]):
                    break
            recorder.pass_id = len(traced)
            recorder.install(pbergman)
            traced.append(run_pass(len(untraced) + len(traced), ops, traced_outcomes, failures, workloads.CheckFailed))
            recorder.uninstall()
        outcomes += traced_outcomes
    attempted = len(ops) * (len(untraced) + len(traced))
    q = quality(outcomes, failures, reference)
    failed = len({(index, name) for index, name, _ in failures})

    if args.trace:
        values = spans.layer_metrics(recorder, len(traced))
        values["cli.output_bytes"] = sum(o.cli_bytes for _, _, o in traced_outcomes) / len(traced)
        values["trace.untraced_wall_s"] = fastest_pass(untraced)
        values["trace.traced_wall_s"] = fastest_pass(traced)
        units = {k: spans.unit_of(k) for k in values}
        values = {k: [v] for k, v in values.items()}
        recorder.write(RESULTS / f"spans-{run_id}.csv.gz")
    else:
        values = {
            "wall_s": [fastest_pass(untraced)],
            "setup_s": setup_times,
            "peak_rss_mb": [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0],
            "ok_frac": [1.0 - failed / attempted],
            "mc_rel_se": [q["mc_rel_se"]],
            "kernel_value_rel": [q["kernel_value_rel"]],
        }
        units = END_TO_END_UNITS
    metrics = {k: {"value": statistics.median(v), "unit": units[k]} for k, v in values.items()}

    record = {
        "provenance": provenance(args.seed),
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        **wl.describe(),
        "pass_wall_s": {
            "untraced": summary([sum(p) for p in untraced]),
            "traced": summary([sum(p) for p in traced]) if traced else None,
        },
        "operation_wall_s": {"untraced": untraced, "traced": traced},
        "setup_s_samples": setup_times,
        "attempted": attempted,
        "failed": failed,
        "failures": [{"pass": i, "operation": n, "error": e} for i, n, e in failures],
        "metrics": {k: {**m, **summary(values[k])} for k, m in metrics.items()},
    }
    if recorder is not None:
        record["untraced_targets"] = recorder.missing
    out = RESULTS / f"BENCH_{run_id}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")

    for index, name, error in failures:
        print(f"FAILED pass {index} {name}: {error}")
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    if args.trace:
        t, u = values["trace.traced_wall_s"][0], values["trace.untraced_wall_s"][0]
        print(f"tracing overhead: {t - u:+.3f} s per pass (traced {t:.3f} s, untraced {u:.3f} s)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
