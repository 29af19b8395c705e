"""Span recorder for the traced benchmark run.

The recorder wraps public functions and methods of the ``pbergman`` modules
from outside: every module attribute that refers to a wrapped function is
replaced, including names bound elsewhere with ``from .x import y``, so no
file of the package changes. Each call records a span (name, start, end,
parent span, run id) in memory; a layer's self time is its span's duration
minus the part of that interval its child spans cover.

Spans opened in a worker thread with no open span of their own take the span
open in the main thread as parent: every thread pool in the package is
started from inside a traced call of the main thread.
"""

from __future__ import annotations

import gzip
import itertools
import sys
import threading
import time
from collections import defaultdict

import numpy as np


def _rows(result) -> int:
    return 1 if np.ndim(result) == 0 else int(np.shape(result)[0])


def _sample_counts(args, kwargs, result):
    return {"accepted": result.acceptance_rate * result.proposals, "proposed": result.proposals}


def _radial_counts(args, kwargs, result):
    return {"points": _rows(result)}


def _mc_counts(args, kwargs, result):
    samples = args[2] if len(args) > 2 else kwargs["samples"]
    return {"samples": int(samples)}


def _quad_counts(args, kwargs, result):
    return {"nodes": result.samples_or_nodes}


def _kernel_counts(args, kwargs, result):
    return {"iterations": result.optimizer_report.get("iterations", 0)}


def _slice_counts(args, kwargs, result):
    # dense nodes x K complex matrix of the quadrature grid, when present
    B = getattr(args[0], "B", None)
    return {"peak_grid_bytes": 16 * int(np.prod(B.shape))} if B is not None else {}


def _equimeasure_counts(args, kwargs, result):
    return {"region_evals": 2 * result.samples * len(result.regions)}


def _reconstruct_counts(args, kwargs, result):
    records = result.records
    excluded = sum(1 for r in records if r.status.startswith("excluded"))
    return {
        "points": len(records),
        "gn_iterations": sum(r.iterations for r in records),
        "mapped": sum(1 for r in records if r.status == "mapped"),
        "not_excluded": len(records) - excluded,
    }


def _evaluate_counts(args, kwargs, result):
    return {"rows": _rows(result)}


# (module, attribute path, span name, count hook)
TARGETS = (
    ("functions", "LaurentPolynomial.evaluate", "functions.evaluate", _evaluate_counts),
    ("functions", "MonomialMap.evaluate", "functions.evaluate", _evaluate_counts),
    ("geometry", "sample", "geometry.sample", _sample_counts),
    ("geometry", "sample_radial_weighted", "geometry.sample_radial_weighted", _radial_counts),
    ("geometry", "boundary_distance", "geometry.boundary_distance", None),
    ("geometry", "interior_closure_probe", "geometry.interior_closure_probe", None),
    ("integrate", "closed_norm", "integrate.closed_norm", None),
    ("integrate", "monomial_norm_closed", "integrate.monomial_norm_closed", None),
    ("integrate", "quadrature_norm", "integrate.quadrature_norm", _quad_counts),
    ("integrate", "mc_norm_batch", "integrate.mc_norm_batch", _mc_counts),
    ("kernel", "pbergman_min_norm", "kernel.pbergman_min_norm", _kernel_counts),
    ("kernel", "_SliceProblem.__init__", "kernel.grid", _slice_counts),
    ("kernel", "bergman2_gram", "kernel.bergman2_gram", None),
    ("isometry", "equimeasure_check", "isometry.equimeasure_check", _equimeasure_counts),
    ("isometry", "Box.__call__", "isometry.Box", None),
    ("isometry", "GaussianBump.__call__", "isometry.smooth_region", None),
    ("isometry", "SigmoidProduct.__call__", "isometry.smooth_region", None),
    ("isometry", "random_boxes", "isometry.random_boxes", None),
    ("isometry", "verify_isometry", "isometry.verify_isometry", None),
    ("reconstruct", "reconstruct_map", "reconstruct.reconstruct_map", _reconstruct_counts),
    ("reconstruct", "verify_modulus_identity", "reconstruct.verify_modulus_identity", None),
    ("scenarios", "counterexample_scenario", "scenarios.scenario", None),
    ("scenarios", "punctured_disc_scenario", "scenarios.scenario", None),
    ("scenarios", "roundtrip_scenario", "scenarios.scenario", None),
    ("scenarios", "run_named_scenario", "scenarios.scenario", None),
    ("scenarios", "build_counterexample", "scenarios.scenario", None),
    ("scenarios", "battery_monomials", "scenarios.battery_monomials", None),
    ("cli", "main", "cli.main", None),
)

# BoundedDomain.contains is counted, not spanned: it runs ~650 times per
# boundary_distance point, and only that count is reported.
COUNTED_IN = {"geometry.boundary_distance": "contains_calls"}


class Recorder:
    """Spans and per-span counts of one traced run, kept in memory."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.pass_id = 0
        self.spans: list[tuple] = []  # (id, name, start, end, parent, pass)
        # (span name, count name) -> total, or the maximum for "peak_" counts
        self.counts: dict = defaultdict(float)
        self.missing: list[str] = []
        self._installed = None
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list = []
        self._main = threading.main_thread()

    def _stack(self) -> list:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name: str, hook):
        recorder = self

        def traced(*args, **kwargs):
            stack = recorder._stack()
            if stack:
                parent = stack[-1][0]
            else:
                main = recorder._main_stack
                parent = main[-1][0] if main else None
            with recorder._lock:
                span_id = next(recorder._ids)
            stack.append((span_id, name))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                recorder.spans.append((span_id, name, start, end, parent, recorder.pass_id))
            if hook is not None:
                for key, value in hook(args, kwargs, result).items():
                    with recorder._lock:
                        if key.startswith("peak_"):
                            recorder.counts[(name, key)] = max(recorder.counts[(name, key)], value)
                        else:
                            recorder.counts[(name, key)] += value
            return result

        traced.__wrapped__ = fn
        return traced

    def count_inside(self, fn):
        recorder = self

        def counted(*args, **kwargs):
            stack = recorder._stack()
            if stack and stack[-1][1] in COUNTED_IN:
                with recorder._lock:
                    recorder.counts[(stack[-1][1], COUNTED_IN[stack[-1][1]])] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _patches(self, package) -> list:
        """(owner, attribute, original, wrapper) for every target; targets the
        package lacks are skipped and listed in ``missing``."""
        modules = [m for n, m in sys.modules.items() if n == package.__name__ or n.startswith(package.__name__ + ".")]
        patches = []
        for mod_name, path, span_name, hook in TARGETS:
            owner = sys.modules.get(f"{package.__name__}.{mod_name}")
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{mod_name}.{path}")
                continue
            wrapped = self.wrap(original, span_name, hook)
            # every binding of the function object: names bound with
            # `from .x import y`, and aliases such as `__call__ = evaluate`
            for holder in [owner] if cls_path else modules:
                patches += [(holder, key, original, wrapped) for key, value in vars(holder).items() if value is original]
        domain_cls = getattr(sys.modules.get(f"{package.__name__}.geometry"), "BoundedDomain", None)
        if domain_cls is None or not hasattr(domain_cls, "contains"):
            self.missing.append("geometry.BoundedDomain.contains")
        else:
            patches.append((domain_cls, "contains", domain_cls.contains, self.count_inside(domain_cls.contains)))
        return patches

    def install(self, package) -> None:
        if self._installed is None:
            self._installed = self._patches(package)
        for holder, key, _, wrapped in self._installed:
            setattr(holder, key, wrapped)

    def uninstall(self) -> None:
        for holder, key, original, _ in self._installed:
            setattr(holder, key, original)

    def write(self, path) -> None:
        """Spans as gzipped CSV: id, name, start, end, parent, run id."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id,name,start,end,parent,run\n")
            fh.writelines(
                f"{i},{name},{start:.9f},{end:.9f},{'' if parent is None else parent},{self.run_id}/pass{k}\n"
                for i, name, start, end, parent, k in self.spans
            )


def self_times(spans) -> dict:
    """Total self time per span name: duration minus the union of the child
    intervals, clipped to the parent interval."""
    children = defaultdict(list)
    for _, _, start, end, parent, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    totals: dict = defaultdict(float)
    for span_id, name, start, end, _, _ in spans:
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(span_id, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        totals[name] += (end - start) - covered
    return totals


def inclusive_times(spans) -> tuple[dict, dict]:
    """Total duration and call count per span name (nested calls of the same
    name are counted once, at the outermost call)."""
    names = {s[0]: s[1] for s in spans}
    parents = {s[0]: s[4] for s in spans}
    total: dict = defaultdict(float)
    calls: dict = defaultdict(int)
    for span_id, name, start, end, parent, _ in spans:
        calls[name] += 1
        up = parent
        nested = False
        while up is not None:
            if names.get(up) == name:
                nested = True
                break
            up = parents.get(up)
        if not nested:
            total[name] += end - start
    return total, calls


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(recorder: Recorder, passes: int) -> dict:
    """Per-layer metrics per traced pass. Layers a workload does not reach
    report 0."""
    own = self_times(recorder.spans)
    incl, calls = inclusive_times(recorder.spans)
    c = recorder.counts
    n = max(passes, 1)
    region_s = incl["isometry.Box"] + incl["isometry.smooth_region"]
    return {
        "functions.evaluate.calls": calls["functions.evaluate"] / n,
        "functions.evaluate.rows": c[("functions.evaluate", "rows")] / n,
        "functions.evaluate.self_s": own["functions.evaluate"] / n,
        "geometry.sample.self_s": own["geometry.sample"] / n,
        "geometry.sample.acceptance": _ratio(c[("geometry.sample", "accepted")], c[("geometry.sample", "proposed")]),
        "geometry.sample_radial_weighted.self_s": own["geometry.sample_radial_weighted"] / n,
        "geometry.sample_radial_weighted.points": c[("geometry.sample_radial_weighted", "points")] / n,
        "geometry.boundary_distance.self_s": own["geometry.boundary_distance"] / n,
        "geometry.boundary_distance.contains_calls": _ratio(
            c[("geometry.boundary_distance", "contains_calls")], calls["geometry.boundary_distance"]
        ),
        "geometry.interior_closure_probe.self_s": own["geometry.interior_closure_probe"] / n,
        "integrate.closed_norm.us_per_call": 1e6 * _ratio(incl["integrate.closed_norm"], calls["integrate.closed_norm"]),
        "integrate.quadrature_norm.self_s": own["integrate.quadrature_norm"] / n,
        "integrate.quadrature_norm.nodes": c[("integrate.quadrature_norm", "nodes")] / n,
        "integrate.mc_norm_batch.self_s": own["integrate.mc_norm_batch"] / n,
        "integrate.mc_norm_batch.ns_per_sample": 1e9
        * _ratio(incl["integrate.mc_norm_batch"], c[("integrate.mc_norm_batch", "samples")]),
        "kernel.pbergman_min_norm.self_s": (own["kernel.pbergman_min_norm"] + own["kernel.grid"]) / n,
        "kernel.iterations": c[("kernel.pbergman_min_norm", "iterations")] / n,
        "kernel.ms_per_iteration": 1e3
        * _ratio(incl["kernel.pbergman_min_norm"], c[("kernel.pbergman_min_norm", "iterations")]),
        "kernel.grid_bytes": c[("kernel.grid", "peak_grid_bytes")],
        "kernel.bergman2_gram.self_s": own["kernel.bergman2_gram"] / n,
        "isometry.equimeasure_check.self_s": own["isometry.equimeasure_check"] / n,
        "isometry.Box.self_s": own["isometry.Box"] / n,
        "isometry.region_evals": c[("isometry.equimeasure_check", "region_evals")] / n,
        "isometry.ns_per_region_eval": 1e9 * _ratio(region_s, c[("isometry.equimeasure_check", "region_evals")]),
        "isometry.random_boxes.self_s": own["isometry.random_boxes"] / n,
        "isometry.verify_isometry.self_s": own["isometry.verify_isometry"] / n,
        "reconstruct.reconstruct_map.self_s": own["reconstruct.reconstruct_map"] / n,
        "reconstruct.gn_iterations": c[("reconstruct.reconstruct_map", "gn_iterations")] / n,
        "reconstruct.ms_per_point": 1e3
        * _ratio(incl["reconstruct.reconstruct_map"], c[("reconstruct.reconstruct_map", "points")]),
        "reconstruct.mapped_frac": _ratio(
            c[("reconstruct.reconstruct_map", "mapped")], c[("reconstruct.reconstruct_map", "not_excluded")]
        ),
        "scenarios.self_s": own["scenarios.scenario"] / n,
        "scenarios.battery_monomials.self_s": own["scenarios.battery_monomials"] / n,
        "cli.main.self_s": own["cli.main"] / n,
    }


def unit_of(metric: str) -> str:
    if metric.endswith("us_per_call"):
        return "us"
    for prefix, unit in (("ns_per_", "ns"), ("ms_per_", "ms")):
        if prefix in metric:
            return unit
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_bytes"):
        return "bytes"
    if metric.endswith(("acceptance", "_frac")):
        return "ratio"
    return "count"
