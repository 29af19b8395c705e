"""Command-line interface.

One static tool, `pbergman`, with subcommands for norms, kernel estimates,
isometry verification, equimeasurability, map reconstruction, packaged
scenarios, and report rendering. Exit codes: 0 success / all checks passed,
1 a verification failed, 2 configuration or usage error (single-line
diagnostic on stderr). Output is deterministic for a fixed seed and does not
depend on --threads.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import warnings

import numpy as np

from .errors import ConfigError, DivergentIntegralError, NonInvertibleMapError, PBergmanError
from .functions import LaurentPolynomial, number_from_json
from .geometry import parse_domain
from .integrate import closed_norm, mc_norm, quadrature_norm
from .isometry import Box, equimeasure_check, verify_isometry
from .kernel import OptimizerConfig, degree_basis, pbergman_min_norm
from .reconstruct import SolverConfig, grid_points, reconstruct_map
from .scenarios import (
    MUTATION_SHRUNKEN_DOMAIN,
    OPERATOR_MUTATIONS,
    SCENARIOS,
    family_from_spec,
    mutated,
    operator_from_spec,
    render_summary,
    run_named_scenario,
    tests_from_spec,
)
from ._version import __version__


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # single-line diagnostics, no usage dump
        raise _UsageError(f"{self.prog}: {message}")


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


def _parse_points(text: str, dimension: int) -> np.ndarray:
    """Points as "re,im re,im;re,im re,im": coordinates space-separated,
    points semicolon-separated."""
    pts = []
    for tok in text.split(";"):
        tok = tok.strip()
        if not tok:
            continue
        coords = []
        for pair in tok.split():
            bits = pair.split(",")
            if len(bits) > 2:
                raise ConfigError(f"bad coordinate {pair!r}; expected re,im")
            re_s = bits[0]
            im_s = bits[1] if len(bits) > 1 else "0"
            try:
                coords.append(complex(float(re_s), float(im_s)))
            except ValueError:
                raise ConfigError(f"bad coordinate {pair!r}; expected re,im") from None
        if len(coords) != dimension:
            raise ConfigError(
                f"point {tok!r} has {len(coords)} coordinates, domain has {dimension}"
            )
        pts.append(coords)
    if not pts:
        raise ConfigError("no points given")
    return np.asarray(pts, dtype=complex)


def _read_points_csv(path: str, dimension: int) -> np.ndarray:
    rows = []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row:
                continue
            try:
                vals = [float(v) for v in row]
            except ValueError:
                continue  # header line
            if len(vals) != 2 * dimension:
                raise ConfigError(
                    f"row of {len(vals)} numbers in {path}; expected {2 * dimension} (re,im per coordinate)"
                )
            rows.append([complex(vals[2 * j], vals[2 * j + 1]) for j in range(dimension)])
    if not rows:
        raise ConfigError(f"no points found in {path}")
    return np.asarray(rows, dtype=complex)


def _fmt_point(z: np.ndarray) -> str:
    return " ".join(f"{float(c.real)!r},{float(c.imag)!r}" for c in np.atleast_1d(z))


def _scenario_operator(args):
    """The operator of the scenario file --scenario, mutated by --mutate, and the file's object."""
    with open(args.scenario) as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ConfigError(f"scenario file {args.scenario} must contain a JSON object")
    return mutated(operator_from_spec(obj.get("operator", obj)), args.mutate), obj


# -- subcommands ----------------------------------------------------------------


def _cmd_norm(args) -> int:
    D = parse_domain(args.domain)
    exps = tuple(number_from_json(t, "--exp", integer=True) for t in args.exp.replace(",", " ").split())
    if len(exps) != D.dimension:
        raise ConfigError(f"--exp has {len(exps)} entries, domain has dimension {D.dimension}")
    f = LaurentPolynomial.monomial(D.dimension, exps)
    try:
        if args.method == "closed":
            r = closed_norm(D, f, args.p)
        elif args.method == "quad":
            r = quadrature_norm(D, f, args.p)
        else:
            r = mc_norm(D, f, args.p, samples=args.samples, rng=args.seed, threads=args.threads)
    except DivergentIntegralError as e:
        print(_dumps({"value": None, "std_error": None, "method": args.method, "divergent": str(e)}))
        return 0
    print(_dumps({"value": r.value, "std_error": r.std_error, "method": args.method}))
    return 0


def _cmd_kernel(args) -> int:
    D = parse_domain(args.domain)
    if args.z is None and args.path is None:
        raise ConfigError("give --z or --path")
    pts = _parse_points(args.z, D.dimension) if args.z else _read_points_csv(args.path, D.dimension)
    basis = degree_basis(D, args.degree, args.p)
    cfg = OptimizerConfig(seed=args.seed)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["z", "value", "grad_norm", "iterations"])
    plot_rows = []
    for z in pts:
        est = pbergman_min_norm(D, basis, z, cfg=cfg)
        rep = est.optimizer_report
        writer.writerow(
            [_fmt_point(z), repr(float(est.value)), repr(float(rep["final_gradient_norm"])), rep["iterations"]]
        )
        if args.plot_data:
            flat = [f"{float(c.real)!r} {float(c.imag)!r}" for c in np.atleast_1d(z)]
            plot_rows.append(
                " ".join(flat + [repr(float(est.value)), repr(float(rep["final_gradient_norm"])), str(rep["iterations"])])
            )
    if args.plot_data:
        cols = " ".join(f"re(z{j + 1}) im(z{j + 1})" for j in range(D.dimension))
        with open(args.plot_data, "w") as fh:
            fh.write(f"# {cols} value grad_norm iterations\n")
            fh.write("\n".join(plot_rows) + "\n")
    return 0


def _cmd_verify_isometry(args) -> int:
    T, obj = _scenario_operator(args)
    tests = tests_from_spec(obj.get("tests"), T, seed=args.seed)
    method = obj.get("method", "closed")
    tol = number_from_json(obj.get("tolerance", 1e-9 if method == "closed" else 1e-2), "tolerance")
    try:
        disc = float(verify_isometry(T, tests, method=method, samples=args.samples, seed=args.seed, threads=args.threads))
        battery_ok = disc <= tol
        disc_out = disc
    except DivergentIntegralError as e:
        battery_ok = False
        disc_out = f"divergent: {e}"
    family = family_from_spec(obj.get("family"), T)
    eq = equimeasure_check(T, family, samples=args.samples, seed=args.seed, threads=args.threads)
    verdict = "PASS" if battery_ok and eq.passed else "FAIL"
    print(
        _dumps(
            {
                "max_discrepancy": disc_out,
                "boxes": [r.to_json_obj() for r in eq.regions],
                "verdict": verdict,
            }
        )
    )
    return 0 if verdict == "PASS" else 1


def _cmd_equimeasure(args) -> int:
    T, obj = _scenario_operator(args)
    family = family_from_spec(obj.get("family"), T)
    boxes = None
    if "boxes" in obj:
        boxes = [Box.from_json_obj(b) for b in obj["boxes"]]
    rep = equimeasure_check(
        T, family, boxes=boxes, samples=args.samples, seed=args.seed, threads=args.threads
    )
    print(_dumps(rep.to_json_obj()))
    return 0 if rep.passed else 1


def _cmd_reconstruct_map(args) -> int:
    T, obj = _scenario_operator(args)
    try:
        family = family_from_spec(obj.get("family", {"kind": "pullback"}), T)
    except NonInvertibleMapError as e:  # the pullback family needs T^-1: a mutated weight has none
        print(f"FAIL: operator {T.label} has no inverse: {e}", file=sys.stderr)
        return 1
    grid = grid_points(T.source, args.grid)
    cfg = SolverConfig(tol=args.tol, starts=args.starts, seed=args.seed, threads=args.threads)
    rec = reconstruct_map(T, family, grid, cfg)
    n, m = T.source.dimension, T.target.dimension
    writer = csv.writer(sys.stdout, lineterminator="\n")
    header = (
        [c for j in range(n) for c in (f"z{j + 1}_re", f"z{j + 1}_im")]
        + [c for j in range(m) for c in (f"w{j + 1}_re", f"w{j + 1}_im")]
        + ["residual", "status"]
    )
    writer.writerow(header)
    for r in rec.records:
        row = [repr(float(v)) for c in r.z for v in (c.real, c.imag)]
        if r.w is not None:
            row += [repr(float(v)) for c in r.w for v in (c.real, c.imag)]
        else:
            row += [""] * (2 * m)
        row.append(repr(float(r.residual)) if np.isfinite(r.residual) else "")
        row.append(r.status)
        writer.writerow(row)
    clean = rec.status_counts().get("unresolved-budget", 0) == 0 and rec.injectivity_violations == 0
    return 0 if clean else 1


def _cmd_scenario(args) -> int:
    keys = ("name", "k", "m", "p", "a", "seed", "samples", "threads", "mutate")
    rep = run_named_scenario(**{key: getattr(args, key) for key in keys})
    for line in rep.summary_lines():
        print(line)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(_dumps(rep.to_json_obj()) + "\n")
    return 0 if rep.passed else 1


def _cmd_report(args) -> int:
    with open(args.file) as fh:
        obj = json.load(fh)
    if args.format == "json":
        print(_dumps(obj))
    else:
        for line in render_summary(obj):
            print(line)
    return 0 if obj.get("pass") else 1


# -- parser wiring ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pbergman", description=__doc__)
    parser.add_argument("--version", action="version", version=f"pbergman {__version__}")
    subs = parser.add_subparsers(dest="command", metavar="command")

    def common(sp, samples=1_000_000, threads=1):
        sp.add_argument("--samples", type=int, default=samples)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--threads", type=int, default=threads)

    def scenario_file_command(name, help, func):
        sp = subs.add_parser(name, help=help)
        sp.add_argument("--scenario", required=True)
        sp.add_argument("--mutate", choices=OPERATOR_MUTATIONS)
        sp.set_defaults(func=func)
        return sp

    sp = subs.add_parser("norm", parents=[], help="p-norm of a monomial on a catalog domain")
    sp.add_argument("--domain", required=True)
    sp.add_argument("--exp", required=True, help="integer exponents, comma or space separated")
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--method", choices=("closed", "quad", "mc"), default="closed")
    common(sp)
    sp.set_defaults(func=_cmd_norm)

    sp = subs.add_parser("kernel", help="min-norm kernel estimates along points")
    sp.add_argument("--domain", required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--z", help='points "re,im;re,im" (coordinates space separated)')
    sp.add_argument("--path", help="CSV file of points, 2n floats per row")
    sp.add_argument("--degree", type=int, default=10)
    sp.add_argument("--plot-data", dest="plot_data", help="write a gnuplot-ready table here")
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=_cmd_kernel)

    common(scenario_file_command("verify-isometry", "norm battery plus equimeasurability for an operator", _cmd_verify_isometry))
    common(scenario_file_command("equimeasure", "pushforward-mass comparison only", _cmd_equimeasure))

    sp = scenario_file_command("reconstruct-map", "recover the point map from an operator", _cmd_reconstruct_map)
    sp.add_argument("--grid", type=int, default=5, help="grid nodes per axis direction")
    sp.add_argument("--tol", type=float, default=1e-9)
    sp.add_argument("--starts", type=int, default=8)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--threads", type=int, default=1, help="accepted; no effect (points are solved in lockstep)")

    sp = subs.add_parser("scenario", help="packaged experiments")
    ssubs = sp.add_subparsers(dest="verb", metavar="verb")
    sr = ssubs.add_parser("run", description="A parameter that the scenario does not take is refused.")
    sr.add_argument("name", choices=SCENARIOS, metavar="name", help=" | ".join(SCENARIOS))
    sr.add_argument("--k", type=int)
    sr.add_argument("--m", type=int)
    sr.add_argument("--p", type=float)
    sr.add_argument("--a", help="Moebius parameter")
    sr.add_argument("--mutate", choices=(*OPERATOR_MUTATIONS, MUTATION_SHRUNKEN_DOMAIN))
    sr.add_argument("--out", help="write the JSON report here")
    common(sr, samples=None, threads=None)
    sr.set_defaults(func=_cmd_scenario)

    sp = subs.add_parser("report", help="render a saved report")
    sp.add_argument("file")
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.set_defaults(func=_cmd_report)

    return parser


def _warning_line(message, category, filename, lineno, file=None, line=None):
    print(f"warning: {category.__name__}: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "func", None) is None:
            raise _UsageError("pbergman: a subcommand is required (see --help)")
        # a warning names no source line here: under the console script that
        # line would be the launcher's, not the user's
        with warnings.catch_warnings():
            warnings.showwarning = _warning_line
            return args.func(args)
    except SystemExit as e:  # --help / --version
        return int(e.code or 0)
    except json.JSONDecodeError as e:
        print(f"error: malformed JSON: {e}", file=sys.stderr)
        return 2
    except (_UsageError, OSError, PBergmanError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
