"""Packaged end-to-end experiments.

Three scenario families: a four-dimensional operator between non-biholomorphic
product domains that is nevertheless a p-norm isometry (the headline
counterexample), the punctured-disc contrast separating p = 2 from p = 1, and
round-trip validations for operators built from known maps. Each produces a
Report of checks whose claims, expected values and tolerances are the rows of
one table, CHECKS.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass, field

import numpy as np

from ._rng import TAG_BATTERY, TAG_PROBE, as_seed, substream
from ._version import __version__
from .errors import ConfigError, DivergentIntegralError, PBergmanError
from .functions import (
    REQUIRED,
    LaurentPolynomial,
    LinearMap,
    MonomialMap,
    as_p,
    complex_from_json,
    fd_jacobian_det,
    fields_json,
    number_from_json,
    read_params,
)
from .geometry import (
    boundary_distance,
    interior_closure_probe,
    make_catalog_domain,
    parse_domain,
    sample,
)
from .integrate import closed_norm, monomial_norm_closed
from .isometry import (
    CompositionIsometry,
    FunctionFamily,
    equimeasure_check,
    identity_operator,
    mobius_operator,
    verify_isometry,
)
from .kernel import BasisSpec, OptimizerConfig, pbergman_min_norm
from .reconstruct import (
    STATUS_EXCLUDED_ZERO,
    STATUS_MAPPED,
    SolverConfig,
    degree_family,
    pullback_family,
    reconstruct_map,
)

# -- report plumbing ----------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    name: str
    claim: str
    expected: object
    observed: object
    tolerance: object
    verdict: str

    @property
    def passed(self) -> bool:
        return self.verdict == "PASS"

    to_json_obj = fields_json


@dataclass(frozen=True)
class Report:
    label: str
    checks: tuple
    metadata: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_obj(self) -> dict:
        return fields_json(self) | {"pass": self.passed}

    def summary_lines(self) -> list[str]:
        """The text of the report as saved, with sorted keys."""
        return render_summary(json.loads(json.dumps(self.to_json_obj(), sort_keys=True)))


def render_summary(obj: dict) -> list[str]:
    """Text lines of a report given as its JSON object, fresh from
    ``Report.to_json_obj`` or loaded from a saved file."""
    out = [f"report: {obj.get('label', '?')}"]
    for c in obj.get("checks", []):
        out.append(
            f"  [{c.get('verdict', '?')}] {c.get('name', '?')}: expected {c.get('expected')}, observed {c.get('observed')}"
        )
    out.append(f"overall: {'PASS' if obj.get('pass') else 'FAIL'}")
    return out


# Every check of the packaged scenarios, in report order: its name and its
# claim, expected value and tolerance as the report states them. Whether a
# check runs, and what it observed, is the scenario function's.
CHECKS = {
    # counterexample
    "isometry-battery": (
        "closed-form p-norms agree on both sides for 30 random admissible monomials",
        "max relative discrepancy < 1e-09", 1e-9),
    "worked-instance": (
        "the square of the first coordinate has cube-norm (pi^4/80)^(1/3) on both sides",
        (math.pi**4 / 80.0) ** (1.0 / 3.0), 1e-12),
    "inverse-jacobian-formula": (
        "the closed-form Jacobian of the inverse map matches finite differences", "relative error < 1e-06", 1e-6),
    "weight-branch-modulus": (
        "the Laurent branch of J_G^(2/p) has modulus |J_G|^(2/p) pointwise", "relative error < 1e-12", 1e-12),
    "null-set-identification": (
        "the image of 1 vanishes exactly on {w3=0}; the inverse image of 1 vanishes exactly on {z1=0}",
        {"target_zero_axes": [2], "source_zero_axes": [0]}, "exact"),
    "boundary-blowdown": (
        "images of the excluded slice {z1=0} land on the boundary of the target domain",
        "distance < 1e-06 for 20 witnesses", 1e-6),
    "closure-probe-source": (
        "no closure-interior point outside the source domain at the probe resolution",
        "no violation", "resolution 0.5"),
    "closure-probe-target": (
        "no closure-interior point outside the target domain at the probe resolution",
        "no violation", "resolution 0.5"),
    "automorphism-dimensions": (
        "the source factors' automorphism dimensions total 12 while the target's are bounded by 10, "
        "so the domains are not biholomorphic", "12 vs <= 10", "exact integers"),
    "equimeasurability": (
        "pushforward masses of the ratio maps agree on both sides for random boxes and smooth tests",
        "all regions within 3 combined sigma", "3 sigma"),
    "reconstruction": (
        "the point map recovered from the operator matches the explicit formula, and exactly "
        "the {z1=0} grid points are excluded", "map error < 1e-04; 8 excluded points", 1e-4),
    # punctured disc, p = 2
    "restriction-isometry": (
        "monomial 2-norms on the full disc equal those on the punctured disc exactly", 0.0, 0.0),
    "puncture-closure-witness": (
        "the closure probe finds an interior-of-closure point outside the domain (the puncture)",
        "violation at the origin", "resolution 0.25"),
    # punctured disc, p = 1
    "laurent-norm": ("the 1-norm of 1/z on the punctured disc is exactly 2 pi", 2.0 * math.pi, 1e-12),
    "kernel-lower-bounds": (
        "min-norm kernel estimates near the puncture dominate the 1/z certificate value",
        "estimate/bound >= 1 at z = 0.1, 0.05, 0.01", 1e-9),
    # round trips
    "reconstruction-residuals": (
        "every grid point maps to a target point with a small ratio-equation residual",
        "all 12 points mapped, residual < 1e-12", 1e-12),
    "ratio-constancy": (
        "the transported values divided by the original values form one constant across tests and points",
        "relative spread < 1e-08", 1e-8),
    "unimodular-constant": ("that constant has modulus 1", 1.0, 1e-10),
}


def _check(name: str, observed, ok: bool) -> CheckResult:
    """The result of check `name` of CHECKS, with its own copy of the expected
    value; numpy scalars observed become Python numbers."""
    claim, expected, tolerance = CHECKS[name]
    if isinstance(observed, (np.floating, np.integer)):
        observed = observed.item()
    return CheckResult(name, claim, copy.deepcopy(expected), observed, tolerance, "PASS" if ok else "FAIL")


# -- the counterexample operator and the operator mutations --------------------

MUTATION_DROP_WEIGHT = "drop-weight"
MUTATION_WRONG_EXPONENT = "wrong-weight-exponent"
MUTATION_SHRUNKEN_DOMAIN = "shrunken-domain"
OPERATOR_MUTATIONS = (MUTATION_DROP_WEIGHT, MUTATION_WRONG_EXPONENT)


def build_counterexample(
    k: int = 3, m: int = 2, lam: complex = 1.0, mutate: str | None = None
) -> CompositionIsometry:
    """Isometry between D1 = ball(2) x hartogs(k) and D2 = fk_ball_prime(k) x
    polydisc(2) at p = 2k/m, with map G(w) = (w1, w1^-k w2, w3, w3^k w4) and
    weight (w1^-1 w3)^m. Requires p not an even integer, i.e. m does not
    divide k. A mutation breaks the weight as `mutated` does.
    """
    k, m = int(k), int(m)
    if k < 1 or m < 1:
        raise ConfigError(f"k and m must be positive integers, got k={k}, m={m}")
    if k % m == 0:
        raise ConfigError(
            f"p = 2*{k}/{m} = {2 * k // m} is an even integer; the construction needs 2k/m not even"
        )
    T = CompositionIsometry(
        source=make_catalog_domain(("product", ("ball", 2), ("hartogs", k))),
        target=make_catalog_domain(("product", ("fk_ball_prime", k), ("polydisc", 2, (1.0, 1.0)))),
        mapping=MonomialMap(((1, 0, 0, 0), (-k, 1, 0, 0), (0, 0, 1, 0), (0, 0, k, 1))),
        weight=LaurentPolynomial.monomial(4, (-m, 0, m, 0)),
        p=2.0 * k / m,
        lam=lam,
        label=f"counterexample(k={k},m={m})",
    )
    return mutated(T, mutate)


def mutated(T: CompositionIsometry, name: str | None) -> CompositionIsometry:
    """T with its weight deliberately broken, unvalidated, labelled "T.label[name]"
    (T itself for no name). drop-weight replaces the weight by 1;
    wrong-weight-exponent moves each nonzero exponent of a Laurent-monomial
    weight one step away from 0. One that would not change the weight is refused.
    """
    if name is None:
        return T
    weight = T.weight
    if name == MUTATION_DROP_WEIGHT:
        weight = LaurentPolynomial.one(T.target.dimension)
        if weight == T.weight:
            raise ConfigError(f"mutation {name!r} leaves {T.label} unchanged: its weight is already 1")
    elif name == MUTATION_WRONG_EXPONENT:
        if not (isinstance(weight, LaurentPolynomial) and weight.is_monomial):
            raise ConfigError(f"mutation {name!r} needs a Laurent-monomial weight; {T.label} has {weight!r}")
        exp, coeff = weight.single_term()
        if not any(exp):
            raise ConfigError(f"mutation {name!r} leaves {T.label} unchanged: its weight is constant")
        weight = LaurentPolynomial.monomial(weight.dimension, tuple(e + (e > 0) - (e < 0) for e in exp), coeff)
    else:
        raise ConfigError(f"unknown mutation {name!r}")
    return CompositionIsometry(T.source, T.target, T.mapping, weight, T.p, T.lam, f"{T.label}[{name}]", validate=False)


def battery_monomials(T: CompositionIsometry, count: int = 30, seed: int = 0) -> list[LaurentPolynomial]:
    """Random Laurent monomials admissible on both sides of T (finite closed
    norms), drawn from a fixed exponent range; deterministic per seed."""
    n = T.source.dimension
    lows = [0] * n
    highs = [4] * n
    if n == 4:
        lows, highs = [0, 0, -2, 0], [4, 4, 4, 3]
    capacity = math.prod(hi - lo + 1 for lo, hi in zip(lows, highs))
    count = min(count, capacity)
    out: list[LaurentPolynomial] = []
    seen: set[tuple] = set()
    attempts = 0
    while len(out) < count:
        if attempts >= 200 * count:
            raise ConfigError("could not find enough admissible monomials in range")
        g = substream(seed, TAG_BATTERY, attempts)
        attempts += 1
        alpha = tuple(int(g.integers(lo, hi + 1)) for lo, hi in zip(lows, highs))
        if alpha in seen:
            continue
        phi = LaurentPolynomial.monomial(n, alpha)
        try:
            closed_norm(T.source, phi, T.p)
            image = T.apply(phi)
            closed_norm(T.target, image, T.p)
        except DivergentIntegralError:
            continue
        seen.add(alpha)
        out.append(phi)
    return out


def _blowdown_points(k: int, seed: int, count: int) -> np.ndarray:
    """Source points with first coordinate exactly zero (members of D1)."""
    pts = np.empty((count, 4), dtype=complex)
    for i in range(count):
        g = substream(seed, TAG_PROBE, "blowdown", i)
        u = g.random(3)
        th = g.random(3) * 2.0 * np.pi
        z2 = 0.9 * math.sqrt(u[0]) * np.exp(1j * th[0])
        r3 = 0.3 + 0.6 * u[1]
        z3 = r3 * np.exp(1j * th[1])
        z4 = 0.9 * r3**k * math.sqrt(u[2]) * np.exp(1j * th[2])
        pts[i] = (0.0, z2, z3, z4)
    return pts


def counterexample_scenario(
    k: int = 3,
    m: int = 2,
    seed: int = 0,
    samples: int = 1_000_000,
    threads: int = 1,
    mutate: str | None = None,
) -> Report:
    """Full validation battery for the counterexample operator."""
    seed = as_seed(seed)
    T = build_counterexample(k, m, mutate=mutate)
    p, D1, D2, G = T.p, T.source, T.target, T.mapping
    F = G.inverse()
    checks = []

    # (a) closed-form isometry battery
    tests = battery_monomials(T, 30, seed)
    try:
        disc = verify_isometry(T, tests, method="closed")
        observed, ok = float(disc), disc < 1e-9
    except DivergentIntegralError as e:
        observed, ok = f"divergent image norm: {e}", False
    checks.append(_check("isometry-battery", observed, ok))

    if (k, m) == (3, 2):
        phi = LaurentPolynomial.monomial(4, (2, 0, 0, 0))
        want = CHECKS["worked-instance"][1]
        lhs = closed_norm(D1, phi, p).value
        try:
            rhs = closed_norm(D2, T.apply(phi), p).value
        except DivergentIntegralError:
            rhs = math.nan
        ok = abs(lhs - want) < 1e-12 * want and abs(rhs - want) < 1e-12 * want
        checks.append(_check("worked-instance", {"source": float(lhs), "target": float(rhs)}, ok))

    # (b) inverse-map Jacobian formula vs finite differences
    probe_pool = sample(D1, substream(seed, TAG_PROBE, "jacobian"), 64).points
    good = (np.abs(probe_pool[:, 0]) > 0.1) & (np.abs(probe_pool[:, 2]) > 0.2)
    probes = probe_pool[good][:8]
    exact = np.asarray(F.jacobian_det(probes))
    fd = fd_jacobian_det(F, probes)
    jac_rel = float(np.max(np.abs(fd - exact) / np.abs(exact)))
    checks.append(_check("inverse-jacobian-formula", jac_rel, jac_rel < 1e-6))

    # (c) weight branch modulus consistency
    branch = G.weight_branch(p)
    wpts = sample(D2, substream(seed, TAG_PROBE, "branch"), 32).points
    lhs_b = np.abs(np.asarray(branch(wpts)))
    rhs_b = np.abs(np.asarray(G.jacobian_det(wpts))) ** (2.0 / p)
    branch_rel = float(np.max(np.abs(lhs_b - rhs_b) / rhs_b))
    checks.append(_check("weight-branch-modulus", branch_rel, branch_rel < 1e-12))

    # (d) null-set identification from the operator itself
    forward_lead = T.apply(LaurentPolynomial.one(4))
    fwd_axes = forward_lead.positive_axes() if isinstance(forward_lead, LaurentPolynomial) else ()
    try:
        inv_lead = T.inverse().apply(LaurentPolynomial.one(4))
        inv_axes = inv_lead.positive_axes() if isinstance(inv_lead, LaurentPolynomial) else ()
        observed_d = {"target_zero_axes": list(fwd_axes), "source_zero_axes": list(inv_axes)}
        ok_d = fwd_axes == (2,) and inv_axes == (0,)
    except PBergmanError as e:
        observed_d, ok_d = f"inverse failed: {e}", False
    checks.append(_check("null-set-identification", observed_d, ok_d))

    # (e) boundary blow-down witnesses
    zed = _blowdown_points(k, seed, 20)
    images = np.asarray(F.evaluate(zed))
    max_dist = float(np.max([boundary_distance(D2, wrow) for wrow in images]))
    checks.append(_check("boundary-blowdown", max_dist, max_dist < 1e-6))

    # (f) interior-closure probes (both domains equal the interior of their closure)
    for name, D in (("closure-probe-source", D1), ("closure-probe-target", D2)):
        probe = interior_closure_probe(D, resolution=0.5)
        checks.append(_check(name, probe.verdict, not probe.violation_found))

    # (g) automorphism dimensions 8 + 1 + 3 against at most 4 + 3 + 3, by citation
    checks.append(_check("automorphism-dimensions", "12 vs <= 10", True))

    # (h) equimeasurability of the transported ratio distributions
    eq = equimeasure_check(T, FunctionFamily.coordinates(4), samples=samples, seed=seed, threads=threads)
    observed_h = {"verdict": eq.verdict, "max_sigma_ratio": round(eq.max_sigma_ratio, 3)}
    checks.append(_check("equimeasurability", observed_h, eq.passed))

    # (i) reconstruction of the point map, with exclusion detection
    try:
        fam_rec = pullback_family(T)
        interior = sample(D1, substream(seed, TAG_PROBE, "grid"), 100).points
        excluded_pts = _blowdown_points(k, seed + 1, 8)
        grid = np.concatenate([interior, excluded_pts], axis=0)
        rec = reconstruct_map(T, fam_rec, grid, SolverConfig(seed=seed, starts=6, threads=threads))
        mapped_err = 0.0
        for r in rec.records[:100]:
            if r.status != STATUS_MAPPED:
                mapped_err = math.inf
                break
            truth = np.asarray(F.evaluate(np.asarray(r.z).reshape(1, -1)))[0]
            mapped_err = max(mapped_err, float(np.max(np.abs(np.asarray(r.w) - truth))))
        excluded_idx = [i for i, r in enumerate(rec.records) if r.status == STATUS_EXCLUDED_ZERO]
        ok_i = mapped_err < 1e-4 and excluded_idx == list(range(100, 108)) and rec.injectivity_violations == 0
        observed_i = {
            "max_map_error": mapped_err if math.isfinite(mapped_err) else "unmapped interior point",
            "excluded_detected": len(excluded_idx),
            "status_counts": rec.status_counts(),
        }
    except PBergmanError as e:
        observed_i, ok_i = f"reconstruction failed: {e}", False
    checks.append(_check("reconstruction", observed_i, ok_i))

    return Report(
        label=T.label,
        checks=tuple(checks),
        metadata={
            "seed": seed,
            "samples": int(samples),
            "k": k,
            "m": m,
            "p": p,
            "mutation": mutate or "none",
            "version": __version__,
        },
    )


# -- punctured disc ------------------------------------------------------------


def punctured_disc_scenario(p: float, seed: int = 0, mutate: str | None = None) -> Report:
    """Contrast of the punctured unit disc against the full disc.

    p = 2: the restriction map is a norm isometry on monomials (the puncture
    is Lebesgue-null), so the punctured disc admits a strictly larger domain
    with the same A^2 data; the closure probe exhibits the puncture.
    p = 1: z^{-1} is integrable (norm 2 pi) yet extends to no function on the
    full disc, and min-norm kernel estimates blow up at least like
    |z|^-2/(2 pi)^2 toward the puncture.
    """
    seed = as_seed(seed)
    if as_p(p) not in (1, 2):
        raise ConfigError(f"packaged punctured-disc checks support p in {{1, 2}}, got {p}")
    if mutate not in (None, MUTATION_SHRUNKEN_DOMAIN):
        raise ConfigError(f"unknown mutation {mutate!r}")
    disc = make_catalog_domain(("disc", 0.9 if mutate == MUTATION_SHRUNKEN_DOMAIN else 1.0))
    punct = make_catalog_domain(("punctured_disc", 1.0))
    checks = []

    if p == 2:
        worst = 0.0
        for a in range(7):
            full = monomial_norm_closed(disc, (a,), 2.0).value
            slit = monomial_norm_closed(punct, (a,), 2.0).value
            worst = max(worst, abs(full - slit) / slit)
        checks.append(_check("restriction-isometry", float(worst), worst == 0.0))
        probe = interior_closure_probe(punct, resolution=0.25)
        checks.append(_check("puncture-closure-witness", probe.verdict, probe.violation_found))
    else:
        n1 = closed_norm(punct, LaurentPolynomial.monomial(1, (-1,)), 1.0).value
        checks.append(_check("laurent-norm", float(n1), abs(n1 - 2.0 * math.pi) < 1e-12))
        basis = BasisSpec.validated(punct, [(-1,), (0,), (1,), (2,), (3,)], 1.0)
        margins = {}
        ok = True
        for r in (0.1, 0.05, 0.01):
            est = pbergman_min_norm(punct, basis, (r,), cfg=OptimizerConfig(seed=seed))
            bound = r**-2 / (2.0 * math.pi) ** 2
            margins[f"z={r}"] = float(est.value / bound)
            ok &= est.value >= bound * (1.0 - 1e-9)
        checks.append(_check("kernel-lower-bounds", margins, ok))

    return Report(
        label=f"punctured-disc(p={p:g})" + (f"[{mutate}]" if mutate else ""),
        checks=tuple(checks),
        metadata={"seed": seed, "p": p, "mutation": mutate or "none", "version": __version__},
    )


# -- round trips ----------------------------------------------------------------


def _roundtrip_grid(T: CompositionIsometry, anchor, seed: int, count: int = 12) -> np.ndarray:
    """Member points clustered around a positive-real anchor so that the
    inverse weight branch is evaluated far from any power-function cut."""
    anchor, pts = np.asarray(anchor, dtype=complex), []
    for i in range(1000):
        g = substream(seed, TAG_PROBE, "roundtrip", i)
        z = anchor * (1.0 + 0.12 * (g.random(anchor.size) - 0.5) + 0.12j * (g.random(anchor.size) - 0.5))
        if T.source.contains(z.reshape(1, -1))[0]:
            pts.append(z)
            if len(pts) == count:
                return np.asarray(pts)
    raise ConfigError("could not place the round-trip grid inside the source domain")


# The round trips: per operator kind, the anchor of its grid, the exponents of
# its test monomials (None: a seeded battery of 10 admissible ones) and its
# reconstruction family.
_ROUNDTRIPS = {
    "identity": ((0.25,), [(j,) for j in range(4)], "degree"),
    "mobius": ((0.25,), [(j,) for j in range(4)], "degree"),
    "unitary": ((0.35, 0.25), [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0)], "degree"),
    "counterexample": ((0.3, 0.2, 0.5, 0.05), None, "pullback"),
}


def _transport_ratios(records, branch, tests, images) -> np.ndarray:
    """T(phi)(w) * branch(z) / phi(z) at each mapped pair (z, w) and each test
    phi not vanishing at z, point-major and test-minor. The branch, each test
    and each image are evaluated once on the whole batch, the images only at
    the rows where their test does not vanish."""
    z = np.array([r.z for r in records], dtype=complex)
    w = np.array([r.w for r in records], dtype=complex)
    bz = np.asarray(branch(z), dtype=complex).reshape(-1)
    pz = np.column_stack([np.asarray(phi(z), dtype=complex).reshape(-1) for phi in tests])
    keep = np.abs(pz) >= 1e-12
    tw = np.zeros_like(pz)
    for j, image in enumerate(images):
        live = keep[:, j]
        if live.any():
            tw[live, j] = np.asarray(image(w[live]), dtype=complex).reshape(-1)
    # Python's complex product and quotient keep the reported spread's last
    # bits; numpy's complex product and quotient round differently
    triples = zip(tw[keep].tolist(), bz[np.nonzero(keep)[0]].tolist(), pz[keep].tolist())
    return np.array([t * b / v for t, b, v in triples], dtype=complex)


def roundtrip_scenario(map_spec, p: float | None = None, seed: int = 0, mutate: str | None = None) -> Report:
    """Build an operator from a known map, reconstruct the map from the
    operator alone, and check T(phi)(F(z)) * branch(J_F)(z) = lambda * phi(z)
    pointwise, phase included.

    map_spec: an operator spec of a kind in `_ROUNDTRIPS`, in any form that
    `operator_from_spec` reads, such as "identity", ("mobius", a) or
    ("counterexample", k, m); p, when given, replaces the spec's.
    """
    seed = as_seed(seed)
    kind, params, _ = _read_spec(OPERATORS, map_spec, "operator")
    if kind not in _ROUNDTRIPS:
        raise ConfigError(f"no round trip for operator kind {kind!r}; known: {', '.join(_ROUNDTRIPS)}")
    T = mutated(operator_from_spec({"kind": kind, **params, **({} if p is None else {"p": p})}), mutate)
    anchor, exponents, family = _ROUNDTRIPS[kind]
    if T.source.dimension != len(anchor):
        raise ConfigError(f"the {kind} round trip is packaged in dimension {len(anchor)}, not {T.source.dimension}")
    if exponents is None:
        tests = battery_monomials(T, 10, seed)
    else:
        tests = [LaurentPolynomial.monomial(T.source.dimension, e) for e in exponents]

    checks = []
    grid = _roundtrip_grid(T, anchor, seed)
    # the unimodular check below resolves 1e-10, so the solve must be tighter still
    cfg = SolverConfig(seed=seed, starts=6, tol=1e-13)
    try:
        # a mutant whose weight has no inverse cannot build the pullback family
        rec = reconstruct_map(T, family_from_spec(family, T), grid, cfg)
    except PBergmanError as e:
        all_mapped, observed, ok = False, f"reconstruction failed: {e}", False
    else:
        mapped = sum(1 for r in rec.records if r.status == STATUS_MAPPED)
        max_res = max((r.residual for r in rec.records if r.status == STATUS_MAPPED), default=math.inf)
        all_mapped = mapped == len(rec.records)
        observed, ok = {"mapped": mapped, "max_residual": float(max_res)}, all_mapped and max_res < 10 * cfg.tol
    checks.append(_check("reconstruction-residuals", observed, ok))

    if all_mapped:
        lam = None
        try:
            branch = T.inverse().weight  # single-valued branch of J_F^{2/p}
        except PBergmanError as e:
            spread, observed = math.inf, f"no inverse weight branch: {e}"
        else:
            ratios = _transport_ratios(rec.records, branch, tests, [T.apply(phi) for phi in tests])
            lam = complex(np.mean(ratios))
            spread = float(np.max(np.abs(ratios - lam)) / abs(lam)) if len(ratios) else math.inf
            observed = spread
        checks.append(_check("ratio-constancy", observed, spread < 1e-8))
        if lam is not None:
            checks.append(_check("unimodular-constant", abs(lam), abs(abs(lam) - 1.0) < 1e-10))

    return Report(
        label=f"roundtrip-{kind}" + (f"[{mutate}]" if mutate else ""),
        checks=tuple(checks),
        metadata={"seed": seed, "p": float(T.p), "map": kind, "mutation": mutate or "none", "version": __version__},
    )


# -- specs: operators, families, test batteries and scenario names ---------------


def _integer_rows(rows, name: str, width: int | None = None) -> list[tuple]:
    """Exponent rows of a spec: lists of integers, `width` long if given."""
    if not isinstance(rows, (list, tuple)) or not all(isinstance(row, list) and width in (None, len(row)) for row in rows):
        raise ConfigError(f"{name} must be a list of integer rows{'' if width is None else f' of length {width}'}, got {rows!r}")
    return [tuple(number_from_json(e, name, integer=True) for e in row) for row in rows]


def _term_lists(obj, name: str, dimension: int) -> list[LaurentPolynomial]:
    if not isinstance(obj, list):
        raise ConfigError(f"{name} must be a list of Laurent term lists, got {obj!r}")
    return [LaurentPolynomial.from_json_obj(dimension, terms) for terms in obj]


def _read_spec(table: dict, spec, noun: str) -> tuple[str, dict, str]:
    """Kind, parameters and usage line of a spec read through `table`: a kind
    name, a tuple (kind, values by position) or an object {"kind": ..., name: value}."""
    if isinstance(spec, str):
        spec = (spec,)
    if isinstance(spec, dict):
        kind, given = spec.get("kind"), {key: v for key, v in spec.items() if key != "kind"}
    elif isinstance(spec, tuple) and spec:
        kind, given = spec[0], spec[1:]
    else:
        raise ConfigError(f"a {noun} spec is a kind name or an object with a 'kind' field, got {spec!r}")
    return kind, *read_params(table, kind, given, f"{noun} kind")


# The keys of each packaged operator kind in spec order, with their defaults.
# A tuple such as ("mobius", 0.3) gives them by position, an object such as
# {"kind": "mobius", "a": 0.3} by name.
OPERATORS = {
    "counterexample": {"k": 3, "m": 2, "lambda": 1.0},
    "identity": {"domain": "disc(1)", "p": 2.0, "lambda": 1.0},
    "mobius": {"a": 0.3, "p": 1.0, "lambda": 1.0},
    "unitary": {"p": 2.0, "lambda": 1.0},
    "custom": {"source": REQUIRED, "target": REQUIRED, "exponents": REQUIRED, "coeffs": None, "weight": REQUIRED,
               "p": REQUIRED, "lambda": 1.0, "label": "custom", "validate": True},
}


def operator_from_spec(spec) -> CompositionIsometry:
    """The operator of a spec read through `OPERATORS`: the counterexample;
    the identity on a domain; the Moebius self-map of the disc, or of the
    polydisc when `a` is a list; the rotation of ball(2) by the angle 0.7; or
    a custom monomial map (exponent rows, unimodular coeffs) and Laurent weight."""
    kind, q, usage = _read_spec(OPERATORS, spec, "operator")

    def number(key, integer=False):
        return number_from_json(q[key], f"{usage}: {key}", integer)

    lam = complex_from_json(q["lambda"])
    if kind == "counterexample":
        return build_counterexample(number("k", True), number("m", True), lam=lam)
    if kind == "identity":
        return identity_operator(parse_domain(q["domain"]), number("p"), lam=lam)
    if kind == "mobius":
        a = q["a"]
        a = tuple(map(complex_from_json, a)) if isinstance(a, (list, tuple)) else complex_from_json(a)
        return mobius_operator(a, number("p"), lam=lam)
    if kind == "unitary":
        c, s = math.cos(0.7), math.sin(0.7)
        D = make_catalog_domain(("ball", 2))
        return CompositionIsometry(D, D, LinearMap(((c, -s), (s, c))), LaurentPolynomial.one(2), number("p"), lam, "unitary-rotation")
    source, target = parse_domain(q["source"]), parse_domain(q["target"])
    try:
        coeffs = None if q["coeffs"] is None else tuple(map(complex_from_json, q["coeffs"]))
        mapping = MonomialMap(_integer_rows(q["exponents"], f"{usage}: exponents"), coeffs)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{usage}: map: {e}") from None
    weight = LaurentPolynomial.from_json_obj(target.dimension, q["weight"])
    return CompositionIsometry(source, target, mapping, weight, number("p"), lam, q["label"], bool(q["validate"]))


# The keys of each reconstruction-family kind, read like OPERATORS.
FAMILIES = {
    "coordinates": {},
    "degree": {"max_degree": 3, "lead": None},
    "pullback": {"extra": ()},
    "members": {"members": REQUIRED},
}


def family_from_spec(spec, T: CompositionIsometry) -> FunctionFamily:
    """The family on T's source of a spec read through `FAMILIES` (None: coordinates)."""
    n = T.source.dimension
    kind, q, usage = _read_spec(FAMILIES, "coordinates" if spec is None else spec, "family")
    if kind == "coordinates":
        return FunctionFamily.coordinates(n)
    if kind == "degree":
        lead = None if q["lead"] is None else LaurentPolynomial.from_json_obj(n, q["lead"])
        return degree_family(n, number_from_json(q["max_degree"], f"{usage}: max_degree", integer=True), lead=lead)
    if kind == "pullback":
        return pullback_family(T, extra_monomials=_integer_rows(q["extra"], f"{usage}: extra", n))
    return FunctionFamily(dimension=n, members=tuple(_term_lists(q["members"], f"{usage}: members", n)), label="custom")


def tests_from_spec(obj, T: CompositionIsometry, seed: int = 0) -> list[LaurentPolynomial]:
    if obj is None:
        return battery_monomials(T, 30, seed)
    return _term_lists(obj, "tests", T.source.dimension)


def _roundtrip(kind: str, *keys: str) -> tuple:
    """The SCENARIOS entry of the round trip of an operator kind, taking these keys."""

    def run(seed, mutate, **q):
        return roundtrip_scenario({"kind": kind, **q}, seed=seed, mutate=mutate)

    return {key: OPERATORS[kind][key] for key in keys}, run


# The packaged scenarios by name: the parameters each takes besides seed and
# mutate, with their defaults, and how it runs.
SCENARIOS = {
    "counterexample": ({"k": 3, "m": 2, "samples": 1_000_000, "threads": 1}, lambda **q: counterexample_scenario(**q)),
    "punctured-disc": ({"p": 1.0}, lambda **q: punctured_disc_scenario(**q)),
    "roundtrip-identity": _roundtrip("identity", "p"),
    "roundtrip-mobius": _roundtrip("mobius", "a", "p"),
    "roundtrip-unitary": _roundtrip("unitary", "p"),
    "roundtrip-counterexample": _roundtrip("counterexample", "k", "m"),
}


def run_named_scenario(
    name: str,
    k: int | None = None,
    m: int | None = None,
    p: float | None = None,
    a: complex | str | None = None,
    seed: int = 0,
    samples: int | None = None,
    threads: int | None = None,
    mutate: str | None = None,
) -> Report:
    """Run the scenario `name` of SCENARIOS. A parameter left None takes the
    scenario's default; a given one that the scenario does not take is refused."""
    given = {key: v for key, v in dict(k=k, m=m, p=p, a=a, samples=samples, threads=threads).items() if v is not None}
    params, _ = read_params({key: entry[0] for key, entry in SCENARIOS.items()}, name, given, "scenario")
    return SCENARIOS[name][1](**params, seed=seed, mutate=mutate)
