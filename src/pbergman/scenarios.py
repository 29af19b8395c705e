"""Packaged end-to-end experiments.

Three scenario families: a four-dimensional operator between non-biholomorphic
product domains that is nevertheless a p-norm isometry (the headline
counterexample), the punctured-disc contrast separating p = 2 from p = 1, and
round-trip validations for operators built from known maps. Each produces a
Report whose checks carry explicit expectations and tolerances.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ._rng import TAG_BATTERY, TAG_PROBE, substream
from ._version import __version__
from .errors import ConfigError, DivergentIntegralError, PBergmanError
from .functions import LaurentPolynomial, MonomialMap, complex_from_json, fd_jacobian_det, number_from_json
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

    def to_json_obj(self) -> dict:
        return {
            "name": self.name,
            "claim": self.claim,
            "expected": self.expected,
            "observed": self.observed,
            "tolerance": self.tolerance,
            "verdict": self.verdict,
        }


@dataclass(frozen=True)
class Report:
    label: str
    checks: tuple
    metadata: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_obj(self) -> dict:
        return {
            "label": self.label,
            "checks": [c.to_json_obj() for c in self.checks],
            "pass": self.passed,
            "metadata": dict(self.metadata),
        }

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


def _check(name: str, claim: str, expected, observed, tolerance, ok: bool) -> CheckResult:
    def plain(v):
        if isinstance(v, (np.floating, np.integer)):
            return v.item()
        return v

    return CheckResult(
        name=name,
        claim=claim,
        expected=plain(expected),
        observed=plain(observed),
        tolerance=plain(tolerance),
        verdict="PASS" if ok else "FAIL",
    )


# -- the counterexample operator ----------------------------------------------

MUTATION_DROP_WEIGHT = "drop-weight"
MUTATION_WRONG_EXPONENT = "wrong-weight-exponent"
MUTATION_SHRUNKEN_DOMAIN = "shrunken-domain"


def build_counterexample(
    k: int = 3, m: int = 2, lam: complex = 1.0, mutate: str | None = None
) -> CompositionIsometry:
    """Isometry between D1 = ball(2) x hartogs(k) and D2 = fk_ball_prime(k) x
    polydisc(2) at p = 2k/m, with map G(w) = (w1, w1^-k w2, w3, w3^k w4) and
    weight (w1^-1 w3)^m. Requires p not an even integer, i.e. m does not
    divide k. Mutations deliberately break the weight and skip validation.
    """
    k, m = int(k), int(m)
    if k < 1 or m < 1:
        raise ConfigError(f"k and m must be positive integers, got k={k}, m={m}")
    if k % m == 0:
        raise ConfigError(
            f"p = 2*{k}/{m} = {2 * k // m} is an even integer; the construction needs 2k/m not even"
        )
    p = 2.0 * k / m
    D1 = make_catalog_domain(("product", ("ball", 2), ("hartogs", k)))
    D2 = make_catalog_domain(("product", ("fk_ball_prime", k), ("polydisc", 2, (1.0, 1.0))))
    G = MonomialMap(((1, 0, 0, 0), (-k, 1, 0, 0), (0, 0, 1, 0), (0, 0, k, 1)))
    if mutate is None:
        weight = LaurentPolynomial.monomial(4, (-m, 0, m, 0))
    elif mutate == MUTATION_DROP_WEIGHT:
        weight = LaurentPolynomial.one(4)
    elif mutate == MUTATION_WRONG_EXPONENT:
        weight = LaurentPolynomial.monomial(4, (-(m + 1), 0, m + 1, 0))
    else:
        raise ConfigError(f"unknown mutation {mutate!r}")
    label = f"counterexample(k={k},m={m})" + (f"[{mutate}]" if mutate else "")
    return CompositionIsometry(
        source=D1,
        target=D2,
        mapping=G,
        weight=weight,
        p=p,
        lam=lam,
        label=label,
        validate=mutate is None,
    )


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
        g = substream(int(seed), TAG_BATTERY, attempts)
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
        g = substream(int(seed), TAG_PROBE, "blowdown", i)
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
    T = build_counterexample(k, m, mutate=mutate)
    p = T.p
    D1, D2 = T.source, T.target
    G = T.mapping
    F = G.inverse()
    checks = []

    # (a) closed-form isometry battery
    tests = battery_monomials(T, 30, seed)
    try:
        disc = verify_isometry(T, tests, method="closed")
        observed, ok = float(disc), disc < 1e-9
    except DivergentIntegralError as e:
        observed, ok = f"divergent image norm: {e}", False
    checks.append(
        _check(
            "isometry-battery",
            "closed-form p-norms agree on both sides for 30 random admissible monomials",
            "max relative discrepancy < 1e-09",
            observed,
            1e-9,
            ok,
        )
    )

    if (k, m) == (3, 2):
        phi = LaurentPolynomial.monomial(4, (2, 0, 0, 0))
        want = (math.pi**4 / 80.0) ** (1.0 / 3.0)
        lhs = closed_norm(D1, phi, p).value
        try:
            rhs = closed_norm(D2, T.apply(phi), p).value
        except DivergentIntegralError:
            rhs = math.nan
        ok = abs(lhs - want) < 1e-12 * want and abs(rhs - want) < 1e-12 * want
        checks.append(
            _check(
                "worked-instance",
                "the square of the first coordinate has cube-norm (pi^4/80)^(1/3) on both sides",
                want,
                {"source": float(lhs), "target": float(rhs)},
                1e-12,
                ok,
            )
        )

    # (b) inverse-map Jacobian formula vs finite differences
    probe_pool = sample(D1, substream(seed, TAG_PROBE, "jacobian"), 64).points
    good = (np.abs(probe_pool[:, 0]) > 0.1) & (np.abs(probe_pool[:, 2]) > 0.2)
    probes = probe_pool[good][:8]
    exact = np.asarray(F.jacobian_det(probes))
    fd = np.array([fd_jacobian_det(F, z) for z in probes])
    jac_rel = float(np.max(np.abs(fd - exact) / np.abs(exact)))
    checks.append(
        _check(
            "inverse-jacobian-formula",
            "the closed-form Jacobian of the inverse map matches finite differences",
            "relative error < 1e-06",
            jac_rel,
            1e-6,
            jac_rel < 1e-6,
        )
    )

    # (c) weight branch modulus consistency
    branch = G.weight_branch(p)
    wpts = sample(D2, substream(seed, TAG_PROBE, "branch"), 32).points
    lhs_b = np.abs(np.asarray(branch(wpts)))
    rhs_b = np.abs(np.asarray(G.jacobian_det(wpts))) ** (2.0 / p)
    branch_rel = float(np.max(np.abs(lhs_b - rhs_b) / rhs_b))
    checks.append(
        _check(
            "weight-branch-modulus",
            "the Laurent branch of J_G^(2/p) has modulus |J_G|^(2/p) pointwise",
            "relative error < 1e-12",
            branch_rel,
            1e-12,
            branch_rel < 1e-12,
        )
    )

    # (d) null-set identification from the operator itself
    forward_lead = T.apply(LaurentPolynomial.one(4))
    fwd_axes = forward_lead.positive_axes() if isinstance(forward_lead, LaurentPolynomial) else ()
    try:
        inv_lead = T.inverse().apply(LaurentPolynomial.one(4))
        inv_axes = inv_lead.positive_axes() if isinstance(inv_lead, LaurentPolynomial) else ()
        observed_d = {"target_zero_axes": list(fwd_axes), "source_zero_axes": list(inv_axes)}
        ok_d = fwd_axes == (2,) and inv_axes == (0,)
    except PBergmanError as e:
        observed_d = f"inverse failed: {e}"
        ok_d = False
    checks.append(
        _check(
            "null-set-identification",
            "the image of 1 vanishes exactly on {w3=0}; the inverse image of 1 vanishes exactly on {z1=0}",
            {"target_zero_axes": [2], "source_zero_axes": [0]},
            observed_d,
            "exact",
            ok_d,
        )
    )

    # (e) boundary blow-down witnesses
    zed = _blowdown_points(k, seed, 20)
    images = np.asarray(F.evaluate(zed))
    dists = np.array([boundary_distance(D2, wrow) for wrow in images])
    max_dist = float(np.max(dists))
    checks.append(
        _check(
            "boundary-blowdown",
            "images of the excluded slice {z1=0} land on the boundary of the target domain",
            "distance < 1e-06 for 20 witnesses",
            max_dist,
            1e-6,
            max_dist < 1e-6,
        )
    )

    # (f) interior-closure probes (both domains equal the interior of their closure)
    probe1 = interior_closure_probe(D1, resolution=0.5)
    probe2 = interior_closure_probe(D2, resolution=0.5)
    checks.append(
        _check(
            "closure-probe-source",
            "no closure-interior point outside the source domain at the probe resolution",
            "no violation",
            probe1.verdict,
            "resolution 0.5",
            not probe1.violation_found,
        )
    )
    checks.append(
        _check(
            "closure-probe-target",
            "no closure-interior point outside the target domain at the probe resolution",
            "no violation",
            probe2.verdict,
            "resolution 0.5",
            not probe2.violation_found,
        )
    )

    # (g) automorphism dimension arithmetic (static, by citation)
    left = 8 + 1 + 3
    right = 4 + 3 + 3
    checks.append(
        _check(
            "automorphism-dimensions",
            "the source factors' automorphism dimensions total 12 while the target's are bounded by 10, "
            "so the domains are not biholomorphic",
            "12 vs <= 10",
            f"{left} vs <= {right}",
            "exact integers",
            left == 12 and right == 10 and left > right,
        )
    )

    # (h) equimeasurability of the transported ratio distributions
    fam = FunctionFamily.coordinates(4)
    eq = equimeasure_check(T, fam, samples=samples, seed=seed, threads=threads)
    checks.append(
        _check(
            "equimeasurability",
            "pushforward masses of the ratio maps agree on both sides for random boxes and smooth tests",
            "all regions within 3 combined sigma",
            {"verdict": eq.verdict, "max_sigma_ratio": round(eq.max_sigma_ratio, 3)},
            "3 sigma",
            eq.passed,
        )
    )

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
        ok_i = (
            mapped_err < 1e-4
            and excluded_idx == list(range(100, 108))
            and rec.injectivity_violations == 0
        )
        observed_i = {
            "max_map_error": mapped_err if math.isfinite(mapped_err) else "unmapped interior point",
            "excluded_detected": len(excluded_idx),
            "status_counts": rec.status_counts(),
        }
    except PBergmanError as e:
        ok_i = False
        observed_i = f"reconstruction failed: {e}"
    checks.append(
        _check(
            "reconstruction",
            "the point map recovered from the operator matches the explicit formula, and exactly "
            "the {z1=0} grid points are excluded",
            "map error < 1e-04; 8 excluded points",
            observed_i,
            1e-4,
            ok_i,
        )
    )

    return Report(
        label=T.label,
        checks=tuple(checks),
        metadata={
            "seed": int(seed),
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
    if p not in (1, 2):
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
        checks.append(
            _check(
                "restriction-isometry",
                "monomial 2-norms on the full disc equal those on the punctured disc exactly",
                0.0,
                float(worst),
                0.0,
                worst == 0.0,
            )
        )
        probe = interior_closure_probe(punct, resolution=0.25)
        checks.append(
            _check(
                "puncture-closure-witness",
                "the closure probe finds an interior-of-closure point outside the domain (the puncture)",
                "violation at the origin",
                probe.verdict,
                "resolution 0.25",
                probe.violation_found,
            )
        )
    else:
        inv = LaurentPolynomial.monomial(1, (-1,))
        n1 = closed_norm(punct, inv, 1.0).value
        err = abs(n1 - 2.0 * math.pi)
        checks.append(
            _check(
                "laurent-norm",
                "the 1-norm of 1/z on the punctured disc is exactly 2 pi",
                2.0 * math.pi,
                float(n1),
                1e-12,
                err < 1e-12,
            )
        )
        basis = BasisSpec.validated(punct, [(-1,), (0,), (1,), (2,), (3,)], 1.0)
        margins = {}
        ok = True
        for r in (0.1, 0.05, 0.01):
            est = pbergman_min_norm(punct, basis, (r,), cfg=OptimizerConfig(seed=seed))
            bound = r**-2 / (2.0 * math.pi) ** 2
            margins[f"z={r}"] = float(est.value / bound)
            ok &= est.value >= bound * (1.0 - 1e-9)
        checks.append(
            _check(
                "kernel-lower-bounds",
                "min-norm kernel estimates near the puncture dominate the 1/z certificate value",
                "estimate/bound >= 1 at z = 0.1, 0.05, 0.01",
                margins,
                1e-9,
                ok,
            )
        )

    return Report(
        label=f"punctured-disc(p={p:g})" + (f"[{mutate}]" if mutate else ""),
        checks=tuple(checks),
        metadata={"seed": int(seed), "p": p, "mutation": mutate or "none", "version": __version__},
    )


# -- round trips ----------------------------------------------------------------


def _roundtrip_grid(T: CompositionIsometry, seed: int, count: int = 12) -> np.ndarray:
    """Member points clustered around a positive-real anchor so that the
    inverse weight branch is evaluated far from any power-function cut."""
    n = T.source.dimension
    if n == 1:
        anchor = np.array([0.25 + 0.0j])
    elif n == 2:
        anchor = np.array([0.35 + 0.0j, 0.25 + 0.0j])
    else:
        anchor = np.array([0.3, 0.2, 0.5, 0.05], dtype=complex)
    pts = []
    i = 0
    guard = 0
    while len(pts) < count and guard < 1000:
        g = substream(int(seed), TAG_PROBE, "roundtrip", i)
        i += 1
        guard += 1
        z = anchor * (1.0 + 0.12 * (g.random(n) - 0.5) + 0.12j * (g.random(n) - 0.5))
        if T.source.contains(z.reshape(1, -1))[0]:
            pts.append(z)
    if len(pts) < count:
        raise ConfigError("could not place the round-trip grid inside the source domain")
    return np.asarray(pts)


def roundtrip_scenario(map_spec, p: float | None = None, seed: int = 0, mutate: str | None = None) -> Report:
    """Build an operator from a known map, reconstruct the map from the
    operator alone, and check T(phi)(F(z)) * branch(J_F)(z) = lambda * phi(z)
    pointwise, phase included.

    map_spec: "identity" | ("mobius", a) | "unitary" | ("counterexample", k, m).
    """
    if isinstance(map_spec, str):
        map_spec = (map_spec,)
    kind = map_spec[0]
    if kind == "identity":
        p = 2.0 if p is None else float(p)
        T = identity_operator(make_catalog_domain(("disc", 1.0)), p)
        tests = [LaurentPolynomial.monomial(1, (j,)) for j in range(4)]
        family = degree_family(1, 3)
    elif kind == "mobius":
        a = complex(map_spec[1]) if len(map_spec) > 1 else 0.3
        p = 1.0 if p is None else float(p)
        T = mobius_operator(a, p)
        tests = [LaurentPolynomial.monomial(1, (j,)) for j in range(4)]
        family = degree_family(1, 3)
    elif kind == "unitary":
        p = 2.0 if p is None else float(p)
        from .functions import LinearMap

        c, s = math.cos(0.7), math.sin(0.7)
        D = make_catalog_domain(("ball", 2))
        T = CompositionIsometry(
            source=D,
            target=D,
            mapping=LinearMap(((c, -s), (s, c))),
            weight=LaurentPolynomial.one(2),
            p=p,
            label="unitary-rotation",
        )
        tests = [
            LaurentPolynomial.monomial(2, e) for e in ((0, 0), (1, 0), (0, 1), (1, 1), (2, 0))
        ]
        family = degree_family(2, 3)
    elif kind == "counterexample":
        k = int(map_spec[1]) if len(map_spec) > 1 else 3
        m = int(map_spec[2]) if len(map_spec) > 2 else 2
        T = build_counterexample(k, m, mutate=mutate)
        p = T.p
        tests = battery_monomials(T, 10, seed)
        family = pullback_family(T)
    else:
        raise ConfigError(f"unknown round-trip map {kind!r}")
    if mutate is not None and kind != "counterexample":
        if mutate != MUTATION_DROP_WEIGHT:
            raise ConfigError(f"unknown mutation {mutate!r}")
        dropped = LaurentPolynomial.one(T.source.dimension)
        if T.weight == dropped:
            raise ConfigError(
                f"mutation {mutate!r} leaves roundtrip-{kind} unchanged: its weight is already 1"
            )
        T = CompositionIsometry(
            source=T.source,
            target=T.target,
            mapping=T.mapping,
            weight=dropped,
            p=T.p,
            label=T.label + "[drop-weight]",
            validate=False,
        )

    checks = []
    grid = _roundtrip_grid(T, seed)
    # the unimodular check below resolves 1e-10, so the solve must be tighter still
    cfg = SolverConfig(seed=seed, starts=6, tol=1e-13)
    rec = reconstruct_map(T, family, grid, cfg)
    max_res = max((r.residual for r in rec.records if r.status == STATUS_MAPPED), default=math.inf)
    all_mapped = all(r.status == STATUS_MAPPED for r in rec.records)
    checks.append(
        _check(
            "reconstruction-residuals",
            "every grid point maps to a target point with a small ratio-equation residual",
            f"all {grid.shape[0]} points mapped, residual < {10 * cfg.tol:g}",
            {"mapped": sum(1 for r in rec.records if r.status == STATUS_MAPPED), "max_residual": float(max_res)},
            10 * cfg.tol,
            all_mapped and max_res < 10 * cfg.tol,
        )
    )

    if all_mapped:
        lam = None
        try:
            branch = T.inverse().weight  # single-valued branch of J_F^{2/p}
        except PBergmanError as e:
            spread, observed = math.inf, f"no inverse weight branch: {e}"
        else:
            images = [T.apply(phi) for phi in tests]
            ratios = []
            for r in rec.records:
                z = np.asarray(r.z, dtype=complex).reshape(1, -1)
                w = np.asarray(r.w, dtype=complex).reshape(1, -1)
                bz = complex(np.asarray(branch(z))[0])
                for phi, image in zip(tests, images):
                    pz = complex(np.asarray(phi(z))[0])
                    if abs(pz) < 1e-12:
                        continue
                    tw = complex(np.asarray(image(w))[0])
                    ratios.append(tw * bz / pz)
            ratios = np.asarray(ratios)
            lam = complex(np.mean(ratios))
            spread = float(np.max(np.abs(ratios - lam)) / abs(lam)) if len(ratios) else math.inf
            observed = spread
        checks.append(
            _check(
                "ratio-constancy",
                "the transported values divided by the original values form one constant across "
                "tests and points",
                "relative spread < 1e-08",
                observed,
                1e-8,
                spread < 1e-8,
            )
        )
        if lam is not None:
            checks.append(
                _check(
                    "unimodular-constant",
                    "that constant has modulus 1",
                    1.0,
                    abs(lam),
                    1e-10,
                    abs(abs(lam) - 1.0) < 1e-10,
                )
            )

    return Report(
        label=f"roundtrip-{kind}" + (f"[{mutate}]" if mutate else ""),
        checks=tuple(checks),
        metadata={"seed": int(seed), "p": float(T.p), "map": kind, "mutation": mutate or "none", "version": __version__},
    )


# -- CLI scenario plumbing -------------------------------------------------------


def _integer_rows(obj: dict, key: str, width: int | None = None) -> list[tuple]:
    """Exponent rows of a scenario file: lists of integers, `width` long if given."""
    rows = obj.get(key, [])
    if not isinstance(rows, list) or not all(isinstance(row, list) and width in (None, len(row)) for row in rows):
        raise ConfigError(f"{key} must be a list of integer rows{'' if width is None else f' of length {width}'}, got {rows!r}")
    return [tuple(number_from_json(e, key, integer=True) for e in row) for row in rows]


def operator_from_spec(obj: dict) -> CompositionIsometry:
    """Operator described by a JSON object (CLI scenario files)."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ConfigError("operator spec must be an object with a 'kind' field")
    kind = obj["kind"]
    if kind == "counterexample":
        return build_counterexample(
            k=number_from_json(obj.get("k", 3), "k", integer=True),
            m=number_from_json(obj.get("m", 2), "m", integer=True),
            lam=complex_from_json(obj.get("lambda", 1.0)),
            mutate=obj.get("mutate"),
        )
    if kind == "identity":
        D = parse_domain(obj.get("domain", "disc(1)"))
        return identity_operator(D, number_from_json(obj.get("p", 2.0), "p"), lam=complex_from_json(obj.get("lambda", 1.0)))
    if kind == "mobius":
        a = obj.get("a", 0.3)
        params = tuple(complex_from_json(v) for v in a) if isinstance(a, list) else complex_from_json(a)
        return mobius_operator(params, number_from_json(obj.get("p", 1.0), "p"), lam=complex_from_json(obj.get("lambda", 1.0)))
    if kind == "custom":
        for key in ("source", "target", "exponents", "weight", "p"):
            if key not in obj:
                raise ConfigError(f"custom operator spec is missing {key!r}")
        source = parse_domain(obj["source"])
        target = parse_domain(obj["target"])
        try:
            mapping = MonomialMap(
                _integer_rows(obj, "exponents"),
                tuple(complex_from_json(c) for c in obj["coeffs"]) if "coeffs" in obj else None,
            )
        except ValueError as e:
            raise ConfigError(f"custom operator map: {e}") from None
        weight = LaurentPolynomial.from_json_obj(target.dimension, obj["weight"])
        return CompositionIsometry(
            source=source,
            target=target,
            mapping=mapping,
            weight=weight,
            p=number_from_json(obj["p"], "p"),
            lam=complex_from_json(obj.get("lambda", 1.0)),
            label=obj.get("label", "custom"),
            validate=bool(obj.get("validate", True)),
        )
    raise ConfigError(f"unknown operator kind {kind!r}")


def family_from_spec(obj, T: CompositionIsometry) -> FunctionFamily:
    n = T.source.dimension
    if obj is None or isinstance(obj, str):
        obj = {"kind": "coordinates" if obj is None else obj}
    kind = obj.get("kind")
    if kind == "coordinates":
        return FunctionFamily.coordinates(n)
    if kind == "degree":
        lead = None
        if "lead" in obj:
            lead = LaurentPolynomial.from_json_obj(n, obj["lead"])
        return degree_family(n, number_from_json(obj.get("max_degree", 3), "max_degree", integer=True), lead=lead)
    if kind == "pullback":
        return pullback_family(T, extra_monomials=_integer_rows(obj, "extra", n))
    if kind == "members":
        members = tuple(LaurentPolynomial.from_json_obj(n, mo) for mo in obj["members"])
        return FunctionFamily(dimension=n, members=members, label="custom")
    raise ConfigError(f"unknown family kind {obj!r}")


def tests_from_spec(obj, T: CompositionIsometry, seed: int = 0) -> list[LaurentPolynomial]:
    if obj is None:
        return battery_monomials(T, 30, seed)
    return [LaurentPolynomial.from_json_obj(T.source.dimension, mo) for mo in obj]


def run_named_scenario(
    name: str,
    k: int = 3,
    m: int = 2,
    p: float | None = None,
    a: complex = 0.3,
    seed: int = 0,
    samples: int = 1_000_000,
    threads: int = 1,
    mutate: str | None = None,
) -> Report:
    if name == "counterexample":
        return counterexample_scenario(k=k, m=m, seed=seed, samples=samples, threads=threads, mutate=mutate)
    if name == "punctured-disc":
        return punctured_disc_scenario(1.0 if p is None else p, seed=seed, mutate=mutate)
    if name == "roundtrip-identity":
        return roundtrip_scenario("identity", p=p, seed=seed, mutate=mutate)
    if name == "roundtrip-mobius":
        return roundtrip_scenario(("mobius", a), p=p, seed=seed, mutate=mutate)
    if name == "roundtrip-unitary":
        return roundtrip_scenario("unitary", p=p, seed=seed, mutate=mutate)
    if name == "roundtrip-counterexample":
        return roundtrip_scenario(("counterexample", k, m), p=p, seed=seed, mutate=mutate)
    raise ConfigError(
        f"unknown scenario {name!r}; available: counterexample, punctured-disc, "
        "roundtrip-identity, roundtrip-mobius, roundtrip-unitary, roundtrip-counterexample"
    )
