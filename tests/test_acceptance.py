"""Top-level verification battery.

One test per headline guarantee: cross-method norm agreement, exactness of
the product-domain isometry, disc kernel values through both estimators, the
dilation law and monotonicity, point-map recovery, pushforward mass
matching, the packaged counterexample report, punctured-disc structure, and
bytewise reproducibility. Wall-clock budgets are asserted so the suite keeps
working as a regression gate.
"""

import json
import math
import time
from statistics import NormalDist

import numpy as np
import pytest

from conftest import assert_rel, members
from pbergman import (
    ConfigError,
    DivergentIntegralError,
    FunctionFamily,
    LaurentPolynomial,
    PNormResult,
    SolverConfig,
    agree_within,
    battery_monomials,
    bergman2_gram,
    build_counterexample,
    closed_norm,
    counterexample_scenario,
    degree_basis,
    degree_family,
    equimeasure_check,
    grid_points,
    mc_norm,
    mobius_operator,
    parse_domain,
    pbergman_min_norm,
    pullback_family,
    punctured_disc_scenario,
    quadrature_norm,
    reconstruct_map,
    verify_isometry,
    verify_modulus_identity,
)
from pbergman.cli import main

P_GRID = (2.0 / 3.0, 1.0, 3.0)
CROSS_ALPHA = 0.01  # family-wise error rate of test_norm_estimators_cross_agree


def admissible_monomials(D, ps, count, seed):
    """Distinct random monomials whose p- and 2p-norms are all finite, so
    every estimator (including the MC variance) is well defined."""
    gen = np.random.default_rng(seed)
    hi = 26 if D.dimension == 1 else 6
    out, seen, attempts = [], set(), 0
    while len(out) < count:
        attempts += 1
        assert attempts < 10_000, "exponent search space exhausted"
        alpha = tuple(int(t) for t in gen.integers(-2, hi, size=D.dimension))
        if alpha in seen:
            continue
        seen.add(alpha)
        phi = LaurentPolynomial.monomial(D.dimension, alpha)
        try:
            for p in ps:
                closed_norm(D, phi, p)
                closed_norm(D, phi, 2.0 * p)
        except DivergentIntegralError:
            continue
        out.append(phi)
    return out


def test_norm_estimators_cross_agree(disc, polydisc2, ball2, hartogs3, fk3):
    # Each Monte Carlo estimate is checked against the closed form and the
    # quadrature: 600 checks of 300 estimates. A per-check two-sided level of
    # CROSS_ALPHA / 600 (Bonferroni) keeps the chance that correct code fails
    # any of them at or below CROSS_ALPHA.
    start = time.monotonic()
    cases = [
        (D, phi, p)
        for i, D in enumerate((disc, polydisc2, ball2, hartogs3, fk3))
        for phi in admissible_monomials(D, P_GRID, 20, seed=101 + i)
        for p in P_GRID
    ]
    n_sigma = NormalDist().inv_cdf(1.0 - CROSS_ALPHA / (2 * 2 * len(cases)))
    box_passes = []
    for D, phi, p in cases:
        c = closed_norm(D, phi, p)
        q = quadrature_norm(D, phi, p)
        m = mc_norm(D, phi, p, samples=1_000_000, rng=0, threads=4)
        assert agree_within(c, q), (D.label, phi.single_term(), p, "quad")
        assert agree_within(c, m, n_sigma), (D.label, phi.single_term(), p, "mc")
        assert agree_within(q, m, n_sigma), (D.label, phi.single_term(), p, "quad/mc")
        # the same draws scaled by the bounding box's volume, not the polydisc's
        k = (D.box_volume / D.polydisc_volume) ** (1.0 / p)
        boxed = PNormResult(k * m.value, p, m.method, k * m.std_error, m.samples_or_nodes)
        if agree_within(c, boxed, n_sigma):
            box_passes.append((D.label, phi.single_term(), p))
    assert not box_passes
    assert time.monotonic() - start < 120.0


def test_product_domain_isometry_is_exact():
    start = time.monotonic()
    T = build_counterexample(3, 2)
    tests = battery_monomials(T, 30, seed=0)
    assert len(tests) == 30
    assert verify_isometry(T, tests, method="closed") <= 1e-9

    # Beta/Gamma evaluation of both sides for the quadratic monomial
    phi = LaurentPolynomial.monomial(4, (2, 0, 0, 0))
    expected = (math.pi**4 / 80.0) ** (1.0 / 3.0)
    assert_rel(closed_norm(T.source, phi, 3.0).value, expected, 1e-12)
    assert_rel(closed_norm(T.target, T.apply(phi), 3.0).value, expected, 1e-12)

    T_bad = build_counterexample(3, 2, mutate="drop-weight")
    bad_tests = battery_monomials(T_bad, 30, seed=0)
    assert verify_isometry(T_bad, bad_tests, method="closed") > 1e-6
    assert time.monotonic() - start < 10.0


def test_disc_kernel_through_both_estimators(disc):
    start = time.monotonic()
    basis = degree_basis(disc, 20, 2.0)
    center, half = 1.0 / math.pi, 16.0 / (9.0 * math.pi)
    assert_rel(bergman2_gram(disc, basis, 0.0).value, center, 0.005)
    assert_rel(bergman2_gram(disc, basis, 0.5).value, half, 0.01)
    assert_rel(pbergman_min_norm(disc, basis, 0.0).value, center, 0.005)
    assert_rel(pbergman_min_norm(disc, basis, 0.5).value, half, 0.01)
    assert time.monotonic() - start < 30.0


def test_disc_kernel_center_at_p_one(disc):
    start = time.monotonic()
    basis = degree_basis(disc, 10, 1.0)
    est = pbergman_min_norm(disc, basis, 0.0)
    assert_rel(est.value, 1.0 / math.pi**2, 0.01)
    assert time.monotonic() - start < 30.0


def test_dilation_law_and_monotonicity(disc):
    big = parse_domain("disc(2)")
    for p, scale in ((1.0, 2.0**-4.0), (2.0, 2.0**-2.0)):
        b1 = degree_basis(disc, 10, p)
        b2 = degree_basis(big, 10, p)
        for z in (0.1, 0.2, 0.35, 0.5, 0.65):
            if p == 2.0:
                v1 = bergman2_gram(disc, b1, z).value
                v2 = bergman2_gram(big, b2, 2.0 * z).value
            else:
                v1 = pbergman_min_norm(disc, b1, z).value
                v2 = pbergman_min_norm(big, b2, 2.0 * z).value
            assert_rel(v2, scale * v1, 0.01)

    pts = members(disc, 50, seed=5)
    small_basis = degree_basis(disc, 6, 2.0)
    large_basis = degree_basis(disc, 10, 2.0)
    slightly_larger = parse_domain("disc(1.25)")
    larger_basis = degree_basis(slightly_larger, 10, 2.0)
    basis_violations = domain_violations = 0
    for z in pts:
        lo = bergman2_gram(disc, small_basis, z[0]).value
        hi = bergman2_gram(disc, large_basis, z[0]).value
        if lo > hi * (1.0 + 1e-12):
            basis_violations += 1
        outer = bergman2_gram(slightly_larger, larger_basis, z[0]).value
        if hi < outer * (1.0 - 1e-12):
            domain_violations += 1
    assert basis_violations == 0
    assert domain_violations == 0


def zero_slice_members(count):
    """Members of the product source whose first coordinate is exactly 0."""
    pts = np.zeros((count, 4), dtype=complex)
    for i in range(count):
        th = 2.0 * math.pi * (i + 1) / (count + 1)
        pts[i, 1] = 0.5 * np.exp(1j * th)
        pts[i, 2] = 0.6 * np.exp(-2j * th)
        pts[i, 3] = 0.05 * np.exp(3j * th)
    return pts


def test_point_map_recovery(disc):
    start = time.monotonic()

    a = 0.3
    T = mobius_operator(a, 1.0)
    grid = grid_points(disc, 10)[:50]
    assert grid.shape[0] == 50
    rec = reconstruct_map(T, degree_family(1, 3), grid)
    assert rec.status_counts() == {"mapped": 50}
    for r in rec.records:
        z = complex(r.z[0])
        truth = (a - z) / (1.0 - a * z)
        assert abs(complex(r.w[0]) - truth) < 1e-6

    T6 = build_counterexample(3, 2)
    F6 = T6.mapping.inverse()
    interior = grid_points(T6.source, 10)
    assert interior.shape == (100, 4)
    slices = zero_slice_members(8)
    assert bool(np.all(T6.source.contains(slices)))
    rec6 = reconstruct_map(
        T6, pullback_family(T6), np.concatenate([interior, slices]), SolverConfig(seed=0, starts=6)
    )
    for r in rec6.records[:100]:
        assert r.status == "mapped"
        truth = np.asarray(F6.evaluate(np.asarray(r.z).reshape(1, -1)))[0]
        assert float(np.max(np.abs(np.asarray(r.w) - truth))) < 1e-4
    excluded = [i for i, r in enumerate(rec6.records) if r.status != "mapped"]
    assert excluded == list(range(100, 108))
    assert all(rec6.records[i].status.startswith("excluded") for i in excluded)
    assert rec6.injectivity_violations == 0

    # |T(phi)(F(z))| |J_F|^{2/p} = |phi(z)| along closed phase paths
    t = np.linspace(0.0, 2.0 * math.pi, 25)[:-1]
    path1 = (0.55 * np.exp(1j * t))[:, None]
    tests1 = [LaurentPolynomial.one(1), LaurentPolynomial.monomial(1, (1,)),
              LaurentPolynomial.monomial(1, (3,))]
    assert verify_modulus_identity(T, T.mapping, path1, tests1) < 1e-8

    base = np.array([0.5, 0.3, 0.6, 0.05], dtype=complex)
    freqs = np.array([1.0, -1.0, 2.0, 0.5])
    path6 = base[None, :] * np.exp(1j * np.outer(t, freqs))
    assert bool(np.all(T6.source.contains(path6)))
    tests6 = [LaurentPolynomial.one(4), LaurentPolynomial.monomial(4, (2, 0, 0, 0)),
              LaurentPolynomial.monomial(4, (0, 0, 1, 1))]
    assert verify_modulus_identity(T6, F6, path6, tests6) < 1e-8

    assert time.monotonic() - start < 180.0


def test_pushforward_masses_match(capsys):
    start = time.monotonic()
    family = FunctionFamily.coordinates(4)
    T = build_counterexample(3, 2)
    rep = equimeasure_check(T, family, samples=1_000_000, seed=0)
    boxes = [r for r in rep.regions if r.label.startswith("box-")]
    assert len(boxes) == 20
    assert rep.passed
    assert all(r.passed for r in rep.regions)

    T_bad = build_counterexample(3, 2, mutate="drop-weight")
    rep_bad = equimeasure_check(T_bad, family, samples=1_000_000, seed=0)
    assert not rep_bad.passed
    assert any(not r.passed for r in rep_bad.regions)
    assert time.monotonic() - start < 180.0


def test_counterexample_report():
    start = time.monotonic()
    rep = counterexample_scenario(k=3, m=2, seed=0, samples=1_000_000)
    assert rep.passed
    by_name = {c.name: c for c in rep.checks}
    assert set(by_name) == {
        "isometry-battery",
        "worked-instance",
        "inverse-jacobian-formula",
        "weight-branch-modulus",
        "null-set-identification",
        "boundary-blowdown",
        "closure-probe-source",
        "closure-probe-target",
        "automorphism-dimensions",
        "equimeasurability",
        "reconstruction",
    }
    expected = (math.pi**4 / 80.0) ** (1.0 / 3.0)
    assert_rel(by_name["worked-instance"].observed["source"], expected, 1e-12)
    assert_rel(by_name["worked-instance"].observed["target"], expected, 1e-12)
    assert by_name["automorphism-dimensions"].observed == "12 vs <= 10"
    assert by_name["boundary-blowdown"].observed < 1e-6

    with pytest.raises(ConfigError):
        build_counterexample(1, 1)
    assert time.monotonic() - start < 300.0


def test_punctured_disc_contrast(punctured):
    start = time.monotonic()
    rep = punctured_disc_scenario(2.0)
    restriction = {c.name: c for c in rep.checks}["restriction-isometry"]
    assert restriction.observed == 0.0
    assert restriction.passed

    inverse = LaurentPolynomial.monomial(1, (-1,))
    assert_rel(closed_norm(punctured, inverse, 1.0).value, 2.0 * math.pi, 1e-12)

    basis = degree_basis(punctured, 6, 1.0, extra_indices=[(-1,)])
    for z in (0.1, 0.05, 0.01):
        bound = abs(z) ** -2 / (2.0 * math.pi) ** 2
        est = pbergman_min_norm(punctured, basis, z)
        assert est.value >= bound * (1.0 - 1e-9)
    assert time.monotonic() - start < 30.0


def test_seeded_runs_are_byte_identical(hartogs3, capsys):
    rep_a = counterexample_scenario(samples=50_000)
    rep_b = counterexample_scenario(samples=50_000)
    dump = lambda rep: json.dumps(rep.to_json_obj(), sort_keys=True)
    assert dump(rep_a).encode() == dump(rep_b).encode()

    phi = LaurentPolynomial.monomial(2, (1, 2))
    ra = mc_norm(hartogs3, phi, 1.0, samples=200_000, rng=0)
    rb = mc_norm(hartogs3, phi, 1.0, samples=200_000, rng=0)
    assert ra == rb
    assert json.dumps(ra.to_json_obj()).encode() == json.dumps(rb.to_json_obj()).encode()

    argv = ["kernel", "--domain", "disc", "--p", "2", "--z", "0.3,0.2", "--degree", "8", "--seed", "1"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first.encode() == second.encode()
