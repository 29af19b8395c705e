import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad

from conftest import assert_rel
from pbergman import (
    ConfigError,
    DivergentIntegralError,
    LaurentPolynomial,
    PNormResult,
    PoleProximityWarning,
    agree_within,
    closed_norm,
    mc_norm,
    mc_norm_batch,
    monomial_norm_closed,
    parse_domain,
    quadrature_norm,
)
from pbergman.integrate import ReinhardtGrid, _quad_integral_general, _quad_integral_monomial, _radial_grid

PRODUCTS = ("product(ball(2),hartogs(3))", "product(fk_ball_prime(3),polydisc(2))")


class TestClosedFormOracles:
    """Frozen values, each derived from the radial reduction by hand and
    cross-checked against adaptive quadrature."""

    def test_disc_identity_p2(self, disc):
        res = monomial_norm_closed(disc, (0,), 2.0)
        assert_rel(res.integral, math.pi, 1e-12)
        assert res.std_error == 0.0
        assert res.method == "closed_form"

    def test_disc_cubed_p_two_thirds(self, disc):
        # integral of |z^3|^(2/3) = 2 pi / 4; norm = (pi/2)^(3/2)
        res = monomial_norm_closed(disc, (3,), 2.0 / 3.0)
        assert_rel(res.value, 1.9687012432153024, 1e-12)

    def test_punctured_disc_laurent_p1(self, punctured):
        res = monomial_norm_closed(punctured, (-1,), 1.0)
        assert_rel(res.value, 2.0 * math.pi, 1e-12)

    def test_ball_p2(self, ball2):
        # pi^2 * 1! 2! / 5! = pi^2 / 60
        res = monomial_norm_closed(ball2, (1, 2), 2.0)
        assert_rel(res.integral, 0.16449340668482262, 1e-12)
        assert_rel(res.integral, math.pi**2 / 60.0, 1e-12)

    def test_polydisc_p2(self, polydisc2):
        # product of 2 pi / (2 a_j + 2)
        res = monomial_norm_closed(polydisc2, (1, 2), 2.0)
        assert_rel(res.integral, (2 * math.pi) ** 2 / (4 * 6), 1e-12)

    def test_hartogs_p2(self, hartogs3):
        res = monomial_norm_closed(hartogs3, (1, 2), 2.0)
        assert_rel(res.integral, 0.29907892124513213, 1e-12)

    def test_hartogs_laurent_p1(self, hartogs3):
        res = monomial_norm_closed(hartogs3, (-1, 1), 1.0)
        assert_rel(res.value, 1.315947253478581, 1e-12)

    def test_fk_p2(self, fk3):
        res = monomial_norm_closed(fk3, (1, 2), 2.0)
        assert_rel(res.integral, 0.0008216453880360773, 1e-12)

    def test_fk_laurent_p1(self, fk3):
        res = monomial_norm_closed(fk3, (-2, 1), 1.0)
        assert_rel(res.value, 0.14130464632949138, 1e-12)

    def test_hartogs_moment_re_derived(self, hartogs3):
        # independent check of the frozen hartogs value by adaptive quadrature
        moment, err = dblquad(lambda r2, r1: r1**3 * r2**5, 0, 1, 0, lambda r1: r1**3)
        assert err < 1e-10
        res = monomial_norm_closed(hartogs3, (1, 2), 2.0)
        assert_rel(res.integral, (2 * math.pi) ** 2 * moment, 1e-9)

    def test_fk_moment_re_derived(self, fk3):
        moment, err = dblquad(
            lambda r2, r1: r1**3 * r2**5,
            0,
            1,
            0,
            lambda r1: r1**3 * math.sqrt(1 - r1**2),
        )
        assert err < 1e-10
        res = monomial_norm_closed(fk3, (1, 2), 2.0)
        assert_rel(res.integral, (2 * math.pi) ** 2 * moment, 1e-9)

    def test_coefficient_scales_norm(self, disc):
        f = LaurentPolynomial.monomial(1, (2,), 3.0 - 4.0j)
        base = monomial_norm_closed(disc, (2,), 1.5)
        assert_rel(closed_norm(disc, f, 1.5).value, 5.0 * base.value, 1e-12)

    @settings(max_examples=25, deadline=None)
    @given(
        a=st.integers(0, 6),
        cre=st.floats(-3, 3),
        cim=st.floats(-3, 3),
        p=st.sampled_from([0.5, 1.0, 2.0, 3.0]),
    )
    def test_homogeneity(self, disc, a, cre, cim, p):
        c = complex(cre, cim)
        f = LaurentPolynomial.monomial(1, (a,), c)
        if c == 0:
            return
        lhs = closed_norm(disc, f, p).value
        rhs = abs(c) * monomial_norm_closed(disc, (a,), p).value
        assert_rel(lhs, rhs, 1e-12)


class TestDivergence:
    def test_closed_form_divergence(self, punctured):
        with pytest.raises(DivergentIntegralError):
            monomial_norm_closed(punctured, (-2,), 1.0)

    def test_quadrature_divergence_guard(self, punctured):
        f = LaurentPolynomial.monomial(1, (-2,), 1.0)
        with pytest.raises(DivergentIntegralError):
            quadrature_norm(punctured, f, 1.0)

    def test_borderline_exponent_diverges(self, disc):
        # t = p * a = -2 exactly: log r divergence
        with pytest.raises(DivergentIntegralError):
            monomial_norm_closed(disc, (-1,), 2.0)


class TestQuadrature:
    # the fk profile carries a sqrt(1 - r^2) factor, so Gauss-Legendre
    # converges only algebraically there; more nodes recover 1e-9
    CASES = [
        ("disc", (1,), 1.0, 48),
        ("ball2", (1, 2), 2.0, 48),
        ("polydisc2", (0, 3), 2.0 / 3.0, 48),
        ("hartogs3", (-1, 1), 1.0, 48),
        ("fk3", (-2, 1), 1.0, 192),
    ]

    @pytest.mark.parametrize("fixture,alpha,p,nodes", CASES)
    def test_matches_closed_form(self, request, fixture, alpha, p, nodes):
        D = request.getfixturevalue(fixture)
        closed = monomial_norm_closed(D, alpha, p)
        f = LaurentPolynomial.monomial(D.dimension, alpha)
        quad = quadrature_norm(D, f, p, radial_nodes=nodes)
        assert_rel(quad.value, closed.value, 1e-9)
        assert agree_within(quad, closed)

    def test_polynomial_integrand(self, disc):
        # |1 + z|^2 integrates to pi + pi/2 on the disc
        f = LaurentPolynomial(1, {(0,): 1.0, (1,): 1.0})
        res = quadrature_norm(disc, f, 2.0)
        assert_rel(res.value, math.sqrt(1.5 * math.pi), 1e-10)

    def test_angular_node_guard(self, disc):
        f = LaurentPolynomial(1, {(0,): 1.0, (3,): 1.0})
        with pytest.raises(ConfigError):
            quadrature_norm(disc, f, 2.0, angular_nodes=5)

    def test_node_validation(self, disc):
        f = LaurentPolynomial.monomial(1, (1,))
        with pytest.raises(ConfigError):
            quadrature_norm(disc, f, 2.0, radial_nodes=2)
        with pytest.raises(ConfigError):
            quadrature_norm(disc, f, 0.0)


def _per_angle_reference(D, f, p, n_r, m_theta):
    """Trapezoid-in-angle quadrature as one f.evaluate per angle combination
    over the flattened radial grid (the formula before the shared grid)."""
    radii, wts = _radial_grid(D.radial_profile, n_r)
    n = radii.shape[1]
    phase = np.exp(2j * math.pi * np.arange(m_theta) / m_theta)
    acc = np.zeros(radii.shape[0])
    for combo in np.ndindex(*([m_theta] * n)):
        acc += np.abs(np.asarray(f.evaluate(radii * phase[list(combo)]))) ** p
    return (2.0 * math.pi / m_theta) ** n * np.dot(np.prod(radii, axis=1) * wts, acc)


class _Opaque:
    """A callable integrand that quadrature cannot see inside."""

    def __init__(self, f):
        self.f = f

    def evaluate(self, z):
        return self.f.evaluate(z)


class TestProductQuadrature:
    """Monomials on the 4-dimensional product domains of the counterexample,
    summed factor by factor."""

    EXPS = {PRODUCTS[0]: (1, 0, 2, 1), PRODUCTS[1]: (1, 2, 0, 1)}

    @pytest.mark.parametrize("p", [0.75, 1.5, 3.0])
    @pytest.mark.parametrize("label", PRODUCTS)
    def test_matches_closed_form(self, label, p):
        D = parse_domain(label)
        f = LaurentPolynomial.monomial(4, self.EXPS[label], 0.5 + 0.5j)
        closed = closed_norm(D, f, p)
        quad = quadrature_norm(D, f, p)
        # the fk factor's sqrt(1 - r^2) edge limits Gauss-Legendre to algebraic convergence
        assert_rel(quad.value, closed.value, 1e-7)
        assert agree_within(quad, closed)
        assert quad.samples_or_nodes == 48**4

    @pytest.mark.parametrize("p", [0.75, 3.0])
    @pytest.mark.parametrize("label", PRODUCTS)
    def test_factored_sum_matches_dense_tensor(self, label, p):
        D = parse_domain(label)
        f = LaurentPolynomial.monomial(4, self.EXPS[label], 0.5 + 0.5j)
        radii, wts = _radial_grid(D.radial_profile, 8)
        assert radii.shape == (8**4, 4)
        t = p * np.asarray(self.EXPS[label], dtype=float)
        dense = abs(0.5 + 0.5j) ** p * (2.0 * math.pi) ** 4 * np.dot(wts, np.prod(radii ** (t + 1.0), axis=1))
        grid = ReinhardtGrid(D.radial_profile, 8)
        assert grid.n_radial == 8**4
        assert_rel(_quad_integral_monomial(grid, f, p), dense, 1e-13)

    def test_product_call_builds_no_tensor(self):
        D = parse_domain(PRODUCTS[0])
        f = LaurentPolynomial.monomial(4, self.EXPS[PRODUCTS[0]])
        tracemalloc.start()
        try:
            res = quadrature_norm(D, f, 1.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.samples_or_nodes == 48**4
        # the 48^4 x 4 tensor of radii alone would take 170 MB
        assert peak < 4_000_000

    def test_non_monomial_refused_before_building(self):
        D = parse_domain(PRODUCTS[0])
        f = LaurentPolynomial(4, {(1, 0, 0, 0): 1.0, (0, 0, 0, 1): 1.0})
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError) as info:
                quadrature_norm(D, f, 2.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        msg = str(info.value)
        assert "\n" not in msg
        assert f"{48**4 * 21**4} nodes exceeds the budget" in msg, msg
        assert peak < 4_000_000


class TestGeneralQuadrature:
    """Non-monomial integrands on the shared grid against the per-angle formula."""

    CASES = [
        ("disc", {(0,): 1.0, (1,): 0.5 - 0.25j, (3,): 0.2j}, 1.5),
        ("ball2", {(0, 0): 1.0, (1, 2): -0.7 + 0.1j, (2, 0): 0.3}, 1.0),
        ("hartogs3", {(-1, 1): 0.4, (0, 0): 1.0, (1, 1): 0.5j}, 3.0),
    ]

    @pytest.mark.parametrize("fixture,terms,p", CASES)
    def test_matches_per_angle_formula(self, request, fixture, terms, p):
        D = request.getfixturevalue(fixture)
        f = LaurentPolynomial(D.dimension, terms)
        m_theta = 21
        reference = _per_angle_reference(D, f, p, 48, m_theta)
        assert_rel(_quad_integral_general(ReinhardtGrid(D.radial_profile, 48, m_theta), f, p), reference, 1e-13)
        res = quadrature_norm(D, f, p)
        assert_rel(res.value, reference ** (1.0 / p), 1e-13)
        assert res.samples_or_nodes == ReinhardtGrid(D.radial_profile, 48).n_radial * m_theta**D.dimension

    @pytest.mark.parametrize("fixture,terms,p", CASES)
    def test_opaque_callable_matches_laurent_path(self, request, fixture, terms, p):
        # ball(2) and hartogs(3) take 16 blocks of radial rows at 21 angles
        D = request.getfixturevalue(fixture)
        f = LaurentPolynomial(D.dimension, terms)
        assert_rel(quadrature_norm(D, _Opaque(f), p).value, quadrature_norm(D, f, p).value, 1e-13)


class TestMonteCarlo:
    def test_matches_closed_form(self, disc):
        f = LaurentPolynomial.monomial(1, (1,))
        closed = closed_norm(disc, f, 2.0)
        mc = mc_norm(disc, f, 2.0, 50_000, 0)
        assert agree_within(closed, mc)
        assert mc.std_error > 0
        assert mc.seed == 0

    def test_matches_closed_form_weighted_domain(self, hartogs3):
        f = LaurentPolynomial.monomial(2, (1, 2))
        closed = closed_norm(hartogs3, f, 2.0)
        mc = mc_norm(hartogs3, f, 2.0, 50_000, 0)
        assert agree_within(closed, mc)

    def test_seed_determinism(self, disc):
        f = LaurentPolynomial.monomial(1, (1,))
        a = mc_norm(disc, f, 2.0, 20_000, 5)
        b = mc_norm(disc, f, 2.0, 20_000, 5)
        assert a.value == b.value
        assert a.std_error == b.std_error

    def test_thread_count_invariance(self, disc):
        f = LaurentPolynomial.monomial(1, (1,))
        a = mc_norm(disc, f, 2.0, 150_000, 5, threads=1)
        b = mc_norm(disc, f, 2.0, 150_000, 5, threads=4)
        assert a.value == b.value
        assert a.std_error == b.std_error

    def test_batch_matches_single(self, disc):
        f = LaurentPolynomial.monomial(1, (1,))
        g = LaurentPolynomial.monomial(1, (2,))
        batch = mc_norm_batch(disc, [(f, 2.0), (g, 1.0)], 20_000, 3)
        assert batch[0].value == mc_norm(disc, f, 2.0, 20_000, 3).value
        assert batch[1].value == mc_norm(disc, g, 1.0, 20_000, 3).value

    def test_generator_rng_rejected(self, disc):
        f = LaurentPolynomial.monomial(1, (1,))
        with pytest.raises(ConfigError):
            mc_norm(disc, f, 2.0, 20_000, np.random.default_rng(0))

    def test_sample_count_validation(self, disc):
        f = LaurentPolynomial.monomial(1, (1,))
        with pytest.raises(ConfigError):
            mc_norm(disc, f, 2.0, 500, 0)

    def test_divergent_variance_warns(self, punctured):
        f = LaurentPolynomial.monomial(1, (-1,), 1.0)
        with pytest.warns(PoleProximityWarning):
            res = mc_norm(punctured, f, 1.0, 20_000, 0)
        assert math.isfinite(res.value)


class TestResultContract:
    def test_closed_form_must_be_exact(self):
        with pytest.raises(ValueError):
            PNormResult(value=1.0, p=2.0, method="closed_form", std_error=0.1, samples_or_nodes=0)

    def test_sampling_must_report_error(self):
        with pytest.raises(ValueError):
            PNormResult(value=1.0, p=2.0, method="monte_carlo", std_error=0.0, samples_or_nodes=10)

    def test_agree_within(self):
        a = PNormResult(value=1.0, p=2.0, method="closed_form", std_error=0.0, samples_or_nodes=0)
        near = PNormResult(value=1.002, p=2.0, method="monte_carlo", std_error=0.001, samples_or_nodes=10)
        far = PNormResult(value=1.2, p=2.0, method="monte_carlo", std_error=0.001, samples_or_nodes=10)
        assert agree_within(a, near)
        assert not agree_within(a, far)

    def test_integral_recovers_power(self, disc):
        res = monomial_norm_closed(disc, (2,), 0.5)
        assert_rel(res.integral, res.value**0.5, 1e-12)

    def test_bad_inputs(self, disc):
        with pytest.raises(ConfigError):
            monomial_norm_closed(disc, (1,), -1.0)
        with pytest.raises(ConfigError):
            monomial_norm_closed(disc, (1, 2), 2.0)
