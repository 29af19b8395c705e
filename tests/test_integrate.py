import hashlib
import math
import tracemalloc
import warnings

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
    sample,
)
from pbergman._rng import TAG_MC_NORM, substream
from pbergman.integrate import (
    ReinhardtGrid,
    _delta_result,
    _quad_integral_general,
    _quad_integral_monomial,
    _radial_grid,
    chunked_mean,
)

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

    def test_quadrature_refuses_divergent_laurent_term(self, disc):
        # |1/z|^2 is not integrable at 0, so neither is |1 + 1/z|^2; without a
        # per-term guard the grid returns 7.69 at 48 radial nodes, 8.24 at 96
        f = LaurentPolynomial(1, {(0,): 1.0, (-1,): 1.0})
        with pytest.raises(DivergentIntegralError):
            quadrature_norm(disc, f, 2.0)
        with pytest.raises(DivergentIntegralError):
            quadrature_norm(disc, f, 2.0, radial_nodes=96)
        assert math.isfinite(quadrature_norm(disc, f, 1.0).value)  # |1/z| is integrable


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


def _mc_reference(D, items, samples, seed):
    """(value, std_error) per item with the chunk formulas written out: chunk i
    of 2^16 proposals draws an (n, size) block u from substream (seed,
    TAG_MC_NORM, i), moduli r_j = b_j sqrt(u_j) in polar form over the bounding
    polydisc, members in D; when some item is not a monomial, phases
    theta = 2 pi v from one (n, members) block drawn next; a monomial's |f|^p
    from the moduli alone, |c|^p exp(sum_j p a_j log r_j), anything else at
    z = r e^{i theta}; rows on a pole dropped; sums of y and y^2 added in chunk
    order and scaled by V_P = prod_j pi b_j^2."""
    b = np.asarray(D.bounding_box)
    n_chunks = math.ceil(samples / 65536)
    with_phases = any(not f.is_monomial for f, _ in items)
    sums = [[0.0, 0.0] for _ in items]
    for i in range(n_chunks):
        g = substream(seed, TAG_MC_NORM, i)
        u = g.random((D.dimension, min(65536, samples - 65536 * i)))
        r = b[:, None] * np.sqrt(u)
        r = r[:, D.contains(r.T)]  # moduli as points on the positive real axes
        if with_phases:
            theta = 2.0 * np.pi * g.random(r.shape)
            z = (r * np.cos(theta) + 1j * (r * np.sin(theta))).T
        for acc, (f, p) in zip(sums, items):
            keep = np.ones(r.shape[1], dtype=bool)
            for j in f._negative_axes:
                keep &= r[j] != 0
            if f.is_monomial:
                exp, c = f.single_term()
                s = np.zeros(np.count_nonzero(keep))
                for j, a in enumerate(exp):
                    if a:
                        s = s + (p * a) * np.log(r[j, keep])
                vals = abs(c) ** p * np.exp(s)
            else:
                vals = np.abs(f.evaluate(z[keep])) ** p
            acc[0] += float(vals.sum())
            acc[1] += float((vals * vals).sum())
    n, vol, out = float(samples), math.prod(math.pi * x * x for x in b), []
    for (s1, s2), (_, p) in zip(sums, items):
        mean = s1 / n
        var = max(s2 / n - mean * mean, 0.0) * n / max(n - 1.0, 1.0)
        res = _delta_result(vol * mean, vol * math.sqrt(var / n), p, "monte_carlo", samples)
        out.append((res.value, res.std_error))
    return out


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

    @pytest.mark.parametrize(
        "seed",
        [1.7, 1.0, True, "1", np.float64(1.0), None],
        ids=["fraction", "whole-float", "bool", "string", "numpy-float", "none"],
    )
    def test_non_integral_seed_refused(self, disc, seed):
        f = LaurentPolynomial.monomial(1, (1,))
        with pytest.raises(ConfigError, match="seed must be an integer"):
            mc_norm(disc, f, 2.0, 20_000, seed)
        with pytest.raises(ConfigError, match="seed must be an integer"):
            mc_norm_batch(disc, [(f, 2.0)], 20_000, seed)

    @pytest.mark.parametrize("seed", [np.int64(1), np.uint8(1), np.int32(1)])
    def test_numpy_integer_seed_is_the_int_seed(self, disc, seed):
        f = LaurentPolynomial.monomial(1, (1,))
        a, b = mc_norm(disc, f, 2.0, 20_000, seed), mc_norm(disc, f, 2.0, 20_000, 1)
        assert (a.value, a.std_error, a.seed) == (b.value, b.std_error, b.seed)
        assert type(a.seed) is int

    def test_sample_count_validation(self, disc):
        f = LaurentPolynomial.monomial(1, (1,))
        with pytest.raises(ConfigError):
            mc_norm(disc, f, 2.0, 500, 0)

    @pytest.mark.parametrize("threads", [1, 3])
    def test_disc_matches_chunk_formula(self, disc, threads):
        items = [(LaurentPolynomial.monomial(1, (1,)), 2.0), (LaurentPolynomial(1, {(0,): 1.0, (2,): 0.3j}), 1.5)]
        got = mc_norm_batch(disc, items, 150_001, 11, threads=threads)
        assert [(r.value, r.std_error) for r in got] == _mc_reference(disc, items, 150_001, 11)

    def test_punctured_disc_matches_chunk_formula(self, punctured):
        items = [(LaurentPolynomial.monomial(1, (-1,)), 1.0), (LaurentPolynomial(1, {(-1,): 1.0, (1,): 2.0}), 0.5)]
        with pytest.warns(PoleProximityWarning):
            got = mc_norm_batch(punctured, items, 150_001, 4, threads=2)
        assert [(r.value, r.std_error) for r in got] == _mc_reference(punctured, items, 150_001, 4)

    def test_product_matches_chunk_formula(self):
        D = parse_domain("product(fk_ball_prime(3),polydisc(2;0.5,1.5))")
        items = [(LaurentPolynomial.monomial(4, (-1, 1, 0, 2), 0.5j), 1.5), (_pinned_integrand(D), 0.75)]
        got = mc_norm_batch(D, items, 150_001, 2, threads=2)
        assert [(r.value, r.std_error) for r in got] == _mc_reference(D, items, 150_001, 2)

    # (label, exponent, p), one monomial per catalog kind; every |f|^{4p} is
    # integrable, so the sample variance itself has a finite variance
    SE_CASES = [
        ("disc(1.5)", (2,), 1.5),
        ("punctured_disc(1)", (-1,), 0.4),
        ("polydisc(2;0.5,1.5)", (1, 2), 1.5),
        ("ball(3)", (1, 0, 2), 1.0),
        ("hartogs(3)", (-1, 1), 1.0),
        ("fk_ball_prime(3)", (1, 2), 1.5),
        ("product(ball(2),hartogs(3))", (1, 0, 2, 1), 0.75),
    ]

    @pytest.mark.parametrize("label, exp, p", SE_CASES)
    def test_std_error_matches_polydisc_theory(self, label, exp, p):
        # Y = 1_D |f|^p over the bounding polydisc P has variance
        # (V_P I_2p - I_p^2) / V_P^2, I_q the integral of |f|^q; over seeds 0-19
        # the reported relative error stays within 1.1 % of that theory, and the
        # box-rejection theory (V_P replaced by the box volume) lies 33-132 % above it
        D = parse_domain(label)
        f = LaurentPolynomial.monomial(D.dimension, exp, 0.6 + 0.8j)
        i_p, i_2p = (closed_norm(D, f, q).integral for q in (p, 2.0 * p))
        closed_norm(D, f, 4.0 * p)  # raises if |f|^{4p} is not integrable
        n = 200_000

        def theory(volume):
            return math.sqrt((volume * i_2p - i_p**2) / n) / (p * i_p)

        res = mc_norm(D, f, p, n, 0)
        assert_rel(res.std_error / res.value, theory(D.polydisc_volume), 0.03)
        assert theory(D.box_volume) > 1.3 * theory(D.polydisc_volume)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_monomial_bits_unmoved_by_a_non_monomial(self, threads):
        # phases are drawn after the moduli and only when some item needs them
        D = parse_domain("fk_ball_prime(3)")
        monomials = [(LaurentPolynomial.monomial(2, (1, 2)), 0.75), (LaurentPolynomial.monomial(2, (-1, 1), 2.0j), 3.0)]
        general = (_pinned_integrand(D), 1.5)
        alone = mc_norm_batch(D, monomials, 200_000, 3, threads=threads)
        joined = mc_norm_batch(D, [monomials[0], general, monomials[1]], 200_000, 3, threads=threads)
        assert [joined[0], joined[2]] == alone
        assert joined[1] == mc_norm(D, *general, 200_000, 3, threads=threads)

    def test_zero_moduli_on_a_pole_count_as_zero(self, disc, monkeypatch):
        # u = 0 gives r = 0, a point of the disc: 1/z drops the row, z^2 is 0 there
        real = substream

        class ZeroFirstModuli:
            def __init__(self, *key):
                self.g, self.first = real(*key), key[-1] == 0

            def random(self, shape):
                u = self.g.random(shape)
                if self.first:  # the moduli of chunk 0, not its phases
                    u[:, :3] = 0.0
                    self.first = False
                return u

        monkeypatch.setattr("pbergman.integrate.substream", ZeroFirstModuli)
        monkeypatch.setitem(globals(), "substream", ZeroFirstModuli)
        items = [(LaurentPolynomial.monomial(1, (-1,)), 0.75), (LaurentPolynomial.monomial(1, (2,)), 1.5),
                 (LaurentPolynomial(1, {(-1,): 1.0, (1,): 2.0}), 0.5)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = mc_norm_batch(disc, items, 100_000, 6)
        assert all(math.isfinite(r.value) and math.isfinite(r.std_error) for r in got)
        with np.errstate(divide="ignore"):
            want = _mc_reference(disc, items, 100_000, 6)
        assert [(r.value, r.std_error) for r in got] == want

    def test_divergent_variance_warns(self, punctured):
        f = LaurentPolynomial.monomial(1, (-1,), 1.0)
        with pytest.warns(PoleProximityWarning) as rec:
            res = mc_norm(punctured, f, 1.0, 20_000, 0)
        assert math.isfinite(res.value)
        # the warning names this call site, not the package frame that raised it
        assert [w.filename for w in rec] == [__file__]


class TestChunkedMean:
    @pytest.mark.parametrize("threads", [1, 2])
    def test_bool_rows_are_counted_as_their_float_copies(self, threads):
        # chunk 0 random, chunk 1 all False, chunk 2 short; the last item is
        # empty in every chunk, as when no proposal of a chunk lands in D
        g = np.random.default_rng(3)
        masks = {i: [g.random(size) < q for q in (0.5, 0.03, 0.0)] + [np.zeros(0, dtype=bool)]
                 for i, size in enumerate((65536, 65536, 1234))}
        masks[1][0][:] = False

        def ys(as_float):
            def chunk_ys(i, size):
                assert masks[i][0].shape[0] == size
                for m in masks[i]:
                    yield m.astype(float) if as_float else m.copy()
            return chunk_ys

        samples = 2 * 65536 + 1234
        got = chunked_mean(samples, ys(False), threads)
        want = chunked_mean(samples, ys(True), threads)
        assert repr(got) == repr(want)
        assert got[2] == (0.0, 0.0) and got[3] == (0.0, 0.0)
        assert got[0][0] > 0 and got[1][1] > 0


PINNED_MC = {  # (label, p) -> sha256 of repr((value, std_error)) at 2*10^5 samples, seed 0
    ("disc", 0.75): "7d468ad08ce62bc374b4093883b036327b3d271d012b2c255bb7a6f922a77f40",
    ("disc", 1.5): "940230fde48b8e6fec19b6c5e6684085341747fb7ee03e706672b5f66ee726fa",
    ("disc", 3.0): "52e07f661d3f33636cc96bf6f9bd4cb8b1efe41f20734e90251e453555128eb5",
    ("polydisc(2)", 0.75): "2a1260704e077fdef176e397249054655d38de2d1dab01b27bcf1145939be4e2",
    ("polydisc(2)", 1.5): "0b93cce335ab806e3b9af0bf47a230d29b8d9a2d15973c07d2a490f4a4699a18",
    ("polydisc(2)", 3.0): "42889663453a6a42609b781aa8b71680fdbacea68622ce5780c8b707a10ddf7a",
    ("ball(2)", 0.75): "33667a2baabf4307f121e285a3aa5a5ccf3d8606cb0fe3a40a804185a1e18727",
    ("ball(2)", 1.5): "d625a04e25e4e081fc4c8c03ea0a1dd6a7c213788541c65bb0c1d06b448fb6b6",
    ("ball(2)", 3.0): "8bbfb2d66ee259e95a81bad0971126a486a141ec064c9ba39ffca9f408050ebb",
    ("hartogs(3)", 0.75): "e65bbde6729be270095dede5b9b1b51ec4c80d8b656806c1834a72e8367c8660",
    ("hartogs(3)", 1.5): "2e6661229cc7a1fb0a2bdd291104a039946075599d673161315bbc90cd67c35a",
    ("hartogs(3)", 3.0): "564fc400490cc8450f520d1cec8744b0a372a662eee92f62e5d824efee3c3689",
    ("fk_ball_prime(3)", 0.75): "4ce88a72cd017a89ad0d11cb0e37c273abb7766b90448b7ba5df6c46f7ddb8d6",
    ("fk_ball_prime(3)", 1.5): "1ff0d4b1157c2cc686e9f1f893600ead36df974cc7d20428413a1a7a850b0b6e",
    ("fk_ball_prime(3)", 3.0): "1f39fabf3e60b6eef39c5fd4b97ab934fb03d6d7f8e2b60ace4a0140144556ed",
    (PRODUCTS[0], 0.75): "9e93148eda7d652510f7223a1971288f488ac9ed94313bd3945ec2272ba085c8",
    (PRODUCTS[0], 1.5): "b1cd08688ba09cd7ad140056d47af91044a86dd9bf4697bdc8a3d44def5a5410",
    (PRODUCTS[0], 3.0): "1555533c6f9b0d2071214a679c64890b87f4610a3e48d68cac54ff3baecab767",
    (PRODUCTS[1], 0.75): "c5db8213a8c4f480ec55b674f57a56dbcce93512e3298ddfa17fa97c019c3bfa",
    (PRODUCTS[1], 1.5): "da09abfea48b348d8bafdddf5fffe9231d19e8e532b757f25920e2adf8deff22",
    (PRODUCTS[1], 3.0): "30f0bae104d6b6db13d1af74f830dcb639cc12b4c58833f7a429189e1bd6c2fb",
    ("punctured_disc(1)", 0.75): "074d031e1537a46be4e43b2e5bb87e31032b0def5bf3eaee2c5340cafae8712f",
    ("punctured_disc(1)", 1.5): "83897d4b438c188aaa21ea1518ec377be7b20047c997019de18ee9652778a228",
    ("punctured_disc(1)", 3.0): "58616aee3df0792c83d09b66f9258f77f8d81eddd4772218adba5d6017161771",
}


def _pinned_integrand(D):
    """1 + (0.5 - 0.25i) z_1 + 0.3i z_n^2, or z + (0.1 - 0.05i)/z on the
    punctured disc so that the pole filter runs."""
    n = D.dimension
    if D.label.startswith("punctured"):
        return LaurentPolynomial(1, {(1,): 1.0, (-1,): 0.1 - 0.05j})
    return LaurentPolynomial(n, {(0,) * n: 1.0, (1,) + (0,) * (n - 1): 0.5 - 0.25j, (0,) * (n - 1) + (2,): 0.3j})


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class TestPinnedMonteCarlo:
    """Seeded Monte Carlo bits: how a chunk lays out, scales or compacts its
    proposals may change, the values and errors may not."""

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("label, p", list(PINNED_MC))
    def test_mc_norm_bits(self, label, p, threads):
        D = parse_domain(label)
        res = mc_norm(D, _pinned_integrand(D), p, 200_000, 0, threads=threads)
        assert _sha(repr((res.value, res.std_error))) == PINNED_MC[label, p]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_batch_bits_on_non_unit_box(self, threads):
        D = parse_domain("fk_ball_prime(3)")
        assert set(np.asarray(D.bounding_box)) != {1.0}
        items = [
            (LaurentPolynomial.monomial(2, (1, 2)), 0.75),
            (LaurentPolynomial(2, {(0, 0): 1.0, (2, 0): 0.5 - 0.25j}), 1.5),
            (LaurentPolynomial.monomial(2, (0, 1), 2.0j), 3.0),
        ]
        res = mc_norm_batch(D, items, 200_000, 3, threads=threads)
        digest = _sha(repr([(r.value, r.std_error) for r in res]))
        assert digest == "16b4779e89a39f75412bc3437a204b42bbc3ae64f6ec993d17a81d585bc67d25"

    @pytest.mark.parametrize(
        "make_rng, digest",
        [
            (lambda: 3, "f63e192981393e2169487096f5a3197e1427257fc9d9080cb029b75c050d0ebf"),
            (lambda: np.random.default_rng(3), "42c88a57d9da1c9efcd1680164470a1c514367ed733a12a23bdfb2cbc68827cc"),
        ],
        ids=["int-seed", "generator"],
    )
    def test_sample_bits_on_non_unit_box(self, make_rng, digest):
        s = sample(parse_domain("fk_ball_prime(3)"), make_rng(), 50_000)
        assert s.proposals == 196_608
        assert hashlib.sha256(s.points.tobytes() + repr((s.acceptance_rate, s.proposals)).encode()).hexdigest() == digest


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
