import hashlib
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
    """(value, std_error) per item with the chunk formulas written out: box
    proposals from substream (seed, TAG_MC_NORM, i) in chunks of 2^16, rows on
    a pole dropped, sums of y and y^2 added in chunk order."""
    n_chunks = math.ceil(samples / 65536)
    sums = [[0.0, 0.0] for _ in items]
    for i in range(n_chunks):
        g = substream(seed, TAG_MC_NORM, i)
        u = g.random((min(65536, samples - 65536 * i), 2 * D.dimension)) * 2.0 - 1.0
        pts = (u[:, ::2] + 1j * u[:, 1::2]) * np.asarray(D.bounding_box)
        members = pts[D.contains(pts)]
        for acc, (f, p) in zip(sums, items):
            keep = np.ones(members.shape[0], dtype=bool)
            for j in f._negative_axes:
                keep &= members[:, j] != 0
            vals = np.abs(f.evaluate(members[keep])) ** p
            acc[0] += float(vals.sum())
            acc[1] += float((vals * vals).sum())
    n, vol, out = float(samples), D.box_volume, []
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
    ("disc", 0.75): "23ef3a2d92961b1bc0e3598298b7a16244dd4393a45dc73177a4bc1f1dda4eb9",
    ("disc", 1.5): "4d5efd27baf5a2b6a857c5ef34ee4426fbc972d777afcbd661fdb3a5cca15b43",
    ("disc", 3.0): "ab318f7e104898c44227e9bc1e61552180eab6c0db8729fc5a82c2de61a4f49c",
    ("polydisc(2)", 0.75): "a8c6440bf1d25bc4f2cb4921e2bad28038bc0bd7654428e8df1a80a23bb1589a",
    ("polydisc(2)", 1.5): "e6e70e104d26a159bd4bc17fc319a2d33cbb8826a3a157d307d9f83e489e0c50",
    ("polydisc(2)", 3.0): "c069b54791e50e0a430f9b4f90f53bcd36a8abcb1f994d30f4d17562b4926268",
    ("ball(2)", 0.75): "3b46f8b585a3de537ec9d86dda7996b01248dd78421255f498354f35a8d69bdc",
    ("ball(2)", 1.5): "3a77722f5b22e3666c93a0f01aa8c2906aed46406aa9f1a94850ab738c20387b",
    ("ball(2)", 3.0): "ab7f4b6c6f163034297eff921afc837a40f511e99baf66bcc3c8c1b6bab80140",
    ("hartogs(3)", 0.75): "3dc0cefc91a402f2a6f7c2cf7d8b18bee9dc1e830c0887bf481a0d4d0cea293e",
    ("hartogs(3)", 1.5): "9d2da2daf2649c481d70fd164079efb8ab65d86034247b6dc480e9b2e1f3af01",
    ("hartogs(3)", 3.0): "a9d392230d22b3327c09fc65927ae03097696b1ad37600ea790ab87753f85bda",
    ("fk_ball_prime(3)", 0.75): "b368bfdcc6128bcc71bbec99b929cc9f1627dc27c26b31f8e372defe0f40c925",
    ("fk_ball_prime(3)", 1.5): "5d5ebebf2e7d436768790404da2318d2e41b8b9c2113a37dc4b1d65ca7759f86",
    ("fk_ball_prime(3)", 3.0): "e9a394ca37bd27653c22eb00d76127acfc62b1ca8e8720d42e4ffdbb9516b8e6",
    (PRODUCTS[0], 0.75): "f8ec8fa9f40b1accae6730e6d6a490cea5ae127f96d52170d8beea4718ad197c",
    (PRODUCTS[0], 1.5): "83dd3e9aaab18702570d0d39c51cd31a328c4e0ee378eda8ea14cb688b0e8429",
    (PRODUCTS[0], 3.0): "ba3eeb68577632d0399499b31900b61b3c6ae3b718158930a8d895dfee794c43",
    (PRODUCTS[1], 0.75): "8770d9035e905a787dfe754116d29bb0a103d4e817d1d2047f9ce11cee5ecb23",
    (PRODUCTS[1], 1.5): "a4d14432292e42ba2b72f1cba746fe6b981590a15b6101437fea2bd54af76e8e",
    (PRODUCTS[1], 3.0): "a8b3bbc88d00db088b81ed9178228163ce94500680bf8b1a8cc481dae16b1738",
    ("punctured_disc(1)", 0.75): "152f9a9ffc20f6bfa89d7064dcc1d95dde7aaaec591e786da25e6e596408f015",
    ("punctured_disc(1)", 1.5): "894be613d06e89df018646289b207792e3e15d87c7cfc61c09cee3704b5bd9a6",
    ("punctured_disc(1)", 3.0): "e34805e973f70516106758ca8469b3ef1dd2b85576b1550fa22115e86708b372",
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
        assert digest == "128f4af85b1146a8b48ee3580e2ff9e5ab33a6c3707f234c2edb2abd5652e35c"

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
