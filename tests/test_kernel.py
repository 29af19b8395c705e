import json
import math
import tracemalloc

import numpy as np
import pytest

from conftest import assert_rel
from pbergman import (
    BasisSpec,
    ConfigError,
    NoBasisSupportError,
    OptimizerConfig,
    bergman2_gram,
    boundary_probe,
    degree_basis,
    make_catalog_domain,
    pbergman_min_norm,
)
from pbergman.functions import monomial_values
from pbergman.integrate import _radial_grid
from pbergman import kernel
from pbergman.kernel import _newton_step, _real_hessian, _SliceProblem

# deg-20 partial sum of sum (k+1) |z|^{2k} / pi at z = 0.5
DISC_DEG20_AT_HALF = 0.5658842421023615

# certified lower bounds with the default OptimizerConfig, recorded when every
# start was optimized: ball(2) degree 2 at (0.3, 0.4), disc degree 20 at 0.9
BALL2_DEG2_P1 = 0.1304776497075168
BALL2_DEG2_P3 = 0.591765300719271
DISC_DEG20_P3_AT_09 = 4.220941040883161

# below p = 1: certified lower bounds with the default OptimizerConfig, recorded
# when reweighted least squares ran from every start, as
# (domain, degree, extra indices, p, z, bound)
BELOW_ONE_FLOORS = [
    ("disc", 6, (), 0.5, (0.5,), 0.08313090979728027),
    ("disc", 6, (), 0.5, (0.9,), 1.8359877619773284),
    ("disc", 6, (), 0.5, (0.0,), 0.010265982254684336),
    ("disc", 6, (), 0.25, (0.5,), 0.002466603112226488),
    ("disc", 10, (), 0.75, (0.65,), 0.7984235030014215),
    ("punctured_disc(1)", 3, ((-1,),), 0.5, (0.2,), 0.12722578158923947),
    (("ball", 2), 2, (), 0.5, (0.3, 0.4), 0.0075764374889132095),
    (("ball", 2), 2, (), 0.75, (0.3, 0.4), 0.05251893859554343),
    (("ball", 2), 2, (), 0.5, (0.0, 0.0), 0.001686246266455927),
]

# the basis of the punctured-disc scenario's kernel check
PUNCTURED_INDICES = [(-1,), (0,), (1,), (2,), (3,)]


class TestBasis:
    def test_degree_basis_size(self, disc):
        basis = degree_basis(disc, 20, 2.0)
        assert basis.size == 21
        assert basis.dropped == ()

    def test_divergent_index_dropped(self, punctured):
        basis = degree_basis(punctured, 3, 2.0, extra_indices=[(-1,)])
        assert (-1,) in basis.dropped
        assert (-1,) not in basis.indices

    def test_laurent_index_kept_at_p1(self, punctured):
        basis = degree_basis(punctured, 3, 1.0, extra_indices=[(-1,)])
        assert (-1,) in basis.indices
        assert basis.dropped == ()

    def test_duplicate_indices_rejected(self):
        with pytest.raises(ConfigError):
            BasisSpec(indices=((0,), (0,)), domain_label="disc(1)", p=2.0)

    def test_all_divergent_rejected(self, punctured):
        with pytest.raises(ConfigError):
            BasisSpec.validated(punctured, [(-1,)], 2.0)

    def test_basis_of_another_domain_refused(self, disc, punctured):
        # 1/z is in A^1 of the punctured disc, not of the disc: solved on the
        # disc this basis gives 2.690 at z = 0.1, 25.5 times the disc's exact
        # K_1 = pi^-2 (1 - |z|^2)^-4, and would still claim a lower bound
        basis = degree_basis(punctured, 8, 1.0, extra_indices=[(-1,)])
        message = f"basis validated on {punctured.label} cannot be solved on {disc.label}"
        for solve in (lambda: pbergman_min_norm(disc, basis, 0.1), lambda: boundary_probe(disc, [0.1], basis)):
            with pytest.raises(ConfigError) as info:
                solve()
            assert str(info.value) == message

    def test_gram_basis_of_another_domain_refused(self, disc):
        wide = make_catalog_domain(("disc", 2.0))
        basis = degree_basis(disc, 4, 2.0)
        for solve in (lambda: bergman2_gram(wide, basis, 0.5), lambda: boundary_probe(wide, [0.5], basis)):
            with pytest.raises(ConfigError, match=r"^basis validated on disc\(1\) cannot be solved on disc\(2\)$"):
                solve()


class TestGram:
    def test_disc_center(self, disc):
        basis = degree_basis(disc, 20, 2.0)
        est = bergman2_gram(disc, basis, 0.0)
        assert_rel(est.value, 1.0 / math.pi, 1e-14)

    def test_disc_half(self, disc):
        basis = degree_basis(disc, 20, 2.0)
        est = bergman2_gram(disc, basis, 0.5)
        assert_rel(est.value, DISC_DEG20_AT_HALF, 1e-13)
        # the span estimate lies 4e-12 below the full-space kernel 16/(9 pi)
        assert est.value < 16.0 / (9.0 * math.pi)
        assert est.is_lower_bound

    def test_requires_p2(self, disc):
        basis = degree_basis(disc, 4, 1.0)
        with pytest.raises(ConfigError):
            bergman2_gram(disc, basis, 0.0)

    def test_ball_center(self, ball2):
        basis = degree_basis(ball2, 6, 2.0)
        est = bergman2_gram(ball2, basis, (0.0, 0.0))
        assert_rel(est.value, 2.0 / math.pi**2, 1e-14)


class TestMinNorm:
    def test_matches_gram_at_p2(self, disc):
        basis = degree_basis(disc, 10, 2.0)
        gram = bergman2_gram(disc, basis, 0.3)
        opt = pbergman_min_norm(disc, basis, 0.3)
        assert_rel(opt.value, gram.value, 1e-7)

    def test_p1_center_value(self, disc):
        basis = degree_basis(disc, 10, 1.0)
        est = pbergman_min_norm(disc, basis, 0.0)
        assert_rel(est.value, 1.0 / math.pi**2, 1e-2)

    def test_laurent_span_exact_optimum(self, punctured):
        # one-element span c/z: constraint forces c = z, so the norm is
        # 2 pi |z| and the kernel bound is exactly |z|^-2 / (2 pi)^2
        basis = BasisSpec.validated(punctured, [(-1,)], 1.0)
        z = 0.1
        est = pbergman_min_norm(punctured, basis, z)
        assert_rel(est.value, z**-2 / (2 * math.pi) ** 2, 1e-9)

    def test_no_support_at_zero(self, disc):
        basis = BasisSpec.validated(disc, [(1,), (2,)], 2.0)
        with pytest.raises(NoBasisSupportError):
            pbergman_min_norm(disc, basis, 0.0)

    def test_determinism(self, disc):
        basis = degree_basis(disc, 6, 3.0)
        a = pbergman_min_norm(disc, basis, 0.4)
        b = pbergman_min_norm(disc, basis, 0.4)
        assert a.value == b.value

    def test_report_fields(self, disc):
        basis = degree_basis(disc, 4, 2.0)
        est = pbergman_min_norm(disc, basis, 0.4)
        rep = est.optimizer_report
        assert rep["iterations"] > 0
        assert math.isfinite(rep["final_gradient_norm"])
        assert rep["restarts"] >= 1
        assert rep["converged"] is True
        obj = est.to_json_obj()
        assert obj["optimizer_report"]["converged"] is True
        assert obj["basis_size"] == basis.size
        assert obj["is_lower_bound"] is True


class TestMonotonicity:
    def test_basis_monotone_gram(self, disc):
        small = degree_basis(disc, 6, 2.0)
        large = degree_basis(disc, 10, 2.0)
        for z in (0.1, 0.45, 0.7):
            lo = bergman2_gram(disc, small, z).value
            hi = bergman2_gram(disc, large, z).value
            assert hi >= lo - 1e-14 * hi

    def test_basis_monotone_optimizer(self, disc):
        small = degree_basis(disc, 4, 3.0)
        large = degree_basis(disc, 7, 3.0)
        for z in (0.2, 0.5):
            lo = pbergman_min_norm(disc, small, z).value
            hi = pbergman_min_norm(disc, large, z).value
            assert hi >= lo * (1.0 - 1e-7)

    def test_domain_monotone(self):
        inner = make_catalog_domain(("disc", 1.0))
        outer = make_catalog_domain(("disc", 1.25))
        bi = degree_basis(inner, 8, 2.0)
        bo = degree_basis(outer, 8, 2.0)
        for z in (0.1, 0.5, 0.8):
            assert bergman2_gram(inner, bi, z).value >= bergman2_gram(outer, bo, z).value


class TestScaling:
    def test_exact_dilation_law_p2(self):
        base = make_catalog_domain(("disc", 1.0))
        double = make_catalog_domain(("disc", 2.0))
        bb = degree_basis(base, 6, 2.0)
        bd = degree_basis(double, 6, 2.0)
        for z in (0.2, 0.45):
            lhs = bergman2_gram(double, bd, 2.0 * z).value
            rhs = 2.0 ** (-4.0 / 2.0) * bergman2_gram(base, bb, z).value
            assert_rel(lhs, rhs, 1e-13)


class TestBoundaryProbe:
    def test_puncture_path(self, punctured):
        basis = degree_basis(punctured, 3, 1.0, extra_indices=[(-1,)])
        probes = boundary_probe(punctured, [0.2, 0.1], basis)
        assert len(probes) == 2
        for pt, z in zip(probes, (0.2, 0.1)):
            assert abs(pt.distance - z) < 1e-5
            assert pt.diagnostic > 0
        # the kernel certificate keeps value * dist^2 off zero at the puncture
        assert probes[-1].diagnostic > 0.9 / (2 * math.pi) ** 2

    def test_path_point_outside_rejected(self, disc):
        basis = degree_basis(disc, 3, 2.0)
        with pytest.raises(ConfigError):
            boundary_probe(disc, [1.5], basis)


class TestGridBudget:
    def test_over_budget_grid_refused_before_building(self, ball2):
        basis = degree_basis(ball2, 2, 1.0)
        cfg = OptimizerConfig(angular_nodes=2001)
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError) as info:
                pbergman_min_norm(ball2, basis, (0.3, 0.4), cfg=cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        msg = str(info.value)
        assert "\n" not in msg
        for count in ("2304 radial", "4004001 angular", "6 basis", "40000000"):
            assert count in msg, msg
        # the 2001^2 angular grid alone would take 64 MB
        assert peak < 4_000_000


def _dense_reference(D, prob, cfg):
    """Dense node matrix B (nodes x K) and node weights of the tensor grid
    that _SliceProblem factors, node order radius-major."""
    radii, wts = _radial_grid(D.radial_profile, cfg.radial_nodes)
    n = D.dimension
    n_angular = prob.E.shape[1]
    m_theta = round(n_angular ** (1.0 / n))
    phase = np.exp(2j * math.pi * np.arange(m_theta) / m_theta)
    combos = np.stack(np.meshgrid(*([phase] * n), indexing="ij"), axis=-1).reshape(-1, n)
    nodes = np.repeat(radii, n_angular, axis=0) * np.tile(combos, (radii.shape[0], 1))
    w = np.repeat(np.prod(radii, axis=1) * wts, n_angular) * (2.0 * math.pi / m_theta) ** n
    return monomial_values(nodes, prob.indices), w


def _rel(a, b):
    return float(np.linalg.norm(np.asarray(a) - b) / np.linalg.norm(b))


class TestFactoredGrid:
    @pytest.mark.parametrize(
        "domain, degree, p, extra, z",
        [
            ("disc", 20, 3.0, (), (0.4 + 0.2j,)),
            (("ball", 2), 2, 1.0, (), (0.3, 0.4)),
            ("punctured_disc(1)", 3, 1.0, ((-1,),), (0.2,)),
            (("hartogs", 3), 3, 1.5, (), (0.6, 0.1 + 0.05j)),
            ("punctured_disc(1)", 3, 0.5, ((-1,),), (0.2,)),
        ],
    )
    def test_matches_dense_formulas(self, domain, degree, p, extra, z):
        D = make_catalog_domain(domain)
        basis = degree_basis(D, degree, p, extra_indices=extra)
        cfg = OptimizerConfig()
        prob = _SliceProblem(D, basis, np.asarray(z, dtype=complex), cfg)
        B, w = _dense_reference(D, prob, cfg)
        rng = np.random.default_rng(3)
        for eps2 in (0.0, 1e-4):
            c = prob.retract(rng.standard_normal(basis.size) + 1j * rng.standard_normal(basis.size))
            phi = B @ c
            a2 = np.abs(phi) ** 2 + eps2
            weights = w * a2 ** (p / 2.0 - 1.0)
            G, A, C = prob.newton_parts(c, eps2)
            assert _rel(prob.norm_p(c, eps2), np.dot(w, a2 ** (p / 2.0))) <= 1e-12
            assert _rel(G, (p / 2.0) * (B.conj().T @ (weights * phi))) <= 1e-12
            assert _rel(prob.irls_matrix(c, eps2), (B.conj().T * weights) @ B) <= 1e-12
            if eps2 > 0 or p >= 2:
                curv = w * (p / 2.0) * (p / 2.0 - 1.0) * a2 ** (p / 2.0 - 2.0)
                dense_A = (B.conj().T * ((p / 2.0) * weights + curv * np.abs(phi) ** 2)) @ B
                assert _rel(A, dense_A) <= 1e-12
                assert _rel(C, (B.conj().T * (curv * phi**2)) @ B.conj()) <= 1e-12

    def test_product_domain_matches_dense_formulas(self):
        # the kernel grid flattens the product's factor grids; 4^4 radial x 3^4 angular nodes
        D = make_catalog_domain(("product", ("ball", 2), ("hartogs", 3)))
        p = 1.5
        basis = degree_basis(D, 1, p)
        cfg = OptimizerConfig(radial_nodes=4, angular_nodes=3)
        prob = _SliceProblem(D, basis, np.array([0.3, 0.2, 0.5, 0.05], dtype=complex), cfg)
        B, w = _dense_reference(D, prob, cfg)
        assert B.shape == (4**4 * 3**4, basis.size)
        c = prob.retract(np.random.default_rng(5).standard_normal(basis.size) + 0.5j)
        phi = B @ c
        weights = w * np.abs(phi) ** (p - 2.0)
        assert _rel(prob.norm_p(c), np.dot(w, np.abs(phi) ** p)) <= 1e-12
        assert _rel(prob.newton_parts(c, 0.0)[0], (p / 2.0) * (B.conj().T @ (weights * phi))) <= 1e-12
        assert _rel(prob.irls_matrix(c, 0.0), (B.conj().T * weights) @ B) <= 1e-12


    @pytest.mark.parametrize("p, eps2", [(0.5, 1e-4), (1.5, 1e-4), (3.0, 0.0)])
    def test_real_hessian_matches_gradient_differences(self, ball2, p, eps2):
        # H from A and C against central differences of the real gradient 2 (Re G, Im G)
        z = np.array([0.3, 0.4], dtype=complex)
        prob = _SliceProblem(ball2, degree_basis(ball2, 2, p), z, OptimizerConfig())
        rng = np.random.default_rng(7)
        K = prob.P.shape[1]
        c = prob.retract(rng.standard_normal(K) + 1j * rng.standard_normal(K))
        delta = rng.standard_normal(K) + 1j * rng.standard_normal(K)
        _, A, C = prob.newton_parts(c, eps2)

        def real_grad(x):
            G = prob.newton_parts(x, eps2)[0]
            return 2.0 * np.concatenate([G.real, G.imag])

        h = 1e-6
        diff = (real_grad(c + h * delta) - real_grad(c - h * delta)) / (2 * h)
        assert _rel(_real_hessian(A, C) @ np.concatenate([delta.real, delta.imag]), diff) <= 1e-7

    @pytest.mark.parametrize("r", [0.5, 0.9])
    def test_one_newton_step_is_exact_at_p2(self, disc, r):
        # the quadratic objective is minimized by one step from the constant 1;
        # the degree-20 grid integrates |phi|^2 exactly
        basis = degree_basis(disc, 20, 2.0)
        prob = _SliceProblem(disc, basis, np.array([r], dtype=complex), OptimizerConfig())
        c0 = prob.retract(np.eye(basis.size, dtype=complex)[0])
        d, decrement, _ = _newton_step(prob, c0, 0.0)
        assert decrement > 0
        value = 1.0 / prob.norm_p(prob.retract(c0 + d))
        assert_rel(value, bergman2_gram(disc, basis, r).value, 1e-12)


    def test_majorizer_step_lands_on_the_reweighted_minimizer(self, disc):
        # below p = 1, where H is not positive definite on the tangent space,
        # c + d minimizes c^H M c over c.bz = 1, M the reweighting matrix
        prob = _SliceProblem(disc, degree_basis(disc, 6, 0.5), np.array([0.5], dtype=complex), OptimizerConfig())
        rng = np.random.default_rng(11)
        K = prob.P.shape[1]
        b = prob.bz
        J = np.array([np.concatenate([b.real, -b.imag]), np.concatenate([b.imag, b.real])])
        tangent = np.eye(2 * K) - J.T @ J / prob.bz_norm2
        indefinite = 0
        for _ in range(5):
            c = prob.retract(rng.standard_normal(K) + 1j * rng.standard_normal(K))
            _, A, C = prob.newton_parts(c, 1e-4)
            H = tangent @ _real_hessian(A, C) @ tangent
            if np.linalg.eigvalsh(H + J.T @ J).min() >= 0:
                continue
            indefinite += 1
            d, decrement, _ = _newton_step(prob, c, 1e-4)
            Ma = np.linalg.solve(prob.irls_matrix(c, 1e-4), np.conj(b))
            assert decrement > 0
            assert _rel(c + d, Ma / (b @ Ma)) <= 1e-9
        assert indefinite > 0


class TestNewtonCost:
    """Iterations, not time: every kernel benchmark case ends on a stop test
    of the Newton method. For 1 <= p < 2, where each smoothing stage before
    the last ends on one small full step, the bounds sit a few iterations
    above today's counts; from p = 2 on within 40 iterations, and below
    p = 1, where some steps are majorizer steps, within 150."""

    @pytest.mark.parametrize("p, bound", [(0.5, 150), (0.75, 150), (1.0, 16), (3.0, 40)])
    def test_ball2_degree2(self, ball2, p, bound):
        rep = pbergman_min_norm(ball2, degree_basis(ball2, 2, p), (0.3, 0.4)).optimizer_report
        assert rep["converged"] and rep["iterations"] <= bound, rep

    @pytest.mark.parametrize(
        "domain, p, z, bound",
        [(("ball", 2), 1.0, (0.3, 0.4), 17), (("ball", 2), 1.5, (0.3, 0.4), 14), (("polydisc", 2), 1.0, (0.3, 0.5), 18)],
    )
    def test_degree4_smoothed(self, domain, p, z, bound):
        D = make_catalog_domain(domain)
        rep = pbergman_min_norm(D, degree_basis(D, 4, p), z).optimizer_report
        assert rep["converged"] and rep["iterations"] <= bound, rep

    @pytest.mark.parametrize("p, r, bound", [(1.0, 0.5, 17), (1.0, 0.9, 27), (2.0, 0.5, 40), (2.0, 0.9, 40),
                                             (3.0, 0.5, 40), (3.0, 0.9, 40)])
    def test_disc_degree20(self, disc, p, r, bound):
        rep = pbergman_min_norm(disc, degree_basis(disc, 20, p), r).optimizer_report
        assert rep["converged"] and rep["iterations"] <= bound, rep

    @pytest.mark.parametrize("z", [0.1, 0.05, 0.01])
    def test_punctured_disc_p1(self, punctured, z):
        # the basis of the punctured-disc scenario's kernel check
        basis = BasisSpec.validated(punctured, PUNCTURED_INDICES, 1.0)
        rep = pbergman_min_norm(punctured, basis, z).optimizer_report
        assert rep["converged"] and rep["iterations"] <= 13, rep

    @pytest.mark.parametrize("r", [0.5, 0.9])
    def test_disc_degree6_below_one(self, disc, r):
        rep = pbergman_min_norm(disc, degree_basis(disc, 6, 0.5), r).optimizer_report
        assert rep["converged"] and rep["iterations"] <= 150, rep


# pbergman_min_norm with the default OptimizerConfig before the solver made one
# node pass per iterate and ended non-final smoothing stages on one small full
# step, as (domain, degree or "punctured", p, z, value, iterations,
# final_gradient_norm, restarts, converged). Below p = 1 and from p = 2 on the
# report must stay byte-identical; for 1 <= p < 2 the value must stay within
# 1e-14 and the run converged.
PINNED_EXACT = [
    (("ball", 2), 2, 0.5, (0.3, 0.4), 0.007576437504094081, 60, 2.106304053184863e-06, 8, True),
    ("disc", 20, 0.5, (0.5,), 0.10330522567071987, 85, 0.003523591369151016, 23, True),
    ("disc", 20, 0.5, (0.9,), 159.06780549140615, 93, 0.003812290555462635, 23, True),
    ("punctured_disc(1)", "punctured", 0.5, (0.1,), 0.37770223226640703, 173, 0.000922055713027898, 7, False),
    (("ball", 2), 2, 2.0, (0.3, 0.4), 0.4306150304799369, 1, 0.0, 8, True),
    ("disc", 20, 2.0, (0.5,), 0.5658842421023601, 1, 5.436524169242823e-15, 23, True),
    ("disc", 20, 2.0, (0.9,), 8.290668868635962, 1, 4.508823783997303e-15, 23, True),
    ("punctured_disc(1)", "punctured", 2.0, (0.1,), 0.3247728501128664, 1, 1.1127279467108387e-15, 6, True),
    (("ball", 2), 2, 3.0, (0.3, 0.4), 0.5917653007192702, 4, 4.027730580278968e-08, 8, True),
    ("disc", 20, 3.0, (0.5,), 0.6841506338828391, 5, 3.4954443265301135e-15, 23, True),
    ("disc", 20, 3.0, (0.9,), 4.220941040883159, 6, 5.5120492148638316e-14, 23, True),
    ("punctured_disc(1)", "punctured", 3.0, (0.1,), 0.47248332674320664, 4, 3.599910508245076e-15, 6, True),
]
PINNED_SMOOTHED = [
    (("ball", 2), 2, 1.0, (0.3, 0.4), 0.13047764970751685),
    (("ball", 2), 4, 1.0, (0.3, 0.4), 0.19147970263024577),
    (("ball", 2), 2, 1.5, (0.3, 0.4), 0.2991312096471502),
    (("ball", 2), 4, 1.5, (0.3, 0.4), 0.36052559041378923),
    (("polydisc", 2), 4, 1.0, (0.3, 0.5), 0.04148646181916844),
    ("disc", 20, 1.0, (0.5,), 0.32022497538973016),
    ("disc", 20, 1.0, (0.9,), 38.869404879979356),
    ("punctured_disc(1)", "punctured", 1.0, (0.1,), 2.6899378515864565),
    ("punctured_disc(1)", "punctured", 1.0, (0.01,), 253.4549890200177),
]


def _pinned_basis(D, degree, p):
    if degree == "punctured":
        return BasisSpec.validated(D, PUNCTURED_INDICES, p)
    return degree_basis(D, degree, p)


class TestPinnedSolves:
    """One node pass per iterate changes no bit of any solve; ending the
    non-final smoothing stages of 1 <= p < 2 on one small full step moves
    values only at rounding level."""

    @pytest.mark.parametrize("domain, degree, p, z, value, iterations, grad, restarts, converged", PINNED_EXACT)
    def test_byte_identical_outside_smoothed_convex_range(
        self, domain, degree, p, z, value, iterations, grad, restarts, converged
    ):
        D = make_catalog_domain(domain)
        basis = _pinned_basis(D, degree, p)
        est = pbergman_min_norm(D, basis, z)
        expected = {
            "value": value,
            "z": [{"re": float(c), "im": 0.0} for c in z],
            "basis_size": basis.size,
            "p": p,
            "optimizer_report": {
                "iterations": iterations,
                "final_gradient_norm": grad,
                "restarts": restarts,
                "converged": converged,
            },
            "is_lower_bound": True,
        }
        assert json.dumps(est.to_json_obj(), sort_keys=True) == json.dumps(expected, sort_keys=True)

    @pytest.mark.parametrize("domain, degree, p, z, value", PINNED_SMOOTHED)
    def test_smoothed_convex_values_within_rounding(self, domain, degree, p, z, value):
        D = make_catalog_domain(domain)
        est = pbergman_min_norm(D, _pinned_basis(D, degree, p), z)
        assert_rel(est.value, value, 1e-14)
        assert est.optimizer_report["converged"] is True

    @pytest.mark.parametrize(
        "domain, degree, p, z",
        [(("ball", 2), 2, 1.0, (0.3, 0.4)), ("disc", 20, 0.5, (0.9,)), ("punctured_disc(1)", "punctured", 1.5, (0.1,)),
         (("polydisc", 2), 4, 3.0, (0.3, 0.5))],
    )
    def test_single_term_certificate_matches_grid_norm(self, domain, degree, p, z):
        D = make_catalog_domain(domain)
        basis = _pinned_basis(D, degree, p)
        prob = _SliceProblem(D, basis, np.asarray(z, dtype=complex), OptimizerConfig())
        checked = 0
        for k in range(basis.size):
            if abs(prob.bz[k]) == 0:
                continue
            c = np.zeros(basis.size, dtype=complex)
            c[k] = (0.7 - 0.2j) / prob.bz[k]
            assert_rel(prob.certificate(c), prob.norm_p(c), 1e-13)
            checked += 1
        assert checked >= 3
        c = prob.retract(np.ones(basis.size, dtype=complex))
        assert prob.certificate(c) == prob.norm_p(c)

    def test_one_node_pass_per_distinct_iterate(self, monkeypatch, ball2):
        basis = degree_basis(ball2, 2, 1.0)
        calls = {}
        span_values = kernel._span_values

        def counting(P, E, c):
            calls[c.tobytes()] = calls.get(c.tobytes(), 0) + 1
            return span_values(P, E, c)

        monkeypatch.setattr(kernel, "_span_values", counting)
        pbergman_min_norm(ball2, basis, (0.3, 0.4))
        blocks = -(-48**2 // kernel._BLOCK)  # the 48^2 radial rows of the ball(2) grid, in blocks
        assert len(calls) > 1 and set(calls.values()) == {blocks}


class TestPrunedStarts:
    """Only the start with the best certificate is optimized; the certified
    bounds must not fall below those found by optimizing every start (below
    p = 1 by reweighted least squares)."""

    @pytest.mark.parametrize("p, recorded", [(1.0, BALL2_DEG2_P1), (3.0, BALL2_DEG2_P3)])
    def test_ball2_degree2(self, ball2, p, recorded):
        est = pbergman_min_norm(ball2, degree_basis(ball2, 2, p), (0.3, 0.4))
        assert est.value >= recorded * (1.0 - 1e-9)

    def test_disc_degree20_p3(self, disc):
        est = pbergman_min_norm(disc, degree_basis(disc, 20, 3.0), 0.9)
        assert est.value >= DISC_DEG20_P3_AT_09 * (1.0 - 1e-9)

    @pytest.mark.parametrize("domain, degree, extra, p, z, floor", BELOW_ONE_FLOORS)
    def test_below_one(self, domain, degree, extra, p, z, floor):
        D = make_catalog_domain(domain)
        est = pbergman_min_norm(D, degree_basis(D, degree, p, extra_indices=extra), z)
        assert est.value >= floor * (1.0 - 1e-9)


class TestClosedFormReference:
    """On balanced domains the constant is extremal at the centre, so
    B_p(0) = vol^(-2/p) for every p > 0; on the disc the Moebius isometries
    of A^p carry it to B_p(z) = pi^(-2/p) (1 - |z|^2)^(-4/p), which bounds
    every span estimate from above."""

    @pytest.mark.parametrize("p", [0.5, 0.75, 1.0, 3.0])
    @pytest.mark.parametrize("domain, degree, volume", [("disc", 6, math.pi), (("ball", 2), 2, math.pi**2 / 2)])
    def test_centre_value(self, domain, degree, volume, p):
        D = make_catalog_domain(domain)
        est = pbergman_min_norm(D, degree_basis(D, degree, p), (0.0,) * D.dimension)
        assert_rel(est.value, volume ** (-2.0 / p), 1e-12)

    @pytest.mark.parametrize("p", [0.5, 0.75, 1.0, 3.0])
    @pytest.mark.parametrize("r", [0.5, 0.9])
    def test_disc_upper_bound(self, disc, p, r):
        est = pbergman_min_norm(disc, degree_basis(disc, 6, p), r)
        assert est.value <= math.pi ** (-2.0 / p) * (1.0 - r * r) ** (-4.0 / p) * (1.0 + 1e-12)
