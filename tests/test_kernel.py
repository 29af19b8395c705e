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
from pbergman.integrate import _radial_grid
from pbergman.kernel import _SliceProblem, _monomial_values

# deg-20 partial sum of sum (k+1) |z|^{2k} / pi at z = 0.5
DISC_DEG20_AT_HALF = 0.5658842421023615

# certified lower bounds with the default OptimizerConfig, recorded when every
# start was optimized: ball(2) degree 2 at (0.3, 0.4), disc degree 20 at 0.9
BALL2_DEG2_P1 = 0.1304776497075168
BALL2_DEG2_P3 = 0.591765300719271
DISC_DEG20_P3_AT_09 = 4.220941040883161


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
        est = pbergman_min_norm(punctured, basis, z, p=1.0)
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

    def test_warm_start_not_harmful(self, disc):
        basis = degree_basis(disc, 6, 3.0)
        plain = pbergman_min_norm(disc, basis, 0.4)
        cfg = OptimizerConfig(warm_starts=(((  (0,), (1,)), (0.5, 0.5)),))
        warmed = pbergman_min_norm(disc, basis, 0.4, cfg=cfg)
        assert warmed.value >= plain.value - 1e-9 * plain.value

    def test_unknown_warm_start_index_ignored(self, disc):
        basis = degree_basis(disc, 4, 2.0)
        cfg = OptimizerConfig(warm_starts=((((7,),), (1.0,)),))
        est = pbergman_min_norm(disc, basis, 0.4, cfg=cfg)
        assert est.value > 0

    def test_report_fields(self, disc):
        basis = degree_basis(disc, 4, 2.0)
        est = pbergman_min_norm(disc, basis, 0.4)
        rep = est.optimizer_report
        assert rep["iterations"] > 0
        assert math.isfinite(rep["final_gradient_norm"])
        assert rep["restarts"] >= 1
        obj = est.to_json_obj()
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
        probes = boundary_probe(punctured, [0.2, 0.1], basis, 1.0)
        assert len(probes) == 2
        for pt, z in zip(probes, (0.2, 0.1)):
            assert abs(pt.distance - z) < 1e-5
            assert pt.diagnostic > 0
        # the kernel certificate keeps value * dist^2 off zero at the puncture
        assert probes[-1].diagnostic > 0.9 / (2 * math.pi) ** 2

    def test_path_point_outside_rejected(self, disc):
        basis = degree_basis(disc, 3, 2.0)
        with pytest.raises(ConfigError):
            boundary_probe(disc, [1.5], basis, 2.0)


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
    return _monomial_values(nodes, prob.indices), w


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
        ],
    )
    def test_matches_dense_formulas(self, domain, degree, p, extra, z):
        D = make_catalog_domain(domain)
        basis = degree_basis(D, degree, p, extra_indices=extra)
        cfg = OptimizerConfig()
        prob = _SliceProblem(D, basis, np.asarray(z, dtype=complex), p, cfg)
        B, w = _dense_reference(D, prob, cfg)
        rng = np.random.default_rng(3)
        for eps2 in (0.0, 1e-4):
            c = prob.retract(rng.standard_normal(basis.size) + 1j * rng.standard_normal(basis.size))
            phi = B @ c
            a2 = np.abs(phi) ** 2 + eps2
            weights = w * a2 ** (p / 2.0 - 1.0)
            assert _rel(prob.norm_p(c, eps2), np.dot(w, a2 ** (p / 2.0))) <= 1e-12
            assert _rel(prob.grad(c, eps2), (p / 2.0) * (B.conj().T @ (weights * phi))) <= 1e-12
            assert _rel(prob.irls_matrix(c, eps2), (B.conj().T * weights) @ B) <= 1e-12

    def test_product_domain_matches_dense_formulas(self):
        # the kernel grid flattens the product's factor grids; 4^4 radial x 3^4 angular nodes
        D = make_catalog_domain(("product", ("ball", 2), ("hartogs", 3)))
        p = 1.5
        basis = degree_basis(D, 1, p)
        cfg = OptimizerConfig(radial_nodes=4, angular_nodes=3)
        prob = _SliceProblem(D, basis, np.array([0.3, 0.2, 0.5, 0.05], dtype=complex), p, cfg)
        B, w = _dense_reference(D, prob, cfg)
        assert B.shape == (4**4 * 3**4, basis.size)
        c = prob.retract(np.random.default_rng(5).standard_normal(basis.size) + 0.5j)
        phi = B @ c
        weights = w * np.abs(phi) ** (p - 2.0)
        assert _rel(prob.norm_p(c), np.dot(w, np.abs(phi) ** p)) <= 1e-12
        assert _rel(prob.grad(c, 0.0), (p / 2.0) * (B.conj().T @ (weights * phi))) <= 1e-12
        assert _rel(prob.irls_matrix(c, 0.0), (B.conj().T * weights) @ B) <= 1e-12


class TestPrunedStarts:
    """Only the 3 best certificates are optimized for p >= 1; the certified
    bounds must not fall below those found by optimizing every start."""

    @pytest.mark.parametrize("p, recorded", [(1.0, BALL2_DEG2_P1), (3.0, BALL2_DEG2_P3)])
    def test_ball2_degree2(self, ball2, p, recorded):
        est = pbergman_min_norm(ball2, degree_basis(ball2, 2, p), (0.3, 0.4))
        assert est.value >= recorded * (1.0 - 1e-9)

    def test_disc_degree20_p3(self, disc):
        est = pbergman_min_norm(disc, degree_basis(disc, 20, 3.0), 0.9)
        assert est.value >= DISC_DEG20_P3_AT_09 * (1.0 - 1e-9)
