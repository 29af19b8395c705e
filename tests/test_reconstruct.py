import math

import numpy as np
import pytest

from pbergman import (
    AnalyticFunction,
    CompositionIsometry,
    ConfigError,
    FunctionFamily,
    IsometryOracle,
    LaurentPolynomial,
    LinearMap,
    MonomialMap,
    NoBasisSupportError,
    PoleEvaluationError,
    SolverConfig,
    build_counterexample,
    build_ratio_maps,
    degree_family,
    equimeasure_check,
    grid_points,
    identity_operator,
    make_catalog_domain,
    mobius_operator,
    pullback_family,
    reconstruct_map,
    sample,
    solve_point,
    verify_modulus_identity,
    verify_proportionality,
)
from pbergman.reconstruct import _PAIR_BLOCK, RatioMaps, _merged_pairs, _shared_starts

ONE = LaurentPolynomial.one(1)
Z = LaurentPolynomial.coordinate(1, 0)

BENCH_OPERATORS = ["mobius", "unitary", "counterexample"]


def bench_operator(kind):
    """The operator and family of one reconstruct operation of the benchmark."""
    if kind == "mobius":
        return mobius_operator(0.3, 1.0), degree_family(1, 3)
    if kind == "unitary":
        c, s = math.cos(0.7), math.sin(0.7)
        ball = make_catalog_domain(("ball", 2))
        T = CompositionIsometry(
            source=ball,
            target=ball,
            mapping=LinearMap(((c, -s), (s, c))),
            weight=LaurentPolynomial.one(2),
            p=2.0,
        )
        return T, degree_family(2, 3)
    T = build_counterexample(3, 2)
    return T, pullback_family(T)


class TestOracle:
    def test_linearity_of_true_operator(self, disc):
        oracle = IsometryOracle.from_operator(identity_operator(disc, 2.0))
        family = degree_family(1, 2)
        pts = np.array([[0.2 + 0.1j], [-0.3 + 0.4j]])
        assert oracle.spot_check_linearity(family, pts) < 1e-12

    def test_nonlinear_fake_is_caught(self, disc):
        def fake(phi):
            return AnalyticFunction(1, lambda pts: np.asarray(phi(pts)) ** 2, label="sq")

        oracle = IsometryOracle(
            source=disc, target=disc, p=2.0, evaluator=fake, supports_arbitrary=True
        )
        family = degree_family(1, 2)
        pts = np.array([[0.5 + 0.2j]])
        assert oracle.spot_check_linearity(family, pts) > 0.05

    def test_family_only_oracle_refuses(self, disc):
        oracle = IsometryOracle(source=disc, target=disc, p=2.0, evaluator=lambda f: f)
        with pytest.raises(ConfigError):
            oracle.spot_check_linearity(degree_family(1, 1), np.array([[0.1 + 0.0j]]))


class TestRatioMaps:
    def test_identity_coordinates(self, disc):
        maps = build_ratio_maps(identity_operator(disc, 2.0), FunctionFamily.coordinates(1))
        pts = np.array([[0.3 + 0.2j], [-0.1 + 0.4j]])
        assert np.allclose(maps.source_ratios(pts), pts)
        assert np.allclose(maps.target_ratios(pts), pts)

    def test_zero_axes_recorded(self, polydisc2):
        lead = LaurentPolynomial.monomial(2, (2, 0))
        family = FunctionFamily(dimension=2, members=(lead, LaurentPolynomial.coordinate(2, 1)))
        maps = build_ratio_maps(identity_operator(polydisc2, 2.0), family)
        assert maps.source_zero_axes == (0,)
        with pytest.raises(PoleEvaluationError):
            maps.source_ratios(np.array([[0.0 + 0.0j, 0.5 + 0.0j]]))

    def test_needs_two_members(self, disc):
        family = FunctionFamily(dimension=1, members=(ONE,))
        with pytest.raises(ConfigError):
            build_ratio_maps(identity_operator(disc, 2.0), family)

    def test_zero_weight_operator_refused(self, disc):
        T = CompositionIsometry(
            source=disc,
            target=disc,
            mapping=MonomialMap.identity(1),
            weight=LaurentPolynomial.zero(1),
            p=3.0,
            validate=False,
        )
        with pytest.raises(ConfigError):
            build_ratio_maps(T, degree_family(1, 2))
        with pytest.raises(ConfigError):
            equimeasure_check(T, degree_family(1, 2), samples=100_000)

    def test_target_ratios_evaluate_the_point_map_once(self):
        T = mobius_operator(0.3, 1.0)
        G = T.mapping
        calls = []

        class CountingMap:
            dimension = G.dimension

            def __call__(self, pts):
                calls.append(len(pts))
                return G(pts)

        T.mapping = CountingMap()
        maps = build_ratio_maps(T, degree_family(1, 3))
        maps.target_ratios(np.array([[0.2 + 0.1j], [-0.4 + 0.3j]]))
        assert calls == [2]

    @pytest.mark.parametrize("kind", BENCH_OPERATORS)
    def test_target_ratios_equal_member_image_quotients(self, kind):
        T, family = bench_operator(kind)
        pts = sample(T.target, 5, 40).points
        got = build_ratio_maps(T, family).target_ratios(pts)
        lead = np.asarray(T.apply(family.lead)(pts))
        want = np.stack([np.asarray(T.apply(f)(pts)) / lead for f in family.members[1:]], axis=1)
        assert (got == want).all()


    @pytest.mark.parametrize("kind", BENCH_OPERATORS)
    def test_image_family_rows_do_not_depend_on_the_batch(self, kind):
        T, family = bench_operator(kind)
        maps = build_ratio_maps(T, family)
        pts = sample(T.target, 11, 257).points
        pts.imag[::5] = -0.0  # negative zeros, so their sign bits are compared too
        for f in (maps.image_family.values, maps.target_ratios):
            batch = f(pts)
            rows = np.concatenate([f(pts[i : i + 1]) for i in range(pts.shape[0])])
            assert np.array_equal(batch.view(float), rows.view(float))


class TestFamilies:
    def test_degree_family_counts(self):
        fam = degree_family(1, 3)
        assert fam.ratio_count == 3
        assert fam.lead == ONE
        fam2 = degree_family(2, 2)
        assert len(fam2.members) == 6  # 1, z1, z2, z1^2, z1 z2, z2^2

    def test_degree_family_custom_lead(self):
        z2 = LaurentPolynomial.monomial(1, (2,))
        fam = degree_family(1, 3, lead=z2)
        assert fam.lead == z2
        assert len(fam.members) == 4
        assert fam.members.count(z2) == 1

    def test_pullback_family_straightens_target_ratios(self, polydisc2):
        T = CompositionIsometry(
            source=polydisc2,
            target=polydisc2,
            mapping=MonomialMap(((0, 1), (1, 0))),
            weight=LaurentPolynomial.one(2),
            p=3.0,
            lam=1j,
            label="swap",
        )
        fam = pullback_family(T)
        maps = build_ratio_maps(T, fam)
        pts = np.array([[0.4 + 0.1j, -0.2 + 0.3j]])
        assert np.allclose(maps.target_ratios(pts), pts, rtol=1e-12)


class TestSolvePoint:
    def test_identity_point(self, disc):
        maps = build_ratio_maps(identity_operator(disc, 2.0), FunctionFamily.coordinates(1))
        ps = solve_point(maps, 0.3 + 0.2j)
        assert ps.status == "mapped"
        assert abs(ps.w[0] - (0.3 + 0.2j)) < 1e-7
        assert ps.residual < 1e-9

    def test_zero_lead_excluded(self, disc):
        fam = degree_family(1, 2, lead=Z)
        maps = build_ratio_maps(identity_operator(disc, 2.0), fam)
        ps = solve_point(maps, 0.0 + 0.0j, lead_floor=1e-12)
        assert ps.status == "excluded-zero-weight"
        assert ps.w is None
        assert ps.to_json_obj()["residual"] is None

    def test_budget_exhaustion_reported(self, disc):
        maps = build_ratio_maps(identity_operator(disc, 2.0), FunctionFamily.coordinates(1))
        ps = solve_point(maps, 0.3 + 0.2j, cfg=SolverConfig(max_iters=0))
        assert ps.status == "unresolved-budget"

    def test_unreachable_ratio_means_no_preimage(self, disc):
        def ev(phi):
            if phi == ONE:
                return ONE
            return phi * 0.2

        oracle = IsometryOracle(source=disc, target=disc, p=2.0, evaluator=ev)
        maps = build_ratio_maps(oracle, FunctionFamily.coordinates(1))
        ps = solve_point(maps, 0.9 + 0.0j)
        assert ps.status == "excluded-no-preimage"

    def test_dimension_guard(self, disc):
        maps = build_ratio_maps(identity_operator(disc, 2.0), FunctionFamily.coordinates(1))
        with pytest.raises(ConfigError):
            solve_point(maps, np.array([0.1, 0.2]))


class TestGrid:
    def test_dim1_grid(self, disc):
        pts = grid_points(disc, 5)
        assert pts.shape[1] == 1
        assert np.all(disc.contains(pts))
        assert np.max(np.abs(pts.real)) <= 0.9 + 1e-12

    def test_higher_dim_grid(self, hartogs3):
        pts = grid_points(hartogs3, 5)
        assert pts.shape == (25, 2)
        assert np.all(hartogs3.contains(pts))
        assert np.array_equal(pts, grid_points(hartogs3, 5))

    def test_count_guard(self, disc):
        with pytest.raises(ConfigError):
            grid_points(disc, 0)


class TestReconstruct:
    def test_identity_map_recovered(self, disc):
        grid = grid_points(disc, 5)
        result = reconstruct_map(identity_operator(disc, 2.0), degree_family(1, 3), grid)
        assert result.status_counts() == {"mapped": grid.shape[0]}
        worst = max(
            abs(r.w[0] - r.z[0]) for r in result.records
        )
        assert worst < 1e-7
        assert result.injectivity_violations == 0
        assert result.diagnostics["grid_size"] == grid.shape[0]

    def test_non_injective_family_flagged(self, disc):
        family = FunctionFamily(dimension=1, members=(ONE, LaurentPolynomial.monomial(1, (2,))))
        grid = np.array([[0.3 + 0.0j], [-0.3 + 0.0j]])
        result = reconstruct_map(identity_operator(disc, 2.0), family, grid)
        assert len(result.mapped) == 2
        assert result.injectivity_violations == 1

    def test_every_merged_pair_counted(self, disc):
        family = FunctionFamily(dimension=1, members=(ONE, LaurentPolynomial.monomial(1, (2,))))
        grid = np.array([[0.3 + 0.0j], [-0.3 + 0.0j], [0.5j], [-0.5j], [0.3 + 0.0j]])
        result = reconstruct_map(identity_operator(disc, 2.0), family, grid)
        assert len(result.mapped) == 5
        # the three points with z^2 = 0.09 merge pairwise, the two with z^2 = -0.25 once
        assert result.injectivity_violations == 4

    def test_degenerate_grid_rejected(self, disc):
        fam = degree_family(1, 2, lead=Z)
        with pytest.raises(ConfigError):
            reconstruct_map(identity_operator(disc, 2.0), fam, np.zeros((3, 1), dtype=complex))

    def test_json_shape(self, disc):
        grid = grid_points(disc, 3)
        result = reconstruct_map(identity_operator(disc, 2.0), degree_family(1, 2), grid)
        obj = result.to_json_obj()
        assert set(obj) == {
            "records",
            "threshold",
            "injectivity_violations",
            "status_counts",
            "diagnostics",
        }


# the disc oracle of TestLockstep: ratio z on the source, 0.2 w on the target
# (so |z| > 0.2 has no preimage), a lead that vanishes at z = 0.5, and images
# with a pole wherever Re w > _POLE_RE
_LEAD = ONE - 2.0 * Z
_POLE_RE = 0.55


def _pole_oracle(disc, raised):
    def ev(phi):
        image = phi if phi == _LEAD else phi * 0.2

        def fn(pts):
            bad = pts[:, 0].real > _POLE_RE
            if np.any(bad):
                raised.append((len(pts), int(np.count_nonzero(bad))))
                raise PoleEvaluationError("pole of the image family")
            return np.asarray(image(pts))

        return AnalyticFunction(1, fn, "pole-image")

    return IsometryOracle(source=disc, target=disc, p=2.0, evaluator=ev)


def _blowdown_slice(count):
    rng = np.random.default_rng(8)
    pts = 0.3 * (rng.standard_normal((count, 4)) + 1j * rng.standard_normal((count, 4)))
    pts[:, 0] = 0.0
    return pts


class TestLockstep:
    """Grid points are solved in lockstep; each record equals the one-point
    solve of its point."""

    @staticmethod
    def _assert_equals_one_point_solves(oracle, family, grid, cfg):
        result = reconstruct_map(oracle, family, grid, cfg)
        maps = build_ratio_maps(oracle, family)
        one = [solve_point(maps, z, cfg, result.threshold) for z in grid]
        assert [r.to_json_obj() for r in result.records] == [r.to_json_obj() for r in one]
        return result

    def test_counterexample_grid(self):
        T = build_counterexample(3, 2)
        grid = np.concatenate([sample(T.source, 4, 30).points, _blowdown_slice(2)])
        result = self._assert_equals_one_point_solves(T, pullback_family(T), grid, SolverConfig(starts=4, seed=1))
        assert result.status_counts() == {"mapped": 30, "excluded-zero-weight": 2}

    def test_mixed_grid_with_a_pole_at_a_start(self, disc):
        raised = []
        oracle = _pole_oracle(disc, raised)
        family = FunctionFamily(1, (_LEAD, _LEAD * Z))
        cfg = SolverConfig(seed=3, starts=6)
        assert _shared_starts(build_ratio_maps(oracle, family), cfg)[0, 0].real > _POLE_RE
        mapped = [0.05, -0.1j, 0.08 + 0.05j, -0.15 + 0.02j, 0.02 - 0.12j]
        # 0.14: its preimage 0.7 lies at the pole; 0.5: zero lead; 0.9: no preimage in the disc
        grid = np.array(mapped + [0.14 + 0.01j, 0.5, 0.9], dtype=complex).reshape(-1, 1)
        result = self._assert_equals_one_point_solves(oracle, family, grid, cfg)
        assert [r.status for r in result.records] == ["mapped"] * 5 + [
            "excluded-no-preimage",
            "excluded-zero-weight",
            "excluded-no-preimage",
        ]
        # the start at the pole adds no iteration; the linear ratio map then
        # converges in one step, and the iteration that sees res < tol counts
        for r in result.mapped:
            assert abs(r.w[0] - 5.0 * r.z[0]) < 1e-9
            assert r.iterations == 2
        # the first start's residual batch failed whole; some batches failed on only some rows
        assert (len(grid) - 1, len(grid) - 1) in raised
        assert any(0 < bad < rows for rows, bad in raised)

    def test_zero_iteration_budget(self, disc):
        grid = grid_points(disc, 5)
        result = reconstruct_map(identity_operator(disc, 2.0), degree_family(1, 2), grid, SolverConfig(max_iters=0))
        assert result.status_counts() == {"unresolved-budget": grid.shape[0]}
        assert all(r.iterations == 0 for r in result.records)

    def test_passes_do_not_grow_with_the_grid(self, monkeypatch):
        T = build_counterexample(3, 2)
        family = pullback_family(T)
        calls = []
        target_ratios = RatioMaps.target_ratios

        def counting(self, points):
            calls.append(len(points))
            return target_ratios(self, points)

        monkeypatch.setattr(RatioMaps, "target_ratios", counting)
        counts = {}
        for size in (10, 100):
            calls.clear()
            result = reconstruct_map(T, family, sample(T.source, 6, size).points, SolverConfig(starts=6))
            assert result.status_counts() == {"mapped": size}
            counts[size] = len(calls)
        assert counts[100] <= counts[10] + 5


class TestInjectivityCount:
    @staticmethod
    def _pairwise_loop(images, merge_tol):
        return sum(
            int(np.count_nonzero(np.linalg.norm(images[a + 1 :] - images[a], axis=1) < merge_tol))
            for a in range(len(images))
        )

    def test_blocks_match_the_pairwise_loop(self):
        rng = np.random.default_rng(3)
        for n, count in ((1, 5), (2, 300), (4, 700)):  # 1, 2 and 8 blocks
            centres = rng.standard_normal((40, n)) + 1j * rng.standard_normal((40, n))
            images = centres[rng.integers(0, 40, count)] + 1e-13 * rng.standard_normal((count, n))
            for tol in (1e-12, 1e-14):
                assert _merged_pairs(images, tol) == self._pairwise_loop(images, tol)
        assert _merged_pairs(np.zeros((0, 2), dtype=complex), 1e-12) == 0

    def test_constant_ratio_family_merges_every_pair(self, disc):
        # the source ratio is 0.3 everywhere and so is the target ratio: every
        # point is mapped to the first start
        family = FunctionFamily(dimension=1, members=(ONE, 0.3 * ONE))
        grid = grid_points(disc, 21)
        result = reconstruct_map(identity_operator(disc, 2.0), family, grid)
        images = np.array([r.w for r in result.mapped])
        assert len(images) == grid.shape[0] > _PAIR_BLOCK // grid.shape[0]
        assert result.injectivity_violations == self._pairwise_loop(images, 1e-8) == len(images) * (len(images) - 1) // 2


class TestModulusIdentity:
    def test_identity_operator_exact(self, disc):
        T = identity_operator(disc, 2.0)
        F = MonomialMap.identity(1)
        pts = np.array([[0.2 + 0.1j], [-0.4 + 0.3j], [0.5 + 0.0j]])
        tests = [ONE, Z, LaurentPolynomial.monomial(1, (2,))]
        assert verify_modulus_identity(T, F, pts, tests) < 1e-12

    def test_mobius_with_exact_jacobian(self):
        T = mobius_operator(0.3, 1.0)
        F = T.mapping  # involution: the inverse point map equals the map
        pts = np.array([[0.2 + 0.1j], [-0.3 + 0.2j]])
        tests = [ONE, Z]
        assert verify_modulus_identity(T, F, pts, tests) < 1e-10

    def test_mobius_with_fd_jacobian(self):
        T = mobius_operator(0.3, 1.0)
        mu = T.mapping

        def F(batch):
            return mu(batch)

        pts = np.array([[0.2 + 0.1j], [-0.3 + 0.2j]])
        assert verify_modulus_identity(T, F, pts, [ONE, Z]) < 1e-6


class TestProportionality:
    def test_graph_pair_certified(self, disc):
        T = identity_operator(disc, 2.0, lam=1j)
        tests = [ONE, Z, LaurentPolynomial.monomial(1, (2,))]
        lam, spread = verify_proportionality(T, 0.3 + 0.1j, 0.3 + 0.1j, tests)
        assert spread < 1e-12
        assert abs(lam - 1j) < 1e-12

    def test_non_graph_pair_rejected(self, disc):
        T = identity_operator(disc, 2.0)
        tests = [ONE, Z, LaurentPolynomial.monomial(1, (2,))]
        _, spread = verify_proportionality(T, 0.3 + 0.0j, 0.5 + 0.0j, tests)
        assert spread > 0.1

    def test_vanishing_tests_rejected(self, disc):
        T = identity_operator(disc, 2.0)
        tests = [Z, LaurentPolynomial.monomial(1, (2,))]
        with pytest.raises(NoBasisSupportError):
            verify_proportionality(T, 0.0 + 0.0j, 0.1 + 0.0j, tests)
