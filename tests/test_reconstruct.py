import hashlib
import math
import os

import numpy as np
import pytest

import pbergman
from pbergman import (
    AnalyticFunction,
    CompositionIsometry,
    ConfigError,
    FunctionFamily,
    IsometryOracle,
    LaurentPolynomial,
    LinearMap,
    MonomialMap,
    PoleEvaluationError,
    PoleProximityWarning,
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
)
from pbergman.functions import fd_jacobian_det
from pbergman.isometry import ratio_matrix
from pbergman import reconstruct
from pbergman.reconstruct import RatioMaps, _lstsq_steps, _merged_pairs, _row_norms, _shared_starts

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
    def test_linearity_of_true_operator(self):
        # the Moebius weight is a branch, so its images are pointwise evaluators
        T = mobius_operator(0.3, 1.0)
        oracle = IsometryOracle(source=T.source, target=T.target, p=T.p, evaluator=T.apply)
        f, g = LaurentPolynomial.monomial(1, (2,)), ONE + Z
        a, b = 0.7 - 0.2j, -1.3
        pts = np.array([[0.2 + 0.1j], [-0.3 + 0.4j], [0.05 - 0.6j]])
        lhs = np.asarray(oracle.apply(f * a + g * b)(pts))
        rhs = a * np.asarray(oracle.apply(f)(pts)) + b * np.asarray(oracle.apply(g)(pts))
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    @pytest.mark.parametrize("kind", BENCH_OPERATORS)
    def test_apply_family_member_by_member(self, kind):
        T, family = bench_operator(kind)
        oracle = IsometryOracle(source=T.source, target=T.target, p=T.p, evaluator=T.apply)
        images = oracle.apply_family(family)
        assert images.dimension == T.target.dimension and images.label == family.label
        assert len(images.members) == len(family.members)
        pts = sample(T.target, 3, 7).points
        # the operator's shared evaluation of G and g keeps apply's operation order
        assert np.array_equal(images.values(pts), T.apply_family(family).values(pts))

    def test_wrapped_operator_reconstructs_like_the_operator(self):
        T, family = bench_operator("mobius")
        oracle = IsometryOracle(source=T.source, target=T.target, p=T.p, evaluator=T.apply)
        grid = grid_points(T.source, 5)
        direct = reconstruct_map(T, family, grid).to_json_obj()
        wrapped = reconstruct_map(oracle, family, grid).to_json_obj()
        assert wrapped == direct


class TestRatioMaps:
    def test_identity_coordinates(self, disc):
        maps = build_ratio_maps(identity_operator(disc, 2.0), FunctionFamily.coordinates(1))
        pts = np.array([[0.3 + 0.2j], [-0.1 + 0.4j]])
        assert np.allclose(ratio_matrix(maps.family.values(pts))[0], pts)
        assert np.allclose(maps.target_ratios(pts), pts)

    def test_lead_zero_set_refused(self, polydisc2):
        # the identity's image family is the family, so its lead z_1^2 vanishes on z_1 = 0
        lead = LaurentPolynomial.monomial(2, (2, 0))
        family = FunctionFamily(dimension=2, members=(lead, LaurentPolynomial.coordinate(2, 1)))
        maps = build_ratio_maps(identity_operator(polydisc2, 2.0), family)
        on_zero_set = np.array([[0.0 + 0.0j, 0.5 + 0.0j]])
        assert not ratio_matrix(maps.family.values(on_zero_set))[1].any()
        with pytest.raises(PoleEvaluationError):
            maps.target_ratios(on_zero_set)

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

    def test_counterexample_starts_and_grid_are_pinned(self):
        # sample draws a Generator in short batches; these values must not move
        T = build_counterexample(3, 2)
        starts = _shared_starts(build_ratio_maps(T, pullback_family(T)), SolverConfig())
        grid = grid_points(T.source, 10)
        assert starts.shape == (8, 4) and grid.shape == (100, 4)
        assert hashlib.sha256(starts.tobytes()).hexdigest() == (
            "3e9181251362c9465041278b82aff324cba07480a5e482e9f4933f246e402835"
        )
        assert hashlib.sha256(grid.tobytes()).hexdigest() == (
            "f1a6a6b92217398659faeb48150cdfc4af5399923fdff2f781b3403970db0c2a"
        )


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

    def test_one_stacked_lstsq_call_per_iteration(self, monkeypatch):
        T = mobius_operator(0.3, 1.0)
        maps = build_ratio_maps(T, degree_family(1, 3))
        cfg = SolverConfig(seed=2)
        calls = []
        steps = reconstruct._lstsq_steps

        def counting(jac, rhs):
            calls.append(jac.shape[0])
            return steps(jac, rhs)

        monkeypatch.setattr(reconstruct, "_lstsq_steps", counting)
        for size in (10, 100):
            calls.clear()
            targets = ratio_matrix(maps.family.values(sample(T.source, 6, size).points))[0]
            _, res, its, stalled = reconstruct._gn_lockstep(maps, targets, _shared_starts(maps, cfg)[0], cfg)
            assert np.all(res < cfg.tol) and not stalled.any()
            # every row takes one step per iteration before the one that sees it converged
            assert len(calls) == its.max() - 1 > 3
            assert sum(calls) == np.sum(its - 1)


class TestStackedLinalg:
    """The stacked residual norms and least-squares steps of the lockstep
    solver have the bits of np.linalg.norm and np.linalg.lstsq per row."""

    @pytest.mark.parametrize("width", range(1, 17))
    def test_row_norms_match_norm(self, width):
        rng = np.random.default_rng(width)
        full = rng.standard_normal((40, 3, width)) + 1j * rng.standard_normal((40, 3, width))
        full *= 10.0 ** rng.integers(-8, 8, (40, 3, 1))
        for rows in (full[:, 1], full[3:37:2, 0], full[rng.permutation(40)[:25], 2], full[full[:, 0, 0].real > 0, 1]):
            assert np.array_equal(_row_norms(rows), [np.linalg.norm(row) for row in rows])

    @pytest.mark.parametrize("shape", [(3, 3), (5, 2), (2, 4), (6, 1), (1, 1)])
    @pytest.mark.parametrize("kind", ["full", "rank-deficient", "zero"])
    def test_lstsq_steps_match_lstsq(self, shape, kind):
        rng = np.random.default_rng(sum(shape))
        jac = rng.standard_normal((30, *shape)) + 1j * rng.standard_normal((30, *shape))
        if kind == "rank-deficient":
            jac[..., -1] = 0.5j * jac[..., 0]  # a repeated column, so rank < n (for n > 1)
            jac[:, -1] = 0.0  # and a zero row
        elif kind == "zero":
            jac[:] = 0.0
        rhs = rng.standard_normal((30, shape[0])) + 1j * rng.standard_normal((30, shape[0]))
        # a transposed view, as fd_stencil_jacobians returns
        jac = np.ascontiguousarray(jac.transpose(0, 2, 1)).transpose(0, 2, 1)
        want = [np.linalg.lstsq(a, -b, rcond=None)[0] for a, b in zip(jac, rhs)]
        assert np.array_equal(_lstsq_steps(jac, -rhs), want)

    def test_nan_jacobian_raises_like_lstsq(self):
        jac = np.ones((3, 4, 2), dtype=complex)
        jac[1, 2, 0] = np.nan
        rhs = np.ones((3, 4), dtype=complex)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.lstsq(jac[1], rhs[1], rcond=None)
        with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"):
            _lstsq_steps(jac, rhs)

    def test_empty_batch(self):
        steps = _lstsq_steps(np.zeros((0, 4, 2), dtype=complex), np.zeros((0, 4), dtype=complex))
        assert steps.shape == (0, 2) and steps.dtype == complex
        assert _row_norms(np.zeros((0, 3), dtype=complex)).shape == (0,)


class TestInjectivityCount:
    @staticmethod
    def _pairwise_loop(images, merge_tol):
        return sum(
            int(np.count_nonzero(np.linalg.norm(images[a + 1 :] - images[a], axis=1) < merge_tol))
            for a in range(len(images))
        )

    def test_sweep_matches_the_pairwise_loop(self):
        rng = np.random.default_rng(3)
        for n, count in ((1, 5), (2, 300), (4, 700)):
            centres = rng.standard_normal((40, n)) + 1j * rng.standard_normal((40, n))
            images = centres[rng.integers(0, 40, count)] + 1e-13 * rng.standard_normal((count, n))
            for tol in (1e-12, 1e-14):
                assert _merged_pairs(images, tol) == self._pairwise_loop(images, tol)
        assert _merged_pairs(np.zeros((0, 2), dtype=complex), 1e-12) == 0
        assert _merged_pairs(np.array([], dtype=complex), 1e-12) == 0

    def test_tied_sort_keys(self):
        # many images share Re w_1 exactly and differ elsewhere, near and far
        rng = np.random.default_rng(4)
        keys = rng.integers(0, 5, 400) * 0.25
        rest = rng.integers(0, 3, (400, 2)) * 1e-9 + 1j * rng.integers(0, 2, (400, 2)) * 0.5
        images = np.column_stack([keys + 1j * rng.integers(0, 2, 400) * 1e-13, rest])
        for tol in (1e-8, 1e-12):
            assert _merged_pairs(images, tol) == self._pairwise_loop(images, tol) > 0

    def test_gap_of_exactly_merge_tol(self):
        # |d| = merge_tol is not below it, and a hair under it is
        tol = 2.0**-20
        for x in (0.0, 0.375, -3.0):
            images = np.array([[x, 1j], [x + tol, 1j], [x + tol - tol * 2.0**-30, 1j]], dtype=complex)
            assert images[1, 0].real - images[0, 0].real == tol
            assert _merged_pairs(images, tol) == self._pairwise_loop(images, tol) == 2

    def test_constant_ratio_family_merges_every_pair(self, disc):
        # the source ratio is 0.3 everywhere and so is the target ratio: every
        # point is mapped to the first start, the sweep's quadratic case
        family = FunctionFamily(dimension=1, members=(ONE, 0.3 * ONE))
        grid = grid_points(disc, 21)
        result = reconstruct_map(identity_operator(disc, 2.0), family, grid)
        images = np.array([r.w for r in result.mapped])
        assert len(images) == grid.shape[0]
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

    @pytest.mark.parametrize("case", ["counterexample", "mobius-exact", "mobius-fd"])
    def test_batch_matches_per_point_loop(self, case):
        if case == "counterexample":
            T = build_counterexample()
            F, pts = T.mapping.inverse(), sample(T.source, 0, 100).points
            tests = [LaurentPolynomial.one(4), LaurentPolynomial.monomial(4, (2, 0, 0, 0)),
                     LaurentPolynomial.monomial(4, (0, 0, 1, 1))]
        else:
            T = mobius_operator(0.3, 1.0)
            F = T.mapping if case == "mobius-exact" else (lambda batch: T.mapping(batch))
            pts, tests = np.array([[0.2 + 0.1j], [-0.3 + 0.2j]]), [ONE, Z]
        assert abs(verify_modulus_identity(T, F, pts, tests) - _modulus_identity_per_point(T, F, pts, tests)) <= 1e-15

    @pytest.mark.parametrize("case", ["mobius", "counterexample"])
    def test_batched_fd_jacobians_match_the_per_point_loop(self, case):
        if case == "mobius":
            T = mobius_operator(0.3, 1.0)
            inverse, tests = (lambda z: (0.3 - z) / (1.0 - 0.3 * z)), [ONE, Z, LaurentPolynomial.monomial(1, (2,))]
        else:
            T = build_counterexample()
            inverse, tests = T.mapping.inverse(), [LaurentPolynomial.one(4), LaurentPolynomial.monomial(4, (0, 0, 1, 1))]
        pts = sample(T.source, 5, 100).points

        class PerPoint:
            """The inverse with the Jacobian determinants of the per-point loop."""

            def __call__(self, z):
                return inverse(z)

            def jacobian_det(self, z):
                return np.array([fd_jacobian_det(inverse, row, 1e-3) for row in z])

        def F(z):
            return inverse(z)

        assert verify_modulus_identity(T, F, pts, tests) == verify_modulus_identity(T, PerPoint(), pts, tests)

    def test_singular_fd_jacobian_warning_names_caller(self, disc):
        # a caller compiled under a package file name stands for a scenario
        # calling the check: the warning still names this file
        T = identity_operator(disc, 2.0)
        scope = {"verify_modulus_identity": verify_modulus_identity}
        code = "def from_package(*args):\n    return verify_modulus_identity(*args)\n"
        exec(compile(code, os.path.join(os.path.dirname(pbergman.__file__), "scenarios.py"), "exec"), scope)

        def constant(batch):
            return 0.0 * batch + 0.1

        pts = np.array([[0.2 + 0.1j], [-0.3 + 0.2j]])
        for check in (verify_modulus_identity, scope["from_package"]):
            with pytest.warns(PoleProximityWarning, match="2 of 2 points") as rec:
                check(T, constant, pts, [ONE])
            assert [w.filename for w in rec] == [__file__]


def _modulus_identity_per_point(T, F, pts, tests):
    """verify_modulus_identity written one point at a time."""
    jacobian = getattr(F, "jacobian_det", None)
    images = [T.apply(phi) for phi in tests]
    worst = 0.0
    for z in pts:
        z = z.reshape(1, -1)
        w = np.asarray(F(z)).reshape(1, -1)
        jf = complex(np.asarray(jacobian(z) if jacobian is not None else fd_jacobian_det(F, z, 1e-3)).reshape(-1)[0])
        factor = abs(jf) ** (2.0 / T.p)
        for phi, image in zip(tests, images):
            rhs = abs(complex(np.asarray(phi(z))[0]))
            if rhs != 0.0:
                worst = max(worst, abs(abs(complex(np.asarray(image(w))[0])) * factor - rhs) / rhs)
    return worst
