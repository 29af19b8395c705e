import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pbergman import (
    BranchError,
    ConfigError,
    LaurentPolynomial,
    LinearMap,
    MobiusFactors,
    MonomialMap,
    NonInvertibleMapError,
    PoleEvaluationError,
    build_counterexample,
    fd_jacobian_det,
)
from pbergman.functions import fd_stencil, fd_stencil_jacobians, monomial_values


def L(dim, terms):
    return LaurentPolynomial(dim, terms)


class TestLaurentPolynomial:
    def test_algebra_identity(self):
        one = LaurentPolynomial.one(1)
        z = LaurentPolynomial.coordinate(1, 0)
        prod = (one + z) * (one - z)
        assert prod == one - z * z

    def test_evaluate_batch_and_single(self):
        f = L(2, {(1, 0): 2.0, (0, 2): 1j})
        pts = np.array([[0.5, 0.25], [1.0, -1.0]], dtype=complex)
        vals = f(pts)
        assert vals.shape == (2,)
        assert vals[0] == pytest.approx(2 * 0.5 + 1j * 0.25**2)
        assert f(np.array([0.5, 0.25])) == pytest.approx(vals[0])

    def test_pole_hit_raises(self):
        f = L(1, {(-1,): 1.0})
        with pytest.raises(PoleEvaluationError):
            f(np.array([[0.0 + 0.0j]]))

    def test_positive_axes(self):
        f = L(3, {(1, 0, 2): 1.0, (2, 0, 1): 3.0})
        assert f.positive_axes() == (0, 2)
        g = f + L(3, {(0, 0, 1): 1.0})
        assert g.positive_axes() == (2,)

    def test_single_term_rejects_sums(self):
        f = L(1, {(0,): 1.0, (1,): 1.0})
        with pytest.raises(ValueError):
            f.single_term()

    @settings(max_examples=25, deadline=None)
    @given(
        e1=st.integers(-2, 3),
        e2=st.integers(-2, 3),
        cre=st.floats(-2, 2),
        cim=st.floats(-2, 2),
    )
    def test_product_is_pointwise(self, e1, e2, cre, cim):
        f = L(1, {(e1,): complex(cre, cim)})
        g = L(1, {(e2,): 1.5}) + L(1, {(0,): 1.0})
        z = np.array([[0.7 + 0.2j]])
        assert (f * g)(z)[0] == pytest.approx(f(z)[0] * g(z)[0], rel=1e-12, abs=1e-12)
        assert (f + g)(z)[0] == pytest.approx(f(z)[0] + g(z)[0], rel=1e-12, abs=1e-12)

    def test_json_roundtrip(self):
        f = L(2, {(1, -2): 0.5 + 0.25j, (0, 0): -1.0})
        assert LaurentPolynomial.from_json_obj(2, f.to_json_obj()) == f

    @pytest.mark.parametrize(
        "obj",
        [{"terms": []}, [{"re": 1.0}], [{"exp": [1, 0]}], [{"exp": 1, "re": 1.0}], [{"exp": [1], "re": 1.0}], ["z"]],
        ids=["not-a-list", "no-exp", "no-re", "exp-not-a-list", "exp-wrong-length", "term-not-an-object"],
    )
    def test_malformed_json_refused(self, obj):
        with pytest.raises(ConfigError):
            LaurentPolynomial.from_json_obj(2, obj)

    def test_non_integral_exponent_refused(self):
        with pytest.raises(ValueError):
            LaurentPolynomial.monomial(2, (1.7, -0.2))
        with pytest.raises(ConfigError):
            LaurentPolynomial.from_json_obj(1, [{"exp": [1.5], "re": 1.0}])
        assert LaurentPolynomial.monomial(2, (2.0, np.int64(-1))) == LaurentPolynomial.monomial(2, (2, -1))


class TestMonomialMap:
    def test_evaluate_matches_formula(self):
        m = MonomialMap(((1, 0), (-3, 1)))
        w = np.array([[0.5 + 0.1j, 0.2 - 0.3j]])
        out = m.evaluate(w)
        assert out[0, 0] == pytest.approx(w[0, 0])
        assert out[0, 1] == pytest.approx(w[0, 0] ** -3 * w[0, 1])

    def test_jacobian_vs_fd(self):
        m = MonomialMap(((1, 0, 0, 0), (-3, 1, 0, 0), (0, 0, 1, 0), (0, 0, 3, 1)))
        z = np.array([0.4 + 0.05j, 0.02 + 0.01j, 0.6 - 0.1j, 0.05 + 0.02j])
        exact = m.jacobian_det(z)
        fd = fd_jacobian_det(m, z)
        assert abs(fd - exact) / abs(exact) < 1e-7

    def test_inverse_roundtrip(self):
        m = MonomialMap(((1, 0), (-3, 1)))
        inv = m.inverse()
        w = np.array([[0.5 + 0.1j, 0.2 - 0.3j]])
        back = inv.evaluate(m.evaluate(w))
        assert np.allclose(back, w)

    def test_non_unimodular_det_rejected(self):
        with pytest.raises(NonInvertibleMapError):
            MonomialMap(((2, 0), (0, 1))).inverse()

    def test_compose_monomial_pullback(self):
        m = MonomialMap(((1, 0), (-3, 1)))
        phi = L(2, {(2, 1): 1.0})
        pulled = phi.compose_monomial(m)
        w = np.array([[0.7 + 0.1j, 0.3 - 0.2j]])
        assert pulled(w)[0] == pytest.approx(phi(m.evaluate(w))[0])


class TestWeightBranch:
    def test_modulus_identity(self):
        m = MonomialMap(((1, 0, 0, 0), (-3, 1, 0, 0), (0, 0, 1, 0), (0, 0, 3, 1)))
        p = 3.0
        branch = m.weight_branch(p)
        w = np.array([[0.5, 0.01, 0.7, 0.1]], dtype=complex) + 0.03j
        lhs = abs(branch(w)[0]) ** p
        rhs = abs(m.jacobian_det(w)[0]) ** 2
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_non_integral_branch_rejected(self):
        m = MonomialMap(((1, 0), (-3, 1)))  # J exponent (-3, 0); 2*(-3)/p must be integral
        with pytest.raises(BranchError):
            m.weight_branch(4.0)

    @pytest.mark.parametrize("p", [0.7, 1.0, 3.0])
    @pytest.mark.parametrize(
        "matrix", [((0.6, -0.8), (0.8, 0.6)), ((1.0 + 2.0j, 0.5), (-0.3j, 0.7 - 1.1j))], ids=["rotation", "complex"]
    )
    def test_linear_modulus_identity(self, matrix, p):
        U = LinearMap(matrix)
        w = np.array([[0.3 + 0.1j, -0.2 + 0.4j], [0.0, 0.5j]])
        branch = U.weight_branch(p)
        assert branch.is_monomial and not any(branch.single_term()[0])
        lhs = np.abs(np.asarray(branch(w))) ** p
        rhs = np.abs(np.asarray(U.jacobian_det(w))) ** 2
        assert np.allclose(lhs, rhs, rtol=1e-12)


class TestMobiusFactors:
    def test_involution(self):
        mu = MobiusFactors((0.3,))
        z = np.array([[0.2 + 0.4j]])
        assert np.allclose(mu(mu(z)), z)

    def test_jacobian_vs_fd(self):
        mu = MobiusFactors((0.3 + 0.1j, None))
        z = np.array([0.2 + 0.4j, -0.1 + 0.2j])
        assert abs(fd_jacobian_det(mu, z) - mu.jacobian_det(z)) < 1e-8

    def test_none_factor_is_identity(self):
        mu = MobiusFactors((None, 0.5))
        z = np.array([[0.7 - 0.2j, 0.1 + 0.1j]])
        out = mu(z)
        assert out[0, 0] == z[0, 0]


class TestLinearAndChain:
    def test_linear_inverse(self):
        c, s = math.cos(0.7), math.sin(0.7)
        U = LinearMap(((c, -s), (s, c)))
        z = np.array([[0.3 + 0.1j, -0.2 + 0.4j]])
        assert np.allclose(U.inverse()(U(z)), z)
        assert U.jacobian_det(z)[0] == pytest.approx(1.0)


class TestSharedEvaluators:
    """The monomial evaluator and the finite-difference stencil against the
    loops they replaced, written out, bit for bit."""

    def test_monomial_evaluator_matches_power_loops(self):
        rng = np.random.default_rng(5)
        for n in (1, 2, 4):
            z = rng.standard_normal((40, n)) + 1j * rng.standard_normal((40, n))
            terms = {tuple(int(e) for e in rng.integers(-3, 5, n)): complex(*rng.standard_normal(2)) for _ in range(11)}
            want = np.zeros(40, dtype=complex)
            for exp, c in terms.items():  # one term at a time
                term = np.full(40, c, dtype=complex)
                for j, e in enumerate(exp):
                    if e:
                        term = term * z[:, j] ** e
                want += term
            assert np.array_equal(LaurentPolynomial(n, terms).evaluate(z), want)
            cols = np.empty((40, len(terms)), dtype=complex)
            for k, exp in enumerate(terms):
                acc = np.ones(40, dtype=complex)
                for j, e in enumerate(exp):
                    if e:
                        acc = acc * z[:, j] ** int(e)
                cols[:, k] = acc
            assert np.array_equal(monomial_values(z, list(terms)), cols)
            m = MonomialMap(rng.integers(-2, 4, (n, n)), np.exp(1j * rng.standard_normal(n)))
            rows = np.empty((40, n), dtype=complex)
            for i in range(n):
                acc = np.full(40, m.coeffs[i], dtype=complex)
                for j in range(n):
                    if m.exponents[i, j]:
                        acc = acc * z[:, j] ** int(m.exponents[i, j])
                rows[:, i] = acc
            assert np.array_equal(m.evaluate(z), rows)

    @pytest.mark.parametrize(
        "F",
        [build_counterexample(3, 2).mapping.inverse(), MobiusFactors((0.3, None, -0.2j, 0.5))],
        ids=["counterexample-inverse", "mobius"],
    )
    def test_fd_stencil_one_batch(self, F):
        h = 1e-5
        pts = np.random.default_rng(1).uniform(-0.6, 0.6, (50, 8)).view(complex)
        for z in pts:
            stencil = np.tile(z, (16, 1))
            for j in range(4):
                stencil[4 * j + 0, j] += 2 * h
                stencil[4 * j + 1, j] += h
                stencil[4 * j + 2, j] -= h
                stencil[4 * j + 3, j] -= 2 * h
            v = F(stencil)
            want = np.stack(
                [(-v[4 * j] + 8.0 * v[4 * j + 1] - 8.0 * v[4 * j + 2] + v[4 * j + 3]) / (12.0 * h) for j in range(4)],
                axis=1,
            )
            assert np.array_equal(fd_stencil_jacobians(F(fd_stencil(z[None], h)[0]).reshape(1, 16, 4), h)[0], want)

    def test_fd_stencil_batch_matches_one_point(self):
        F = build_counterexample(3, 2).mapping.inverse()
        zs = np.random.default_rng(2).uniform(-0.6, 0.6, (9, 8)).view(complex)
        pts = fd_stencil(zs)
        assert pts.shape == (9, 16, 4)
        jacs = fd_stencil_jacobians(F(pts.reshape(-1, 4)).reshape(9, 16, 4))
        for z, jac in zip(zs, jacs):
            one = fd_stencil(z[None])
            assert np.array_equal(jac, fd_stencil_jacobians(F(one[0]).reshape(1, 16, 4))[0])

    @pytest.mark.parametrize(
        "F",
        [build_counterexample(3, 2).mapping.inverse(), MobiusFactors((0.3, None, -0.2j, 0.5))],
        ids=["counterexample-inverse", "mobius"],
    )
    def test_fd_jacobian_det_batch_matches_per_point(self, F):
        zs = np.random.default_rng(4).uniform(-0.6, 0.6, (12, 8)).view(complex)
        for h in (1e-5, 1e-3):
            dets = fd_jacobian_det(F, zs, h)
            assert dets.shape == (12,)
            # the determinant of each point's own 4 x 4 matrix, as one-point calls took it
            matrices = [fd_stencil_jacobians(F(fd_stencil(z[None], h)[0]).reshape(1, 16, 4), h)[0] for z in zs]
            assert np.array_equal(dets, [np.linalg.det(m) for m in matrices])
            single = fd_jacobian_det(F, zs[3], h)
            assert isinstance(single, complex) and single == dets[3]


def _bits(a) -> np.ndarray:
    return np.ascontiguousarray(np.asarray(a, dtype=complex)).view(float)


_ROTATION = LinearMap(((math.cos(0.7), -math.sin(0.7)), (math.sin(0.7), math.cos(0.7))))


class TestRowInvariance:
    """A batch evaluates each row to the same bits as that row alone (signed
    zeros included), which the lockstep Gauss-Newton solver relies on."""

    @staticmethod
    def _points(n, count=257):
        rng = np.random.default_rng(n)
        pts = rng.uniform(-0.6, 0.6, (count, n)) + 1j * rng.uniform(-0.6, 0.6, (count, n))
        pts.imag[::7] = -0.0  # negative zeros
        pts.real[3::11] = -0.0
        pts[pts == 0] = 0.25  # keep Laurent poles off the coordinate hyperplanes
        return pts

    @pytest.mark.parametrize(
        "F, p",
        [
            (MonomialMap(((1, 0, 0, 0), (-3, 1, 0, 0), (0, 0, 1, 0), (0, 0, 3, 1))), 3.0),
            (MonomialMap(((2, 1), (1, 1)), (1j, np.exp(0.3j))), 1.0),
            (_ROTATION, 2.0),
            (LinearMap(((0.3 + 0.1j, -0.5, 0.2j), (0.1, 0.7 - 0.2j, 0.4), (-0.6j, 0.2, 0.5 + 0.5j))), 1.5),
            (MobiusFactors((0.3,)), 1.0),
            (MobiusFactors((0.3 + 0.1j, None, -0.2 + 0.4j)), 3.0),
        ],
        ids=["monomial-4", "monomial-2", "rotation", "linear-3", "mobius-1", "mobius-3"],
    )
    def test_map_and_weight_branch(self, F, p):
        pts = self._points(F.dimension)
        for f in (F, F.weight_branch(p)):
            batch = f(pts)
            rows = np.array([f(pts[i : i + 1])[0] for i in range(pts.shape[0])])
            assert np.array_equal(_bits(batch), _bits(rows))

    def test_linear_rows_match_one_row_matmul(self):
        M = np.asarray(_ROTATION.matrix, dtype=complex)
        pts = self._points(2)
        want = np.array([(pts[i : i + 1] @ M.T)[0] for i in range(pts.shape[0])])
        assert np.array_equal(_bits(_ROTATION(pts)), _bits(want))
