"""Exact symbolic layer: Laurent polynomials, monomial maps, map chains,
Jacobian determinants, and single-valued branches of fractional Jacobian
powers.

Everything an operator produces from a finite Laurent expansion stays in
closed form; numeric fallbacks live in :class:`AnalyticFunction`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import BranchError, NonInvertibleMapError, PoleEvaluationError

Exponents = tuple  # tuple[int, ...]


def _as_points(points, dimension: int) -> tuple[np.ndarray, bool]:
    """Normalise input to an (m, dimension) complex array.

    Returns the array and a flag telling whether the caller passed a single
    point (so results should be unwrapped back to a scalar).
    """
    pts = np.asarray(points, dtype=complex)
    if pts.ndim == 0:
        if dimension != 1:
            raise ValueError(f"scalar point given for dimension {dimension}")
        return pts.reshape(1, 1), True
    if pts.ndim == 1:
        if dimension == 1:
            return pts.reshape(-1, 1), False
        if pts.shape[0] != dimension:
            raise ValueError(f"point of length {pts.shape[0]} for dimension {dimension}")
        return pts.reshape(1, -1), True
    if pts.ndim == 2 and pts.shape[1] == dimension:
        return pts, False
    raise ValueError(f"expected points of shape (m, {dimension}), got {pts.shape}")


def _check_poles(pts: np.ndarray, axes: Iterable[int]) -> None:
    for j in axes:
        if np.any(pts[:, j] == 0):
            raise PoleEvaluationError(
                f"negative exponent on coordinate {j} evaluated at a coordinate zero"
            )


class LaurentPolynomial:
    """Finite Laurent expansion sum_a c_a z^a with integer multi-exponents.

    Terms with exactly zero coefficient are never stored.
    """

    __slots__ = ("dimension", "terms", "_negative_axes")

    def __init__(self, dimension: int, terms: Mapping[Exponents, complex]):
        self.dimension = int(dimension)
        clean: dict[tuple, complex] = {}
        for exp, coeff in terms.items():
            exp = tuple(int(e) for e in exp)
            if len(exp) != self.dimension:
                raise ValueError(f"exponent {exp} does not match dimension {self.dimension}")
            c = complex(coeff)
            if c != 0:
                clean[exp] = clean.get(exp, 0.0) + c
                if clean[exp] == 0:
                    del clean[exp]
        self.terms = clean
        neg = set()
        for exp in clean:
            for j, e in enumerate(exp):
                if e < 0:
                    neg.add(j)
        self._negative_axes = tuple(sorted(neg))

    # -- constructors ------------------------------------------------------

    @classmethod
    def monomial(cls, dimension: int, exponents: Sequence[int], coeff: complex = 1.0) -> "LaurentPolynomial":
        return cls(dimension, {tuple(exponents): coeff})

    @classmethod
    def one(cls, dimension: int) -> "LaurentPolynomial":
        return cls.monomial(dimension, (0,) * dimension, 1.0)

    @classmethod
    def coordinate(cls, dimension: int, axis: int) -> "LaurentPolynomial":
        exp = [0] * dimension
        exp[axis] = 1
        return cls.monomial(dimension, exp, 1.0)

    @classmethod
    def zero(cls, dimension: int) -> "LaurentPolynomial":
        return cls(dimension, {})

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def single_term(self) -> tuple[tuple, complex]:
        if not self.is_monomial:
            raise ValueError("not a single-term Laurent polynomial")
        return next(iter(self.terms.items()))

    def max_abs_exponent(self) -> int:
        if not self.terms:
            return 0
        return max(abs(e) for exp in self.terms for e in exp)

    def positive_axes(self) -> tuple[int, ...]:
        """Coordinates j such that every term carries a strictly positive power of z_j.

        The zero set of the polynomial contains {z_j = 0} exactly for these j
        when the polynomial is a monomial.
        """
        axes = []
        for j in range(self.dimension):
            if self.terms and all(exp[j] > 0 for exp in self.terms):
                axes.append(j)
        return tuple(axes)

    # -- evaluation --------------------------------------------------------

    def evaluate(self, points) -> np.ndarray | complex:
        pts, single = _as_points(points, self.dimension)
        _check_poles(pts, self._negative_axes)
        out = np.zeros(pts.shape[0], dtype=complex)
        for exp, coeff in self.terms.items():
            term = np.full(pts.shape[0], coeff, dtype=complex)
            for j, e in enumerate(exp):
                if e:
                    term = term * pts[:, j] ** e
            out += term
        return out[0] if single else out

    __call__ = evaluate

    # -- algebra -----------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, LaurentPolynomial):
            if other.dimension != self.dimension:
                raise ValueError("dimension mismatch")
            merged = dict(self.terms)
            for exp, coeff in other.terms.items():
                merged[exp] = merged.get(exp, 0.0) + coeff
            return LaurentPolynomial(self.dimension, merged)
        if isinstance(other, (int, float, complex)):
            return self + LaurentPolynomial.monomial(self.dimension, (0,) * self.dimension, other)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return LaurentPolynomial(self.dimension, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other if isinstance(other, LaurentPolynomial) else -complex(other))

    def __mul__(self, other):
        if isinstance(other, LaurentPolynomial):
            if other.dimension != self.dimension:
                raise ValueError("dimension mismatch")
            out: dict[tuple, complex] = {}
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    e = tuple(a + b for a, b in zip(e1, e2))
                    out[e] = out.get(e, 0.0) + c1 * c2
            return LaurentPolynomial(self.dimension, out)
        if isinstance(other, (int, float, complex)):
            return LaurentPolynomial(self.dimension, {e: c * other for e, c in self.terms.items()})
        return NotImplemented

    __rmul__ = __mul__

    def partial(self, axis: int) -> "LaurentPolynomial":
        """Complex partial derivative d/dz_axis, term by term."""
        out: dict[tuple, complex] = {}
        for exp, coeff in self.terms.items():
            e = exp[axis]
            if e == 0:
                continue
            new = list(exp)
            new[axis] = e - 1
            new = tuple(new)
            out[new] = out.get(new, 0.0) + coeff * e
        return LaurentPolynomial(self.dimension, out)

    def compose_monomial(self, inner: "MonomialMap") -> "LaurentPolynomial":
        """Pullback under a monomial map: (self o inner)(w)."""
        if inner.dimension != self.dimension:
            raise ValueError("dimension mismatch")
        out: dict[tuple, complex] = {}
        et = inner.exponents.T
        for exp, coeff in self.terms.items():
            new_exp = tuple(int(v) for v in et @ np.asarray(exp, dtype=np.int64))
            factor = complex(coeff)
            for j, e in enumerate(exp):
                if e:
                    factor *= inner.coeffs[j] ** e
            out[new_exp] = out.get(new_exp, 0.0) + factor
        return LaurentPolynomial(self.dimension, out)

    # -- comparison / io ----------------------------------------------------

    def allclose(self, other: "LaurentPolynomial", tol: float = 1e-12) -> bool:
        if self.dimension != other.dimension:
            return False
        exps = set(self.terms) | set(other.terms)
        scale = max([abs(c) for c in self.terms.values()] + [abs(c) for c in other.terms.values()] + [1.0])
        return all(abs(self.terms.get(e, 0.0) - other.terms.get(e, 0.0)) <= tol * scale for e in exps)

    def __eq__(self, other):
        return (
            isinstance(other, LaurentPolynomial)
            and self.dimension == other.dimension
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.dimension, frozenset(self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return "LaurentPolynomial(0)"
        bits = [f"{c:.6g}*z^{e}" for e, c in sorted(self.terms.items())]
        return "LaurentPolynomial(" + " + ".join(bits) + ")"

    def to_json_obj(self) -> list:
        return [
            {"exp": list(exp), "re": c.real, "im": c.imag}
            for exp, c in sorted(self.terms.items())
        ]

    @classmethod
    def from_json_obj(cls, dimension: int, obj: Sequence[Mapping]) -> "LaurentPolynomial":
        terms = {tuple(item["exp"]): complex(item["re"], item.get("im", 0.0)) for item in obj}
        return cls(dimension, terms)


class MonomialMap:
    """Coordinate map w_i = c_i * prod_j z_j^{E_ij} with |c_i| = 1.

    The exponent matrix E is a square integer matrix; the map is a local
    biholomorphism off the coordinate hyperplanes whenever det E != 0.
    """

    __slots__ = ("exponents", "coeffs", "dimension")

    def __init__(self, exponents, coeffs=None):
        E = np.asarray(exponents, dtype=np.int64)
        if E.ndim != 2 or E.shape[0] != E.shape[1]:
            raise ValueError("exponent matrix must be square")
        self.exponents = E
        self.dimension = E.shape[0]
        if coeffs is None:
            c = np.ones(self.dimension, dtype=complex)
        else:
            c = np.asarray(coeffs, dtype=complex)
            if c.shape != (self.dimension,):
                raise ValueError("coefficient vector has wrong length")
            if np.any(np.abs(np.abs(c) - 1.0) > 1e-12):
                raise ValueError("monomial map coefficients must be unimodular")
        self.coeffs = c

    @classmethod
    def identity(cls, dimension: int) -> "MonomialMap":
        return cls(np.eye(dimension, dtype=np.int64))

    def _negative_axes(self) -> tuple[int, ...]:
        return tuple(j for j in range(self.dimension) if np.any(self.exponents[:, j] < 0))

    def evaluate(self, points) -> np.ndarray:
        pts, single = _as_points(points, self.dimension)
        _check_poles(pts, self._negative_axes())
        out = np.empty_like(pts)
        for i in range(self.dimension):
            acc = np.full(pts.shape[0], self.coeffs[i], dtype=complex)
            for j in range(self.dimension):
                e = self.exponents[i, j]
                if e:
                    acc = acc * pts[:, j] ** int(e)
            out[:, i] = acc
        return out[0] if single else out

    __call__ = evaluate

    def det_exponents(self) -> int:
        E = self.exponents
        det = round(float(np.linalg.det(E.astype(float))))
        # integer matrices of the sizes used here are far from the rounding limit
        return int(det)

    def jacobian_monomial(self) -> LaurentPolynomial:
        """Exact Jacobian determinant as a single Laurent term.

        For w_i = c_i z^{E_i}: J(z) = det(E) * prod_i w_i(z) / z_i, which
        collapses to one monomial with exponent colsum(E) - 1.
        """
        det = self.det_exponents()
        if det == 0:
            raise NonInvertibleMapError("exponent matrix is singular")
        coeff = det * np.prod(self.coeffs)
        exp = tuple(int(s) - 1 for s in self.exponents.sum(axis=0))
        return LaurentPolynomial.monomial(self.dimension, exp, coeff)

    def jacobian_det(self, points):
        return self.jacobian_monomial().evaluate(points)

    def inverse(self) -> "MonomialMap":
        det = self.det_exponents()
        if abs(det) != 1:
            raise NonInvertibleMapError(
                f"exponent matrix must be unimodular to invert exactly (det = {det})"
            )
        Einv = np.rint(np.linalg.inv(self.exponents.astype(float))).astype(np.int64)
        if not np.array_equal(self.exponents @ Einv, np.eye(self.dimension, dtype=np.int64)):
            raise NonInvertibleMapError("integer inverse verification failed")
        # z_j = prod_i (w_i / c_i)^{Einv_ji}
        coeffs = np.array(
            [np.prod([self.coeffs[i] ** int(-Einv[j, i]) for i in range(self.dimension)]) for j in range(self.dimension)],
            dtype=complex,
        )
        return MonomialMap(Einv, coeffs)

    def compose(self, inner: "MonomialMap") -> "MonomialMap":
        """(self o inner)(z) = self(inner(z))."""
        if inner.dimension != self.dimension:
            raise ValueError("dimension mismatch")
        E = self.exponents @ inner.exponents
        coeffs = np.empty(self.dimension, dtype=complex)
        for i in range(self.dimension):
            acc = self.coeffs[i]
            for j in range(self.dimension):
                e = self.exponents[i, j]
                if e:
                    acc *= inner.coeffs[j] ** int(e)
            coeffs[i] = acc
        return MonomialMap(E, coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, MonomialMap)
            and np.array_equal(self.exponents, other.exponents)
            and np.allclose(self.coeffs, other.coeffs, rtol=0, atol=1e-14)
        )

    def __repr__(self):
        return f"MonomialMap(E={self.exponents.tolist()}, c={self.coeffs.tolist()})"

    def to_json_obj(self) -> dict:
        return {
            "exponents": self.exponents.tolist(),
            "coeffs": [{"re": c.real, "im": c.imag} for c in self.coeffs],
        }

    @classmethod
    def from_json_obj(cls, obj: Mapping) -> "MonomialMap":
        coeffs = [complex(c["re"], c.get("im", 0.0)) for c in obj["coeffs"]]
        return cls(obj["exponents"], coeffs)


def weight_branch(mapping, p: float) -> LaurentPolynomial:
    """Single-valued Laurent branch of J^{2/p} for a monomial map.

    The Jacobian is one Laurent term c * z^beta; the branch returned is
    |c|^{2/p} * z^{(2/p) beta}, defined only when (2/p) beta is integral.
    It satisfies |branch(z)|^p = |J(z)|^2 exactly and differs from any other
    branch by a unimodular constant.
    """
    if isinstance(mapping, HoloMapExpr):
        mapping = mapping.as_monomial_map()
    jac = mapping.jacobian_monomial()
    beta, coeff = jac.single_term()
    scaled = [2.0 * b / p for b in beta]
    rounded = [round(s) for s in scaled]
    if any(abs(s - r) > 1e-9 for s, r in zip(scaled, rounded)):
        raise BranchError(
            f"(2/p)*{beta} = {scaled} is not an integer vector; no Laurent branch exists"
        )
    return LaurentPolynomial.monomial(mapping.dimension, rounded, abs(coeff) ** (2.0 / p))


# -- general holomorphic map chains ---------------------------------------


@dataclass(frozen=True)
class MobiusFactors:
    """Coordinate-wise disc automorphisms w_j -> (a_j - w_j)/(1 - conj(a_j) w_j).

    A ``None`` entry leaves that coordinate unchanged. Each factor is an
    involution of the unit disc.
    """

    params: tuple

    @property
    def dimension(self) -> int:
        return len(self.params)

    def evaluate(self, points):
        pts, single = _as_points(points, self.dimension)
        out = pts.copy()
        for j, a in enumerate(self.params):
            if a is None:
                continue
            a = complex(a)
            out[:, j] = (a - pts[:, j]) / (1.0 - np.conj(a) * pts[:, j])
        return out[0] if single else out

    __call__ = evaluate

    def jacobian_det(self, points):
        pts, single = _as_points(points, self.dimension)
        det = np.ones(pts.shape[0], dtype=complex)
        for j, a in enumerate(self.params):
            if a is None:
                continue
            a = complex(a)
            det = det * (abs(a) ** 2 - 1.0) / (1.0 - np.conj(a) * pts[:, j]) ** 2
        return det[0] if single else det

    def inverse(self) -> "MobiusFactors":
        return self


@dataclass(frozen=True)
class LinearMap:
    """Invertible linear map w = M z (rows of ``matrix`` are output rows)."""

    matrix: tuple

    @property
    def dimension(self) -> int:
        return len(self.matrix)

    def _mat(self) -> np.ndarray:
        return np.asarray(self.matrix, dtype=complex)

    def evaluate(self, points):
        pts, single = _as_points(points, self.dimension)
        out = pts @ self._mat().T
        return out[0] if single else out

    __call__ = evaluate

    def jacobian_det(self, points):
        pts, single = _as_points(points, self.dimension)
        det = complex(np.linalg.det(self._mat()))
        vals = np.full(pts.shape[0], det, dtype=complex)
        return vals[0] if single else vals

    def inverse(self) -> "LinearMap":
        M = self._mat()
        if abs(np.linalg.det(M)) < 1e-14:
            raise NonInvertibleMapError("linear map is singular")
        Minv = np.linalg.inv(M)
        return LinearMap(tuple(tuple(row) for row in Minv))


class HoloMapExpr:
    """Composition chain of monomial, Moebius, and linear stages.

    Stages apply left to right: evaluate(z) = stage_k(... stage_1(z)).
    The Jacobian determinant multiplies along the chain.
    """

    __slots__ = ("stages", "dimension")

    def __init__(self, stages: Sequence):
        stages = tuple(stages)
        if not stages:
            raise ValueError("empty map chain")
        dim = stages[0].dimension
        for s in stages:
            if s.dimension != dim:
                raise ValueError("all stages must share one dimension")
        self.stages = stages
        self.dimension = dim

    def evaluate(self, points):
        pts, single = _as_points(points, self.dimension)
        cur = pts
        for stage in self.stages:
            cur = stage.evaluate(cur)
        return cur[0] if single else cur

    __call__ = evaluate

    def jacobian_det(self, points):
        pts, single = _as_points(points, self.dimension)
        det = np.ones(pts.shape[0], dtype=complex)
        cur = pts
        for stage in self.stages:
            det = det * stage.jacobian_det(cur)
            cur = stage.evaluate(cur)
        return det[0] if single else det

    def inverse(self) -> "HoloMapExpr":
        return HoloMapExpr([s.inverse() for s in reversed(self.stages)])

    def as_monomial_map(self) -> MonomialMap:
        if not all(isinstance(s, MonomialMap) for s in self.stages):
            raise BranchError("map chain contains non-monomial stages")
        acc = self.stages[0]
        for stage in self.stages[1:]:
            acc = stage.compose(acc)
        return acc


class AnalyticFunction:
    """Pointwise-evaluatable holomorphic function.

    Fallback representation for operator images that leave the Laurent class
    (Moebius weights, linear pullbacks of monomials).
    """

    __slots__ = ("dimension", "fn", "label")

    def __init__(self, dimension: int, fn: Callable[[np.ndarray], np.ndarray], label: str = ""):
        self.dimension = int(dimension)
        self.fn = fn
        self.label = label

    def evaluate(self, points):
        pts, single = _as_points(points, self.dimension)
        vals = np.asarray(self.fn(pts), dtype=complex)
        return vals[0] if single else vals

    __call__ = evaluate

    def __repr__(self):
        return f"AnalyticFunction({self.label or 'anonymous'}, dim={self.dimension})"


# -- finite differences ----------------------------------------------------


def fd_complex_derivative(evaluate, z, axis: int, h: float = 1e-5):
    """Fourth-order central difference of a holomorphic map along one coordinate.

    ``evaluate`` takes (m, n) points; returns the derivative of each output
    component with respect to z_axis at the single point ``z``.
    """
    z = np.asarray(z, dtype=complex).reshape(-1)
    shifts = np.array([2.0, 1.0, -1.0, -2.0]) * h
    pts = np.tile(z, (4, 1))
    pts[:, axis] += shifts
    vals = np.asarray(evaluate(pts), dtype=complex)
    if vals.ndim == 1:
        vals = vals.reshape(4, 1)
    return (-vals[0] + 8.0 * vals[1] - 8.0 * vals[2] + vals[3]) / (12.0 * h)


def fd_jacobian_matrix(map_like, z, h: float = 1e-5) -> np.ndarray:
    """Full complex Jacobian matrix of a map at a point, by finite differences."""
    z = np.asarray(z, dtype=complex).reshape(-1)
    n = z.shape[0]
    evaluate = map_like.evaluate if hasattr(map_like, "evaluate") else map_like
    cols = [fd_complex_derivative(evaluate, z, j, h) for j in range(n)]
    return np.stack(cols, axis=1)


def fd_jacobian_det(map_like, z, h: float = 1e-5) -> complex:
    return complex(np.linalg.det(fd_jacobian_matrix(map_like, z, h)))
