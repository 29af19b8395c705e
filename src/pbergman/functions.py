"""Exact symbolic layer: Laurent polynomials, the point maps (monomial,
Moebius, linear), their Jacobian determinants, each map's single-valued
branch of the Jacobian power J^{2/p}, and the readers of input numbers and
of the parameters of table-described specs.

Everything an operator produces from a finite Laurent expansion stays in
closed form; numeric fallbacks live in :class:`AnalyticFunction`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import BranchError, ConfigError, NonInvertibleMapError, PoleEvaluationError

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


def monomial_column(pts: np.ndarray, alpha, coeff: complex = 1.0) -> np.ndarray:
    """coeff * prod_j z_j^{alpha_j} over the rows of pts, multiplied in
    coordinate order."""
    col = np.full(pts.shape[0], coeff, dtype=complex)
    for j, e in enumerate(alpha):
        if e:
            col = col * pts[:, j] ** int(e)
    return col


def monomial_values(pts: np.ndarray, exponents, coeffs=None) -> np.ndarray:
    """Matrix of monomial columns: rows are points, column k is
    c_k z^{alpha_k} (c_k = 1 when coeffs is None)."""
    out = np.empty((pts.shape[0], len(exponents)), dtype=complex)
    for k, alpha in enumerate(exponents):
        out[:, k] = monomial_column(pts, alpha, 1.0 if coeffs is None else coeffs[k])
    return out


def complex_from_json(v) -> complex:
    """A complex number written in JSON as a number, a string such as
    "0.3+0.1j", or an object {"re": ..., "im": ...} (missing parts are 0)."""
    try:
        if isinstance(v, dict):
            return complex(float(v.get("re", 0.0)), float(v.get("im", 0.0)))
        return complex(v)
    except (TypeError, ValueError):
        raise ConfigError(f"expected a complex number (number, string or {{re, im}}), got {v!r}") from None


def number_from_json(v, name: str, integer: bool = False):
    """A finite number given as a JSON number or a numeric string, returned as
    an int when `integer` (it must be integral then); ConfigError otherwise."""
    try:
        x = math.nan if isinstance(v, bool) else float(v)
    except (TypeError, ValueError):
        x = math.nan
    if not math.isfinite(x) or (integer and not x.is_integer()):
        raise ConfigError(f"{name} must be {'an integer' if integer else 'a finite number'}, got {v!r}")
    return int(x) if integer else x


REQUIRED = object()  # a parameter default meaning: no default, the value must be given


def read_params(table: Mapping[str, dict], kind, given, noun: str) -> tuple[dict, str]:
    """The given parameters of `kind`, by name in a dict or by position in a
    tuple, over its defaults in `table` (kind -> {name: default or REQUIRED}),
    and the kind's usage line; ConfigError when any of them does not fit."""
    if not isinstance(kind, str) or kind not in table:
        raise ConfigError(f"unknown {noun} {kind!r}; known: {', '.join(table)}")
    names = list(table[kind])
    usage = f"{kind}({', '.join(names)})"
    if isinstance(given, tuple) and len(given) <= len(names):
        given = dict(zip(names, given))
    if not isinstance(given, dict) or not set(given) <= set(names):
        extra = {key: v for key, v in given.items() if key not in names} if isinstance(given, dict) else given
        raise ConfigError(f"{usage} cannot take {extra!r}")
    params = {**table[kind], **given}
    if any(v is REQUIRED for v in params.values()):
        raise ConfigError(f"{usage} needs {', '.join(name for name, v in params.items() if v is REQUIRED)}")
    return params, usage


class LaurentPolynomial:
    """Finite Laurent expansion sum_a c_a z^a with integer multi-exponents.

    Terms with exactly zero coefficient are never stored; an exponent that
    is not integral is refused with ValueError.
    """

    __slots__ = ("dimension", "terms", "_negative_axes")

    def __init__(self, dimension: int, terms: Mapping[Exponents, complex]):
        self.dimension = int(dimension)
        clean: dict[tuple, complex] = {}
        for exp, coeff in terms.items():
            if not all(float(e).is_integer() for e in exp):
                raise ValueError(f"exponent {tuple(exp)} is not integral")
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
            out += monomial_column(pts, exp, coeff)
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
        """Read a term list ``[{"exp": [...], "re": ..., "im": ...}, ...]``;
        raises ConfigError when it is malformed."""
        if not isinstance(obj, list):
            raise ConfigError(f"a Laurent polynomial is a list of terms, got {obj!r}")
        try:
            terms = {tuple(item["exp"]): complex(item["re"], item.get("im", 0.0)) for item in obj}
            return cls(dimension, terms)
        except (KeyError, TypeError, ValueError) as e:
            raise ConfigError(
                f"malformed Laurent term list {obj!r} ({type(e).__name__}: {e}); "
                f'expected terms {{"exp": [{dimension} integers], "re": ..., "im": ...}}'
            ) from None


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
        out = monomial_values(pts, self.exponents, self.coeffs)
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

    def weight_branch(self, p: float) -> LaurentPolynomial:
        """Single-valued Laurent branch of J^{2/p}.

        The Jacobian is one Laurent term c * z^beta; the branch returned is
        |c|^{2/p} * z^{(2/p) beta}, defined only when (2/p) beta is integral.
        It satisfies |branch(z)|^p = |J(z)|^2 exactly and differs from any other
        branch by a unimodular constant.
        """
        beta, coeff = self.jacobian_monomial().single_term()
        scaled = [2.0 * b / p for b in beta]
        rounded = [round(s) for s in scaled]
        if any(abs(s - r) > 1e-9 for s, r in zip(scaled, rounded)):
            raise BranchError(
                f"(2/p)*{beta} = {scaled} is not an integer vector; no Laurent branch exists"
            )
        return LaurentPolynomial.monomial(self.dimension, rounded, abs(coeff) ** (2.0 / p))

    def __eq__(self, other):
        return (
            isinstance(other, MonomialMap)
            and np.array_equal(self.exponents, other.exponents)
            and np.allclose(self.coeffs, other.coeffs, rtol=0, atol=1e-14)
        )

    def __repr__(self):
        return f"MonomialMap(E={self.exponents.tolist()}, c={self.coeffs.tolist()})"


# -- Moebius and linear maps -----------------------------------------------


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

    def weight_branch(self, p: float) -> "AnalyticFunction":
        """Holomorphic branch of J^{2/p}.

        Each factor contributes e^{2 pi i/p} (1-|a|^2)^{2/p} (1 - conj(a) w)^{-4/p},
        using the principal power of 1 - conj(a) w, which has positive real part on
        the disc, so the branch is single-valued there.
        """
        params = tuple(None if a is None else complex(a) for a in self.params)
        p = float(p)

        def fn(pts):
            out = np.ones(pts.shape[0], dtype=complex)
            for j, a in enumerate(params):
                if a is None:
                    continue
                out = out * (
                    np.exp(2j * math.pi / p)
                    * (1.0 - abs(a) ** 2) ** (2.0 / p)
                    * (1.0 - np.conj(a) * pts[:, j]) ** (-4.0 / p)
                )
            return out

        return AnalyticFunction(len(params), fn, label=f"mobius-weight{params}")


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
        """Each output column is the left-to-right sum of the products
        M_kj z_j. Unlike ``pts @ M.T``, whose BLAS kernel rounds a row
        differently in a batch of many rows than alone, this gives every row
        the same bits whatever the batch (on one row it equals the matmul)."""
        pts, single = _as_points(points, self.dimension)
        M = self._mat()
        out = np.empty((pts.shape[0], M.shape[0]), dtype=complex)
        for k, row in enumerate(M):
            col = pts[:, 0] * row[0]
            for j in range(1, pts.shape[1]):
                col = col + pts[:, j] * row[j]
            out[:, k] = col
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

    def weight_branch(self, p: float) -> LaurentPolynomial:
        """The constant Laurent branch det^{2/p} of J^{2/p} (principal power;
        constant, so single-valued)."""
        det = complex(np.linalg.det(self._mat()))
        return LaurentPolynomial.monomial(self.dimension, (0,) * self.dimension, det ** (2.0 / p))


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


def fd_stencil(z: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """The 4n shifted points z + (2h, h, -h, -2h) e_j of every row of a
    complex (m, n) batch, as an (m, 4n, n) array."""
    n = z.shape[1]
    pts = np.repeat(z[:, None, :], 4 * n, axis=1)
    for j in range(n):
        pts[:, 4 * j : 4 * j + 2, j] += (2.0 * h, h)
        pts[:, 4 * j + 2 : 4 * j + 4, j] -= (h, 2.0 * h)
    return pts


def fd_stencil_jacobians(vals: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Complex Jacobian matrices, (m, N, n), by the fourth-order central
    difference of a map's (m, 4n, N) values at the :func:`fd_stencil` points."""
    m, rows, width = vals.shape
    v = vals.reshape(m, rows // 4, 4, width)
    return ((-v[:, :, 0] + 8.0 * v[:, :, 1] - 8.0 * v[:, :, 2] + v[:, :, 3]) / (12.0 * h)).transpose(0, 2, 1)


def fd_jacobian_det(map_like, points, h: float = 1e-5):
    """Complex Jacobian determinants of a map by fourth-order central
    differences, one per point of a batch: the stencils of every point go to
    the map in one call and their determinants are one stacked ``det``. A
    single point gives a scalar. A map without a ``dimension`` takes the
    width of the points as its own."""
    pts = np.asarray(points, dtype=complex)
    pts, single = _as_points(pts, getattr(map_like, "dimension", pts.shape[-1] if pts.ndim else 1))
    stencil = fd_stencil(pts, h)
    evaluate = getattr(map_like, "evaluate", map_like)
    vals = np.asarray(evaluate(stencil.reshape(-1, pts.shape[1])), dtype=complex)
    dets = np.linalg.det(fd_stencil_jacobians(vals.reshape(stencil.shape[:2] + (-1,)), h))
    return complex(dets[0]) if single else dets
