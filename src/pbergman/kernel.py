"""Finite-span estimates of the p-Bergman kernel

    B_p(z) = sup |phi(z)|^2 / ||phi||_p^2

over monomial spans. The supremum is computed through the equivalent
min-norm interpolation problem: minimize ||phi||_p subject to phi(z) = 1,
whose optimum m gives B_p(z) = 1/m^2. Estimates are always lower bounds of
the true kernel (the sup over all of A^p is never claimed).

For every p > 0 a constrained Newton method runs once, from the feasible
start with the best certificate, smoothed by eps below p = 2 (Chen and Zhang,
"On the p-Bergman theory", Adv. Math. 405 (2022), for the variational
kernel). Its Hessian is assembled radial-first, never from the dense node
matrix: r^a r^b = r^(a+b), so each block of radial rows sums its node
weights against w_r r^s at the index sums s = a + b, and the angles are
summed once per assembly, at the index differences b - a for the part in
conj(b_a) b_b and at the sums for the part in conj(b_a) conj(b_b). The node
values phi of the last iterate are kept, so each iterate's norm, gradient
and Hessian share one pass over the nodes, and a one-term start's
certificate is a sum over radial nodes alone.
For p < 1 the problem is not convex: where the Hessian is not positive
definite on the constraint's tangent space the step uses the majorizing
quadratic instead, and no global claim is made.

Everything that depends on neither the point nor p (the grid's nodes and
phases, the radial powers and angular characters of the basis, the
sum and difference tables of the Hessian, each block's weighted powers and
the closed 2-norms of the Gram start, which every grid of the same profile
and indices shares) is built once per radial profile, grid size and basis
indices, and kept as one entry of a module store: a list of points, a sweep
over p, a scenario's radii and solves that alternate between bases all
reuse it. Before an entry is built or reused, the least recently used
other entries are released until they hold at most _STORE_BYTES of arrays,
so at most that bound plus one entry is alive. What depends on p but not on
the point hangs on the same entry: the one-term radial sums, once per p,
and the domain check of the basis, once per domain label and p for every
grid of its profile and indices, so a later solve at a new point does only
that point's work. For 1 <= p < 2 a smoothing stage that ends on a full
step whose decrement is at most 1e-12 of the objective sends the run
straight to the last stage (`_newton`).

For p >= 1 other than 2 the run starts on a coarse grid of radial_nodes // 4
nodes per axis and the same angles, where that grid keeps at most 1/8 of
the radial nodes (dimension 2 and more), and the full grid runs only the
last stage from the coarse iterate (`_two_grid_newton`). The coarse tables
hang on the basis's entry in the store. The starts are then ranked by their
certificates on the coarse grid, and the full grid certifies only the
winner and the one-term starts (radial sums), or every start when the run
ends unconverged. The certificates taken, the value, the gradient norm and
`converged` are full-grid quantities, so the value is a lower bound of the
same grid problem.
"""

from __future__ import annotations

import copy
import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product as iter_product
from typing import Sequence

import numpy as np

from ._rng import TAG_OPTIMIZER, as_seed, substream
from .errors import ConfigError, DivergentIntegralError, NoBasisSupportError
from .functions import _as_point, fields_json, monomial_values
from .geometry import BoundedDomain
from .integrate import ReinhardtGrid, _span_values, monomial_norm_closed

_Z_TINY = 1e-300


@dataclass(frozen=True)
class BasisSpec:
    """A finite monomial span standing in for A^p(D)."""

    indices: tuple
    domain_label: str
    p: float
    dropped: tuple = ()

    def __post_init__(self):
        if len(set(self.indices)) != len(self.indices):
            raise ConfigError("basis indices must be distinct")
        if not self.indices:
            raise ConfigError("basis must contain at least one index")

    @classmethod
    def validated(cls, D: BoundedDomain, indices: Sequence[Sequence[int]], p: float) -> "BasisSpec":
        """Keep only indices whose monomial is in A^p(D); record the rest."""
        kept, dropped = [], []
        for idx in indices:
            idx = tuple(int(e) for e in idx)
            (dropped if _outside_Ap(D, idx, p) else kept).append(idx)
        if not kept:
            raise ConfigError(f"no basis index is in A^{p:g}({D.label})")
        return cls(indices=tuple(kept), domain_label=D.label, p=float(p), dropped=tuple(dropped))

    @property
    def size(self) -> int:
        return len(self.indices)


def degree_basis(D: BoundedDomain, max_degree: int, p: float, extra_indices: Sequence = ()) -> BasisSpec:
    """All monomials of total degree <= max_degree (plus any extras), validated.
    The degree is a Python or numpy integer of at least 0 and not a bool."""
    if not isinstance(max_degree, numbers.Integral) or isinstance(max_degree, bool) or max_degree < 0:
        raise ConfigError(f"degree must be an integer of at least 0, got {max_degree!r}")
    ranges = [range(max_degree + 1)] * D.dimension
    indices = [idx for idx in iter_product(*ranges) if sum(idx) <= max_degree]
    indices.extend(tuple(int(e) for e in extra) for extra in extra_indices)
    return BasisSpec.validated(D, indices, p)


@dataclass(frozen=True)
class KernelEstimate:
    value: float
    z: tuple
    basis: BasisSpec
    optimizer_report: dict = field(default_factory=dict)
    is_lower_bound: bool = True

    def to_json_obj(self) -> dict:
        obj = fields_json(self)
        del obj["basis"]
        return obj | {"basis_size": self.basis.size, "p": self.basis.p}


_STAGES = 8  # smoothing continuation stages for 1 <= p < 2
_STAGES_BELOW_1 = 10  # for p < 1, where eight stages stop above the smoothing floor
_STAGE_ITERS = 50  # iteration cap of one stage; a run that reaches it is not converged
_RESTARTS = 2  # seeded random starts
_BLOCK = 256  # radial rows per block of the transform passes


@dataclass(frozen=True)
class OptimizerConfig:
    """Quadrature grid and random-start seed of a kernel solve; the seed follows
    the seed rule of docs/formats.md ("Inputs") when the solve draws its starts."""

    radial_nodes: int = 48
    angular_nodes: int | None = None
    seed: int = 0


def _outside_Ap(D: BoundedDomain, idx: tuple, p: float) -> str | None:
    """Why z^idx is not in A^p(D), or None if it is: a negative power of z_j
    where {z_j = 0} meets D is a pole in D, whatever its p-norm (1/z on the
    disc has finite 1-norm), and otherwise the p-norm must be finite."""
    for j, e in enumerate(idx):
        if e < 0 and j not in D.zero_free_axes:
            return f"z^{idx} has a pole on {{z_{j + 1} = 0}}, which meets {D.label}"
    try:
        monomial_norm_closed(D, idx, p)
    except DivergentIntegralError as e:
        return str(e)
    return None


def _check_domain(D: BoundedDomain, basis: BasisSpec, passed=()) -> None:
    """Refuse a basis of another domain, or a hand-built one with an index
    outside A^p(D): its span need not lie in A^p(D), and the value would be
    no lower bound. The indices are not checked again where `passed` holds
    (D.label, basis.p), the pairs they were found in A^p(D) at before."""
    if basis.domain_label != D.label:
        raise ConfigError(f"basis validated on {basis.domain_label} cannot be solved on {D.label}")
    if (D.label, basis.p) in passed:
        return
    for idx in basis.indices:
        reason = _outside_Ap(D, idx, basis.p)
        if reason:
            raise ConfigError(f"basis index {idx} is not in A^{basis.p:g}({D.label}): {reason}")


# -- p = 2 closed form --------------------------------------------------------


def _closed_norms2(D: BoundedDomain, indices) -> np.ndarray:
    """The closed squared 2-norms of the monomials z^a (inf where one diverges)."""
    norms2 = np.empty(len(indices))
    for i, a in enumerate(indices):
        try:
            norms2[i] = monomial_norm_closed(D, a, 2.0).integral
        except DivergentIntegralError:
            norms2[i] = math.inf
    return norms2


def bergman2_gram(D: BoundedDomain, basis: BasisSpec, z) -> KernelEstimate:
    """Kernel value at p = 2 on a rotation-invariant domain, where monomials
    are orthogonal and the Gram matrix is diagonal:

        B_2(z) = sum_alpha |z^alpha|^2 / ||z^alpha||_2^2

    p is tested first. The closed norms and the (domain label, p) pairs
    already checked are read from any store entry of the same radial profile
    and indices, whatever its grid; the call adds no entry."""
    if basis.p != 2:
        raise ConfigError("the Gram path is defined only for p = 2")
    norms2, checked = _span_tables(D, basis)
    _check_domain(D, basis, checked)
    zz = _as_point(z, D.dimension)
    bz = monomial_values(zz.reshape(1, -1), basis.indices)[0]
    value = float(np.sum(np.abs(bz) ** 2 / (_closed_norms2(D, basis.indices) if norms2 is None else norms2)))
    return KernelEstimate(
        value=value,
        z=tuple(zz),
        basis=basis,
        optimizer_report={"iterations": 0, "final_gradient_norm": 0.0, "restarts": 0, "converged": True},
    )


# -- min-norm optimizer -------------------------------------------------------


# largest radial nodes x angular nodes x basis size the optimizer accepts
_GRID_BUDGET = 40_000_000
# bytes of arrays the store keeps in entries other than the one in use
_STORE_BYTES = 32_000_000


class _GridTables:
    """The point-independent tables of one basis on one quadrature grid,
    keyed by (radial profile, radial nodes, angles per coordinate, indices):
    no p and no point enter them, so every solve of that basis shares them.

    The nodes are those of a ReinhardtGrid, R radial nodes times A angles,
    where z^a = r^a e^{i a.theta}: the tables keep the real radial powers P
    (R x K) and angular characters E (K x A) of the basis, not their product,
    each block's weighted powers P[rows]^T w[rows], and the closed squared
    2-norms of the monomials (inf where one diverges) for the Gram start.
    The Hessian is assembled radial-first: r^a r^b = r^(a+b), so a pair's
    radial sum depends on its index sum s = a + b alone. The tables keep the
    radial weights w_r r^s (R x S) and the conjugate characters e^{-i s.theta}
    (S x A) of the distinct sums, the characters e^{i d.theta} of the
    distinct differences d = b - a (A x 2D, re and im side by side), and per
    flattened pair (a, b) the position of its sum and of (s, d) in an S x D
    array; no table grows with K^2 R.
    The tables of the coarse grid (`coarse`) are built on first use and held
    here, so they live and go with the basis's entry in the store, as do the
    (domain label, p) pairs the basis passed `_check_domain` at (`checked`)
    and the one-term radial sums of each p solved (`radial_sums`).
    """

    def __init__(self, key: tuple, grid: ReinhardtGrid, norms2: np.ndarray):
        self.key = key
        self.indices = indices = key[3]
        self._grid = grid
        self.w = grid.nodes[1]
        self.P, self.E = grid.monomial_factors(indices)
        self.blocks = [slice(i, i + _BLOCK) for i in range(0, self.P.shape[0], _BLOCK)]
        self.weighted_P = [self.P[rows].T * self.w[rows] for rows in self.blocks]
        alpha = np.array(indices)
        sums, at_sum = np.unique((alpha[None] + alpha[:, None]).reshape(-1, grid.dimension), axis=0, return_inverse=True)
        diffs, at_diff = np.unique((alpha[None] - alpha[:, None]).reshape(-1, grid.dimension), axis=0, return_inverse=True)
        radial, chars = grid.monomial_factors(sums)
        self.sum_weights, self.sum_chars = radial * self.w[:, None], np.conj(chars)
        self.diff_chars = monomial_values(grid.phases, diffs).view(float)
        self.at_sum = at_sum.reshape(-1)
        self.at_sum_diff = self.at_sum * diffs.shape[0] + at_diff.reshape(-1)
        self.norms2 = norms2
        self.checked = set()
        self._radial_sums = {}

    def radial_sums(self, p: float) -> np.ndarray:
        """sum_r w_r P_rk^p of every index k, once per p: the radial part of a
        one-term start's certificate (`_SliceProblem.certificate`)."""
        sums = self._radial_sums.get(p)
        if sums is None:
            sums = self._radial_sums[p] = np.array([self.w @ self.P[:, k] ** p for k in range(self.P.shape[1])])
        return sums

    @cached_property
    def coarse(self) -> "_GridTables | None":
        """The tables of the same basis and angles on radial_nodes // 4 nodes
        per axis, or None where that grid would keep more than 1/8 of the
        radial nodes (one-dimensional domains, where a coarse phase costs
        more than it saves) or have fewer than 4 per axis, the fewest the
        solver accepts."""
        profile, radial_nodes, m_theta, indices = self.key
        n_coarse = radial_nodes // 4
        if n_coarse < 4:
            return None
        grid = ReinhardtGrid(profile, n_coarse, m_theta)
        if 8 * grid.n_radial > self._grid.n_radial:
            return None
        return _GridTables((profile, n_coarse, m_theta, indices), grid, self.norms2)

    @property
    def nbytes(self) -> int:
        """Bytes of the arrays the entry holds, its grid's and its coarse
        tables' among them, a view counted as the array it views."""
        grid = self._grid
        arrays = [*grid.nodes, grid.phases, *(a for factor in grid.factors for a in factor), self.P, self.E]
        arrays += [*self.weighted_P, self.sum_weights, self.sum_chars, self.diff_chars, self.at_sum]
        arrays += [self.at_sum_diff, self.norms2, *self._radial_sums.values()]
        held = {id(a): a.nbytes for a in (a if a.base is None else a.base for a in arrays)}
        coarse = self.__dict__.get("coarse")
        return sum(held.values()) + (0 if coarse is None else coarse.nbytes)

    def at_pairs(self, G: np.ndarray) -> np.ndarray:
        """M = B^H diag(w W) B, M_ab = sum_theta G[a + b, theta] e^{i (b - a).theta},
        from the real S x A array G of node weights W summed against w_r r^s
        over the radial rows."""
        K = self.P.shape[1]
        return (G @ self.diff_chars).view(complex).reshape(-1)[self.at_sum_diff].reshape(K, K)


# the grid tables by key, least recently used first
_store: dict[tuple, _GridTables] = {}


def _span_tables(D: BoundedDomain, basis: BasisSpec):
    """The closed norms (or None) and the union of the checked (domain label,
    p) pairs of the store's entries of D's radial profile and the basis's
    indices, whatever their grid: neither depends on the grid."""
    same = [t for t in _store.values() if t.key[0] == D.radial_profile and t.indices == basis.indices]
    return (same[0].norms2 if same else None), set().union(*(t.checked for t in same))


def _release_beyond_bound() -> None:
    """Release the least recently used entries until the store's arrays take
    at most _STORE_BYTES."""
    held = {key: tables.nbytes for key, tables in _store.items()}
    total = sum(held.values())
    for key, nbytes in held.items():
        if total <= _STORE_BYTES:
            break
        del _store[key]
        total -= nbytes


def _grid_tables(D: BoundedDomain, basis: BasisSpec, cfg: OptimizerConfig) -> _GridTables:
    """The tables of the basis's indices on the optimizer grid of D. A grid
    too coarse for the basis is refused first: with fewer than 2 max|a| + 1
    angles per coordinate the angular sums alias, and with fewer than
    max|a| + 1 radial nodes per axis Gauss-Legendre no longer integrates the
    span's 2-norm exactly on a polydisc; either way the grid norm of a span
    can fall below its true norm, which would make the value no lower bound
    (|a| is the total |exponent|). A seed that is not an integer is refused
    beside them. The tables come from the store, where their entry keeps
    their coarse tables and the (domain label, p) pairs the basis passed
    `_check_domain` at, so a basis is checked once per domain and p, and
    always before its tables are built. A grid of more than _GRID_BUDGET
    node-elements is refused next, leaving the store as it was. Then the
    other entries are released, least recently used first, until they hold
    at most _STORE_BYTES (`_release_beyond_bound`), and only then are new
    tables built, so at most that bound plus the entry in use are alive; the
    entry returned goes back in as the most recently used."""
    as_seed(cfg.seed)
    if not isinstance(cfg.radial_nodes, numbers.Integral) or cfg.radial_nodes < 4:
        raise ConfigError(f"radial_nodes must be an integer of at least 4, not {cfg.radial_nodes!r}")
    degree = max(sum(abs(e) for e in a) for a in basis.indices)
    if cfg.radial_nodes < degree + 1:
        raise ConfigError(f"radial_nodes must be at least {degree + 1} for this basis, not {cfg.radial_nodes!r}")
    min_theta = 2 * degree + 1
    m_theta = max(min_theta, 9) if cfg.angular_nodes is None else cfg.angular_nodes
    if not isinstance(m_theta, numbers.Integral) or m_theta < min_theta:
        raise ConfigError(f"angular_nodes must be at least {min_theta} for this basis, not {m_theta!r}")
    key = (D.radial_profile, cfg.radial_nodes, m_theta, basis.indices)
    norms2, checked = _span_tables(D, basis)
    _check_domain(D, basis, checked)
    tables = _store.pop(key, None)
    if tables is None:
        grid = ReinhardtGrid(D.radial_profile, cfg.radial_nodes, m_theta)
        if grid.node_count * basis.size > _GRID_BUDGET:
            raise ConfigError(
                f"optimizer grid of {grid.n_radial} radial x {grid.n_angular} angular nodes for {basis.size} "
                f"basis elements exceeds the limit of {_GRID_BUDGET} node-elements; "
                "reduce nodes or basis degree"
            )
        _release_beyond_bound()
        tables = _GridTables(key, grid, _closed_norms2(D, basis.indices) if norms2 is None else norms2)
    else:
        _release_beyond_bound()
    _store[key] = tables
    tables.checked.add((D.label, basis.p))
    return tables


class _SliceProblem:
    """Quadrature discretization of ||phi||_p^p over the span, with the
    affine constraint phi(z) = 1 handled by projection/retraction. The grid
    tables are shared (`_grid_tables`); the point's basis values bz and the
    node values of the last iterate are the problem's own."""

    def __init__(self, D: BoundedDomain, basis: BasisSpec, z: np.ndarray, cfg: OptimizerConfig):
        self.tables = _grid_tables(D, basis, cfg)
        self.indices, self.P, self.E, self.w = basis.indices, self.tables.P, self.tables.E, self.tables.w
        self.bz = monomial_values(z.reshape(1, -1), basis.indices)[0]
        self.bz_norm2 = float(np.sum(np.abs(self.bz) ** 2))
        if self.bz_norm2 <= _Z_TINY:
            raise NoBasisSupportError("every basis element vanishes at z")
        self.p = basis.p
        self._nodes = (None, [])  # key of the last c evaluated, and its blocks
        # the KKT matrix of `_newton_step`: the Hessian goes in the top-left
        # block, beside and below it the two real rows J of c.bz = 1
        b, K = self.bz, self.bz.shape[0]
        self.J = np.array([np.concatenate([b.real, -b.imag]), np.concatenate([b.imag, b.real])])
        self.kkt = np.zeros((2 * K + 2, 2 * K + 2))
        self.kkt[2 * K :, : 2 * K] = self.J
        self.kkt[: 2 * K, 2 * K :] = self.J.T

    def on_coarse_grid(self) -> "_SliceProblem | None":
        """The same point and p on the basis's coarse tables, or None where
        the basis has none (`_GridTables.coarse`)."""
        coarse = self.tables.coarse
        if coarse is None:
            return None
        prob = copy.copy(self)
        prob.tables, prob.P, prob.E, prob.w = coarse, coarse.P, coarse.E, coarse.w
        prob._nodes = (None, [])
        return prob

    @cached_property
    def coarse(self) -> "_SliceProblem | None":
        """The problem of the run's coarse phase (`on_coarse_grid`), built
        once per solve, for p >= 1 other than 2, or None: below p = 1, where
        the problem is not convex, a coarse start could lead to another local
        minimum, and at p = 2 one step is exact, so both run on the full grid
        alone. The starts are ranked on it and the run begins on it."""
        return self.on_coarse_grid() if self.p >= 1.0 and self.p != 2.0 else None

    def retract(self, c: np.ndarray) -> np.ndarray:
        return c - ((c @ self.bz - 1.0) / self.bz_norm2) * np.conj(self.bz)

    def project(self, v: np.ndarray) -> np.ndarray:
        return v - ((v @ self.bz) / self.bz_norm2) * np.conj(self.bz)

    def norm_p(self, c: np.ndarray, eps2: float = 0.0) -> float:
        acc = np.empty(self.P.shape[0])
        for rows, _, a2 in self._blocks(c):
            acc[rows] = np.sum((a2 + eps2) ** (self.p / 2.0), axis=1)
        return float(self.w @ acc)

    def certificate(self, c: np.ndarray) -> float:
        """The grid norm `norm_p(c)` of a start. A one-term phi = c_k z^a_k has
        |phi| = |c_k| r^a_k at every angle, so its norm is |c_k|^p A times
        the radial sum sum_r w_r P_rk^p, which the tables keep per p."""
        nonzero = np.flatnonzero(c)
        if nonzero.size != 1:
            return self.norm_p(c)
        k = nonzero[0]
        return float(abs(c[k]) ** self.p * self.E.shape[1] * self.tables.radial_sums(self.p)[k])

    def _blocks(self, c: np.ndarray):
        """phi and |phi|^2 of c on blocks of _BLOCK radial rows. The blocks of
        the last c evaluated are kept, so the norm, gradient and Hessian of
        one iterate share one pass over the nodes."""
        key = c.tobytes()
        if self._nodes[0] != key:
            self._nodes = (None, [])  # release the old blocks before building new ones
            blocks = []
            for rows in self.tables.blocks:
                phi = _span_values(self.P[rows], self.E, c)
                blocks.append((rows, phi, np.abs(phi) ** 2))
            self._nodes = (key, blocks)
        return self._nodes[1]

    def irls_matrix(self, c: np.ndarray, eps2: float) -> np.ndarray:
        """M = B^H diag(w (|phi|^2 + eps2)^(p/2-1)) B for the dense node
        matrix B, assembled radial-first: each block's weights are summed
        against w_r r^s at the index sums s over its radial rows, and the
        angles once at the end (`_GridTables.at_pairs`)."""
        sum_weights = self.tables.sum_weights
        G = np.zeros((sum_weights.shape[1], self.E.shape[1]))
        for rows, _, a2 in self._blocks(c):
            G += sum_weights[rows].T @ (a2 + eps2) ** (self.p / 2.0 - 1.0)
        return self.tables.at_pairs(G)

    def newton_parts(self, c: np.ndarray, eps2: float):
        """Gradient G and Hessian parts A, C of sum w s^(p/2), s = |phi|^2 + eps2:

            G_a  = sum w (p/2) s^(p/2-1) phi conj(b_a)
            A_ab = sum w (p/2) [s^(p/2-1) + (p/2-1) s^(p/2-2) |phi|^2] conj(b_a) b_b
            C_ab = sum w (p/2) (p/2-1) s^(p/2-2) phi^2 conj(b_a) conj(b_b)

        A and C are summed over the radial rows at index sums like
        `irls_matrix`; A's angles are then taken at index differences, and C's
        at the sums, C_ab = sum_theta G_C[a + b, theta] e^{-i (a+b).theta}.
        eps2 > 0 makes s positive; where s = 0 (eps2 = 0 and phi = 0, used
        only for p >= 2) s^(p/2-2) is read as 0, the limit of both terms it
        enters."""
        p2 = self.p / 2.0
        tables = self.tables
        (K, A), S = self.E.shape, tables.sum_weights.shape[1]
        W = np.zeros((K, 2 * A))
        G_A = np.zeros((S, A))
        G_C = np.zeros((S, 2 * A))
        for (rows, phi, a2), weighted_P in zip(self._blocks(c), tables.weighted_P):
            s = a2 + eps2
            h = s ** (p2 - 1.0)
            q = h / s if eps2 > 0 else np.divide(h, s, out=np.zeros_like(s), where=s > 0)
            radial = tables.sum_weights[rows].T
            W += weighted_P @ (h * phi).view(float)
            G_A += radial @ (p2 * (h + (p2 - 1.0) * q * a2))
            G_C += radial @ (q * phi * phi).view(float)
        G = p2 * np.sum(np.conj(self.E) * W.view(complex), axis=1)
        c_sums = (p2 * (p2 - 1.0)) * np.sum(G_C.view(complex) * tables.sum_chars, axis=1)
        return G, tables.at_pairs(G_A), c_sums[tables.at_sum].reshape(K, K)


def _real_hessian(A: np.ndarray, C: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Hessian in the real coordinates (Re c, Im c) from the parts A, C,
    written into the top-left 2K x 2K block of `out` when it is given."""
    K = A.shape[0]
    H = np.empty((2 * K, 2 * K)) if out is None else out[: 2 * K, : 2 * K]
    H[:K, :K] = (A + C).real
    H[:K, K:] = (C - A).imag
    H[K:, :K] = H[:K, K:].T
    H[K:, K:] = (A - C).real
    H *= 2.0
    return H


def _newton_step(prob: _SliceProblem, c: np.ndarray, eps2: float):
    """Newton direction d with d.bz = 0 at c, and the gradient G there.

    In real coordinates (Re c, Im c) the smoothed objective has gradient
    g = 2 (Re G, Im G) and Hessian H = `_real_hessian(A, C)`; d solves the
    KKT system of H with the two real rows J of c.bz = 1 (`prob.kkt`). For
    p >= 1 convexity makes H positive semidefinite. For p < 1 it need not be
    positive definite on the tangent space J x = 0, so it is tested there
    by a Cholesky factorization of P H P + J^T J (P the tangent projector);
    if that fails, H is replaced by the Hessian of the majorizing quadratic
    (p/2) c^H M c, M = `irls_matrix`, whose gradient at c is g, so d still
    descends. Returns (d, decrement -g.d, G), or (None, None, G) when
    the KKT solve fails."""
    G, A, C = prob.newton_parts(c, eps2)
    K = G.shape[0]
    H = _real_hessian(A, C, prob.kkt)
    if prob.p < 1.0:
        JJ = prob.J.T @ prob.J  # J J^T = |bz|^2 I, so P = I - J^T J / |bz|^2
        P = np.eye(2 * K) - JJ / prob.bz_norm2
        try:
            np.linalg.cholesky(P @ H @ P + JJ)
        except np.linalg.LinAlgError:
            _real_hessian((prob.p / 2.0) * prob.irls_matrix(c, eps2), np.zeros_like(C), prob.kkt)
    g = 2.0 * np.concatenate([G.real, G.imag])
    try:
        x = np.linalg.solve(prob.kkt, np.concatenate([-g, [0.0, 0.0]]))[: 2 * K]
    except np.linalg.LinAlgError:
        return None, None, G
    decrement = float(-g @ x)
    if not math.isfinite(decrement):
        return None, None, G
    return x[:K] + 1j * x[K:], decrement, G


def _stage_eps2(prob: _SliceProblem, c: np.ndarray, stage: int) -> float:
    """Smoothing eps^2 of continuation stage 0, 1, ... below p = 2: 10^(-2(stage+1)) ||phi||_p^2."""
    return 10.0 ** (-2 * (stage + 1)) * max(prob.norm_p(c), _Z_TINY) ** (2.0 / prob.p)


def _newton(prob: _SliceProblem, c0: np.ndarray, last_only: bool = False):
    """Constrained Newton method for every p > 0, over every stage or, with
    `last_only`, the last one alone.

    Below p = 2 it minimizes sum w (|phi|^2 + eps^2)^(p/2) over continuation
    stages of falling eps, 8 of them from p = 1 on and 10 below p = 1; from
    p = 2 on eps = 0, and at p = 2 the objective is quadratic, so one step is
    exact. Below p = 1 a step may be a majorizer step (`_newton_step`).
    Each step backtracks (Armijo) on the smoothed objective. A stage ends
    when the Newton decrement is at most 1e-15 of the objective, when no
    step decreases it, or when the KKT solve fails; these are its own stop
    tests, and a stage that runs out of iterations instead makes the run
    unconverged. For 1 <= p < 2 a stage before the last also ends after an
    accepted full step (t = 1) whose decrement was at most 1e-6 of the
    objective: the convex problem converges quadratically there, so the
    next step's decrement, about the square of this one, would only confirm
    it. When that decrement was at most 1e-12 of the objective the stage
    began at its own minimizer, so lowering eps no longer moves the iterate
    at that level: the run goes straight to the last stage. The last stage
    and every stage below p = 1 keep the 1e-15 test, so `converged` is
    decided as before. `it` counts the gradient-and-Hessian assemblies.
    """
    p = prob.p
    c = prob.retract(c0.astype(complex))
    it = 0
    converged = True
    stages = _STAGES_BELOW_1 if p < 1.0 else _STAGES if p < 2.0 else 1
    stage = stages - 1 if last_only else 0
    while stage < stages:
        eps2 = _stage_eps2(prob, c, stage) if p < 2.0 else 0.0
        f = prob.norm_p(c, eps2)
        one_step_end = 1.0 <= p < 2.0 and stage < stages - 1
        next_stage = stage + 1
        for _ in range(_STAGE_ITERS):
            it += 1
            d, decrement, G = _newton_step(prob, c, eps2)
            if d is None or decrement <= 1e-15 * f:
                break
            t = 1.0
            for _ in range(40):
                cand = prob.retract(c + t * d)
                f_new = prob.norm_p(cand, eps2)
                if f_new <= f - 1e-4 * t * decrement:
                    break
                t *= 0.5
            else:
                break
            stage_done = one_step_end and t == 1.0 and decrement <= 1e-6 * f
            if stage_done and decrement <= 1e-12 * f:
                next_stage = stages - 1
            c, f = cand, f_new
            if stage_done:
                break
        else:  # out of iterations: the last step moved c past its gradient
            converged = False
            G = prob.newton_parts(c, eps2)[0]
        stage = next_stage
    grad_norm = float(np.linalg.norm(prob.project(G)))
    return c, prob.norm_p(c), grad_norm, it, converged


def _two_grid_newton(prob: _SliceProblem, c0: np.ndarray):
    """`_newton` from c0, first on the problem's coarse grid (`prob.coarse`)
    where it has one: the full grid then runs the last stage alone from the
    coarse iterate, or every stage from c0 when the coarse run hit its
    iteration cap. The returned norm, gradient and convergence are those of
    the full grid; the count adds the coarse grid's assemblies."""
    coarse = prob.coarse
    if coarse is None:
        return _newton(prob, c0)
    c, _, _, coarse_it, coarse_converged = _newton(coarse, c0)
    if coarse_converged:
        c, norm, grad_norm, it, converged = _newton(prob, c, last_only=True)
    else:
        c, norm, grad_norm, it, converged = _newton(prob, c0)
    return c, norm, grad_norm, coarse_it + it, converged


def pbergman_min_norm(
    D: BoundedDomain,
    basis: BasisSpec,
    z,
    cfg: OptimizerConfig | None = None,
) -> KernelEstimate:
    """Lower bound of B_p(z) over the basis span by constrained optimization,
    at the p the basis was validated at (``basis.p``), on the domain it was
    validated on: a basis of another domain raises ConfigError, since its
    span need not lie in A^p(D) and the value would be no lower bound.

    Starts from the p = 2 Gram minimizer plus single-monomial candidates
    e_a / z^a (each feasible) and seeded random restarts. The Newton method
    runs once, from the start with the best certificate on the grid the run
    begins on: the coarse grid where the run has a coarse phase
    (`_SliceProblem.coarse`), else the full grid. The reported value
    dominates the full-grid certificate value |phi(z)|^2/||phi||_p^2 of that
    start and of every start that is exactly one term, so single-candidate
    lower bounds are never lost; on a coarse ranking the other starts are
    certified on the full grid only when the run ends unconverged, and on
    the full grid every start is. At p = 2 the value is capped at the span's
    exact K_2, the Gram value. For p >= 1 the problem is convex; for p < 1
    it is not, and no global claim is made.
    `optimizer_report["converged"]` is false when the run stopped at its
    iteration cap rather than on a stop test; `restarts` counts every start
    but the first.
    """
    cfg = cfg or OptimizerConfig()
    zz = _as_point(z, D.dimension)
    prob = _SliceProblem(D, basis, zz, cfg)
    K = basis.size
    bz = prob.bz

    starts = []
    # p = 2 Gram minimizer: feasible and typically near-optimal; indices with
    # divergent 2-norm (1/z on the punctured disc at p = 1) simply drop out
    # of this start
    norms2 = prob.tables.norms2
    b2 = float(np.sum(np.abs(bz) ** 2 / norms2))
    if b2 > 0:
        starts.append(np.conj(bz) / norms2 / b2)
    for k in range(K):
        if abs(bz[k]) > _Z_TINY:
            e = np.zeros(K, dtype=complex)
            e[k] = 1.0 / bz[k]
            starts.append(e)
    for i in range(_RESTARTS):
        g = substream(cfg.seed, TAG_OPTIMIZER, i)
        starts.append(g.standard_normal(K) + 1j * g.standard_normal(K))

    # every start is feasible, so each one's full-grid certificate bounds the
    # value; the starts are ranked on the grid the run begins on
    retracted = [prob.retract(np.asarray(c0, dtype=complex)) for c0 in starts]
    ranking = prob if prob.coarse is None else prob.coarse
    ranks = [ranking.certificate(c0) for c0 in retracted]
    best = int(np.argsort(ranks)[0])
    # on a coarse ranking, the winner's and the one-term starts' radial sums
    # are taken before the run, and the rest only when it ends unconverged
    taken = [i == best or ranking is prob or np.count_nonzero(c0) == 1 for i, c0 in enumerate(retracted)]
    certs = ranks if ranking is prob else [prob.certificate(c0) for c0, t in zip(retracted, taken) if t]
    _, s_final, grad_norm, total_iters, converged = _two_grid_newton(prob, retracted[best])
    if not converged:
        certs += [prob.certificate(c0) for c0, t in zip(retracted, taken) if not t]
    best_cert = float(np.sort(certs)[0])
    best_norm_p = min(best_cert, s_final)
    best_grad = grad_norm if s_final <= best_cert else math.inf
    if not math.isfinite(best_norm_p) or best_norm_p <= 0:
        raise NoBasisSupportError("optimizer failed to produce a feasible norm")

    value = best_norm_p ** (-2.0 / basis.p)
    if basis.p == 2.0:
        value = min(value, b2)
    return KernelEstimate(
        value=float(value),
        z=tuple(zz),
        basis=basis,
        optimizer_report={
            "iterations": int(total_iters),
            "final_gradient_norm": float(best_grad if math.isfinite(best_grad) else 0.0),
            "restarts": len(starts) - 1,
            "converged": bool(converged),
        },
    )
