"""Finite-span estimates of the p-Bergman kernel

    B_p(z) = sup |phi(z)|^2 / ||phi||_p^2

over monomial spans. The supremum is computed through the equivalent
min-norm interpolation problem: minimize ||phi||_p subject to phi(z) = 1,
whose optimum m gives B_p(z) = 1/m^2. Estimates are always lower bounds of
the true kernel (the sup over all of A^p is never claimed).

For every p > 0 a constrained Newton method runs once, from the feasible
start with the best certificate, smoothed by eps below p = 2 (Chen and Zhang,
"On the p-Bergman theory", Adv. Math. 405 (2022), for the variational
kernel). Its Hessian is assembled from angular transforms of the node
weights at index differences and index sums, in blocks of radial rows, never
from the dense node matrix. The node values phi of the last iterate are
kept, so each iterate's norm, gradient and Hessian share one pass over the
nodes, and a one-term start's certificate is a sum over radial nodes alone.
For p < 1 the problem is not convex: where the Hessian is not positive
definite on the constraint's tangent space the step uses the majorizing
quadratic instead, and no global claim is made.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product as iter_product
from typing import Sequence

import numpy as np

from ._rng import TAG_OPTIMIZER, substream
from .errors import ConfigError, DivergentIntegralError, NoBasisSupportError
from .functions import monomial_values
from .geometry import BoundedDomain, boundary_distance
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
        """Keep only indices with finite p-norm on D; record the rest."""
        kept, dropped = [], []
        for idx in indices:
            idx = tuple(int(e) for e in idx)
            try:
                monomial_norm_closed(D, idx, p)
                kept.append(idx)
            except DivergentIntegralError:
                dropped.append(idx)
        if not kept:
            raise ConfigError("no basis index has finite norm on this domain")
        return cls(indices=tuple(kept), domain_label=D.label, p=float(p), dropped=tuple(dropped))

    @property
    def size(self) -> int:
        return len(self.indices)


def degree_basis(D: BoundedDomain, max_degree: int, p: float, extra_indices: Sequence = ()) -> BasisSpec:
    """All monomials of total degree <= max_degree (plus any extras), validated."""
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
        return {
            "value": self.value,
            "z": [{"re": c.real, "im": c.imag} for c in self.z],
            "basis_size": self.basis.size,
            "p": self.basis.p,
            "optimizer_report": dict(self.optimizer_report),
            "is_lower_bound": self.is_lower_bound,
        }


_STAGES = 8  # smoothing continuation stages for 1 <= p < 2
_STAGES_BELOW_1 = 10  # for p < 1, where eight stages stop above the smoothing floor
_STAGE_ITERS = 50  # iteration cap of one stage; a run that reaches it is not converged
_RESTARTS = 2  # seeded random starts
_BLOCK = 256  # radial rows per block of the transform passes


@dataclass(frozen=True)
class OptimizerConfig:
    radial_nodes: int = 48
    angular_nodes: int | None = None
    seed: int = 0


def _check_domain(D: BoundedDomain, basis: BasisSpec) -> None:
    if basis.domain_label != D.label:
        raise ConfigError(f"basis validated on {basis.domain_label} cannot be solved on {D.label}")


def _point(z, dimension: int) -> np.ndarray:
    z = np.atleast_1d(np.asarray(z, dtype=complex)).reshape(-1)
    if z.shape[0] != dimension:
        raise ConfigError(f"point of length {z.shape[0]} for dimension {dimension}")
    return z


# -- p = 2 closed form --------------------------------------------------------


def bergman2_gram(D: BoundedDomain, basis: BasisSpec, z) -> KernelEstimate:
    """Kernel value at p = 2 on a rotation-invariant domain, where monomials
    are orthogonal and the Gram matrix is diagonal:

        B_2(z) = sum_alpha |z^alpha|^2 / ||z^alpha||_2^2
    """
    _check_domain(D, basis)
    if basis.p != 2:
        raise ConfigError("the Gram path is defined only for p = 2")
    zz = _point(z, D.dimension)
    vals = monomial_values(zz.reshape(1, -1), basis.indices)[0]
    norms2 = np.array([monomial_norm_closed(D, a, 2.0).integral for a in basis.indices])
    value = float(np.sum(np.abs(vals) ** 2 / norms2))
    return KernelEstimate(
        value=value,
        z=tuple(zz),
        basis=basis,
        optimizer_report={"iterations": 0, "final_gradient_norm": 0.0, "restarts": 0, "converged": True},
    )


# -- min-norm optimizer -------------------------------------------------------


# largest radial nodes x angular nodes x basis size the optimizer accepts
_GRID_BUDGET = 40_000_000


class _SliceProblem:
    """Quadrature discretization of ||phi||_p^p over the span, with the
    affine constraint phi(z) = 1 handled by projection/retraction.

    The nodes are those of a ReinhardtGrid, R radial nodes times A angles,
    where z^a = r^a e^{i a.theta}: the problem keeps the real radial powers P
    (R x K) and angular characters E (K x A) of the basis, not their product.
    """

    def __init__(self, D: BoundedDomain, basis: BasisSpec, z: np.ndarray, cfg: OptimizerConfig):
        maxdeg = max(sum(abs(e) for e in a) for a in basis.indices)
        m_theta = cfg.angular_nodes if cfg.angular_nodes is not None else max(2 * maxdeg + 1, 9)
        grid = ReinhardtGrid(D.radial_profile, cfg.radial_nodes, m_theta)
        if grid.node_count * basis.size > _GRID_BUDGET:
            raise ConfigError(
                f"optimizer grid of {grid.n_radial} radial x {grid.n_angular} angular nodes for {basis.size} "
                f"basis elements exceeds the limit of {_GRID_BUDGET} node-elements; "
                "reduce nodes or basis degree"
            )
        self.indices = basis.indices
        self._grid = grid
        self.phases = grid.phases
        self.w = grid.nodes[1]
        self.P, self.E = grid.monomial_factors(basis.indices)
        self.bz = monomial_values(z.reshape(1, -1), basis.indices)[0]
        self.bz_norm2 = float(np.sum(np.abs(self.bz) ** 2))
        if self.bz_norm2 <= _Z_TINY:
            raise NoBasisSupportError("every basis element vanishes at z")
        self.p = basis.p
        self._nodes = (None, [])  # key of the last c evaluated, and its blocks

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
        |phi| = |c_k| r^a_k at every angle, so its norm is the sum over the R
        radial nodes |c_k|^p A sum_r w_r P_rk^p."""
        nonzero = np.flatnonzero(c)
        if nonzero.size != 1:
            return self.norm_p(c)
        k = nonzero[0]
        return float(abs(c[k]) ** self.p * self.E.shape[1] * (self.w @ self.P[:, k] ** self.p))

    def _blocks(self, c: np.ndarray):
        """phi and |phi|^2 of c on blocks of _BLOCK radial rows. The blocks of
        the last c evaluated are kept, so the norm, gradient and Hessian of
        one iterate share one pass over the nodes."""
        key = c.tobytes()
        if self._nodes[0] != key:
            self._nodes = (None, [])  # release the old blocks before building new ones
            blocks = []
            for i in range(0, self.P.shape[0], _BLOCK):
                rows = slice(i, i + _BLOCK)
                phi = _span_values(self.P[rows], self.E, c)
                blocks.append((rows, phi, np.abs(phi) ** 2))
            self._nodes = (key, blocks)
        return self._nodes[1]

    @cached_property
    def _difference_groups(self):
        """Angular characters e^{i d.theta} at the distinct index differences
        d = b - a, as an A x 2D real array (re, im of each d side by side), and
        per difference the flattened pairs (a, b) with b - a = d together with
        their radial weights w_r P_ra P_rb (pairs x R)."""
        alpha = np.array(self.indices)
        K, n = alpha.shape
        diffs, pos = np.unique((alpha[None, :, :] - alpha[:, None, :]).reshape(-1, n), axis=0, return_inverse=True)
        pos = pos.reshape(-1)
        chars = monomial_values(self.phases, diffs).view(float)
        pair_weights = (self.P[:, :, None] * self.P[:, None, :]).reshape(-1, K * K).T * self.w
        pairs = np.split(np.argsort(pos, kind="stable"), np.cumsum(np.bincount(pos))[:-1])
        return chars, [(j, pair_weights[j]) for j in pairs]

    @cached_property
    def _sum_table(self):
        """At the distinct index sums s = a + b: the conjugate characters
        e^{-i s.theta} (A x S), the radial weights w_r r^s (R x S) and, per
        flattened pair (a, b), the position of its sum. r^a r^b = r^(a+b), so
        a pair's whole node sum depends on its index sum alone."""
        alpha = np.array(self.indices)
        n = alpha.shape[1]
        sums, pos = np.unique((alpha[None, :, :] + alpha[:, None, :]).reshape(-1, n), axis=0, return_inverse=True)
        radial, chars = self._grid.monomial_factors(sums)
        return np.conj(chars).T, radial * self.w[:, None], pos.reshape(-1)

    def _at_differences(self, F: np.ndarray) -> np.ndarray:
        """M_ab = sum_r w_r P_ra P_rb F_r[b - a] from the R x 2D transform F."""
        K = self.P.shape[1]
        M = np.empty((K * K, 2))
        for d, (j, weights) in enumerate(self._difference_groups[1]):
            M[j] = weights @ F[:, 2 * d : 2 * d + 2]
        return M.view(complex).reshape(K, K)

    def irls_matrix(self, c: np.ndarray, eps2: float) -> np.ndarray:
        """M = B^H diag(w (|phi|^2 + eps2)^(p/2-1)) B for the dense node
        matrix B, assembled as M_ab = sum_r w_r P_ra P_rb F_r[b - a], where
        F_r[d] = sum_theta (|phi|^2 + eps2)^(p/2-1) e^{i d.theta} is the
        angular transform of the weights at the distinct differences d."""
        chars = self._difference_groups[0]
        F = np.empty((self.P.shape[0], chars.shape[1]))  # re, im of F_r[d] side by side
        for rows, _, a2 in self._blocks(c):
            F[rows] = (a2 + eps2) ** (self.p / 2.0 - 1.0) @ chars
        return self._at_differences(F)

    def newton_parts(self, c: np.ndarray, eps2: float):
        """Gradient G and Hessian parts A, C of sum w s^(p/2), s = |phi|^2 + eps2:

            G_a  = sum w (p/2) s^(p/2-1) phi conj(b_a)
            A_ab = sum w (p/2) [s^(p/2-1) + (p/2-1) s^(p/2-2) |phi|^2] conj(b_a) b_b
            C_ab = sum w (p/2) (p/2-1) s^(p/2-2) phi^2 conj(b_a) conj(b_b)

        A is taken at index differences like `irls_matrix`, C at index sums.
        Where s = 0 (eps2 = 0 and phi = 0, used only for p >= 2) s^(p/2-2)
        is read as 0, the limit of both terms it enters."""
        p2 = self.p / 2.0
        chars_d = self._difference_groups[0]
        chars_s, radial_s, pos_s = self._sum_table
        F = np.empty((self.P.shape[0], chars_d.shape[1]))
        W = np.zeros((self.P.shape[1], 2 * self.E.shape[1]))
        c_sums = np.zeros(chars_s.shape[1], dtype=complex)
        for rows, phi, a2 in self._blocks(c):
            s = a2 + eps2
            h = s ** (p2 - 1.0)
            q = np.divide(h, s, out=np.zeros_like(s), where=s > 0)
            W += (self.P[rows].T * self.w[rows]) @ (h * phi).view(float)
            F[rows] = (p2 * (h + (p2 - 1.0) * q * a2)) @ chars_d
            c_sums += np.sum(radial_s[rows] * ((p2 * (p2 - 1.0)) * q * phi * phi @ chars_s), axis=0)
        G = p2 * np.sum(np.conj(self.E) * W.view(complex), axis=1)
        return G, self._at_differences(F), c_sums[pos_s].reshape(G.shape[0], G.shape[0])


def _real_hessian(A: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Hessian in the real coordinates (Re c, Im c) from the parts A, C."""
    return 2.0 * np.block([[(A + C).real, (C - A).imag], [(C - A).imag.T, (A - C).real]])


def _newton_step(prob: _SliceProblem, c: np.ndarray, eps2: float):
    """Newton direction d with d.bz = 0 at c, and the gradient G there.

    In real coordinates (Re c, Im c) the smoothed objective has gradient
    g = 2 (Re G, Im G) and Hessian H = `_real_hessian(A, C)`; d solves the
    KKT system of H with the two real rows J of c.bz = 1. For p >= 1
    convexity makes H positive semidefinite. For p < 1 it need not be
    positive definite on the tangent space J x = 0, so it is tested there
    by a Cholesky factorization of P H P + J^T J (P the tangent projector);
    if that fails, H is replaced by the Hessian of the majorizing quadratic
    (p/2) c^H M c, M = `irls_matrix`, whose gradient at c is g, so d still
    descends. Returns (d, decrement -g.d, G), or (None, None, G) when
    the KKT solve fails."""
    G, A, C = prob.newton_parts(c, eps2)
    K = G.shape[0]
    b = prob.bz
    J = np.array([np.concatenate([b.real, -b.imag]), np.concatenate([b.imag, b.real])])
    H = _real_hessian(A, C)
    if prob.p < 1.0:
        JJ = J.T @ J  # J J^T = |bz|^2 I, so P = I - J^T J / |bz|^2
        P = np.eye(2 * K) - JJ / prob.bz_norm2
        try:
            np.linalg.cholesky(P @ H @ P + JJ)
        except np.linalg.LinAlgError:
            H = _real_hessian((prob.p / 2.0) * prob.irls_matrix(c, eps2), np.zeros_like(C))
    kkt = np.block([[H, J.T], [J, np.zeros((2, 2))]])
    g = 2.0 * np.concatenate([G.real, G.imag])
    try:
        x = np.linalg.solve(kkt, np.concatenate([-g, [0.0, 0.0]]))[: 2 * K]
    except np.linalg.LinAlgError:
        return None, None, G
    decrement = float(-g @ x)
    if not math.isfinite(decrement):
        return None, None, G
    return x[:K] + 1j * x[K:], decrement, G


def _stage_eps2(prob: _SliceProblem, c: np.ndarray, stage: int) -> float:
    """Smoothing eps^2 of continuation stage 0, 1, ... below p = 2: 10^(-2(stage+1)) ||phi||_p^2."""
    return 10.0 ** (-2 * (stage + 1)) * max(prob.norm_p(c), _Z_TINY) ** (2.0 / prob.p)


def _newton(prob: _SliceProblem, c0: np.ndarray):
    """Constrained Newton method for every p > 0.

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
    it. The last stage and every stage below p = 1 keep the 1e-15 test.
    `it` counts the gradient-and-Hessian assemblies.
    """
    p = prob.p
    c = prob.retract(c0.astype(complex))
    it = 0
    converged = True
    stages = _STAGES_BELOW_1 if p < 1.0 else _STAGES if p < 2.0 else 1
    for stage in range(stages):
        eps2 = _stage_eps2(prob, c, stage) if p < 2.0 else 0.0
        f = prob.norm_p(c, eps2)
        one_step_end = 1.0 <= p < 2.0 and stage < stages - 1
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
            c, f = cand, f_new
            if stage_done:
                break
        else:  # out of iterations: the last step moved c past its gradient
            converged = False
            G = prob.newton_parts(c, eps2)[0]
    grad_norm = float(np.linalg.norm(prob.project(G)))
    return c, prob.norm_p(c), grad_norm, it, converged


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
    e_a / z^a (each feasible) and seeded random restarts; the reported value
    dominates every start's certificate value |phi(z)|^2/||phi||_p^2, so
    single-candidate lower bounds are never lost. The Newton method runs
    once, from the start with the best certificate. For p >= 1 the problem
    is convex; for p < 1 it is not, and no global claim is made.
    `optimizer_report["converged"]` is false when the run stopped at its
    iteration cap rather than on a stop test.
    """
    _check_domain(D, basis)
    cfg = cfg or OptimizerConfig()
    zz = _point(z, D.dimension)
    prob = _SliceProblem(D, basis, zz, cfg)
    K = basis.size
    bz = prob.bz

    starts = []
    # p = 2 Gram minimizer: feasible and typically near-optimal; indices with
    # divergent 2-norm (1/z on the punctured disc at p = 1) simply drop out
    # of this start
    norms2 = np.empty(K)
    for i, a in enumerate(basis.indices):
        try:
            norms2[i] = monomial_norm_closed(D, a, 2.0).integral
        except DivergentIntegralError:
            norms2[i] = math.inf
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

    retracted = [prob.retract(np.asarray(c0, dtype=complex)) for c0 in starts]
    certs = [prob.certificate(c0) for c0 in retracted]  # certificates: every start is feasible
    best = int(np.argsort(certs)[0])
    _, s_final, grad_norm, total_iters, converged = _newton(prob, retracted[best])
    best_norm_p = min(certs[best], s_final)
    best_grad = grad_norm if s_final <= certs[best] else math.inf
    if not math.isfinite(best_norm_p) or best_norm_p <= 0:
        raise NoBasisSupportError("optimizer failed to produce a feasible norm")

    value = best_norm_p ** (-2.0 / basis.p)
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


# -- boundary probe -----------------------------------------------------------


@dataclass(frozen=True)
class ProbePoint:
    z: tuple
    estimate: KernelEstimate
    distance: float
    diagnostic: float  # value * distance^2, for blow-up-rate inspection


def boundary_probe(
    D: BoundedDomain,
    path: Sequence,
    basis: BasisSpec,
    cfg: OptimizerConfig | None = None,
) -> list[ProbePoint]:
    """Kernel estimates along a path of interior points approaching the
    boundary (or a puncture), with value*(boundary distance)^2 attached. The
    basis fixes p and must be validated on D; at p = 2 the Gram path runs."""
    out = []
    for z in path:
        zz = _point(z, D.dimension)
        if not D.contains(zz):
            raise ConfigError(f"path point {zz} is not in {D.label}")
        if basis.p == 2:
            est = bergman2_gram(D, basis, zz)
        else:
            est = pbergman_min_norm(D, basis, zz, cfg=cfg)
        d = boundary_distance(D, zz)
        out.append(ProbePoint(z=tuple(zz), estimate=est, distance=d, diagnostic=est.value * d * d))
    return out
