"""Finite-span estimates of the p-Bergman kernel

    B_p(z) = sup |phi(z)|^2 / ||phi||_p^2

over monomial spans. The supremum is computed through the equivalent
min-norm interpolation problem: minimize ||phi||_p subject to phi(z) = 1,
whose optimum m gives B_p(z) = 1/m^2. Estimates are always lower bounds of
the true kernel (the sup over all of A^p is never claimed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product as iter_product
from typing import Sequence

import numpy as np

from ._rng import TAG_OPTIMIZER, substream
from .errors import ConfigError, DivergentIntegralError, NoBasisSupportError, UnsupportedDomainError
from .geometry import BoundedDomain, boundary_distance
from .integrate import ReinhardtGrid, _monomial_values, _span_values, monomial_norm_closed

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


@dataclass(frozen=True)
class OptimizerConfig:
    max_iters: int = 400
    tol: float = 1e-9
    restarts: int = 2
    radial_nodes: int = 48
    angular_nodes: int | None = None
    seed: int = 0
    warm_starts: tuple = ()  # tuples (indices, coefficients) mapped into the basis


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
    if basis.p != 2:
        raise ConfigError("the Gram path is defined only for p = 2")
    if D.radial_profile is None:
        raise UnsupportedDomainError(
            f"{D.label!r} has no radial profile; monomials need not be orthogonal there"
        )
    zz = _point(z, D.dimension)
    vals = _monomial_values(zz.reshape(1, -1), basis.indices)[0]
    norms2 = np.array([monomial_norm_closed(D, a, 2.0).integral for a in basis.indices])
    value = float(np.sum(np.abs(vals) ** 2 / norms2))
    return KernelEstimate(
        value=value,
        z=tuple(zz),
        basis=basis,
        optimizer_report={"iterations": 0, "final_gradient_norm": 0.0, "restarts": 0},
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

    def __init__(self, D: BoundedDomain, basis: BasisSpec, z: np.ndarray, p: float, cfg: OptimizerConfig):
        if D.radial_profile is None:
            raise UnsupportedDomainError(f"the optimizer needs a radial profile; {D.label!r} has none")
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
        self.phases = grid.phases
        self.w = grid.nodes[1]
        self.P, self.E = grid.monomial_factors(basis.indices)
        self.bz = _monomial_values(z.reshape(1, -1), basis.indices)[0]
        self.bz_norm2 = float(np.sum(np.abs(self.bz) ** 2))
        if self.bz_norm2 <= _Z_TINY:
            raise NoBasisSupportError("every basis element vanishes at z")
        self.p = p

    def retract(self, c: np.ndarray) -> np.ndarray:
        return c - ((c @ self.bz - 1.0) / self.bz_norm2) * np.conj(self.bz)

    def project(self, v: np.ndarray) -> np.ndarray:
        return v - ((v @ self.bz) / self.bz_norm2) * np.conj(self.bz)

    def phi(self, c: np.ndarray) -> np.ndarray:
        return _span_values(self.P, self.E, c)

    def norm_p(self, c: np.ndarray, eps2: float = 0.0) -> float:
        a2 = np.abs(self.phi(c)) ** 2 + eps2
        return float(self.w @ np.sum(a2 ** (self.p / 2.0), axis=1))

    def grad(self, c: np.ndarray, eps2: float) -> np.ndarray:
        phi = self.phi(c)
        a2 = np.abs(phi) ** 2 + eps2
        X = a2 ** (self.p / 2.0 - 1.0) * phi
        W = ((self.P.T * self.w) @ X.view(float)).view(complex)  # K x A
        return (self.p / 2.0) * np.sum(np.conj(self.E) * W, axis=1)

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
        chars = _monomial_values(self.phases, diffs).view(float)
        pair_weights = (self.P[:, :, None] * self.P[:, None, :]).reshape(-1, K * K).T * self.w
        pairs = np.split(np.argsort(pos, kind="stable"), np.cumsum(np.bincount(pos))[:-1])
        return chars, [(j, pair_weights[j]) for j in pairs]

    def irls_matrix(self, c: np.ndarray, eps2: float) -> np.ndarray:
        """M = B^H diag(w (|phi|^2 + eps2)^(p/2-1)) B for the dense node
        matrix B, assembled as M_ab = sum_r w_r P_ra P_rb F_r[b - a], where
        F_r[d] = sum_theta (|phi|^2 + eps2)^(p/2-1) e^{i d.theta} is the
        angular transform of the weights at the distinct differences d."""
        chars, groups = self._difference_groups
        u = (np.abs(self.phi(c)) ** 2 + eps2) ** (self.p / 2.0 - 1.0)
        F = u @ chars  # R x 2D: re, im of F_r[d] side by side
        K = self.P.shape[1]
        M = np.empty((K * K, 2))
        for d, (j, weights) in enumerate(groups):
            M[j] = weights @ F[:, 2 * d : 2 * d + 2]
        return M.view(complex).reshape(K, K)


def _irls(prob: _SliceProblem, c0: np.ndarray, cfg: OptimizerConfig):
    """Reweighted least squares for p < 2, with smoothing continuation.

    With t = |phi|^2 and p/2 < 1 the map t -> (t + eps^2)^{p/2} is concave,
    so its tangent quadratic at the current iterate majorizes the smoothed
    objective; each step minimizes that quadratic exactly over the affine
    constraint set, hence the smoothed objective decreases monotonically.
    For p >= 1 the problem is convex and the minimum is global.
    """
    p = prob.p
    a = np.conj(prob.bz)
    c = prob.retract(c0.astype(complex))
    it = 0
    inner_cap = max(10, cfg.max_iters // 8)
    eps2 = None
    for stage in range(8):
        scale2 = max(prob.norm_p(c), _Z_TINY) ** (2.0 / p)
        eps2 = 10.0 ** (-2 * (stage + 1)) * scale2
        s_sm = prob.norm_p(c, eps2)
        for _ in range(inner_cap):
            it += 1
            M = prob.irls_matrix(c, eps2)
            M.flat[:: M.shape[0] + 1] += 1e-14 * np.trace(M).real / M.shape[0]
            try:
                Ma = np.linalg.solve(M, a)
            except np.linalg.LinAlgError:
                break
            cand = prob.retract(Ma / (a.conj() @ Ma))
            s_new = prob.norm_p(cand, eps2)
            if not math.isfinite(s_new) or s_new > s_sm:
                break
            done = s_sm - s_new <= 1e-13 * s_new
            c, s_sm = cand, s_new
            if done:
                break
    grad_norm = float(np.linalg.norm(prob.project(prob.grad(c, eps2))))
    return c, prob.norm_p(c), grad_norm, it


def _descend(prob: _SliceProblem, c0: np.ndarray, cfg: OptimizerConfig):
    p = prob.p
    c = prob.retract(c0.astype(complex))
    s_cur = prob.norm_p(c)
    eps2 = 0.0 if p >= 2 else (1e-8 * max(s_cur, _Z_TINY) ** (1.0 / p)) ** 2
    prev_c = None
    prev_g = None
    grad_norm = math.inf
    it = 0
    for it in range(1, cfg.max_iters + 1):
        g = prob.project(prob.grad(c, eps2))
        grad_norm = float(np.linalg.norm(g))
        s_smooth = prob.norm_p(c, eps2)
        if grad_norm <= cfg.tol * (1.0 + abs(s_smooth)):
            break
        # Barzilai-Borwein step with Armijo backtracking
        if prev_c is None:
            tau = 1.0 / max(grad_norm, 1e-12)
        else:
            s = c - prev_c
            y = g - prev_g
            denom = float(np.real(np.vdot(s, y)))
            tau = float(np.real(np.vdot(s, s))) / denom if denom > 0 else 1.0 / max(grad_norm, 1e-12)
            tau = min(max(tau, 1e-12), 1e12)
        prev_c, prev_g = c, g
        accepted = False
        for _ in range(40):
            cand = prob.retract(c - tau * g)
            s_new = prob.norm_p(cand, eps2)
            if s_new <= s_smooth - 1e-4 * tau * 2.0 * grad_norm**2:
                c = cand
                accepted = True
                break
            tau *= 0.5
        if not accepted:
            break
        if p < 2:
            eps2 = (1e-8 * max(prob.norm_p(c), _Z_TINY) ** (1.0 / p)) ** 2
    return c, prob.norm_p(c), grad_norm, it


def pbergman_min_norm(
    D: BoundedDomain,
    basis: BasisSpec,
    z,
    p: float | None = None,
    cfg: OptimizerConfig | None = None,
) -> KernelEstimate:
    """Lower bound of B_p(z) over the basis span by constrained descent.

    Starts from the p = 2 Gram minimizer plus single-monomial candidates
    e_a / z^a (each feasible), any warm starts from the caller, and seeded
    random restarts; the reported value dominates every start's certificate
    value |phi(z)|^2/||phi||_p^2, so single-candidate lower bounds are never
    lost. The optimizer (reweighted least squares for p < 2, Barzilai-Borwein
    descent for p >= 2) runs from the 3 starts with the best certificates
    when p >= 1, where the problem is convex, and from every start when
    p < 1, where only multi-start is attempted and no global claim is made.
    """
    p = basis.p if p is None else float(p)
    cfg = cfg or OptimizerConfig()
    zz = _point(z, D.dimension)
    prob = _SliceProblem(D, basis, zz, p, cfg)
    K = basis.size
    bz = prob.bz

    starts = []
    # p = 2 Gram minimizer: feasible and typically near-optimal; indices with
    # divergent 2-norm (possible when the basis was validated at another p)
    # simply drop out of this start
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
    for w_indices, w_coeffs in cfg.warm_starts:
        c = np.zeros(K, dtype=complex)
        lookup = {a: i for i, a in enumerate(basis.indices)}
        ok = True
        for a, v in zip(w_indices, w_coeffs):
            i = lookup.get(tuple(a))
            if i is None:
                ok = False
                break
            c[i] = v
        if ok:
            starts.append(c)
    for i in range(cfg.restarts):
        g = substream(cfg.seed, TAG_OPTIMIZER, i)
        starts.append(g.standard_normal(K) + 1j * g.standard_normal(K))

    retracted = [prob.retract(np.asarray(c0, dtype=complex)) for c0 in starts]
    certs = [prob.norm_p(c0) for c0 in retracted]
    best_norm_p = min(certs)  # certificates: every start is feasible
    best_grad = math.inf
    total_iters = 0
    # for p >= 1 the problem is convex, so runs from different starts end at
    # the same minimum and the 3 best certificates suffice; below 1 every
    # start is tried
    order = np.argsort(certs)
    chosen = order if p < 1.0 else order[:3]
    method = _irls if p < 2.0 else _descend
    for i in chosen:
        c, s_final, grad_norm, it = method(prob, retracted[i], cfg)
        total_iters += it
        if s_final < best_norm_p:
            best_norm_p = s_final
            best_grad = grad_norm
        elif s_final == best_norm_p:
            best_grad = min(best_grad, grad_norm)
    if not math.isfinite(best_norm_p) or best_norm_p <= 0:
        raise NoBasisSupportError("optimizer failed to produce a feasible norm")

    value = best_norm_p ** (-2.0 / p)
    return KernelEstimate(
        value=float(value),
        z=tuple(zz),
        basis=basis,
        optimizer_report={
            "iterations": int(total_iters),
            "final_gradient_norm": float(best_grad if math.isfinite(best_grad) else 0.0),
            "restarts": len(starts) - 1,
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
    p: float,
    cfg: OptimizerConfig | None = None,
) -> list[ProbePoint]:
    """Kernel estimates along a path of interior points approaching the
    boundary (or a puncture), with value*(boundary distance)^2 attached."""
    out = []
    for z in path:
        zz = _point(z, D.dimension)
        if not D.contains(zz):
            raise ConfigError(f"path point {zz} is not in {D.label}")
        if p == 2 and D.radial_profile is not None:
            est = bergman2_gram(D, basis, zz)
        else:
            est = pbergman_min_norm(D, basis, zz, p=p, cfg=cfg)
        d = boundary_distance(D, zz)
        out.append(ProbePoint(z=tuple(zz), estimate=est, distance=d, diagnostic=est.value * d * d))
    return out
