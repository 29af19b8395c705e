"""p-norms of holomorphic functions over bounded domains, three ways:
closed form for monomials on catalog domains, tensor quadrature through the
radial profile, and chunked Monte Carlo with delta-method errors.

All paths report a PNormResult; the closed form is the only one allowed to
claim zero standard error.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from ._rng import TAG_MC_NORM, substream
from .errors import ConfigError, DivergentIntegralError, PoleProximityWarning, UnsupportedDomainError
from .functions import LaurentPolynomial
from .geometry import BoundedDomain, RadialProfile, log_radial_moment

_MC_CHUNK = 1 << 16
_NODE_BUDGET = 4_000_000


@dataclass(frozen=True)
class PNormResult:
    """A computed p-norm with method tag and error estimate.

    `value` is the norm itself; `integral` recovers value**p (the metric
    d = norm^p is the natural quantity for p < 1).
    """

    value: float
    p: float
    method: str
    std_error: float
    samples_or_nodes: int
    seed: int | None = None

    def __post_init__(self):
        if self.value < 0 or self.std_error < 0:
            raise ValueError("norm and standard error must be nonnegative")
        if self.method == "closed_form":
            if self.std_error != 0.0:
                raise ValueError("closed-form results carry zero standard error")
        elif self.std_error == 0.0:
            raise ValueError(f"method {self.method!r} must report a positive standard error")

    @property
    def integral(self) -> float:
        return self.value**self.p

    def to_json_obj(self) -> dict:
        return {
            "value": self.value,
            "p": self.p,
            "method": self.method,
            "std_error": self.std_error,
            "samples_or_nodes": self.samples_or_nodes,
            "seed": self.seed,
        }


def _error_floor(value: float) -> float:
    return float(np.finfo(float).eps) * max(abs(value), 1.0)


def _delta_result(integral: float, sigma_i: float, p: float, method: str, count: int, seed=None) -> PNormResult:
    """The norm integral^(1/p), its error carried from the integral's error
    sigma_i by the delta method and floored at machine precision."""
    value = integral ** (1.0 / p)
    sigma = sigma_i / (p * integral ** (1.0 - 1.0 / p)) if integral > 0.0 else sigma_i
    return PNormResult(value, float(p), method, max(sigma, _error_floor(value)), int(count), seed)


# -- closed form -------------------------------------------------------------


def monomial_norm_closed(D: BoundedDomain, alpha: Sequence[int], p: float) -> PNormResult:
    """Exact p-norm of z^alpha on a catalog domain via the radial reduction.

    Computed in log space throughout (log-Gamma / log-Beta), so large
    exponents cannot overflow.
    """
    if p <= 0:
        raise ConfigError("p must be positive")
    if D.radial_profile is None:
        raise UnsupportedDomainError(f"no closed form: domain {D.label!r} has no radial profile")
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != (D.dimension,):
        raise ConfigError(f"exponent of length {alpha.shape} for dimension {D.dimension}")
    try:
        log_moment = log_radial_moment(D.radial_profile, p * alpha)
    except DivergentIntegralError as exc:
        raise DivergentIntegralError(f"|z^{tuple(int(a) for a in alpha)}|^{p} is not integrable on {D.label}: {exc}") from exc
    log_integral = D.dimension * math.log(2.0 * math.pi) + log_moment
    return PNormResult(
        value=math.exp(log_integral / p),
        p=float(p),
        method="closed_form",
        std_error=0.0,
        samples_or_nodes=0,
    )


def closed_norm(D: BoundedDomain, f: LaurentPolynomial, p: float) -> PNormResult:
    """Closed-form norm for a single-term Laurent polynomial c*z^alpha."""
    exp, coeff = f.single_term()
    base = monomial_norm_closed(D, exp, p)
    return PNormResult(abs(coeff) * base.value, base.p, "closed_form", 0.0, 0)


# -- Monte Carlo --------------------------------------------------------------


def _variance_diverges(D: BoundedDomain, f, p: float) -> bool:
    """True when the estimator variance of |f|^p is provably infinite: the
    closed-form test is the integrability of |f|^{2p}."""
    if not isinstance(f, LaurentPolynomial) or not f.is_monomial or D.radial_profile is None:
        return False
    exp, _ = f.single_term()
    try:
        log_radial_moment(D.radial_profile, 2.0 * p * np.asarray(exp, dtype=float))
        return False
    except DivergentIntegralError:
        return True


def _mc_chunk(D: BoundedDomain, items, seed: int, chunk_idx: int, chunk_size: int):
    g = substream(seed, TAG_MC_NORM, chunk_idx)
    b = np.asarray(D.bounding_box)
    u = g.random((chunk_size, 2 * D.dimension)) * 2.0 - 1.0
    pts = (u[:, ::2] + 1j * u[:, 1::2]) * b
    mask = D.contains(pts)
    members = pts[mask]
    out = []
    for f, p in items:
        sub = members
        neg = getattr(f, "_negative_axes", ())
        if neg and sub.shape[0]:
            keep = np.ones(sub.shape[0], dtype=bool)
            for j in neg:
                keep &= sub[:, j] != 0
            sub = sub[keep]
        if sub.shape[0]:
            vals = np.abs(np.asarray(f.evaluate(sub))) ** p
            out.append((float(vals.sum()), float((vals * vals).sum())))
        else:
            out.append((0.0, 0.0))
    return out


def mc_norm_batch(
    D: BoundedDomain,
    items: Sequence[tuple],
    samples: int,
    rng,
    threads: int = 1,
    warn_on_divergence: bool = True,
) -> list[PNormResult]:
    """Monte Carlo p-norms for several (f, p) pairs sharing one rejection
    sample stream over D's bounding box.

    The estimand is Y = 1_D(z)|f(z)|^p over box proposals, so rejection
    variance is included in the reported error. Chunk substreams are keyed by
    (seed, chunk index); results are byte-identical for any thread count.
    """
    if samples < 1_000:
        raise ConfigError("Monte Carlo needs at least 10^3 samples")
    seed = int(rng) if not isinstance(rng, np.random.Generator) else None
    if seed is None:
        raise ConfigError("mc_norm requires an integer seed so substreams stay reproducible")
    if warn_on_divergence:
        for f, p in items:
            if _variance_diverges(D, f, p):
                warnings.warn(
                    f"|f|^{p} has divergent sample variance on {D.label}; the MC error "
                    "estimate is unreliable, prefer quadrature_norm",
                    PoleProximityWarning,
                    stacklevel=2,
                )
    n_chunks = math.ceil(samples / _MC_CHUNK)
    sizes = [_MC_CHUNK] * (n_chunks - 1) + [samples - _MC_CHUNK * (n_chunks - 1)]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            partials = list(pool.map(lambda i: _mc_chunk(D, items, seed, i, sizes[i]), range(n_chunks)))
    else:
        partials = [_mc_chunk(D, items, seed, i, sizes[i]) for i in range(n_chunks)]

    vol = D.box_volume
    results = []
    for j, (f, p) in enumerate(items):
        sum_y = 0.0
        sum_y2 = 0.0
        for part in partials:  # fixed order: reductions independent of thread count
            sum_y += part[j][0]
            sum_y2 += part[j][1]
        n = float(samples)
        mean = sum_y / n
        var = max(sum_y2 / n - mean * mean, 0.0) * n / max(n - 1.0, 1.0)
        results.append(_delta_result(vol * mean, vol * math.sqrt(var / n), p, "monte_carlo", samples, seed))
    return results


def mc_norm(D: BoundedDomain, f, p: float, samples: int, rng, threads: int = 1) -> PNormResult:
    """Monte Carlo p-norm of f over D by rejection from the bounding box."""
    return mc_norm_batch(D, [(f, p)], samples, rng, threads=threads)[0]


# -- quadrature ---------------------------------------------------------------


@lru_cache(maxsize=64)
def _gl_nodes(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return (x + 1.0) / 2.0, w / 2.0  # on (0, 1)


def _monomial_values(points: np.ndarray, indices) -> np.ndarray:
    """Matrix of z^alpha across points (rows) and exponents (columns)."""
    m = points.shape[0]
    out = np.empty((m, len(indices)), dtype=complex)
    for k, alpha in enumerate(indices):
        acc = np.ones(m, dtype=complex)
        for j, e in enumerate(alpha):
            if e:
                acc = acc * points[:, j] ** int(e)
        out[:, k] = acc
    return out


def _tensor(grids):
    """Row-major tensor product of (radii, weights) grids, first factor slowest."""
    pts, wts = np.zeros((1, 0)), np.ones(1)
    for fp, fw in grids:
        pts = np.concatenate([np.repeat(pts, fp.shape[0], axis=0), np.tile(fp, (pts.shape[0], 1))], axis=1)
        wts = np.multiply.outer(wts, fw).reshape(-1)
    return pts, wts


def _radial_grid(profile: RadialProfile, n_r: int):
    """Flattened tensor grid (radii (M, n), weights (M,)) covering the moduli
    region; weights carry the dr measure including variable fiber limits, not
    the polar factor prod r_j."""
    x, w = _gl_nodes(n_r)
    if profile.kind == "polydisc":
        return _tensor([(R * x[:, None], R * w) for R in profile.radii])
    if profile.kind == "ball":
        pts, wts, cap = np.zeros((1, 0)), np.ones(1), np.full(1, profile.radius)
        for _ in range(profile.n):
            r = cap[:, None] * x[None, :]
            wts = (wts[:, None] * (cap[:, None] * w[None, :])).reshape(-1)
            pts = np.concatenate([np.repeat(pts, n_r, axis=0), r.reshape(-1, 1)], axis=1)
            cap = np.sqrt(np.maximum(cap[:, None] ** 2 - r**2, 0.0)).reshape(-1)
        return pts, wts
    if profile.kind in ("hartogs_graph", "graph_with_factor"):
        cap = x**profile.k
        if profile.kind == "graph_with_factor":
            cap = cap * np.sqrt(np.maximum(1.0 - x**2, 0.0))
        pts = np.stack([np.repeat(x, n_r), (cap[:, None] * x[None, :]).reshape(-1)], axis=1)
        return pts, ((w * cap)[:, None] * w[None, :]).reshape(-1)
    if profile.kind == "product":
        return _tensor([_radial_grid(f, n_r) for f in profile.factors])
    raise UnsupportedDomainError(f"unknown profile kind {profile.kind!r}")


class ReinhardtGrid:
    """Quadrature grid of a Reinhardt domain: the radial grid of each product
    factor, kept apart, times m_theta uniform angles per coordinate; node
    (r, theta) stands for z = r e^{i theta}. Node counts come from the factor
    grids alone; the flattened nodes and the angles are built on first use."""

    def __init__(self, profile: RadialProfile, n_r: int, m_theta: int = 1):
        parts = profile.factors if profile.kind == "product" else (profile,)
        self.factors = [_radial_grid(f, n_r) for f in parts]
        self.dimension = profile.dimension
        self.m_theta = m_theta
        self.n_radial = math.prod(radii.shape[0] for radii, _ in self.factors)
        self.n_angular = m_theta**self.dimension
        self.node_count = self.n_radial * self.n_angular

    @cached_property
    def nodes(self):
        """Flattened radii (R, n), first factor slowest, and per radial node the
        weight times the polar factor prod r_j times (2 pi / m_theta)^n."""
        radii, wts = _tensor(self.factors)
        return radii, np.prod(radii, axis=1) * wts * (2.0 * math.pi / self.m_theta) ** self.dimension

    @cached_property
    def phases(self) -> np.ndarray:
        """(A, n) unit phases e^{i theta}, the last coordinate fastest."""
        phase = np.exp(1j * (2.0 * math.pi * np.arange(self.m_theta) / self.m_theta))
        return np.stack(np.meshgrid(*([phase] * self.dimension), indexing="ij"), axis=-1).reshape(-1, self.dimension)

    def monomial_factors(self, indices):
        """Real radial powers r^alpha (R x K) and angular characters e^{i alpha.theta} (K x A)."""
        P = _monomial_values(self.nodes[0], indices).real
        return P, np.ascontiguousarray(_monomial_values(self.phases, indices).T)


def _span_values(P: np.ndarray, E: np.ndarray, c: np.ndarray) -> np.ndarray:
    """sum_k c_k P_rk E_kt (R x A); P is real, so it multiplies re/im parts apart."""
    return (P @ (c[:, None] * E).view(float)).view(complex)


def _quad_integral_monomial(grid: ReinhardtGrid, f, p: float) -> float:
    """|c z^a|^p times the polar factor prod r_j, and the radial weights, factor
    across product factors: the tensor sum is the product of per-factor sums."""
    exp, coeff = f.single_term()
    t = p * np.asarray(exp, dtype=float)
    out, j = abs(coeff) ** p * (2.0 * math.pi) ** grid.dimension, 0
    for radii, wts in grid.factors:
        n = radii.shape[1]
        out *= float(np.dot(wts, np.prod(radii ** (t[j : j + n] + 1.0), axis=1)))
        j += n
    return out


def _quad_integral_general(grid: ReinhardtGrid, f, p: float) -> float:
    """Sum of |f|^p over every node of the grid, refused above the node budget."""
    if grid.node_count > _NODE_BUDGET:
        raise ConfigError(
            f"quadrature grid of {grid.node_count} nodes exceeds the budget; reduce nodes or use Monte Carlo"
        )
    if isinstance(f, LaurentPolynomial):
        P, E = grid.monomial_factors(list(f.terms))
        c = np.array(list(f.terms.values()), dtype=complex)
    step = max(1, _MC_CHUNK // grid.n_angular)  # radial rows per block of <= 2^16 nodes
    acc = np.empty(grid.n_radial)
    for i in range(0, grid.n_radial, step):
        if isinstance(f, LaurentPolynomial):
            vals = _span_values(P[i : i + step], E, c)
        else:
            z = grid.nodes[0][i : i + step, None, :] * grid.phases
            vals = np.asarray(f.evaluate(z.reshape(-1, grid.dimension))).reshape(z.shape[:2])
        acc[i : i + step] = np.sum(np.abs(vals) ** p, axis=1)
    return float(grid.nodes[1] @ acc)


def quadrature_norm(
    D: BoundedDomain,
    f,
    p: float,
    radial_nodes: int = 48,
    angular_nodes: int | None = None,
) -> PNormResult:
    """Deterministic p-norm on a radial-profile domain: Gauss-Legendre in
    each radius with exact fiber limits, trapezoid in each angle (spectrally
    accurate for these periodic integrands). The std_error field carries a
    coarse-grid Richardson discrepancy, floored at machine precision.

    A monomial's integrand and weights factor across the factors of a product
    domain, so its tensor sum is taken as the product of per-factor sums; any
    other integrand is evaluated node by node. `samples_or_nodes` counts the
    fine tensor grid either way: radial nodes (48^4 = 5,308,416 on the
    4-dimensional product domains), times m_theta^n angles for non-monomials.
    """
    if p <= 0:
        raise ConfigError("p must be positive")
    if D.radial_profile is None:
        raise UnsupportedDomainError(f"quadrature needs a radial profile; {D.label!r} has none")
    if radial_nodes < 4:
        raise ConfigError("radial_nodes must be at least 4")
    profile = D.radial_profile

    integral, m_theta = _quad_integral_general, angular_nodes
    if isinstance(f, LaurentPolynomial) and f.is_monomial:
        # convergence guard; quadrature on an interior grid would otherwise
        # silently return a finite answer for a divergent integral
        log_radial_moment(profile, p * np.asarray(f.single_term()[0], dtype=float))
        integral, m_theta = _quad_integral_monomial, 1
    elif isinstance(f, LaurentPolynomial):
        min_theta = 2 * max((sum(abs(e) for e in exp) for exp in f.terms), default=0) + 1
        m_theta = max(21, min_theta) if m_theta is None else m_theta
        if m_theta < min_theta:
            raise ConfigError(f"angular_nodes must be at least {min_theta} for this integrand")
    elif m_theta is None:
        m_theta = 21
    fine_grid = ReinhardtGrid(profile, radial_nodes, m_theta)
    fine = integral(fine_grid, f, p)
    coarse = integral(ReinhardtGrid(profile, max(4, (2 * radial_nodes) // 3), m_theta), f, p)

    return _delta_result(fine, abs(fine - coarse), p, "quadrature", fine_grid.node_count)


def agree_within(a: PNormResult, b: PNormResult, n_sigma: float = 3.0, floor: float = 1e-12) -> bool:
    """Agreement test used throughout: |a - b| within n_sigma combined errors."""
    sigma = math.hypot(a.std_error, b.std_error)
    return abs(a.value - b.value) <= n_sigma * sigma + floor * max(a.value, b.value, 1.0)
