"""p-norms of holomorphic functions over bounded domains, three ways:
closed form for monomials on catalog domains, tensor quadrature through the
radial profile, and chunked Monte Carlo by rejection from the bounding
polydisc, moduli first (a monomial needs no phases), with delta-method errors.

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

from ._rng import CHUNK, TAG_MC_NORM, as_seed, substream
from .errors import ConfigError, DivergentIntegralError, PoleProximityWarning, UnsupportedDomainError, user_stacklevel
from .functions import LaurentPolynomial, as_p, fields_json, monomial_values
from .geometry import BoundedDomain, RadialProfile, log_radial_moment

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

    to_json_obj = fields_json


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
    as_p(p)
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
    if not isinstance(f, LaurentPolynomial) or not f.is_monomial:
        return False
    exp, _ = f.single_term()
    try:
        log_radial_moment(D.radial_profile, 2.0 * p * np.asarray(exp, dtype=float))
        return False
    except DivergentIntegralError:
        return True


def chunked_mean(samples: int, chunk_ys, threads: int = 1) -> list[tuple[float, float]]:
    """Mean and standard error of Y per item, from `samples` draws split
    into chunks of CHUNK.

    chunk_ys(i, size) returns the y arrays of chunk i, one per item (draws
    absent from an array count as y = 0); a generator keeps one in memory at
    a time. A bool y is counted: its count is both its sum and its sum of
    squares. Chunks run on `threads` workers when threads > 1. The per-chunk
    sums of y and y^2 are added in chunk order, so results are byte-identical
    for any thread count.
    """
    n_chunks = math.ceil(samples / CHUNK)
    sizes = [CHUNK] * (n_chunks - 1) + [samples - CHUNK * (n_chunks - 1)]

    def moments(y: np.ndarray) -> tuple[float, float]:
        if y.dtype == bool:  # 0/1 values: the count is both sums
            return (float(np.count_nonzero(y)),) * 2
        return float(y.sum()), float((y * y).sum())

    def sums(i: int):
        return [moments(y) for y in chunk_ys(i, sizes[i])]

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            partials = list(pool.map(sums, range(n_chunks)))
    else:
        partials = [sums(i) for i in range(n_chunks)]

    n = float(samples)
    out = []
    for j in range(len(partials[0])):
        sum_y = 0.0
        sum_y2 = 0.0
        for part in partials:  # fixed order, not a pairwise np.sum
            sum_y += part[j][0]
            sum_y2 += part[j][1]
        mean = sum_y / n
        var = max(sum_y2 / n - mean * mean, 0.0) * n / max(n - 1.0, 1.0)
        out.append((mean, math.sqrt(var / n)))
    return out


def _monomial_power(f, p: float):
    """(|c|^p, ((j, p a_j) for a_j != 0)) when f is the Laurent monomial
    c z^a, so that |f|^p = |c|^p exp(sum_j p a_j log r_j); None otherwise."""
    if not isinstance(f, LaurentPolynomial) or not f.is_monomial:
        return None
    exp, coeff = f.single_term()
    return abs(coeff) ** p, tuple((j, p * a) for j, a in enumerate(exp) if a)


def mc_norm_batch(
    D: BoundedDomain,
    items: Sequence[tuple],
    samples: int,
    rng,
    threads: int = 1,
) -> list[PNormResult]:
    """Monte Carlo p-norms for several (f, p) pairs sharing one rejection
    sample stream over D's bounding polydisc P = {|z_j| < b_j}.

    The estimand is Y = 1_D(z)|f(z)|^p for z uniform on P, and the result's
    integral is V_P times the mean of Y, V_P = prod_j pi b_j^2; rejection
    variance is included in the reported error, and `samples` counts
    proposals. Proposals are drawn in polar form, moduli first: chunk i of
    CHUNK proposals draws one (n, size) block u from substream (seed,
    TAG_MC_NORM, i), row j of it for coordinate j, and r_j = b_j sqrt(u_j);
    members are the r in D's region of moduli (with r_j != 0 on its null
    exclusions). A Laurent monomial's |c z^a|^p is taken from the members'
    moduli alone, as |c|^p exp(sum_j p a_j log r_j). Only when some item is
    not a monomial does the chunk go on to draw the members' phases,
    theta = 2 pi v from one (n, members) block v, and evaluate f at
    z = r e^{i theta}, so adding such an item moves no monomial's bits. Rows
    with r_j = 0 on an axis where f has a pole count as Y = 0. Results are
    byte-identical for any thread count.
    """
    if samples < 1_000:
        raise ConfigError("Monte Carlo needs at least 10^3 samples")
    seed = as_seed(rng)  # a Generator is refused too: chunk substreams need a seed
    for _, p in items:
        as_p(p)
    for f, p in items:
        if _variance_diverges(D, f, p):
            warnings.warn(
                f"|f|^{p} has divergent sample variance on {D.label}; the MC error "
                "estimate is unreliable, prefer quadrature_norm",
                PoleProximityWarning,
                stacklevel=user_stacklevel(),
            )
    powers = [_monomial_power(f, p) for f, p in items]
    poles = [tuple(getattr(f, "_negative_axes", ())) for f, _ in items]
    with_phases = any(power is None for power in powers)
    bounds = np.asarray(D.bounding_box)[:, None]

    def chunk_ys(i: int, size: int):
        g = substream(seed, TAG_MC_NORM, i)
        r = g.random((D.dimension, size))
        np.sqrt(r, out=r)
        r *= bounds
        inside = D.radial_profile.moduli_member(r.T)
        for j in D.null_exclusions:
            inside &= r[j] != 0
        r = np.compress(inside, r, axis=1)
        logs = {}
        if with_phases:
            theta = g.random(r.shape)
            theta *= 2.0 * math.pi
            z = np.empty(r.shape, dtype=complex)
            np.multiply(r, np.cos(theta), out=z.real)
            np.multiply(r, np.sin(theta), out=z.imag)
        for (f, p), power, axes in zip(items, powers, poles):
            keep = np.logical_and.reduce([r[j] != 0 for j in axes]) if axes else None
            if keep is not None and keep.all():
                keep = None
            if power is None:
                sub = z.T if keep is None else np.compress(keep, z, axis=1).T
                yield np.abs(np.asarray(f.evaluate(sub))) ** p if sub.shape[0] else np.zeros(0)
                continue
            scale, terms = power
            y = np.zeros(r.shape[1])
            # r_j = 0 makes log r_j = -inf: a zero of f, or a pole whose row is dropped
            with np.errstate(divide="ignore", invalid="ignore"):
                for j, t in terms:
                    if j not in logs:
                        logs[j] = np.log(r[j])
                    y += t * logs[j]
            np.exp(y, out=y)
            if scale != 1.0:
                y *= scale
            yield y if keep is None else np.compress(keep, y)

    vol = D.polydisc_volume
    return [
        _delta_result(vol * mean, vol * se, p, "monte_carlo", samples, seed)
        for (mean, se), (_, p) in zip(chunked_mean(samples, chunk_ys, threads), items)
    ]


def mc_norm(D: BoundedDomain, f, p: float, samples: int, rng, threads: int = 1) -> PNormResult:
    """Monte Carlo p-norm of f over D by rejection from the bounding polydisc;
    see `mc_norm_batch` for the law of the draws and the error."""
    return mc_norm_batch(D, [(f, p)], samples, rng, threads=threads)[0]


# -- quadrature ---------------------------------------------------------------


@lru_cache(maxsize=64)
def _gl_nodes(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return (x + 1.0) / 2.0, w / 2.0  # on (0, 1)


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
        parts = list(profile.factor_columns())
        self.factors = [_radial_grid(f, n_r) for f, _ in parts]
        self.columns = [cols for _, cols in parts]
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
        P = monomial_values(self.nodes[0], indices).real
        return P, np.ascontiguousarray(monomial_values(self.phases, indices).T)


def _span_values(P: np.ndarray, E: np.ndarray, c: np.ndarray) -> np.ndarray:
    """sum_k c_k P_rk E_kt (R x A); P is real, so it multiplies re/im parts apart."""
    return (P @ (c[:, None] * E).view(float)).view(complex)


def _quad_integral_monomial(grid: ReinhardtGrid, f, p: float) -> float:
    """|c z^a|^p times the polar factor prod r_j, and the radial weights, factor
    across product factors: the tensor sum is the product of per-factor sums."""
    exp, coeff = f.single_term()
    t = p * np.asarray(exp, dtype=float)
    out = abs(coeff) ** p * (2.0 * math.pi) ** grid.dimension
    for (radii, wts), cols in zip(grid.factors, grid.columns):
        out *= float(np.dot(wts, np.prod(radii ** (t[cols] + 1.0), axis=1)))
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
    step = max(1, CHUNK // grid.n_angular)  # radial rows per block of <= 2^16 nodes
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

    A Laurent integrand sum_a c_a z^a is refused with DivergentIntegralError
    when the p-th power of any one term diverges (log_radial_moment at
    p * a), before any node is evaluated. The per-term test is exact for every
    p > 0: |sum_a c_a z^a|^p <= C sum_a |c_a z^a|^p, and conversely, all
    L^p(T^n) quasi-norms are equivalent on trigonometric polynomials of fixed
    finite support, so |c_a| r^a <= C ||f(r .)||_{L^p(T^n)} on each torus of
    radii r.
    """
    as_p(p)
    if radial_nodes < 4:
        raise ConfigError("radial_nodes must be at least 4")
    profile = D.radial_profile

    integral, m_theta = _quad_integral_general, angular_nodes
    if isinstance(f, LaurentPolynomial):
        # convergence guard, one term at a time; quadrature on an interior grid
        # would otherwise silently return a finite answer for a divergent integral
        for exp in f.terms:
            log_radial_moment(profile, p * np.asarray(exp, dtype=float))
        if f.is_monomial:
            integral, m_theta = _quad_integral_monomial, 1
        else:
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
