"""Recovering the point map behind an A^p isometry.

An isometry in weighted composition form transports the ratio vectors
(phi_1/phi_0, ..., phi_N/phi_0) on the source to (psi_1/psi_0, ..., psi_N/psi_0)
on the target: J_N(F(z)) = I_N(z). Given only an operator oracle, the map F
is recovered pointwise by solving J_N(w) = I_N(z) in least squares, and the
source set where phi_0 vanishes is reported as excluded rather than mapped.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from itertools import product as iter_product
from typing import Callable, Sequence

import numpy as np

from ._rng import TAG_STARTS, stable_key, substream
from .errors import (
    ConfigError,
    NoBasisSupportError,
    PoleEvaluationError,
    PoleProximityWarning,
)
from .functions import LaurentPolynomial, fd_jacobian_det, fd_stencil, fd_stencil_jacobians
from .geometry import BoundedDomain, sample
from .isometry import CompositionIsometry, FunctionFamily, ratio_matrix

STATUS_MAPPED = "mapped"
STATUS_EXCLUDED_ZERO = "excluded-zero-weight"
STATUS_EXCLUDED_NO_PREIMAGE = "excluded-no-preimage"
STATUS_UNRESOLVED = "unresolved-budget"

# exclusion threshold relative to the grid median of |phi_0|
_EXCLUSION_REL = 1e-8
# image pairs compared per block of the injectivity count
_PAIR_BLOCK = 1 << 16


# -- oracle -------------------------------------------------------------------


@dataclass(frozen=True)
class IsometryOracle:
    """Black-box access to T: only images of supplied functions are used.

    ``evaluator`` is a callable phi |-> T(phi) whose images are functions on
    the target. It may also offer ``apply_family(family)``, returning the
    images of a whole family as one ``FunctionFamily``; otherwise the images
    are taken one member at a time. A ``CompositionIsometry`` offers both,
    and its source, target and p, so the functions below take it directly.

    ``supports_arbitrary`` marks oracles (like real operators) that accept any
    Laurent input, enabling the linearity spot check; injected test oracles
    may be defined on a fixed family only.
    """

    source: BoundedDomain
    target: BoundedDomain
    p: float
    evaluator: Callable
    supports_arbitrary: bool = False
    label: str = ""

    @classmethod
    def from_operator(cls, T: CompositionIsometry) -> "IsometryOracle":
        return cls(
            source=T.source,
            target=T.target,
            p=T.p,
            evaluator=T,
            supports_arbitrary=True,
            label=T.label,
        )

    def apply(self, phi):
        return self.evaluator(phi)

    def apply_family(self, family: FunctionFamily) -> FunctionFamily:
        if hasattr(self.evaluator, "apply_family"):
            return self.evaluator.apply_family(family)
        return FunctionFamily(self.target.dimension, tuple(self.apply(f) for f in family.members), family.label)

    def spot_check_linearity(self, family: FunctionFamily, points, coeff: complex = 0.37 + 0.21j) -> float:
        """Max abs deviation of T(phi_i + c phi_j) from T(phi_i) + c T(phi_j)
        at the given target points; needs arbitrary-input support."""
        if not self.supports_arbitrary:
            raise ConfigError("oracle does not accept functions outside its family")
        pts = np.atleast_2d(np.asarray(points, dtype=complex))
        images = self.apply_family(family).values(pts)
        worst = 0.0
        members = family.members
        for i in range(len(members) - 1):
            combo = self.apply(members[i] + coeff * members[i + 1])(pts)
            split = images[:, i] + coeff * images[:, i + 1]
            worst = max(worst, float(np.max(np.abs(combo - split))))
        return worst


# -- ratio maps ---------------------------------------------------------------


def _batch(points, dimension: int) -> np.ndarray:
    pts = np.asarray(points, dtype=complex)
    if pts.ndim == 1:
        pts = pts.reshape(1, -1) if dimension > 1 else pts.reshape(-1, 1)
    if pts.shape[1] != dimension:
        raise ConfigError(f"points of width {pts.shape[1]} for dimension {dimension}")
    return pts


@dataclass(frozen=True)
class RatioMaps:
    """Evaluators for I_N (source) and J_N (target), defined off the zero
    sets of the leading members."""

    source: BoundedDomain
    target: BoundedDomain
    family: FunctionFamily
    image_family: FunctionFamily
    source_zero_axes: tuple

    def source_ratios(self, points) -> np.ndarray:
        return _usable_ratios(self.family, _batch(points, self.source.dimension))

    def target_ratios(self, points) -> np.ndarray:
        return _usable_ratios(self.image_family, _batch(points, self.target.dimension))


def _usable_ratios(family: FunctionFamily, pts: np.ndarray) -> np.ndarray:
    ratios, good, _ = ratio_matrix(family.values(pts))
    if not np.all(good):
        raise PoleEvaluationError("ratio map evaluated on the leading zero set")
    return ratios


def build_ratio_maps(oracle: IsometryOracle | CompositionIsometry, family: FunctionFamily) -> RatioMaps:
    """Push the family through the oracle and wrap both ratio maps.

    The zero set of a Laurent-monomial lead is recorded symbolically: it is
    exactly the union of coordinate hyperplanes with positive exponent.
    """
    if family.ratio_count < 1:
        raise ConfigError("ratio maps need at least two family members")
    images = oracle.apply_family(family)

    def zero_axes(f):
        if isinstance(f, LaurentPolynomial) and f.is_monomial:
            return f.positive_axes()
        return ()

    return RatioMaps(
        source=oracle.source,
        target=oracle.target,
        family=family,
        image_family=images,
        source_zero_axes=zero_axes(family.lead),
    )


def pullback_family(T: CompositionIsometry, extra_monomials: Sequence = ()) -> FunctionFamily:
    """The family whose target ratios are the plain coordinates: members are
    T^{-1}(1), T^{-1}(w_1), ..., T^{-1}(w_n), plus optional extra pullbacks."""
    n = T.target.dimension
    extra = tuple(LaurentPolynomial.monomial(n, tuple(exp)) for exp in extra_monomials)
    plain = FunctionFamily(n, FunctionFamily.coordinates(n).members + extra, label="pullback")
    return T.inverse().apply_family(plain)


def degree_family(dimension: int, max_degree: int = 3, lead=None) -> FunctionFamily:
    """All monomials of total degree <= max_degree; an optional non-constant
    lead (for exclusion detection) is prepended, else the constant 1 leads."""
    members = [] if lead is None else [lead]
    ranges = [range(max_degree + 1)] * dimension
    for exp in iter_product(*ranges):  # yields the constant 1 first
        if sum(exp) <= max_degree:
            mono = LaurentPolynomial.monomial(dimension, exp)
            if lead is None or mono != lead:
                members.append(mono)
    return FunctionFamily(dimension=dimension, members=tuple(members), label=f"degree<={max_degree}")


# -- point solver -------------------------------------------------------------


@dataclass(frozen=True)
class SolverConfig:
    """Gauss-Newton settings. ``threads`` is accepted and has no effect: the
    points of a grid are solved in lockstep, so there is no per-point work to
    hand to threads."""

    tol: float = 1e-9
    starts: int = 8
    max_iters: int = 80
    seed: int = 0
    threads: int = 1


@dataclass(frozen=True)
class PointSolve:
    z: tuple
    status: str
    w: tuple | None
    residual: float
    iterations: int

    def to_json_obj(self) -> dict:
        return {
            "z": [{"re": c.real, "im": c.imag} for c in self.z],
            "status": self.status,
            "w": None if self.w is None else [{"re": c.real, "im": c.imag} for c in self.w],
            "residual": self.residual if math.isfinite(self.residual) else None,
            "iterations": self.iterations,
        }


def _blocks_or_poles(evaluate: Callable, blocks: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Values of ``evaluate`` on an (m, k, n) stack of k-point blocks, as
    (m, k, width), and the mask of blocks that evaluated. The stack goes in
    one call; if that call meets a pole, block by block, so that a pole marks
    only its own block."""
    m, k, n = blocks.shape
    try:
        return evaluate(blocks.reshape(m * k, n)).reshape(m, k, width), np.ones(m, dtype=bool)
    except PoleEvaluationError:
        pass
    vals = np.full((m, k, width), np.nan, dtype=complex)
    ok = np.zeros(m, dtype=bool)
    for i in range(m):
        try:
            vals[i] = evaluate(blocks[i])
            ok[i] = True
        except PoleEvaluationError:
            pass
    return vals, ok


def _gn_lockstep(maps: RatioMaps, targets: np.ndarray, w0: np.ndarray, cfg: SolverConfig):
    """Gauss-Newton descent of ||J_N(w) - I_N(z_i)|| from the start w0, for
    every row i of ``targets`` at once; iterates stay members of the target
    domain. Returns per-row arrays (w, residual, iterations, stalled).

    Rows advance in lockstep, each by the arithmetic it would get alone: the
    maps evaluate a row the same way whatever the batch, and ``lstsq`` and
    ``norm`` are taken one row at a time. A row leaves once its residual is
    below tol, or stalls on a pole in its stencil or on 30 step halvings
    without a decrease.
    """
    m, width = targets.shape
    w = np.tile(w0, (m, 1))
    res = np.full(m, math.inf)
    iterations = np.zeros(m, dtype=int)
    vals, ok = _blocks_or_poles(maps.target_ratios, w[:, None, :], width)
    r = vals[:, 0] - targets
    for i in np.flatnonzero(ok):
        res[i] = float(np.linalg.norm(r[i]))
    stalled = ~ok
    live = np.flatnonzero(ok)
    dw = np.empty_like(w)
    for it in range(1, cfg.max_iters + 1):
        iterations[live] = it
        live = live[~(res[live] < cfg.tol)]
        if live.size == 0:
            break
        vals, ok = _blocks_or_poles(maps.target_ratios, fd_stencil(w[live]), width)
        stalled[live[~ok]] = True
        live = live[ok]
        for jac, i in zip(fd_stencil_jacobians(vals[ok]), live):
            dw[i] = np.linalg.lstsq(jac, -r[i], rcond=None)[0]
        searching = live
        step = 1.0
        for _ in range(30):
            if searching.size == 0:
                break
            w_new = w[searching] + step * dw[searching]
            inside = maps.target.contains(w_new)
            tried, w_new = searching[inside], w_new[inside]
            if tried.size:
                vals, ok = _blocks_or_poles(maps.target_ratios, w_new[:, None, :], width)
                r_new = vals[:, 0] - targets[tried]
                improved = []
                for j, i in enumerate(tried):
                    res_new = float(np.linalg.norm(r_new[j])) if ok[j] else math.inf
                    if res_new < res[i]:
                        w[i], r[i], res[i] = w_new[j], r_new[j], res_new
                        improved.append(i)
                searching = np.setdiff1d(searching, improved, assume_unique=True)
            step *= 0.5
        stalled[searching] = True
        live = live[~np.isin(live, searching)]
    return w, res, iterations, stalled


def _solve_lockstep(maps: RatioMaps, zs: np.ndarray, cfg: SolverConfig, lead_floor: float) -> list:
    """Multi-start Gauss-Newton for every row of ``zs`` in lockstep. The
    shared starts run in order; a point stops at the first start after which
    its best residual is below tol. Points whose |phi_0| is at most
    ``lead_floor`` are excluded without solving."""
    m = zs.shape[0]
    ratios, good, lead = ratio_matrix(maps.family.values(zs))
    solvable = np.array([bool(good[i]) and abs(complex(lead[i])) > lead_floor for i in range(m)], dtype=bool)
    best_res = np.full(m, math.inf)
    best_w = [None] * m
    iterations = np.zeros(m, dtype=int)
    all_stalled = np.ones(m, dtype=bool)
    live = np.flatnonzero(solvable)
    for w0 in _shared_starts(maps, cfg):
        if live.size == 0:
            break
        w, res, its, stalled = _gn_lockstep(maps, ratios[live], np.asarray(w0, dtype=complex), cfg)
        iterations[live] += its
        all_stalled[live] &= stalled
        for j, i in enumerate(live):
            if res[j] < best_res[i]:
                best_res[i], best_w[i] = res[j], w[j]
        live = live[~(best_res[live] < cfg.tol)]
    records = []
    for i in range(m):
        z = tuple(zs[i])
        if not solvable[i]:
            records.append(PointSolve(z, STATUS_EXCLUDED_ZERO, None, math.inf, 0))
        elif best_res[i] < cfg.tol:
            records.append(PointSolve(z, STATUS_MAPPED, tuple(best_w[i]), float(best_res[i]), int(iterations[i])))
        else:
            status = STATUS_EXCLUDED_NO_PREIMAGE if all_stalled[i] else STATUS_UNRESOLVED
            records.append(PointSolve(z, status, None, float(best_res[i]), int(iterations[i])))
    return records


def _shared_starts(maps: RatioMaps, cfg: SolverConfig) -> np.ndarray:
    gen = substream(cfg.seed, TAG_STARTS, stable_key([maps.target.label, maps.family.ratio_count]))
    return sample(maps.target, gen, cfg.starts).points


def solve_point(maps: RatioMaps, z, cfg: SolverConfig | None = None, lead_floor: float = 0.0) -> PointSolve:
    """Solve J_N(w) = I_N(z) for one source point by multi-start Gauss-Newton:
    the one-point case of the grid solver of :func:`reconstruct_map`.

    ``lead_floor`` is the absolute |phi_0| exclusion threshold (callers with a
    grid derive it from the grid median); below it the point is excluded
    without solving.
    """
    cfg = cfg or SolverConfig()
    z = np.asarray(z, dtype=complex).reshape(-1)
    if z.size != maps.source.dimension:
        raise ConfigError("point dimension mismatch")
    return _solve_lockstep(maps, z.reshape(1, -1), cfg, lead_floor)[0]


# -- grid reconstruction ------------------------------------------------------


@dataclass(frozen=True)
class ReconstructionResult:
    records: tuple
    threshold: float
    injectivity_violations: int
    diagnostics: dict = field(default_factory=dict)

    @property
    def mapped(self) -> tuple:
        return tuple(r for r in self.records if r.status == STATUS_MAPPED)

    def status_counts(self) -> dict:
        out: dict[str, int] = {}
        for r in self.records:
            out[r.status] = out.get(r.status, 0) + 1
        return out

    def to_json_obj(self) -> dict:
        return {
            "records": [r.to_json_obj() for r in self.records],
            "threshold": self.threshold,
            "injectivity_violations": self.injectivity_violations,
            "status_counts": self.status_counts(),
            "diagnostics": dict(self.diagnostics),
        }


def grid_points(D: BoundedDomain, n_per_dim: int) -> np.ndarray:
    """Deterministic member grid.

    Dimension 1: an n x n re/im tensor over 90% of the bounding box, clipped
    to the domain. Higher
    dimensions: n^2 uniform member points from a fixed stream; coordinate
    cross-grids concentrate on the thin slices of Reinhardt-type domains (and
    on zero sets of ratio leads), so they make poor reconstruction grids.
    """
    if n_per_dim < 1:
        raise ConfigError("grid needs at least one node per dimension")
    if D.dimension == 1:
        b = D.bounding_box[0]
        ticks = np.linspace(-0.9 * b, 0.9 * b, n_per_dim)
        pts = (ticks[:, None] + 1j * ticks[None, :]).reshape(-1, 1)
        pts = pts[D.contains(pts)]
    else:
        gen = substream(0, TAG_STARTS, stable_key(["grid", D.label, int(n_per_dim)]))
        pts = sample(D, gen, n_per_dim * n_per_dim).points
    if pts.shape[0] == 0:
        raise ConfigError("grid produced no interior points; increase n_per_dim")
    return pts


def _merged_pairs(images: np.ndarray, merge_tol: float) -> int:
    """Number of pairs a < b of images closer than merge_tol, counted in
    blocks of rows a, so memory stays O(block x len(images))."""
    count = len(images)
    block = max(1, _PAIR_BLOCK // max(count, 1))
    merged = 0
    for a0 in range(0, count, block):
        diff = images[None, a0 + 1 :] - images[a0 : a0 + block, None]
        close = np.linalg.norm(diff.reshape(-1, images.shape[1]), axis=1).reshape(diff.shape[:2]) < merge_tol
        # row i is image a0 + i and column c is image a0 + 1 + c, a later image when c >= i
        merged += int(np.count_nonzero(np.triu(close)))
    return merged


def reconstruct_map(
    oracle: IsometryOracle | CompositionIsometry,
    family: FunctionFamily,
    grid,
    cfg: SolverConfig | None = None,
) -> ReconstructionResult:
    """Solve the ratio equations over a grid of source points.

    The exclusion threshold is relative: 1e-8 times the grid median of
    |phi_0|. Mapped images are cross-checked for injectivity.
    """
    cfg = cfg or SolverConfig()
    maps = build_ratio_maps(oracle, family)
    pts = _batch(grid, maps.source.dimension)
    lead_abs = np.abs(np.asarray(maps.family.members[0](pts)))
    median = float(np.median(lead_abs))
    if median == 0.0:
        raise ConfigError("|phi_0| vanishes at more than half the grid; family is unusable")
    floor = _EXCLUSION_REL * median
    records = _solve_lockstep(maps, pts, cfg, floor)
    images = np.array([r.w for r in records if r.status == STATUS_MAPPED], dtype=complex)
    violations = _merged_pairs(images, max(10.0 * cfg.tol, 1e-12))
    return ReconstructionResult(
        records=tuple(records),
        threshold=floor,
        injectivity_violations=violations,
        diagnostics={
            "grid_size": int(pts.shape[0]),
            "starts": int(cfg.starts),
            "median_lead": median,
        },
    )


# -- identity checks ----------------------------------------------------------


def verify_modulus_identity(
    oracle: IsometryOracle | CompositionIsometry,
    F,
    points,
    tests: Sequence[LaurentPolynomial],
) -> float:
    """Max relative error of |T(phi)(F(z))| |J_F(z)|^{2/p} = |phi(z)| over
    tests and points.

    ``F`` is any point map z -> w; its Jacobian determinant comes from
    F.jacobian_det when available, else from a 4th-order finite-difference
    stencil on F itself with step 1e-3.
    """
    pts = _batch(points, oracle.source.dimension)
    jacobian = getattr(F, "jacobian_det", None)
    images = [oracle.apply(phi) for phi in tests]
    worst = 0.0
    for i in range(pts.shape[0]):
        z = pts[i]
        w = np.asarray(F(z.reshape(1, -1))).reshape(-1)
        if jacobian is not None:
            jf = complex(np.asarray(jacobian(z.reshape(1, -1))).reshape(-1)[0])
        else:
            jf = fd_jacobian_det(F, z, 1e-3)
            if abs(jf) < 1e-12:
                warnings.warn(
                    "finite-difference Jacobian nearly singular; the stencil may "
                    "straddle an excluded set",
                    PoleProximityWarning,
                    stacklevel=2,
                )
        factor = abs(jf) ** (2.0 / oracle.p)
        for phi, image in zip(tests, images):
            rhs = abs(complex(np.asarray(phi(z.reshape(1, -1)))[0]))
            if rhs == 0.0:
                continue
            lhs = abs(complex(np.asarray(image(w.reshape(1, -1)))[0])) * factor
            worst = max(worst, abs(lhs - rhs) / rhs)
    return worst


def verify_proportionality(
    oracle: IsometryOracle | CompositionIsometry,
    z,
    w,
    tests: Sequence[LaurentPolynomial],
) -> tuple[complex, float]:
    """Ratios T(phi)(w)/phi(z) across tests: their mean and the max pairwise
    spread relative to the mean modulus. A small spread certifies (z, w) as a
    graph pair of the hidden map."""
    z = np.asarray(z, dtype=complex).reshape(1, -1)
    w = np.asarray(w, dtype=complex).reshape(1, -1)
    vals_z = np.array([complex(np.asarray(phi(z))[0]) for phi in tests])
    scale = float(np.max(np.abs(vals_z))) if len(tests) else 0.0
    keep = np.abs(vals_z) > 1e-8 * scale
    if scale == 0.0 or not np.any(keep):
        raise NoBasisSupportError("every test vanishes at z; no ratio certificate exists")
    ratios = []
    for phi, vz, ok in zip(tests, vals_z, keep):
        if not ok:
            continue
        tv = complex(np.asarray(oracle.apply(phi)(w))[0])
        ratios.append(tv / vz)
    ratios = np.asarray(ratios)
    lam = complex(np.mean(ratios))
    spread = 0.0
    for i in range(len(ratios)):
        for j in range(i + 1, len(ratios)):
            spread = max(spread, abs(ratios[i] - ratios[j]))
    return lam, spread / max(abs(lam), 1e-300)
