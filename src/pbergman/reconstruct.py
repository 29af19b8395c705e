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
from numpy.linalg import LinAlgError, _umath_linalg

from ._rng import TAG_STARTS, stable_key, substream
from .errors import (
    ConfigError,
    PoleEvaluationError,
    PoleProximityWarning,
    user_stacklevel,
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
# finite-difference step of the Jacobian in verify_modulus_identity
_FD_STEP = 1e-3


# -- oracle -------------------------------------------------------------------


@dataclass(frozen=True)
class IsometryOracle:
    """Black-box access to T through a bare callable: ``evaluator`` maps phi
    to T(phi), a function on the target, and a family's images are taken
    member by member. An operator such as ``CompositionIsometry`` offers the
    same ``source``, ``target``, ``p``, ``apply`` and ``apply_family`` and is
    passed directly, so this wrapper serves callables such as test fakes.
    """

    source: BoundedDomain
    target: BoundedDomain
    p: float
    evaluator: Callable

    def apply(self, phi):
        return self.evaluator(phi)

    def apply_family(self, family: FunctionFamily) -> FunctionFamily:
        return FunctionFamily(self.target.dimension, tuple(self.apply(f) for f in family.members), family.label)


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
    """The source family and its images, with the evaluator of J_N (the
    target ratios), defined off the zero set of the leading image."""

    source: BoundedDomain
    target: BoundedDomain
    family: FunctionFamily
    image_family: FunctionFamily

    def target_ratios(self, points) -> np.ndarray:
        ratios, good, _ = ratio_matrix(self.image_family.values(_batch(points, self.target.dimension)))
        if not np.all(good):
            raise PoleEvaluationError("ratio map evaluated on the leading zero set")
        return ratios


def build_ratio_maps(oracle: IsometryOracle | CompositionIsometry, family: FunctionFamily) -> RatioMaps:
    """Push the family through the oracle and wrap both ratio maps."""
    if family.ratio_count < 1:
        raise ConfigError("ratio maps need at least two family members")
    return RatioMaps(source=oracle.source, target=oracle.target, family=family, image_family=oracle.apply_family(family))


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


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` of every row of a complex (m, N) array, bit for bit.

    Like ``norm``, this is sqrt(re.re + im.im), each dot a BLAS ddot over the
    strided real and imaginary views; copying the views to contiguous arrays
    would select another ddot kernel and move the last bits.
    """
    re, im = rows.real, rows.imag
    return np.sqrt((re[:, None, :] @ re[:, :, None] + im[:, None, :] @ im[:, :, None]).reshape(-1))


def _raise_lstsq_error(err, flag):
    raise LinAlgError("SVD did not converge in Linear Least Squares")


def _lstsq_steps(jac: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``np.linalg.lstsq(jac[k], rhs[k], rcond=None)[0]`` for every k of a
    complex (m, N, n) stack of matrices and (m, N) stack of right-hand sides,
    bit for bit, in one call to the LAPACK gufunc that ``lstsq`` calls once
    per matrix. A failed SVD raises ``LinAlgError``, as in ``lstsq``."""
    rows, n = jac.shape[1:]
    rcond = np.finfo(np.float64).eps * max(rows, n)
    with np.errstate(call=_raise_lstsq_error, invalid="call", over="ignore", divide="ignore", under="ignore"):
        x = _umath_linalg.lstsq(jac, rhs[:, :, None], rcond, signature="DDd->Ddid")[0]
    return x[:, :, 0]


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
    maps evaluate a row the same way whatever the batch, and the steps and
    residual norms of all rows are taken in one stacked call each
    (:func:`_lstsq_steps`, :func:`_row_norms`), with the bits of
    ``np.linalg.lstsq`` and ``np.linalg.norm`` on the row alone. A row leaves
    once its residual is below tol, or stalls on a pole in its stencil or on
    30 step halvings without a decrease.
    """
    m, width = targets.shape
    w = np.tile(w0, (m, 1))
    res = np.full(m, math.inf)
    iterations = np.zeros(m, dtype=int)
    vals, ok = _blocks_or_poles(maps.target_ratios, w[:, None, :], width)
    r = vals[:, 0] - targets
    res[ok] = _row_norms(r[ok])
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
        dw[live] = _lstsq_steps(fd_stencil_jacobians(vals[ok]), -r[live])
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
                res_new = np.full(tried.size, math.inf)
                res_new[ok] = _row_norms(r_new[ok])
                better = res_new < res[tried]
                hit = tried[better]
                w[hit], r[hit], res[hit] = w_new[better], r_new[better], res_new[better]
                searching = np.setdiff1d(searching, hit, assume_unique=True)
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
    solvable = good & (np.abs(lead) > lead_floor)
    best_res = np.full(m, math.inf)
    best_w = np.zeros((m, maps.target.dimension), dtype=complex)
    iterations = np.zeros(m, dtype=int)
    all_stalled = np.ones(m, dtype=bool)
    live = np.flatnonzero(solvable)
    for w0 in _shared_starts(maps, cfg):
        if live.size == 0:
            break
        w, res, its, stalled = _gn_lockstep(maps, ratios[live], np.asarray(w0, dtype=complex), cfg)
        iterations[live] += its
        all_stalled[live] &= stalled
        better = res < best_res[live]
        hit = live[better]
        best_res[hit], best_w[hit] = res[better], w[better]
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
    """Number of pairs a < b of images with ||w_a - w_b|| < merge_tol.

    A pair that close differs by less than merge_tol in Re w_1, so after a
    stable sort on Re w_1 only pairs within a window of 2 merge_tol (the
    margin covers the rounding of the window edge) are tested, one sorted
    offset at a time, so memory stays O(len(images)). The norm of -d has the
    bits of the norm of d, so the count equals that of testing every pair.
    """
    if len(images) < 2:  # no mapped point leaves a 1-D empty array
        return 0
    order = np.argsort(images[:, 0].real, kind="stable")
    srt = images[order]
    x = srt[:, 0].real
    # images i .. i + reach[i] - 1 in sorted order lie in the window of image i
    reach = np.searchsorted(x, x + 2.0 * merge_tol, side="right") - np.arange(len(x))
    merged = 0
    for k in range(1, int(reach.max())):
        rows = np.flatnonzero(reach > k)
        close = np.linalg.norm(srt[rows + k] - srt[rows], axis=1) < merge_tol
        merged += int(np.count_nonzero(close))
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
    F.jacobian_det when available, else from :func:`fd_jacobian_det` on F
    itself with step 1e-3. F, the tests and their images are each evaluated
    once on the whole batch, the images only at the rows where their test
    does not vanish.
    """
    pts = _batch(points, oracle.source.dimension)
    jacobian = getattr(F, "jacobian_det", None)
    w = np.asarray(F(pts)).reshape(pts.shape)
    if jacobian is not None:
        jf = np.asarray(jacobian(pts), dtype=complex).reshape(-1)
    else:
        jf = fd_jacobian_det(F, pts, _FD_STEP)
        singular = int(np.sum(np.abs(jf) < 1e-12))
        if singular:
            warnings.warn(
                f"finite-difference Jacobian nearly singular at {singular} of {len(jf)} points; "
                "the stencil may straddle an excluded set",
                PoleProximityWarning,
                stacklevel=user_stacklevel(),
            )
    factor = np.abs(jf) ** (2.0 / oracle.p)
    worst = 0.0
    for phi in tests:
        rhs = np.abs(np.asarray(phi(pts), dtype=complex).reshape(-1))
        keep = rhs != 0.0
        if not keep.any():
            continue
        lhs = np.abs(np.asarray(oracle.apply(phi)(w[keep]), dtype=complex).reshape(-1)) * factor[keep]
        # fmax skips NaN errors, as the comparison max(worst, err) did
        worst = float(np.fmax.reduce(np.abs(lhs - rhs[keep]) / rhs[keep], initial=worst))
    return worst
