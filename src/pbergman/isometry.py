"""Weighted composition operators T(phi)(w) = lambda * phi(G(w)) * g(w)
between A^p spaces, with |g|^p = |J_G|^2 so that T preserves p-norms by the
change-of-variables formula, plus the statistical equimeasurability checks
that characterize such operators.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._rng import TAG_BOXES, TAG_PUSHFORWARD, TAG_WEIGHTED, stable_key, substream
from .errors import (
    ConfigError,
    DivergentIntegralError,
    NonInvertibleMapError,
    PoleProximityWarning,
    user_stacklevel,
)
from .functions import (
    AnalyticFunction,
    LaurentPolynomial,
    MobiusFactors,
    MonomialMap,
    complex_from_json,
)
from .geometry import (
    BoundedDomain,
    box_proposals,
    make_catalog_domain,
    sample,
    sample_polar_weighted,
    sample_radial_weighted,
)
from .integrate import chunked_mean, closed_norm, mc_norm_batch


@dataclass(frozen=True)
class FunctionFamily:
    """Ordered family phi_0, phi_1, ..., phi_N on a common domain; phi_0 is
    the ratio denominator everywhere it appears."""

    dimension: int
    members: tuple
    label: str = ""

    def __post_init__(self):
        if not self.members:
            raise ConfigError("family needs at least one member")
        for f in self.members:
            if getattr(f, "dimension", None) != self.dimension:
                raise ConfigError("family members must share the family dimension")
        lead = self.members[0]
        if isinstance(lead, LaurentPolynomial) and lead.is_zero:
            raise ConfigError("the leading member must not be identically zero")

    @property
    def lead(self):
        return self.members[0]

    def values(self, pts: np.ndarray) -> np.ndarray:
        """(m, N+1) matrix of the members' values at (m, n) points; column 0
        is the lead."""
        out = np.empty((pts.shape[0], len(self.members)), dtype=complex)
        for k, f in enumerate(self.members):
            out[:, k] = f(pts)
        return out

    @property
    def ratio_count(self) -> int:
        return len(self.members) - 1

    @classmethod
    def coordinates(cls, dimension: int, label: str = "") -> "FunctionFamily":
        """The family {1, z_1, ..., z_n} whose ratio map is the identity."""
        members = [LaurentPolynomial.one(dimension)]
        members.extend(LaurentPolynomial.coordinate(dimension, j) for j in range(dimension))
        return cls(dimension=dimension, members=tuple(members), label=label or "coordinates")


def _function_descriptor(f):
    if isinstance(f, LaurentPolynomial):
        return {"laurent": f.to_json_obj()}
    return {"label": getattr(f, "label", "") or repr(f)}


# -- the operator -------------------------------------------------------------


class CompositionIsometry:
    """A^p(source) -> A^p(target), phi |-> lambda * (phi o G) * g, where G maps
    the target onto the source off null sets and |g|^p = |J_G|^2.

    ``laurent_data`` records whether G is a monomial map and g a Laurent
    polynomial; then Laurent inputs have exact Laurent images.
    """

    __slots__ = ("source", "target", "mapping", "weight", "p", "lam", "label", "laurent_data")

    def __init__(
        self,
        source: BoundedDomain,
        target: BoundedDomain,
        mapping,
        weight,
        p: float,
        lam: complex = 1.0,
        label: str = "",
        validate: bool = True,
    ):
        if float(p) <= 0:
            raise ConfigError("p must be positive")
        if abs(abs(complex(lam)) - 1.0) > 1e-12:
            raise ConfigError("lambda must have modulus 1")
        if mapping.dimension != target.dimension:
            raise ConfigError("mapping dimension must match the target domain")
        if source.dimension != target.dimension:
            raise ConfigError("source and target must share one ambient dimension")
        self.source = source
        self.target = target
        self.mapping = mapping
        self.weight = weight
        self.p = float(p)
        self.lam = complex(lam)
        self.label = label or "composition-isometry"
        self.laurent_data = isinstance(mapping, MonomialMap) and isinstance(weight, LaurentPolynomial)
        if validate:
            self._validate_weight()

    # -- validation ---------------------------------------------------------

    def _validate_weight(self) -> None:
        if self.laurent_data and self.weight.is_monomial:
            branch = self.mapping.weight_branch(self.p)  # BranchError propagates: no valid monomial weight
            be, bc = branch.single_term()
            bc = abs(bc)
            we, wc = self.weight.single_term()
            if be != we or abs(abs(wc) - bc) > 1e-12 * max(bc, 1.0):
                raise ConfigError(
                    f"weight {self.weight!r} violates |g|^p = |J_G|^2; expected modulus {branch!r}"
                )
            return
        self._numeric_weight_probe()

    def _numeric_weight_probe(self, count: int = 32, tol: float = 1e-12) -> None:
        gen = substream(0, TAG_WEIGHTED, stable_key(["weight-probe", self.target.label]))
        pts = sample(self.target, gen, count).points
        gp = np.abs(np.asarray(self.weight(pts))) ** self.p
        j2 = np.abs(np.asarray(self.mapping.jacobian_det(pts))) ** 2
        rel = float(np.max(np.abs(gp - j2) / np.maximum(j2, 1e-300)))
        if rel > tol:
            raise ConfigError(f"weight violates |g|^p = |J_G|^2 (relative error {rel:.3e})")

    # -- action -------------------------------------------------------------

    def apply(self, phi):
        """Exact Laurent image when the data is monomial, else a pointwise
        evaluator."""
        if self.laurent_data and isinstance(phi, LaurentPolynomial):
            return (phi.compose_monomial(self.mapping) * self.weight) * self.lam
        lam, G, g = self.lam, self.mapping, self.weight

        def fn(pts):
            return lam * np.asarray(phi(G(pts))) * np.asarray(g(pts))

        return AnalyticFunction(self.target.dimension, fn, label=f"T[{phi!r}]")

    __call__ = apply

    def apply_family(self, family: FunctionFamily) -> FunctionFamily:
        """The images T(phi_k) as one family on the target; without monomial
        data they are pointwise and share one evaluation of G and g per call."""
        images = tuple(self.apply(f) for f in family.members)
        if self.laurent_data:
            return FunctionFamily(self.target.dimension, images, family.label)
        return ImageFamily(self.target.dimension, images, family.label, operator=self, preimages=family.members)

    def inverse(self) -> "CompositionIsometry":
        """The inverse operator, again in weighted composition form.

        With F = G^{-1} and g' = F.weight_branch(p), a branch of J_F^{2/p}, the
        composition g(F(z)) * g'(z) is a unimodular constant c (its modulus is
        |J_G(F)J_F|^{2/p} = 1), so lambda' = 1/(lambda*c) makes
        inverse(T)(T(phi)) = phi exactly. c is the exact Laurent product for
        Laurent data, else it is read at three probe points.
        """
        F = self.mapping.inverse()
        weight = F.weight_branch(self.p)
        dim = self.source.dimension
        if self.laurent_data:
            correction = (self.weight.compose_monomial(F) * weight).terms
            if list(correction) != [(0,) * dim]:
                raise NonInvertibleMapError("weight correction is not constant; weight is invalid")
            c = correction[(0,) * dim]
        else:
            probes = np.array([[0.11 + 0.07j] * dim, [-0.19 + 0.13j] * dim, [0.05 - 0.23j] * dim])
            c_vals = np.asarray(self.weight(F(probes))) * np.asarray(weight(probes))
            c = complex(c_vals[0])
            if np.max(np.abs(c_vals - c)) > 1e-10 or abs(abs(c) - 1.0) > 1e-10:
                raise NonInvertibleMapError("weight correction is not a unimodular constant")
        return CompositionIsometry(
            source=self.target,
            target=self.source,
            mapping=F,
            weight=weight,
            p=self.p,
            lam=1.0 / (self.lam * c),
            label=f"inverse({self.label})",
            validate=False,
        )


@dataclass(frozen=True, kw_only=True)
class ImageFamily(FunctionFamily):
    """Pointwise images T(phi_k) whose ``values`` evaluate G and g once for all
    members, in the operation order of ``CompositionIsometry.apply``."""

    operator: CompositionIsometry
    preimages: tuple

    def values(self, pts: np.ndarray) -> np.ndarray:
        T = self.operator
        Gw, gw = T.mapping(pts), np.asarray(T.weight(pts))
        return np.stack([T.lam * np.asarray(phi(Gw)) * gw for phi in self.preimages], axis=1)


def identity_operator(D: BoundedDomain, p: float, lam: complex = 1.0) -> CompositionIsometry:
    return CompositionIsometry(
        source=D,
        target=D,
        mapping=MonomialMap.identity(D.dimension),
        weight=LaurentPolynomial.one(D.dimension),
        p=p,
        lam=lam,
        label="identity",
    )


def mobius_operator(params, p: float, lam: complex = 1.0) -> CompositionIsometry:
    """Self-map operator of the disc (or polydisc) induced by coordinate-wise
    automorphisms w_j -> (a_j - w_j)/(1 - conj(a_j) w_j)."""
    if isinstance(params, (int, float, complex)):
        params = (params,)
    params = tuple(params)
    for a in params:
        if a is not None and abs(complex(a)) >= 1.0:
            raise ConfigError("Moebius parameters must lie inside the unit disc")
    n = len(params)
    D = make_catalog_domain(("disc", 1.0) if n == 1 else ("polydisc", n, (1.0,) * n))
    mapping = MobiusFactors(params)
    return CompositionIsometry(
        source=D,
        target=D,
        mapping=mapping,
        weight=mapping.weight_branch(p),
        p=p,
        lam=lam,
        label=f"mobius{params}",
    )


# -- norm verification --------------------------------------------------------


def verify_isometry(
    T: CompositionIsometry,
    tests: Sequence,
    method: str = "closed",
    samples: int = 1_000_000,
    seed: int = 0,
    threads: int = 1,
) -> float:
    """Max over tests of | ||T phi|| - ||phi|| | / ||phi|| with the chosen
    norm backend. Divergent test norms raise rather than being skipped."""
    if not tests:
        raise ConfigError("need at least one test function")
    if method == "closed":
        worst = 0.0
        for phi in tests:
            if not isinstance(phi, LaurentPolynomial) or not phi.is_monomial:
                raise ConfigError("closed method requires single-term Laurent tests")
            image = T.apply(phi)
            if not isinstance(image, LaurentPolynomial) or not image.is_monomial:
                raise ConfigError("closed method requires a monomial operator image")
            n_src = closed_norm(T.source, phi, T.p).value
            n_tgt = closed_norm(T.target, image, T.p).value
            worst = max(worst, abs(n_tgt - n_src) / n_src)
        return worst
    if method == "mc":
        images = [T.apply(phi) for phi in tests]
        src = mc_norm_batch(T.source, [(f, T.p) for f in tests], samples, seed, threads=threads)
        tgt = mc_norm_batch(T.target, [(f, T.p) for f in images], samples, seed, threads=threads)
        return max(abs(b.value - a.value) / a.value for a, b in zip(src, tgt))
    raise ConfigError(f"unknown norm method {method!r}; expected closed or mc")


# -- pushforward regions ------------------------------------------------------


@dataclass(frozen=True)
class Box:
    """Axis-aligned box in C^N: lo_j <= Re v_j <= hi_j and likewise Im."""

    lo: tuple
    hi: tuple
    label: str = ""

    def __post_init__(self):
        if len(self.lo) != len(self.hi) or not self.lo:
            raise ConfigError("box corners must be nonempty tuples of equal length")
        for a, b in zip(self.lo, self.hi):
            a, b = complex(a), complex(b)
            if a.real > b.real or a.imag > b.imag:
                raise ConfigError("box corners must satisfy lo <= hi componentwise")

    @property
    def dimension(self) -> int:
        return len(self.lo)

    def __call__(self, vals: np.ndarray) -> np.ndarray:
        return box_masks([self], vals)[0].astype(float)

    def to_json_obj(self) -> dict:
        return {
            "label": self.label,
            "lo": [{"re": complex(c).real, "im": complex(c).imag} for c in self.lo],
            "hi": [{"re": complex(c).real, "im": complex(c).imag} for c in self.hi],
        }

    @classmethod
    def from_json_obj(cls, obj) -> "Box":
        """Read {"lo": [...], "hi": [...], "label": ...}; each corner
        coordinate is a number, a string or {re, im}."""
        if not isinstance(obj, dict) or not all(isinstance(obj.get(k), list) for k in ("lo", "hi")):
            raise ConfigError(f"a box is an object with 'lo' and 'hi' corner lists, got {obj!r}")
        return cls(
            lo=tuple(complex_from_json(c) for c in obj["lo"]),
            hi=tuple(complex_from_json(c) for c in obj["hi"]),
            label=obj.get("label", ""),
        )


def box_masks(boxes: Sequence[Box], vals: np.ndarray) -> np.ndarray:
    """(B, N) bool mask of the rows of the (N, d) ratio matrix `vals` that lie
    in each of the B boxes, all of one dimension d.

    Each ratio column is split once into contiguous real and imaginary parts
    and compared against the (B, 1) columns of every box's corners at once.
    """
    ok = np.ones((len(boxes), vals.shape[0]), dtype=bool)
    if not boxes:
        return ok
    lo = np.array([[complex(c) for c in b.lo] for b in boxes])
    hi = np.array([[complex(c) for c in b.hi] for b in boxes])
    cmp = np.empty_like(ok)
    for j in range(lo.shape[1]):
        for part, a, b in ((vals[:, j].real, lo.real, hi.real), (vals[:, j].imag, lo.imag, hi.imag)):
            x = np.ascontiguousarray(part)
            ok &= np.greater_equal(x, a[:, j, None], out=cmp)
            ok &= np.less_equal(x, b[:, j, None], out=cmp)
    return ok


def _region_ys(regions: Sequence, vals: np.ndarray):
    """Each region's values on the ratio matrix `vals`, in region order: the
    boxes as bool rows of one `box_masks` call (their sums of y and y^2 are
    exact counts), the others one by one."""
    masks = iter(box_masks([u for u in regions if isinstance(u, Box)], vals))
    for u in regions:
        yield next(masks) if isinstance(u, Box) else u(vals)


@dataclass(frozen=True)
class GaussianBump:
    """Smooth test u(v) = exp(-sum |v_j - center|^2 / (2 width^2))."""

    center: complex = 0.2 + 0.1j
    width: float = 0.4
    label: str = "gaussian-bump"

    def __call__(self, vals: np.ndarray) -> np.ndarray:
        c = complex(self.center)
        d2 = np.zeros(vals.shape[0])
        for j in range(vals.shape[1]):
            for x, c_x in ((vals[:, j].real, c.real), (vals[:, j].imag, c.imag)):
                x = x - c_x
                x *= x
                d2 += x
        d2 /= -2.0 * self.width**2
        return np.exp(d2, out=d2)


@dataclass(frozen=True)
class SigmoidProduct:
    """Smooth test u(v) = prod_j s(Re v_j/scale) s(Im v_j/scale), s logistic,
    computed as 1/prod_j (1 + e^{-Re v_j/scale})(1 + e^{-Im v_j/scale})."""

    scale: float = 0.3
    label: str = "sigmoid-product"

    def __call__(self, vals: np.ndarray) -> np.ndarray:
        den = np.ones(vals.shape[0])
        with np.errstate(over="ignore"):  # e^{-x} = inf makes den inf and u = 0, the limit
            for j in range(vals.shape[1]):
                for x in (vals[:, j].real, vals[:, j].imag):
                    x = np.divide(x, -self.scale)
                    np.exp(x, out=x)
                    x += 1.0
                    den *= x
        return np.reciprocal(den, out=den)


# -- pushforward mass ---------------------------------------------------------


def _side_key(D: BoundedDomain, lead, numerators) -> int:
    desc = {
        "domain": D.label,
        "lead": _function_descriptor(lead),
        "ratios": [_function_descriptor(f) for f in numerators],
    }
    return stable_key(desc)


def ratio_matrix(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ratios f_j/lead of a family's value matrix (column 0 the lead), written
    over its columns 1.. in place; the mask of rows with lead != 0; the lead."""
    lead = values[:, 0]
    good = np.abs(lead) > 0.0
    values[:, 1:] /= np.where(good, lead, 1.0)[:, None]
    return values[:, 1:], good, lead


@dataclass(frozen=True)
class _PolarRatios:
    """The ratios of a family of Laurent monomials c_k z^{beta_k}, computed
    from moduli and phases: with B the integer matrix of rows beta_k - beta_0
    and C_k = c_k/c_0, the ratios at z = r e^{i theta} are
    C exp(B log r + i B theta), one real matmul each for the moduli and the
    phases and one complex exp, without forming z. Only the axes some member
    depends on enter: `used` lists them and B keeps their columns."""

    B: np.ndarray
    C: np.ndarray | None  # None when every C_k is 1
    used: list

    @classmethod
    def of(cls, family: FunctionFamily) -> "_PolarRatios | None":
        """The polar form of the family, or None when a member is not a
        single-term Laurent polynomial."""
        if not all(isinstance(f, LaurentPolynomial) and f.is_monomial for f in family.members):
            return None
        (a0, c0), *rest = [f.single_term() for f in family.members]
        exps = np.array([a0] + [e for e, _ in rest])
        used = [j for j in range(family.dimension) if exps[:, j].any()]
        B = (exps[1:, used] - exps[0, used]).astype(float)
        C = np.array([c / c0 for _, c in rest])
        return cls(B=B, C=None if np.all(C == 1.0) else C, used=used)

    def __call__(self, r: np.ndarray, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The (m, N) ratio matrix at the points r e^{i theta} and the mask of
        rows whose moduli are positive on every used axis; masked rows carry
        finite values. Overwrites r."""
        if len(self.used) < r.shape[1]:
            r, theta = r[:, self.used], theta[:, self.used]
        good = np.ones(r.shape[0], dtype=bool)
        for j in range(r.shape[1]):
            good &= r[:, j] > 0.0
        with np.errstate(divide="ignore"):
            log_r = np.log(r, out=r)
        if not good.all():
            log_r[~good] = 0.0
        vals = np.empty((r.shape[0], self.B.shape[0]), dtype=complex)
        np.matmul(log_r, self.B.T, out=vals.real)
        np.matmul(theta, self.B.T, out=vals.imag)
        np.exp(vals, out=vals)
        if self.C is not None:
            vals *= self.C
        return vals, good


def _pushforward_stats(
    D: BoundedDomain,
    family: FunctionFamily,
    regions: Sequence,
    p: float,
    samples: int,
    seed: int,
    threads: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-region estimates of integral_D u(ratios) |lead|^p dA for the
    family's ratios, and standard errors, from one shared sample stream.

    When the lead is a Laurent monomial with |lead|^p integrable the points
    are drawn exactly from the normalized density |lead|^p/C, leaving the
    bounded estimand C*u; the ratios then come in polar form from the drawn
    moduli and phases when every member is a Laurent monomial. Rejection
    sampling with explicit |lead|^p weights (whose variance may diverge) is
    the fallback.
    """
    seed = int(seed)
    if samples < 1_000:
        raise ConfigError("pushforward needs at least 10^3 samples")
    lead = family.lead
    key = _side_key(D, lead, family.members[1:])
    weighted = False
    if isinstance(lead, LaurentPolynomial) and lead.is_monomial:
        try:
            factor = closed_norm(D, lead, p).integral
            weighted = True
        except DivergentIntegralError:  # then |lead|^{2p} diverges too
            warnings.warn(
                f"|lead|^{p} has divergent sample variance on {D.label}; pushforward "
                "error estimates are unreliable",
                PoleProximityWarning,
                stacklevel=user_stacklevel(),
            )

    if weighted:
        exp, _ = lead.single_term()
        t = tuple(p * e for e in exp)
        polar = _PolarRatios.of(family)

        def chunk_ys(i: int, size: int):
            gen = substream(seed, TAG_PUSHFORWARD, key, i)
            if polar is None:
                vals, good, _ = ratio_matrix(family.values(sample_radial_weighted(D, t, gen, size)))
            else:
                vals, good = polar(*sample_polar_weighted(D, t, gen, size))
            for y in _region_ys(regions, vals):
                y *= good
                yield y

    else:
        factor = D.box_volume

        def chunk_ys(i: int, size: int):
            pts, inside = box_proposals(D, substream(seed, TAG_PUSHFORWARD, key, i), size)
            members = pts[inside]
            if not members.shape[0]:
                yield from [np.zeros(0)] * len(regions)
                return
            vals, good, lead_vals = ratio_matrix(family.values(members))
            w = np.abs(lead_vals) ** p * good
            for y in _region_ys(regions, vals):
                yield y * w

    stats = chunked_mean(samples, chunk_ys, threads)
    return np.array([factor * mean for mean, _ in stats]), np.array([factor * se for _, se in stats])


# -- equimeasurability --------------------------------------------------------


@dataclass(frozen=True)
class RegionComparison:
    label: str
    mass_source: float
    sigma_source: float
    mass_target: float
    sigma_target: float
    difference: float
    sigma_combined: float
    passed: bool
    inconclusive: bool

    def to_json_obj(self) -> dict:
        return {
            "label": self.label,
            "mass_source": self.mass_source,
            "sigma_source": self.sigma_source,
            "mass_target": self.mass_target,
            "sigma_target": self.sigma_target,
            "difference": self.difference,
            "sigma_combined": self.sigma_combined,
            "passed": self.passed,
            "inconclusive": self.inconclusive,
        }


@dataclass(frozen=True)
class EquimeasureReport:
    regions: tuple
    verdict: str
    samples: int
    seed: int
    inconclusive: bool

    @property
    def passed(self) -> bool:
        return self.verdict == "PASS"

    @property
    def max_sigma_ratio(self) -> float:
        out = 0.0
        for r in self.regions:
            if r.sigma_combined > 0:
                out = max(out, r.difference / r.sigma_combined)
            elif r.difference > 0:
                out = math.inf
        return out

    def to_json_obj(self) -> dict:
        return {
            "regions": [r.to_json_obj() for r in self.regions],
            "verdict": self.verdict,
            "samples": self.samples,
            "seed": self.seed,
            "inconclusive": self.inconclusive,
        }


_BOX_PROBE_SAMPLES = 4096


def random_boxes(
    T: CompositionIsometry,
    family: FunctionFamily,
    seed: int = 0,
    count: int = 20,
) -> list[Box]:
    """Random axis-aligned boxes spanning the bulk of the source-side ratio
    distribution (5th to 95th percentile per axis), independent of the
    operator weight so mutated operators face identical regions."""
    if family.ratio_count < 1:
        raise ConfigError("box generation needs at least one ratio coordinate")
    lead = family.lead
    gen = substream(int(seed), TAG_BOXES, 0)
    if isinstance(lead, LaurentPolynomial) and lead.is_monomial:
        exp, _ = lead.single_term()
        pts = sample_radial_weighted(T.source, tuple(T.p * e for e in exp), gen, _BOX_PROBE_SAMPLES)
    else:
        pts = sample(T.source, gen, _BOX_PROBE_SAMPLES).points
    vals, good, _ = ratio_matrix(family.values(pts))
    vals = vals[good]
    boxes = []
    q_lo_re = np.quantile(vals.real, 0.05, axis=0)
    q_hi_re = np.quantile(vals.real, 0.95, axis=0)
    q_lo_im = np.quantile(vals.imag, 0.05, axis=0)
    q_hi_im = np.quantile(vals.imag, 0.95, axis=0)
    for i in range(count):
        g = substream(int(seed), TAG_BOXES, i + 1)
        lo, hi = [], []
        for j in range(vals.shape[1]):
            span_re = q_hi_re[j] - q_lo_re[j]
            span_im = q_hi_im[j] - q_lo_im[j]
            c_re = g.uniform(q_lo_re[j], q_hi_re[j])
            c_im = g.uniform(q_lo_im[j], q_hi_im[j])
            h_re = g.uniform(0.15, 0.45) * span_re
            h_im = g.uniform(0.15, 0.45) * span_im
            lo.append(complex(c_re - h_re, c_im - h_im))
            hi.append(complex(c_re + h_re, c_im + h_im))
        boxes.append(Box(lo=tuple(lo), hi=tuple(hi), label=f"box-{i:02d}"))
    return boxes


def equimeasure_check(
    T: CompositionIsometry,
    family: FunctionFamily,
    boxes: Sequence[Box] | None = None,
    samples: int = 1_000_000,
    seed: int = 0,
    threads: int = 1,
) -> EquimeasureReport:
    """Compare pushforward masses of the ratio maps on both sides of T.

    Source side: integral u(phi_j/phi_0) |phi_0|^p over D_1; target side the
    same with psi_j = T(phi_j) over D_2. For a true isometry the two agree
    for every Borel region; each region is tested at 3 combined standard
    errors. Regions where neither mass rises 10 sigma above zero are flagged
    inconclusive.
    """
    if family.dimension != T.source.dimension:
        raise ConfigError("family dimension must match the source domain")
    if family.ratio_count < 1:
        raise ConfigError("equimeasurability needs at least one ratio coordinate")
    samples = max(int(samples), 100_000)
    seed = int(seed)
    images = T.apply_family(family)

    regions: list = list(boxes) if boxes is not None else random_boxes(T, family, seed=seed)
    regions = regions + [GaussianBump(), SigmoidProduct()]
    for r in regions:
        if isinstance(r, Box) and r.dimension != family.ratio_count:
            raise ConfigError("box dimension must equal the number of ratio coordinates")

    m_src, s_src = _pushforward_stats(T.source, family, regions, T.p, samples, seed, threads)
    m_tgt, s_tgt = _pushforward_stats(T.target, images, regions, T.p, samples, seed, threads)

    rows = []
    all_pass = True
    any_inconclusive = False
    for r, region in enumerate(regions):
        diff = abs(m_src[r] - m_tgt[r])
        comb = math.hypot(s_src[r], s_tgt[r])
        ok = diff <= 3.0 * comb
        weak = max(m_src[r], m_tgt[r]) < 10.0 * comb
        all_pass &= ok
        any_inconclusive |= weak
        rows.append(
            RegionComparison(
                label=getattr(region, "label", f"region-{r}"),
                mass_source=float(m_src[r]),
                sigma_source=float(s_src[r]),
                mass_target=float(m_tgt[r]),
                sigma_target=float(s_tgt[r]),
                difference=float(diff),
                sigma_combined=float(comb),
                passed=bool(ok),
                inconclusive=bool(weak),
            )
        )
    return EquimeasureReport(
        regions=tuple(rows),
        verdict="PASS" if all_pass else "FAIL",
        samples=samples,
        seed=seed,
        inconclusive=bool(any_inconclusive),
    )
