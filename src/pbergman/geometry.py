"""Catalog domains in C^n: their descriptor grammar and one constructor,
uniform and power-weighted samplers, and boundary/interior probes.

Every domain is a catalog domain, open (strict inequalities) and rotation
invariant in each coordinate; the latter is captured by a RadialProfile
describing the region of moduli (r_1, ..., r_n), from which membership,
dimension and bounding box all follow.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from ._rng import CHUNK, TAG_DIRECTIONS, TAG_PROBE, TAG_REJECTION, stable_key, substream
from .errors import ConfigError, DegenerateDomainError, DivergentIntegralError, UnsupportedDomainError
from .functions import REQUIRED, _as_point, _as_points, number_from_json, read_params


# -- radial profiles --------------------------------------------------------


@dataclass(frozen=True)
class RadialProfile:
    """Region of moduli for a Reinhardt-type domain.

    kinds:
      polydisc            r_j < radii[j]
      ball                sum r_j^2 < radius^2
      hartogs_graph       r_2 < r_1^k < 1
      graph_with_factor   r_2 < r_1^k * sqrt(1 - r_1^2),  r_1 < 1
      product             concatenation of factor profiles
    """

    kind: str
    radii: tuple = ()
    radius: float = 1.0
    n: int = 1
    k: int = 1
    factors: tuple = ()

    @property
    def dimension(self) -> int:
        if self.kind == "polydisc":
            return len(self.radii)
        if self.kind == "ball":
            return self.n
        if self.kind in ("hartogs_graph", "graph_with_factor"):
            return 2
        if self.kind == "product":
            return sum(f.dimension for f in self.factors)
        raise UnsupportedDomainError(f"unknown profile kind {self.kind!r}")

    def moduli_member(self, r: np.ndarray) -> np.ndarray:
        """Vectorized membership for an (m, n) array of modulus vectors."""
        # column loops: numpy's reductions along a short row axis cost ten times more
        if self.kind == "polydisc":
            out = r[:, 0] < self.radii[0]
            for j, radius in enumerate(self.radii[1:], 1):
                out &= r[:, j] < radius
            return out
        if self.kind == "ball":
            if self.n >= 8:  # np.sum adds 8 or more columns pairwise, not left to right
                return np.sum(r * r, axis=1) < self.radius * self.radius
            s = r[:, 0] * r[:, 0]
            for j in range(1, self.n):
                s += r[:, j] * r[:, j]
            return s < self.radius * self.radius
        if self.kind == "hartogs_graph":
            return (r[:, 0] < 1.0) & (r[:, 1] < r[:, 0] ** self.k)
        if self.kind == "graph_with_factor":
            inside = r[:, 0] < 1.0
            cap = r[:, 0] ** self.k * np.sqrt(np.maximum(1.0 - r[:, 0] ** 2, 0.0))
            return inside & (r[:, 1] < cap)
        if self.kind == "product":
            out = np.ones(r.shape[0], dtype=bool)
            for f, cols in self.factor_columns():
                out &= f.moduli_member(r[:, cols])
            return out
        raise UnsupportedDomainError(f"unknown profile kind {self.kind!r}")

    def modulus_bounds(self) -> tuple:
        """Per-coordinate upper bounds on |z_j|, used for bounding boxes."""
        if self.kind == "polydisc":
            return tuple(self.radii)
        if self.kind == "ball":
            return (self.radius,) * self.n
        if self.kind == "hartogs_graph":
            return (1.0, 1.0)
        if self.kind == "graph_with_factor":
            # max of r^k sqrt(1-r^2) over (0,1) is at r^2 = k/(k+1)
            k = self.k
            peak = (k / (k + 1.0)) ** (k / 2.0) / math.sqrt(k + 1.0)
            return (1.0, peak)
        if self.kind == "product":
            return tuple(b for f, _ in self.factor_columns() for b in f.modulus_bounds())
        raise UnsupportedDomainError(f"unknown profile kind {self.kind!r}")

    def zero_free_axes(self) -> tuple:
        """Axes j with r_j > 0 throughout the region: the first of a graph,
        where r_2 < r_1^k forces r_1 > 0."""
        if self.kind in ("hartogs_graph", "graph_with_factor"):
            return (0,)
        if self.kind == "product":
            return tuple(cols.start + j for f, cols in self.factor_columns() for j in f.zero_free_axes())
        return ()

    def factor_columns(self):
        """(factor, slice of that factor's coordinates) for each factor of a
        product; a profile that is not a product is its own one factor."""
        j = 0
        for f in self.factors if self.kind == "product" else (self,):
            d = f.dimension
            yield f, slice(j, j + d)
            j += d


def log_radial_moment(profile: RadialProfile, t: Sequence[float]) -> float:
    """log of the radial moment  integral over the moduli region of
    prod_j r_j^{t_j + 1} dr.

    Multiplying by (2 pi)^n gives the integral of prod |z_j|^{t_j} over the
    domain. Raises DivergentIntegralError when the integral does not converge.
    """
    t = np.asarray(t, dtype=float)
    if t.shape != (profile.dimension,):
        raise ValueError(f"expected {profile.dimension} exponents, got {t.shape}")
    if profile.kind == "polydisc":
        if np.any(t + 2.0 <= 0.0):
            raise DivergentIntegralError(f"polydisc moment diverges at exponents {tuple(t.tolist())}")
        R = np.asarray(profile.radii, dtype=float)
        return float(np.sum((t + 2.0) * np.log(R) - np.log(t + 2.0)))
    if profile.kind == "ball":
        if np.any(t / 2.0 + 1.0 <= 0.0):
            raise DivergentIntegralError(f"ball moment diverges at exponents {tuple(t.tolist())}")
        n = profile.n
        # left to right, as np.sum adds fewer than 8 terms; the builtin sum
        # compensates on Python >= 3.12
        log_gamma_sum = 0.0
        for a in t / 2.0 + 1.0:
            log_gamma_sum += math.lgamma(a)
        log_unit = log_gamma_sum - math.lgamma(n + float(np.sum(t)) / 2.0 + 1.0) - n * math.log(2.0)
        return log_unit + float(np.sum(t) + 2 * n) * math.log(profile.radius)
    if profile.kind == "hartogs_graph":
        outer = t[0] + profile.k * (t[1] + 2.0) + 2.0
        if t[1] + 2.0 <= 0.0 or outer <= 0.0:
            raise DivergentIntegralError(f"hartogs moment diverges at exponents {tuple(t.tolist())}")
        return -math.log(t[1] + 2.0) - math.log(outer)
    if profile.kind == "graph_with_factor":
        outer = t[0] + profile.k * (t[1] + 2.0) + 2.0
        if t[1] + 2.0 <= 0.0 or outer <= 0.0:
            raise DivergentIntegralError(f"graph-domain moment diverges at exponents {tuple(t.tolist())}")
        a, b = outer / 2.0, (t[1] + 4.0) / 2.0
        log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
        return -math.log(t[1] + 2.0) - math.log(2.0) + log_beta
    if profile.kind == "product":
        out = 0.0
        for f, cols in profile.factor_columns():
            out += log_radial_moment(f, t[cols])
        return out
    raise UnsupportedDomainError(f"unknown profile kind {profile.kind!r}")


def sample_moduli_weighted(profile: RadialProfile, t: Sequence[float], rng: np.random.Generator, count: int) -> np.ndarray:
    """Draw modulus vectors from the density proportional to prod r_j^{t_j+1}
    on the profile's moduli region. Exact (no rejection)."""
    t = np.asarray(t, dtype=float)
    log_radial_moment(profile, t)  # reuse the convergence guard
    if profile.kind == "polydisc":
        u = rng.random((count, len(profile.radii)))
        return np.asarray(profile.radii) * u ** (1.0 / (t + 2.0))
    if profile.kind == "ball":
        alpha = np.concatenate([t / 2.0 + 1.0, [1.0]])
        x = rng.dirichlet(alpha, size=count)
        return profile.radius * np.sqrt(x[:, :-1])
    if profile.kind == "hartogs_graph":
        k = profile.k
        u = rng.random(count)
        v = rng.random(count)
        r1 = u ** (1.0 / (t[0] + 2.0 + k * (t[1] + 2.0)))
        r2 = r1**k * v ** (1.0 / (t[1] + 2.0))
        return np.column_stack([r1, r2])
    if profile.kind == "graph_with_factor":
        k = profile.k
        outer = t[0] + k * (t[1] + 2.0) + 2.0
        u = rng.beta(outer / 2.0, (t[1] + 4.0) / 2.0, size=count)
        v = rng.random(count)
        r1 = np.sqrt(u)
        r2 = r1**k * np.sqrt(1.0 - u) * v ** (1.0 / (t[1] + 2.0))
        return np.column_stack([r1, r2])
    if profile.kind == "product":
        r = np.empty((count, profile.dimension))
        for f, cols in profile.factor_columns():
            r[:, cols] = sample_moduli_weighted(f, t[cols], rng, count)
        return r
    raise UnsupportedDomainError(f"unknown profile kind {profile.kind!r}")


# -- domains ----------------------------------------------------------------


@dataclass(frozen=True)
class BoundedDomain:
    """A catalog domain in C^n, built by `make_catalog_domain` from its
    canonical descriptor. Membership, dimension and the per-coordinate modulus
    bounds b_j come from the radial profile; the bounding box is the polydisc
    of rectangles [-b_j, b_j] x [-b_j, b_j]. null_exclusions lists coordinate
    axes j such that the hyperplane {z_j = 0} was removed from a parent
    domain; these punctures are Lebesgue-null and tracked symbolically, never
    probed by sampling.
    """

    radial_profile: RadialProfile
    label: str
    descriptor: tuple = field(compare=False)
    null_exclusions: tuple = ()

    @cached_property
    def dimension(self) -> int:
        return self.radial_profile.dimension

    @cached_property
    def zero_free_axes(self) -> tuple:
        """Axes j with z_j != 0 throughout D, where negative powers of z_j are holomorphic."""
        return tuple(sorted(set(self.radial_profile.zero_free_axes()) | set(self.null_exclusions)))

    @cached_property
    def bounding_box(self) -> tuple:
        return self.radial_profile.modulus_bounds()

    def contains(self, points):
        pts, single = _as_points(points, self.dimension)
        mask = self.radial_profile.moduli_member(np.abs(pts))
        for j in self.null_exclusions:
            mask &= pts[:, j] != 0
        return bool(mask[0]) if single else mask

    @property
    def box_volume(self) -> float:
        return float(np.prod([(2.0 * b) ** 2 for b in self.bounding_box]))

    @property
    def polydisc_volume(self) -> float:
        """Volume prod_j pi b_j^2 of the bounding polydisc {|z_j| < b_j}."""
        return float(np.prod([math.pi * b * b for b in self.bounding_box]))

    @property
    def volume(self) -> float:
        """Lebesgue volume in R^{2n}, exact via the radial profile."""
        n = self.dimension
        return math.exp(log_radial_moment(self.radial_profile, np.zeros(n)) + n * math.log(2.0 * math.pi))

    def to_json_obj(self) -> dict:
        return _json_of(self.descriptor)

    def __repr__(self):
        return f"BoundedDomain({self.label}, n={self.dimension})"


@dataclass(frozen=True)
class SampleBatch:
    """Uniform sample from a domain plus rejection statistics.

    `proposals` counts the box rows drawn and `acceptance_rate` is the kept
    share of them; for a Generator these are only the rows actually drawn,
    which may be fewer than one CHUNK (see `sample`).
    """

    points: np.ndarray
    acceptance_rate: float
    proposals: int

    def __len__(self):
        return self.points.shape[0]


# -- catalog ----------------------------------------------------------------


# The parameter names of each catalog kind in descriptor order, with their
# defaults. Labels and tuples give them by position, JSON objects by name;
# polydisc radii and product factors take the remaining values.
_PARAMS = {
    "disc": {"radius": 1.0},
    "punctured_disc": {"radius": 1.0},
    "polydisc": {"n": REQUIRED, "radii": 1.0},
    "ball": {"n": REQUIRED, "radius": 1.0},
    "hartogs": {"k": REQUIRED},
    "fk_ball_prime": {"k": REQUIRED},
    "product": {"factors": REQUIRED},
}


def _spec_params(spec) -> tuple[str, dict, str]:
    """Kind, parameters by name and usage line of a domain spec in any form."""
    if isinstance(spec, str):
        try:
            spec = json.loads(spec) if spec.lstrip().startswith("{") else _parse_label(spec)
        except json.JSONDecodeError as e:
            raise ConfigError(f"malformed JSON domain spec {spec!r}: {e}") from None
    if isinstance(spec, dict):
        kind, given = spec.get("kind"), spec.get("params", {})
    elif isinstance(spec, (tuple, list)) and spec:
        kind, *given = spec
        names = list(_PARAMS.get(kind, ())) if isinstance(kind, str) else []
        if kind == "product" or (len(given) > len(names) and names[-1:] == ["radii"]):
            given[len(names) - 1 :] = [tuple(given[len(names) - 1 :])]
        given = tuple(given)
    else:
        raise ConfigError(f"unrecognized domain spec {spec!r}")
    return kind, *read_params(_PARAMS, kind, given, "catalog kind")


def make_catalog_domain(spec) -> BoundedDomain:
    """Build a catalog domain from a descriptor ("disc", r), ("punctured_disc", r),
    ("polydisc", n, radii), ("ball", n) or ("ball", n, r), ("hartogs", k),
    ("fk_ball_prime", k) or ("product", spec, spec, ...); from a label such as
    "hartogs(3)"; or from a JSON object {"kind": ..., "params": {...}} with the
    names of `_PARAMS`, or its text. Every value is read and checked here; an
    unreadable, missing or out-of-range one raises ConfigError.

    The domain's RadialProfile is its one description; punctures {z_j = 0}
    are carried as null exclusions on top of the profile.
    """
    kind, params, usage = _spec_params(spec)

    def positive(name, value, integer=False):
        x = number_from_json(value, f"{usage}: {name}", integer)
        if x <= 0:
            raise ConfigError(f"{usage}: {name} must be positive, got {value!r}")
        return x

    excl = (0,) if kind == "punctured_disc" else ()
    if kind == "product":
        if not isinstance(params["factors"], (tuple, list)) or not params["factors"]:
            raise ConfigError(f"{usage}: factors must be a non-empty list of domain specs, got {params['factors']!r}")
        factors = [make_catalog_domain(s) for s in params["factors"]]
        profile = RadialProfile("product", factors=tuple(f.radial_profile for f in factors))
        excl = tuple(cols.start + j for f, (_, cols) in zip(factors, profile.factor_columns()) for j in f.null_exclusions)
        canonical = ("product", *(f.descriptor for f in factors))
    elif kind == "polydisc":
        n, radii = positive("n", params["n"], integer=True), params["radii"]
        radii = tuple(radii) if isinstance(radii, (tuple, list)) else (radii,)
        if len(radii) not in (1, n):
            raise ConfigError(f"{usage}: radii must hold one radius or n = {n} of them, got {len(radii)}")
        radii = tuple(positive("radii", r) for r in (radii * n if len(radii) == 1 else radii))
        profile = RadialProfile("polydisc", radii=radii)
        canonical = (kind, n, radii)
    elif kind == "ball":
        n, r = positive("n", params["n"], integer=True), positive("radius", params["radius"])
        profile = RadialProfile("ball", n=n, radius=r)
        canonical = (kind, n, r)
    elif kind in ("hartogs", "fk_ball_prime"):
        k = positive("k", params["k"], integer=True)
        profile = RadialProfile("hartogs_graph" if kind == "hartogs" else "graph_with_factor", k=k)
        canonical = (kind, k)
    else:
        r = positive("radius", params["radius"])
        profile = RadialProfile("polydisc", radii=(r,))
        canonical = (kind, r)
    return BoundedDomain(profile, _label_of(canonical), canonical, excl)


def _label_of(desc: tuple) -> str:
    """The printed form of a canonical descriptor: "polydisc(2;0.5,1.5)",
    "ball(3;0.37)", and "ball(3)" when the radius is 1."""
    kind, *values = desc
    if kind == "product":
        return "product(" + ",".join(map(_label_of, values)) + ")"
    if kind == "polydisc":
        values = [values[0], *values[1]]
    if kind == "ball" and values[1] == 1.0:
        values = values[:1]
    # %g unless that loses digits, so that parsing the label gives the descriptor back
    head, *rest = ((f"{v:g}" if float(f"{v:g}") == v else repr(v)) if isinstance(v, float) else str(v) for v in values)
    return f"{kind}({head}" + (";" + ",".join(rest) if rest else "") + ")"


def _json_of(desc: tuple) -> dict:
    """The JSON object {"kind": ..., "params": {...}} of a canonical descriptor."""
    kind, *values = desc
    if kind == "product":
        values = [[_json_of(d) for d in values]]
    return {"kind": kind, "params": {name: list(v) if isinstance(v, tuple) else v for name, v in zip(_PARAMS[kind], values)}}


def _parse_label(text: str) -> tuple:
    """Split a label such as "polydisc(2;0.5,1.5)" into its kind and argument
    strings, ("polydisc", "2", "0.5", "1.5"). Arguments are separated by "," or
    ";" outside parentheses; product factors are split in turn."""
    name, paren, inner = text.strip().partition("(")
    if paren and not inner.endswith(")"):
        raise ConfigError(f"malformed domain label {text!r}")
    args, depth, cur = [], 0, ""
    for ch in inner[:-1]:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch in ",;" and depth == 0:
            args.append(cur.strip())
            cur = ""
        else:
            cur += ch
    if cur:
        args.append(cur.strip())
    name = name.strip()
    if name == "product":
        return (name, *(_parse_label(a) for a in args))
    return (name, *args)


def parse_domain(text_or_obj) -> BoundedDomain:
    """CLI entry: accept a label string, JSON text, or parsed JSON object."""
    return make_catalog_domain(text_or_obj)


# -- sampling ---------------------------------------------------------------


def box_proposals(D: BoundedDomain, g: np.random.Generator, count: int) -> tuple[np.ndarray, np.ndarray]:
    """`count` uniform proposals from D's bounding box, each (2u - 1) b for
    u ~ U[0, 1)^{2n} from g and the box b, and the mask of those in D.

    The scaling takes two passes, (u - 0.5)(2b), with the same bits: u is a
    multiple of 2^-53, so u - 0.5 is exact, and a factor of two commutes
    with rounding.

    `sample` and the pushforward fallback of `isometry` draw from it; Monte
    Carlo norms draw moduli from the bounding polydisc instead. Callers keep
    the proposals until their chunk is done: freeing them before the chunk's
    evaluations doubled the page faults of 2-thread chunked runs (measured on
    Monte Carlo norms), as the allocator returned and refetched that memory
    every chunk.
    """
    u = g.random((count, 2 * D.dimension))
    u -= 0.5
    pts = u.view(complex)  # (re, im) pairs of u read in place as n complex columns
    pts *= 2.0 * np.asarray(D.bounding_box)
    return pts, D.contains(pts)


def sample(D: BoundedDomain, rng, count: int) -> SampleBatch:
    """Uniform sample of `count` points from D by rejection from the
    bounding box. Deterministic given an integer seed; chunked so results do
    not depend on how many points are requested at once downstream.

    An integer seed draws whole chunks of CHUNK proposals, chunk i from its
    own substream. A Generator's draws form one sequence, so it is drawn in
    short batches sized from D's exact acceptance, doubling up to CHUNK: the
    points are the first `count` members of one long draw, and `proposals`,
    `acceptance_rate` and the generator's advance count only the rows drawn.
    A domain whose exact acceptance D.volume / D.box_volume is below 1e-6 is
    refused with DegenerateDomainError before any draw.
    """
    if count < 1:
        raise ConfigError("count must be at least 1")
    # the exact acceptance; the draw loop applies the same floor to the observed rate
    acceptance = D.volume / D.box_volume
    if acceptance < 1e-6:
        raise DegenerateDomainError(
            f"acceptance {acceptance:.3g} below 1e-6 for {D.label!r}; "
            "the domain is degenerate relative to its bounding box"
        )
    chunked = not isinstance(rng, np.random.Generator)
    # a Generator's first batch: about twice the rows `count` members need
    size = CHUNK if chunked or acceptance * CHUNK <= 2 * count else max(64, math.ceil(2 * count / acceptance))
    kept = []
    accepted = 0
    proposed = 0
    chunk_idx = 0
    while accepted < count:
        g = substream(rng, TAG_REJECTION, chunk_idx) if chunked else rng
        pts, inside = box_proposals(D, g, size)
        kept.append(np.compress(inside, pts, axis=0))
        accepted += kept[-1].shape[0]
        proposed += size
        chunk_idx += 1
        size = min(2 * size, CHUNK)
        if proposed >= 4_000_000 and accepted / proposed < 1e-6:
            raise DegenerateDomainError(
                f"acceptance rate {accepted}/{proposed} below 1e-6 for {D.label!r}; "
                "the domain is degenerate relative to its bounding box"
            )
    points = np.concatenate(kept, axis=0)[:count]
    return SampleBatch(points=points, acceptance_rate=accepted / proposed, proposals=proposed)


def sample_polar_weighted(D: BoundedDomain, t: Sequence[float], rng, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The moduli r and phases theta of `sample_radial_weighted`'s points
    z = r e^{i theta}, as two (count, n) arrays: the moduli are drawn first,
    then theta = 2 pi u from one uniform (count, n) draw."""
    gen = rng if isinstance(rng, np.random.Generator) else substream(rng, TAG_REJECTION, 0)
    r = sample_moduli_weighted(D.radial_profile, t, gen, count)
    theta = gen.random((count, D.dimension))
    theta *= 2.0
    theta *= np.pi
    return r, theta


def sample_radial_weighted(D: BoundedDomain, t: Sequence[float], rng, count: int) -> np.ndarray:
    """Sample points of D from the density proportional to prod |z_j|^{t_j}
    (times Lebesgue measure), exactly, using the radial profile. Phases are
    uniform and independent.
    """
    r, theta = sample_polar_weighted(D, t, rng, count)
    z = np.multiply(theta, 1j)
    np.exp(z, out=z)
    z *= r
    return z


# -- boundary distance ------------------------------------------------------


def _direction_battery(D: BoundedDomain, w: np.ndarray) -> np.ndarray:
    n = D.dimension
    dirs = []
    for j in range(n):
        e = np.zeros(n, dtype=complex)
        e[j] = 1.0
        dirs += [e, -e, 1j * e, -1j * e]
        if w[j] != 0:
            ph = w[j] / abs(w[j])
            dirs += [ph * e, -ph * e]
    norm_w = np.linalg.norm(w)
    if norm_w > 0:
        dirs += [w / norm_w, -w / norm_w]
    key = stable_key([D.label, [[float(z.real), float(z.imag)] for z in np.round(w, 9)]])
    g = substream(0, TAG_DIRECTIONS, key)
    rnd = g.standard_normal((8, n)) + 1j * g.standard_normal((8, n))
    rnd /= np.linalg.norm(rnd, axis=1, keepdims=True)
    dirs += list(rnd)
    return np.asarray(dirs)


def boundary_distance(D: BoundedDomain, w, tol: float = 1e-6) -> float:
    """Estimated Euclidean distance (in R^{2n}) from w to the boundary of D.

    Interior points: distance to the nearest exit along a battery of scan
    directions, refined by bisection; symbolic punctures {z_j = 0} are folded
    in as |w_j|. Exterior points: distance to the domain along the battery.
    Returns 0.0 when the estimate falls within tol of the boundary. This is a
    probe accurate to tol along the battery, not a certified distance.
    """
    w = _as_point(w, D.dimension)
    inside = D.contains(w)
    diam = 2.0 * math.sqrt(sum(2.0 * b * b for b in D.bounding_box)) + 1.0
    dirs = _direction_battery(D, w)

    def same_side(t, rows):
        """Whether w + t d lies on w's side of the boundary, for the directions d in rows."""
        return D.contains(w + t[:, None] * dirs[rows]) == inside

    # every direction at every step of the doubling ladder tol 2^k, up to the
    # first step >= diam, in one membership call; a direction's bracket is its
    # first step off w's side, and directions on it throughout have no crossing
    ladder = [tol]
    while ladder[-1] < diam:
        ladder.append(ladder[-1] * 2.0)
    ladder = np.asarray(ladder)
    off = D.contains((w + ladder[:, None, None] * dirs).reshape(-1, D.dimension)).reshape(len(ladder), -1) != inside
    if off[0].any():
        # a crossing within the first step tol bisects to a point in [0, tol], which reads as 0.0
        return 0.0
    first = np.argmax(off, axis=0)
    same = ~off[first, np.arange(len(dirs))]
    hi = ladder[first]
    lo = np.where(first > 0, ladder[first - 1], 0.0)
    # then bisect each bracketing step to a width below tol / 4, 80 halvings at most
    active = ~same & (hi - lo >= tol / 4.0)
    for _ in range(80):
        rows = np.flatnonzero(active)
        if not rows.size:
            break
        mid = 0.5 * (lo[rows] + hi[rows])
        stay = same_side(mid, rows)
        lo[rows] = np.where(stay, mid, lo[rows])
        hi[rows] = np.where(stay, hi[rows], mid)
        active[rows] = hi[rows] - lo[rows] >= tol / 4.0
    crossings = 0.5 * (lo + hi)[~same]
    best = float(crossings.min()) if crossings.size else math.inf

    if inside:
        for j in D.null_exclusions:
            best = min(best, abs(w[j]))
    if not math.isfinite(best):
        best = diam
    return 0.0 if best <= tol else float(best)


# -- interior/closure probe -------------------------------------------------


@dataclass(frozen=True)
class ClosureProbeReport:
    label: str
    resolution: float
    grid_points: int
    candidates_checked: int
    witnesses: tuple
    verdict: str

    @property
    def violation_found(self) -> bool:
        return len(self.witnesses) > 0


_CLOSURE_BALL_CHECKS = 32


def interior_closure_probe(D: BoundedDomain, resolution: float) -> ClosureProbeReport:
    """Search for grid points witnessing int(closure(D)) != D.

    A non-member grid node adjacent to members is flagged as a witness when
    every one of 32 random points in the surrounding resolution
    ball is a member: the node then sits inside the interior of the closure
    without belonging to D (e.g. a puncture). Finite resolution; a
    falsification probe, never a certificate.
    """
    if resolution <= 0:
        raise ConfigError("resolution must be positive")
    axes = []
    for b in D.bounding_box:
        half = max(1, math.ceil(b / resolution))
        axes.append(np.linspace(-b, b, 2 * half + 1))  # odd count so 0 is a node
        axes.append(axes[-1])
    shape = tuple(len(a) for a in axes)
    total = int(np.prod(shape))
    if total > 4_000_000:
        raise ConfigError(f"probe grid of {total} nodes is too large; coarsen the resolution")
    mesh = np.meshgrid(*axes, indexing="ij")
    grid = np.stack([m.reshape(-1) for m in mesh], axis=1)
    pts = grid[:, ::2] + 1j * grid[:, 1::2]
    member = D.contains(pts).reshape(shape)

    near_member = np.zeros(shape, dtype=bool)
    for ax in range(len(shape)):
        lo = [slice(None)] * len(shape)
        hi = [slice(None)] * len(shape)
        lo[ax] = slice(None, -1)
        hi[ax] = slice(1, None)
        near_member[tuple(lo)] |= member[tuple(hi)]
        near_member[tuple(hi)] |= member[tuple(lo)]
    candidates = np.flatnonzero(~member.reshape(-1) & near_member.reshape(-1))

    witnesses = []
    if candidates.size:
        centers = pts[candidates]
        g = substream(0, TAG_PROBE, stable_key([D.label, float(resolution), int(candidates.size)]))
        m, n = centers.shape[0], D.dimension
        u = g.standard_normal((m, _CLOSURE_BALL_CHECKS, 2 * n))
        u /= np.linalg.norm(u, axis=2, keepdims=True)
        u *= g.random((m, _CLOSURE_BALL_CHECKS, 1)) ** (1.0 / (2 * n))
        offsets = (u[:, :, ::2] + 1j * u[:, :, 1::2]) * resolution
        probes = centers[:, None, :] + offsets
        ok = D.contains(probes.reshape(-1, n)).reshape(m, _CLOSURE_BALL_CHECKS)
        for i in np.flatnonzero(np.all(ok, axis=1)):
            witnesses.append(tuple(centers[i]))

    verdict = "no violation found at this resolution" if not witnesses else f"{len(witnesses)} witness point(s) where int(closure(D)) exceeds D"
    return ClosureProbeReport(
        label=D.label,
        resolution=float(resolution),
        grid_points=total,
        candidates_checked=int(candidates.size),
        witnesses=tuple(witnesses),
        verdict=verdict,
    )
