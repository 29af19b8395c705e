"""Bounded domains in C^n: membership predicates with bounding boxes, the
catalog of concrete domains used throughout the package, uniform and
power-weighted samplers, and boundary/interior probes.

All catalog domains are open (strict inequalities) and rotation invariant in
each coordinate; the latter is captured by a RadialProfile describing the
region of moduli (r_1, ..., r_n).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.special import betaln, gammaln

from ._rng import TAG_DIRECTIONS, TAG_PROBE, TAG_REJECTION, stable_key, substream
from .errors import ConfigError, DegenerateDomainError, DivergentIntegralError, UnsupportedDomainError
from .functions import _as_points

_PROPOSAL_CHUNK = 1 << 16


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
        if self.kind == "polydisc":
            return np.all(r < np.asarray(self.radii), axis=1)
        if self.kind == "ball":
            return np.sum(r * r, axis=1) < self.radius**2
        if self.kind == "hartogs_graph":
            return (r[:, 0] < 1.0) & (r[:, 1] < r[:, 0] ** self.k)
        if self.kind == "graph_with_factor":
            inside = r[:, 0] < 1.0
            cap = np.where(inside, r[:, 0] ** self.k * np.sqrt(np.maximum(1.0 - r[:, 0] ** 2, 0.0)), 0.0)
            return inside & (r[:, 1] < cap)
        if self.kind == "product":
            out = np.ones(r.shape[0], dtype=bool)
            j = 0
            for f in self.factors:
                d = f.dimension
                out &= f.moduli_member(r[:, j : j + d])
                j += d
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
            out = ()
            for f in self.factors:
                out += f.modulus_bounds()
            return out
        raise UnsupportedDomainError(f"unknown profile kind {self.kind!r}")


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
            raise DivergentIntegralError(f"polydisc moment diverges at exponents {tuple(t)}")
        R = np.asarray(profile.radii, dtype=float)
        return float(np.sum((t + 2.0) * np.log(R) - np.log(t + 2.0)))
    if profile.kind == "ball":
        if np.any(t / 2.0 + 1.0 <= 0.0):
            raise DivergentIntegralError(f"ball moment diverges at exponents {tuple(t)}")
        n = profile.n
        log_unit = float(np.sum(gammaln(t / 2.0 + 1.0)) - gammaln(n + np.sum(t) / 2.0 + 1.0)) - n * math.log(2.0)
        return log_unit + float(np.sum(t) + 2 * n) * math.log(profile.radius)
    if profile.kind == "hartogs_graph":
        outer = t[0] + profile.k * (t[1] + 2.0) + 2.0
        if t[1] + 2.0 <= 0.0 or outer <= 0.0:
            raise DivergentIntegralError(f"hartogs moment diverges at exponents {tuple(t)}")
        return -math.log(t[1] + 2.0) - math.log(outer)
    if profile.kind == "graph_with_factor":
        outer = t[0] + profile.k * (t[1] + 2.0) + 2.0
        if t[1] + 2.0 <= 0.0 or outer <= 0.0:
            raise DivergentIntegralError(f"graph-domain moment diverges at exponents {tuple(t)}")
        return -math.log(t[1] + 2.0) - math.log(2.0) + float(betaln(outer / 2.0, (t[1] + 4.0) / 2.0))
    if profile.kind == "product":
        out, j = 0.0, 0
        for f in profile.factors:
            d = f.dimension
            out += log_radial_moment(f, t[j : j + d])
            j += d
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
        cols, j = [], 0
        for f in profile.factors:
            d = f.dimension
            cols.append(sample_moduli_weighted(f, t[j : j + d], rng, count))
            j += d
        return np.hstack(cols)
    raise UnsupportedDomainError(f"unknown profile kind {profile.kind!r}")


# -- domains ----------------------------------------------------------------


@dataclass(frozen=True)
class BoundedDomain:
    """A bounded domain in C^n.

    bounding_box holds per-coordinate modulus bounds b_j; the box itself is
    the polydisc of rectangles [-b_j, b_j] x [-b_j, b_j]. null_exclusions
    lists coordinate axes j such that the hyperplane {z_j = 0} was removed
    from a parent domain; these punctures are Lebesgue-null and tracked
    symbolically, never probed by sampling.
    """

    dimension: int
    membership: Callable[[np.ndarray], np.ndarray]
    bounding_box: tuple
    label: str
    null_exclusions: tuple = ()
    radial_profile: RadialProfile | None = None
    descriptor: tuple | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.dimension < 1:
            raise ConfigError("domain dimension must be at least 1")
        if len(self.bounding_box) != self.dimension or any(b <= 0 or not math.isfinite(b) for b in self.bounding_box):
            raise ConfigError("bounding box must give a finite positive bound per coordinate")

    def contains(self, points):
        pts, single = _as_points(points, self.dimension)
        mask = np.asarray(self.membership(pts), dtype=bool)
        if self.null_exclusions:
            for j in self.null_exclusions:
                mask &= pts[:, j] != 0
        return bool(mask[0]) if single else mask

    @property
    def box_volume(self) -> float:
        return float(np.prod([(2.0 * b) ** 2 for b in self.bounding_box]))

    @property
    def volume(self) -> float:
        """Lebesgue volume in R^{2n}, exact via the radial profile."""
        if self.radial_profile is None:
            raise UnsupportedDomainError(f"domain {self.label!r} has no radial profile")
        n = self.dimension
        return math.exp(log_radial_moment(self.radial_profile, np.zeros(n)) + n * math.log(2.0 * math.pi))

    def to_json_obj(self) -> dict:
        if self.descriptor is None:
            raise UnsupportedDomainError(f"domain {self.label!r} is not a catalog domain")
        return _descriptor_to_json(self.descriptor)

    def __repr__(self):
        return f"BoundedDomain({self.label}, n={self.dimension})"


@dataclass(frozen=True)
class SampleBatch:
    """Uniform sample from a domain plus rejection statistics."""

    points: np.ndarray
    acceptance_rate: float
    proposals: int

    def __len__(self):
        return self.points.shape[0]


# -- catalog ----------------------------------------------------------------


def _normalize_spec(spec) -> tuple:
    if isinstance(spec, BoundedDomain):
        if spec.descriptor is None:
            raise ConfigError("custom domains have no catalog descriptor")
        return spec.descriptor
    if isinstance(spec, str):
        return _parse_label(spec)
    if isinstance(spec, dict):
        return _descriptor_from_json(spec)
    if isinstance(spec, (tuple, list)):
        return tuple(spec)
    raise ConfigError(f"unrecognized domain spec {spec!r}")


def make_catalog_domain(spec) -> BoundedDomain:
    """Build a catalog domain.

    Descriptors: ("disc", r), ("punctured_disc", r), ("polydisc", n, radii),
    ("ball", n) or ("ball", n, r), ("hartogs", k), ("fk_ball_prime", k),
    ("product", spec, spec, ...). Strings like "hartogs(3)" and JSON objects
    {"kind": ..., "params": {...}} are accepted too.
    """
    desc = _normalize_spec(spec)
    kind = desc[0]

    if kind == "disc" or kind == "punctured_disc":
        r = float(desc[1]) if len(desc) > 1 else 1.0
        if r <= 0:
            raise ConfigError("radius must be positive")
        profile = RadialProfile("polydisc", radii=(r,))
        excl = (0,) if kind == "punctured_disc" else ()
        return BoundedDomain(
            dimension=1,
            membership=lambda pts, r=r: np.abs(pts[:, 0]) < r,
            bounding_box=(r,),
            label=_label_of(desc),
            null_exclusions=excl,
            radial_profile=profile,
            descriptor=("disc", r) if kind == "disc" else ("punctured_disc", r),
        )
    if kind == "polydisc":
        n = int(desc[1])
        if n < 1:
            raise ConfigError("polydisc needs n >= 1")
        radii = tuple(float(r) for r in desc[2]) if len(desc) > 2 else (1.0,) * n
        if len(radii) != n or any(r <= 0 for r in radii):
            raise ConfigError("polydisc needs one positive radius per coordinate")
        return BoundedDomain(
            dimension=n,
            membership=lambda pts, radii=radii: np.all(np.abs(pts) < np.asarray(radii), axis=1),
            bounding_box=radii,
            label=_label_of(desc),
            radial_profile=RadialProfile("polydisc", radii=radii),
            descriptor=("polydisc", n, radii),
        )
    if kind == "ball":
        n = int(desc[1])
        if n < 1:
            raise ConfigError("ball needs n >= 1")
        r = float(desc[2]) if len(desc) > 2 else 1.0
        if r <= 0:
            raise ConfigError("radius must be positive")
        return BoundedDomain(
            dimension=n,
            membership=lambda pts, r=r: np.sum(np.abs(pts) ** 2, axis=1) < r * r,
            bounding_box=(r,) * n,
            label=_label_of(desc),
            radial_profile=RadialProfile("ball", n=n, radius=r),
            descriptor=("ball", n, r),
        )
    if kind == "hartogs":
        k = int(desc[1])
        if k < 1:
            raise ConfigError("hartogs needs k >= 1")
        profile = RadialProfile("hartogs_graph", k=k)

        def member(pts, k=k):
            r1 = np.abs(pts[:, 0])
            return (r1 < 1.0) & (np.abs(pts[:, 1]) < r1**k)

        return BoundedDomain(
            dimension=2,
            membership=member,
            bounding_box=(1.0, 1.0),
            label=_label_of(desc),
            radial_profile=profile,
            descriptor=("hartogs", k),
        )
    if kind == "fk_ball_prime":
        k = int(desc[1])
        if k < 1:
            raise ConfigError("fk_ball_prime needs k >= 1")
        profile = RadialProfile("graph_with_factor", k=k)

        def member(pts, k=k):
            r1 = np.abs(pts[:, 0])
            inside = r1 < 1.0
            cap = np.where(inside, r1**k * np.sqrt(np.maximum(1.0 - r1 * r1, 0.0)), 0.0)
            return inside & (np.abs(pts[:, 1]) < cap)

        return BoundedDomain(
            dimension=2,
            membership=member,
            bounding_box=profile.modulus_bounds(),
            label=_label_of(desc),
            radial_profile=profile,
            descriptor=("fk_ball_prime", k),
        )
    if kind == "product":
        factors = [make_catalog_domain(s) for s in desc[1:]]
        if not factors:
            raise ConfigError("product needs at least one factor")
        dims = [f.dimension for f in factors]
        offsets = np.concatenate([[0], np.cumsum(dims)])

        def member(pts, factors=tuple(factors), offsets=offsets):
            out = np.ones(pts.shape[0], dtype=bool)
            for f, a, b in zip(factors, offsets[:-1], offsets[1:]):
                out &= f.membership(pts[:, a:b])
            return out

        excl = tuple(int(offsets[i] + j) for i, f in enumerate(factors) for j in f.null_exclusions)
        profile = None
        if all(f.radial_profile is not None for f in factors):
            profile = RadialProfile("product", factors=tuple(f.radial_profile for f in factors))
        return BoundedDomain(
            dimension=int(sum(dims)),
            membership=member,
            bounding_box=tuple(b for f in factors for b in f.bounding_box),
            label=_label_of(desc),
            null_exclusions=excl,
            radial_profile=profile,
            descriptor=("product",) + tuple(f.descriptor for f in factors),
        )
    raise ConfigError(f"unknown catalog kind {kind!r}")


def _label_of(desc: tuple) -> str:
    kind = desc[0]
    if kind == "product":
        return "product(" + ",".join(_label_of(d) for d in desc[1:]) + ")"
    if kind in ("disc", "punctured_disc"):
        r = desc[1] if len(desc) > 1 else 1.0
        return f"{kind}({r:g})"
    if kind == "polydisc":
        n, radii = desc[1], desc[2] if len(desc) > 2 else (1.0,) * desc[1]
        return f"polydisc({n};" + ",".join(f"{r:g}" for r in radii) + ")"
    if kind == "ball":
        r = desc[2] if len(desc) > 2 else 1.0
        return f"ball({desc[1]})" if r == 1.0 else f"ball({desc[1]};{r:g})"
    return f"{kind}({desc[1]})"


def _parse_label(text: str) -> tuple:
    text = text.strip()
    if text.startswith("{"):
        return _descriptor_from_json(json.loads(text))
    if "(" not in text:
        name = text
        args: list[str] = []
    else:
        if not text.endswith(")"):
            raise ConfigError(f"malformed domain label {text!r}")
        name, inner = text[:-1].split("(", 1)
        # split on top-level commas only (product factors may nest)
        args, depth, cur = [], 0, ""
        for ch in inner:
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            if ch in ",;" and depth == 0:
                args.append(cur)
                cur = ""
            else:
                cur += ch
        if cur:
            args.append(cur)
    name = name.strip()
    if name in ("disc", "punctured_disc"):
        return (name, float(args[0]) if args else 1.0)
    if name == "polydisc":
        if not args:
            raise ConfigError("polydisc label needs n")
        n = int(args[0])
        radii = tuple(float(a) for a in args[1:]) or (1.0,) * n
        if len(radii) == 1 and n > 1:
            radii = radii * n
        return ("polydisc", n, radii)
    if name == "ball":
        if not args:
            raise ConfigError("ball label needs n")
        n = int(args[0])
        return ("ball", n, float(args[1])) if len(args) > 1 else ("ball", n)
    if name in ("hartogs", "fk_ball_prime"):
        if not args:
            raise ConfigError(f"{name} label needs k")
        return (name, int(args[0]))
    if name == "product":
        return ("product",) + tuple(_parse_label(a.strip()) for a in args)
    raise ConfigError(f"unknown domain label {text!r}")


def _descriptor_to_json(desc: tuple) -> dict:
    kind = desc[0]
    if kind in ("disc", "punctured_disc"):
        return {"kind": kind, "params": {"radius": desc[1] if len(desc) > 1 else 1.0}}
    if kind == "polydisc":
        return {"kind": kind, "params": {"n": desc[1], "radii": list(desc[2])}}
    if kind == "ball":
        return {"kind": kind, "params": {"n": desc[1], "radius": desc[2] if len(desc) > 2 else 1.0}}
    if kind in ("hartogs", "fk_ball_prime"):
        return {"kind": kind, "params": {"k": desc[1]}}
    if kind == "product":
        return {"kind": kind, "params": {"factors": [_descriptor_to_json(d) for d in desc[1:]]}}
    raise ConfigError(f"unknown catalog kind {kind!r}")


def _descriptor_from_json(obj: dict) -> tuple:
    kind = obj.get("kind")
    params = obj.get("params", {})
    if kind in ("disc", "punctured_disc"):
        return (kind, float(params.get("radius", 1.0)))
    if kind == "polydisc":
        n = int(params["n"])
        radii = tuple(float(r) for r in params.get("radii", [1.0] * n))
        return (kind, n, radii)
    if kind == "ball":
        return (kind, int(params["n"]), float(params.get("radius", 1.0)))
    if kind in ("hartogs", "fk_ball_prime"):
        return (kind, int(params["k"]))
    if kind == "product":
        return ("product",) + tuple(_descriptor_from_json(f) for f in params["factors"])
    raise ConfigError(f"unknown catalog kind {kind!r}")


def parse_domain(text_or_obj) -> BoundedDomain:
    """CLI entry: accept a label string, JSON text, or parsed JSON object."""
    return make_catalog_domain(text_or_obj)


# -- sampling ---------------------------------------------------------------


def sample(D: BoundedDomain, rng, count: int) -> SampleBatch:
    """Uniform sample of `count` points from D by rejection from the
    bounding box. Deterministic given an integer seed; chunked so results do
    not depend on how many points are requested at once downstream.
    """
    if count < 1:
        raise ConfigError("count must be at least 1")
    if isinstance(rng, np.random.Generator):
        gen = rng
        chunked = False
        seed = None
    else:
        seed = int(rng)
        gen = None
        chunked = True
    b = np.asarray(D.bounding_box)
    kept = []
    accepted = 0
    proposed = 0
    chunk_idx = 0
    while accepted < count:
        g = substream(seed, TAG_REJECTION, chunk_idx) if chunked else gen
        u = g.random((_PROPOSAL_CHUNK, 2 * D.dimension)) * 2.0 - 1.0
        pts = (u[:, ::2] + 1j * u[:, 1::2]) * b
        mask = D.contains(pts)
        kept.append(pts[mask])
        accepted += int(mask.sum())
        proposed += _PROPOSAL_CHUNK
        chunk_idx += 1
        if proposed >= 4_000_000 and accepted / proposed < 1e-6:
            raise DegenerateDomainError(
                f"acceptance rate {accepted}/{proposed} below 1e-6 for {D.label!r}; "
                "the domain is degenerate relative to its bounding box"
            )
    points = np.concatenate(kept, axis=0)[:count]
    return SampleBatch(points=points, acceptance_rate=accepted / proposed, proposals=proposed)


def sample_radial_weighted(D: BoundedDomain, t: Sequence[float], rng, count: int) -> np.ndarray:
    """Sample points of D from the density proportional to prod |z_j|^{t_j}
    (times Lebesgue measure), exactly, using the radial profile. Phases are
    uniform and independent.
    """
    if D.radial_profile is None:
        raise UnsupportedDomainError(f"domain {D.label!r} has no radial profile")
    gen = rng if isinstance(rng, np.random.Generator) else substream(int(rng), TAG_REJECTION, 0)
    r = sample_moduli_weighted(D.radial_profile, t, gen, count)
    theta = gen.random((count, D.dimension)) * 2.0 * np.pi
    return r * np.exp(1j * theta)


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
    pts, _ = _as_points(w, D.dimension)
    w = pts[0]
    inside = D.contains(w)
    diam = 2.0 * math.sqrt(sum(2.0 * b * b for b in D.bounding_box)) + 1.0
    dirs = _direction_battery(D, w)
    best = math.inf

    def member(t, d):
        return bool(D.contains(w + t * d))

    for d in dirs:
        if inside:
            lo, hi = 0.0, tol
            while hi < diam and member(hi, d):
                lo, hi = hi, hi * 2.0
            if hi >= diam and member(hi, d):
                continue
        else:
            lo, hi = 0.0, tol
            found = member(hi, d)
            while hi < diam and not found:
                lo, hi = hi, hi * 2.0
                found = member(hi, d)
            if not found:
                continue
            # bisection below expects member(lo) state != member(hi) state
        for _ in range(80):
            if hi - lo < tol / 4.0:
                break
            mid = 0.5 * (lo + hi)
            if member(mid, d) == inside:
                lo = mid
            else:
                hi = mid
        crossing = 0.5 * (lo + hi)
        best = min(best, crossing)

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


def interior_closure_probe(D: BoundedDomain, resolution: float, ball_checks: int = 32) -> ClosureProbeReport:
    """Search for grid points witnessing int(closure(D)) != D.

    A non-member grid node adjacent to members is flagged as a witness when
    every one of `ball_checks` random points in the surrounding resolution
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
        u = g.standard_normal((m, ball_checks, 2 * n))
        u /= np.linalg.norm(u, axis=2, keepdims=True)
        u *= g.random((m, ball_checks, 1)) ** (1.0 / (2 * n))
        offsets = (u[:, :, ::2] + 1j * u[:, :, 1::2]) * resolution
        probes = centers[:, None, :] + offsets
        ok = D.contains(probes.reshape(-1, n)).reshape(m, ball_checks)
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
