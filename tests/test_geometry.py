import json
import math

import numpy as np
import pytest
from scipy.special import betaln, gammaln

from conftest import MALFORMED_DOMAIN_SPECS, assert_rel
from pbergman import (
    ConfigError,
    DegenerateDomainError,
    DivergentIntegralError,
    boundary_distance,
    build_counterexample,
    interior_closure_probe,
    make_catalog_domain,
    parse_domain,
    sample,
    sample_radial_weighted,
)
from pbergman import geometry
from pbergman._rng import TAG_REJECTION, substream
from pbergman.geometry import _direction_battery, box_proposals, log_radial_moment, sample_moduli_weighted
from pbergman.scenarios import _blowdown_points

# the domains of the counterexample operator at k = 3
COUNTEREXAMPLE_SOURCE = ("product", ("ball", 2), ("hartogs", 3))
COUNTEREXAMPLE_TARGET = ("product", ("fk_ball_prime", 3), ("polydisc", 2, (1.0, 1.0)))


class TestMembership:
    def test_disc(self, disc):
        assert disc.contains(np.array([0.5 + 0.0j]))
        assert disc.contains(np.array([0.0 + 0.0j]))
        assert not disc.contains(np.array([1.0 + 0.0j]))

    def test_punctured_disc_excludes_origin(self, punctured):
        assert punctured.contains(np.array([0.5 + 0.0j]))
        assert not punctured.contains(np.array([0.0 + 0.0j]))
        assert punctured.null_exclusions == (0,)

    def test_ball(self, ball2):
        assert ball2.contains(np.array([0.6, 0.6j]))
        assert not ball2.contains(np.array([0.8, 0.7j]))

    def test_hartogs_graph(self, hartogs3):
        r1 = 0.9
        assert hartogs3.contains(np.array([r1, 0.99 * r1**3 + 0j]))
        assert not hartogs3.contains(np.array([r1, 1.01 * r1**3 + 0j]))
        # empty fibre over z1 = 0
        assert not hartogs3.contains(np.array([0.0j, 0.0j]))

    def test_fk_graph_with_factor(self, fk3):
        r1 = 0.8
        cap = r1**3 * math.sqrt(1 - r1**2)
        assert fk3.contains(np.array([r1, 0.99 * cap + 0j]))
        assert not fk3.contains(np.array([r1, 1.01 * cap + 0j]))
        assert not fk3.contains(np.array([0.0j, 0.0j]))
        # the second bound shrinks with the cap's peak
        assert fk3.bounding_box[1] < 0.5

    def test_product_offsets_and_exclusions(self):
        D = make_catalog_domain(("product", ("punctured_disc", 1.0), ("ball", 2)))
        assert D.dimension == 3
        assert D.null_exclusions == (0,)
        assert D.contains(np.array([0.5, 0.3, 0.3j]))
        assert not D.contains(np.array([0.0j, 0.3, 0.3j]))


    @pytest.mark.parametrize(
        "label",
        [
            "disc(1)",
            "disc(0.7)",
            "punctured_disc(1.3)",
            "polydisc(2;0.5,1.5)",
            "polydisc(3;0.5,1,1.5)",
            "ball(1)",
            "ball(3;0.37)",
            "ball(7)",
            "ball(8;0.9)",
            "ball(2;1.3)",
            "ball(2;1.267083178292732)",
            "hartogs(1)",
            "hartogs(3)",
            "fk_ball_prime(2)",
            "fk_ball_prime(3)",
            "product(ball(2),hartogs(3))",
            "product(punctured_disc(1),fk_ball_prime(3),ball(1;0.37))",
        ],
    )
    def test_profile_membership_matches_per_kind_closures(self, label):
        D = parse_domain(label)
        member, excl = _per_kind_membership(D.descriptor)
        b = np.asarray(D.bounding_box)
        g = np.random.default_rng(5)
        u = g.uniform(-1.2, 1.2, (20_000, 2 * D.dimension))
        pts = (u[:, ::2] + 1j * u[:, 1::2]) * b
        # on the sphere of radius b_0, on the bounding polydisc's torus, and
        # with one coordinate zero
        pts[:2000] *= b[0] / np.linalg.norm(pts[:2000], axis=1, keepdims=True)
        pts[2000:4000] = b * np.exp(2j * np.pi * g.random((2000, D.dimension)))
        for j in range(D.dimension):
            pts[4000 + 500 * j : 4500 + 500 * j, j] = 0.0
        want = member(pts)
        for j in excl:
            want &= pts[:, j] != 0
        assert D.null_exclusions == excl
        assert np.array_equal(D.contains(pts), want)

    def test_graph_with_factor_mask_needs_no_cap_guard(self):
        # rows with r_0 >= 1, NaN or inf fail `inside` whatever their cap, so
        # zeroing the cap there first changes no bit of the mask
        profile = parse_domain("fk_ball_prime(3)").radial_profile
        g = np.random.default_rng(8)
        r = g.uniform(0.0, 1.3, (200_000, 2))
        special = [np.nan, np.inf, -np.inf, 1.0, np.nextafter(1.0, 0.0), 0.0]
        r[:600, 0] = np.repeat(special, 100)
        r[600:1200, 1] = np.repeat(special, 100)
        r[1200:1800] = np.nan
        with np.errstate(invalid="ignore"):
            inside = r[:, 0] < 1.0
            cap = np.where(inside, r[:, 0] ** 3 * np.sqrt(np.maximum(1.0 - r[:, 0] ** 2, 0.0)), 0.0)
            want = inside & (r[:, 1] < cap)
            got = profile.moduli_member(r)
        assert np.array_equal(got, want)
        assert 0 < np.count_nonzero(got) < r.shape[0]


def _per_kind_membership(desc):
    """Membership closure and null exclusions of a catalog descriptor, written
    per kind (the rules before every catalog domain took them from its radial
    profile)."""
    kind = desc[0]
    if kind in ("disc", "punctured_disc"):
        r = desc[1]
        return (lambda pts: np.abs(pts[:, 0]) < r), ((0,) if kind == "punctured_disc" else ())
    if kind == "polydisc":
        return (lambda pts: np.all(np.abs(pts) < np.asarray(desc[2]), axis=1)), ()
    if kind == "ball":
        r = desc[2]
        return (lambda pts: np.sum(np.abs(pts) ** 2, axis=1) < r * r), ()
    if kind == "hartogs":

        def member(pts, k=desc[1]):
            r1 = np.abs(pts[:, 0])
            return (r1 < 1.0) & (np.abs(pts[:, 1]) < r1**k)

        return member, ()
    if kind == "fk_ball_prime":

        def member(pts, k=desc[1]):
            r1 = np.abs(pts[:, 0])
            inside = r1 < 1.0
            cap = np.where(inside, r1**k * np.sqrt(np.maximum(1.0 - r1 * r1, 0.0)), 0.0)
            return inside & (np.abs(pts[:, 1]) < cap)

        return member, ()
    parts = [_per_kind_membership(d) for d in desc[1:]]
    offsets = np.cumsum([0] + [make_catalog_domain(d).dimension for d in desc[1:]])

    def member(pts):
        out = np.ones(pts.shape[0], dtype=bool)
        for (m, _), a, b in zip(parts, offsets[:-1], offsets[1:]):
            out &= m(pts[:, a:b])
        return out

    return member, tuple(int(offsets[i] + j) for i, (_, e) in enumerate(parts) for j in e)


class TestLabelsAndJson:
    def test_parse_label_roundtrip(self):
        for label in ["disc(1)", "punctured_disc(1)", "ball(2)", "hartogs(3)", "fk_ball_prime(2)"]:
            assert parse_domain(label).label == label

    def test_polydisc_radius_broadcast(self):
        D = parse_domain("polydisc(2;0.5)")
        assert D.bounding_box == (0.5, 0.5)

    def test_product_label(self):
        D = parse_domain("product(ball(2),hartogs(3))")
        assert D.dimension == 4
        assert D.label == "product(ball(2),hartogs(3))"

    def test_json_descriptor_roundtrip(self, hartogs3):
        rebuilt = make_catalog_domain(hartogs3.to_json_obj())
        assert rebuilt.label == hartogs3.label
        assert rebuilt.dimension == hartogs3.dimension

    def test_unknown_label_rejected(self):
        with pytest.raises(ConfigError):
            parse_domain("nonsense(3)")
        with pytest.raises(ConfigError):
            make_catalog_domain(("foo",))

    def test_bad_radius_rejected(self):
        with pytest.raises(ConfigError):
            make_catalog_domain(("disc", -1.0))

    @pytest.mark.parametrize(
        "label",
        [
            "disc(0.7)",
            "punctured_disc(1.3)",
            "polydisc(2;0.5,1.5)",
            "ball(2)",
            "ball(3;0.37)",
            "hartogs(3)",
            "fk_ball_prime(2)",
            "product(ball(2),hartogs(3))",
            "product(punctured_disc(1),fk_ball_prime(3),ball(1;0.37))",
            "ball(2;1.267083178292732)",
            "disc(0.30000000000000004)",
        ],
    )
    def test_every_form_roundtrips(self, label):
        D = parse_domain(label)
        assert D.label == label
        for form in (D.descriptor, list(D.descriptor), D.to_json_obj(), json.dumps(D.to_json_obj())):
            E = make_catalog_domain(form)
            assert (E.label, E.descriptor, E.to_json_obj()) == (D.label, D.descriptor, D.to_json_obj())
            assert (E.bounding_box, E.null_exclusions) == (D.bounding_box, D.null_exclusions)

    def test_separators_and_defaults(self):
        assert parse_domain("polydisc(3,0.5,1,2)").label == "polydisc(3;0.5,1,2)"
        assert parse_domain("ball(2,1.3)").descriptor == ("ball", 2, 1.3)
        assert parse_domain("polydisc(2)").descriptor == ("polydisc", 2, (1.0, 1.0))
        assert make_catalog_domain({"kind": "polydisc", "params": {"n": 3, "radii": [0.5]}}).bounding_box == (0.5,) * 3
        assert make_catalog_domain({"kind": "disc"}).descriptor == ("disc", 1.0)

    @pytest.mark.parametrize("spec", MALFORMED_DOMAIN_SPECS, ids=repr)
    def test_malformed_spec_refused(self, spec):
        with pytest.raises(ConfigError):
            make_catalog_domain(spec)


class TestVolume:
    def test_disc_volume(self, disc):
        assert_rel(disc.volume, math.pi, 1e-12)

    def test_ball_volume(self, ball2):
        assert_rel(ball2.volume, math.pi**2 / 2.0, 1e-12)

    def test_polydisc_volume(self, polydisc2):
        assert_rel(polydisc2.volume, math.pi**2, 1e-12)

    def test_hartogs_volume(self, hartogs3):
        # (2 pi)^2 * int_0^1 r1 * (r1^{2k} / 2) dr1 = pi^2 / (k + 1) for k = 3
        assert_rel(hartogs3.volume, math.pi**2 / 4.0, 1e-12)

    def test_fk_volume(self, fk3):
        # (2 pi)^2 * (1/2) * (1/2) B(4, 2) with B(4, 2) = 3!1!/5! = 1/20
        assert_rel(fk3.volume, math.pi**2 / 20.0, 1e-12)


def scipy_log_radial_moment(profile, t):
    """The closed moments of ball and graph_with_factor profiles, guards
    included, through scipy's gammaln and betaln; the other kinds need
    neither."""
    t = np.asarray(t, dtype=float)
    if profile.kind == "ball":
        if np.any(t / 2.0 + 1.0 <= 0.0):
            raise DivergentIntegralError("ball")
        n = profile.n
        log_unit = float(np.sum(gammaln(t / 2.0 + 1.0)) - gammaln(n + np.sum(t) / 2.0 + 1.0)) - n * math.log(2.0)
        return log_unit + float(np.sum(t) + 2 * n) * math.log(profile.radius)
    if profile.kind == "graph_with_factor":
        outer = t[0] + profile.k * (t[1] + 2.0) + 2.0
        if t[1] + 2.0 <= 0.0 or outer <= 0.0:
            raise DivergentIntegralError("graph")
        return -math.log(t[1] + 2.0) - math.log(2.0) + float(betaln(outer / 2.0, (t[1] + 4.0) / 2.0))
    if profile.kind == "product":
        return sum(scipy_log_radial_moment(f, t[cols]) for f, cols in profile.factor_columns())
    return log_radial_moment(profile, t)


MOMENT_DOMAINS = (
    [f"ball({n})" for n in range(1, 5)]
    + [f"ball({n};1.3)" for n in range(1, 5)]
    + [f"{kind}({k})" for kind in ("hartogs", "fk_ball_prime") for k in range(1, 6)]
    + ["product(ball(2;1.3),fk_ball_prime(3))"]
)


def moment_exponents(n, seed):
    """Exponent rows alpha up to degree 20: each axis alone at degree 20, and
    seeded rows of every degree, one axis lowered to -1 in a third of them."""
    rng = np.random.default_rng(seed)
    rows = [np.zeros(n, dtype=int)] + [20 * np.eye(n, dtype=int)[j] for j in range(n)]
    for degree in range(21):
        for _ in range(6):
            alpha = rng.multinomial(degree, np.full(n, 1.0 / n))
            if rng.random() < 1.0 / 3.0:
                alpha[rng.integers(n)] = -1
            rows.append(alpha)
    return rows


class TestLogRadialMoment:
    @pytest.mark.parametrize("label", MOMENT_DOMAINS)
    def test_matches_scipy_reference(self, label):
        profile = parse_domain(label).radial_profile
        checked = 0
        for p in (0.5, 0.75, 1.5, 3.0):
            for alpha in moment_exponents(profile.dimension, seed=len(label)):
                t = p * alpha
                try:
                    expected = scipy_log_radial_moment(profile, t)
                except DivergentIntegralError:
                    with pytest.raises(DivergentIntegralError):
                        log_radial_moment(profile, t)
                    continue
                got = log_radial_moment(profile, t)
                assert abs(got - expected) <= 1e-13 * max(1.0, abs(expected)), (label, p, tuple(alpha), got, expected)
                checked += 1
        assert checked > 0

    @pytest.mark.parametrize("label", MOMENT_DOMAINS)
    def test_divergent_exponents_raise_divergent_integral_error(self, label):
        profile = parse_domain(label).radial_profile
        n = profile.dimension
        rows = []
        for f, cols in profile.factor_columns():
            if f.kind == "ball":
                rows += [-2.0 * np.eye(n)[j] for j in range(cols.start, cols.stop)]
            else:
                # t1 = -2 and outer = t0 + k (t1 + 2) + 2 at 0 and below; t0 = -2 converges
                rows.append(-2.0 * np.eye(n)[cols.start + 1])
                for t0 in (-(2.0 * f.k + 2.0), -(2.0 * f.k + 3.0)):
                    t = np.zeros(n)
                    t[cols.start] = t0
                    rows.append(t)
        for t in rows:
            with pytest.raises(DivergentIntegralError):
                log_radial_moment(profile, t)


class TestSampling:
    def test_points_are_members(self, hartogs3):
        batch = sample(hartogs3, 0, 500)
        assert batch.points.shape == (500, 2)
        assert np.all(hartogs3.contains(batch.points))
        assert 0 < batch.acceptance_rate <= 1

    def test_integer_seed_determinism(self, ball2):
        a = sample(ball2, 7, 200).points
        b = sample(ball2, 7, 200).points
        assert np.array_equal(a, b)

    def test_chunk_prefix_property(self, disc):
        small = sample(disc, 3, 50).points
        large = sample(disc, 3, 400).points
        assert np.array_equal(large[:50], small)

    def test_integer_seed_matches_chunk_formula(self, hartogs3):
        # box proposals in chunks of 2^16 from substream (seed, TAG_REJECTION, i)
        # until enough members are kept
        kept, proposed, i = [], 0, 0
        while sum(k.shape[0] for k in kept) < 100_000:
            u = substream(7, TAG_REJECTION, i).random((65536, 4)) * 2.0 - 1.0
            pts = (u[:, ::2] + 1j * u[:, 1::2]) * np.asarray(hartogs3.bounding_box)
            kept.append(pts[hartogs3.contains(pts)])
            proposed, i = proposed + 65536, i + 1
        batch = sample(hartogs3, 7, 100_000)
        assert np.array_equal(batch.points, np.concatenate(kept)[:100_000])
        assert batch.proposals == proposed
        assert batch.acceptance_rate == sum(k.shape[0] for k in kept) / proposed

    @staticmethod
    def _box_rows(D, gen, rows):
        u = gen.random((rows, 2 * D.dimension)) * 2.0 - 1.0
        return (u[:, ::2] + 1j * u[:, 1::2]) * np.asarray(D.bounding_box)

    def _one_stream_members(self, D, seed, count):
        # box proposals in chunks of 2^16 drawn in turn from one generator
        # until enough members are kept, and the rows drawn
        gen, kept, proposed = np.random.default_rng(seed), [], 0
        while sum(k.shape[0] for k in kept) < count:
            pts = self._box_rows(D, gen, 65536)
            kept.append(pts[D.contains(pts)])
            proposed += 65536
        return np.concatenate(kept)[:count], proposed

    @pytest.mark.parametrize("spec", ["disc", ("ball", 2), ("hartogs", 3), COUNTEREXAMPLE_SOURCE, COUNTEREXAMPLE_TARGET])
    @pytest.mark.parametrize("count", [1, 6, 25, 100, 4096])
    def test_generator_matches_one_stream(self, spec, count):
        D = make_catalog_domain(spec)
        batch = sample(D, np.random.default_rng(5), count)
        ref, proposed = self._one_stream_members(D, 5, count)
        assert batch.points.tobytes() == ref.tobytes()
        # the statistics count only the rows drawn, never more than whole chunks would
        assert batch.proposals <= proposed
        inside = np.count_nonzero(D.contains(self._box_rows(D, np.random.default_rng(5), batch.proposals)))
        assert batch.acceptance_rate == inside / batch.proposals

    def test_generator_short_draws_and_advance(self):
        # 6 members at acceptance 0.0476 draw 253 rows first; seed 2 keeps
        # fewer than 6 of them, so a second draw of 506 rows follows
        D = make_catalog_domain(COUNTEREXAMPLE_SOURCE)
        gen = np.random.default_rng(2)
        batch = sample(D, gen, 6)
        ref, _ = self._one_stream_members(D, 2, 6)
        assert batch.points.tobytes() == ref.tobytes()
        assert batch.proposals == 253 + 506
        # the statistics and the generator's advance count exactly the rows drawn
        after = np.random.default_rng(2)
        assert batch.acceptance_rate == np.count_nonzero(D.contains(self._box_rows(D, after, 759))) / 759
        assert gen.random() == after.random()

    @pytest.mark.parametrize(
        "spec", [("ball", 2), "disc", ("hartogs", 3), "polydisc(3;0.5,1,1.5)", ("product", ("ball", 2), ("hartogs", 3))]
    )
    def test_box_proposals_match_assembled_form(self, spec):
        # the in-place complex view gives the bits of (u_re + 1j u_im) * box, signed zeros included
        D = make_catalog_domain(spec)
        pts, inside = box_proposals(D, substream(11, TAG_REJECTION, 0), 100_000)
        u = substream(11, TAG_REJECTION, 0).random((100_000, 2 * D.dimension)) * 2.0 - 1.0
        ref = (u[:, ::2] + 1j * u[:, 1::2]) * np.asarray(D.bounding_box)
        assert pts.shape == ref.shape and pts.dtype == ref.dtype
        assert pts.tobytes() == ref.tobytes()
        assert np.array_equal(np.signbit(pts.view(float)), np.signbit(ref.view(float)))
        assert np.array_equal(inside, D.contains(ref))

    @pytest.mark.parametrize(
        "label",
        ["disc(0.7)", "punctured_disc(1.3)", "polydisc(3;0.5,1,1.5)", "ball(2;1.3)", "hartogs(3)", "fk_ball_prime(3)",
         "product(punctured_disc(1),fk_ball_prime(3),ball(1;0.37))"],
    )
    def test_box_proposals_are_two_u_minus_one_times_box(self, label):
        # (u - 0.5) * 2b has the bits of (2u - 1) * b, the real formula, per component
        D = parse_domain(label)
        pts, _ = box_proposals(D, substream(4, TAG_REJECTION, 0), 50_000)
        u = substream(4, TAG_REJECTION, 0).random((50_000, 2 * D.dimension))
        ref = (2.0 * u - 1.0) * np.repeat(np.asarray(D.bounding_box), 2)
        assert np.array_equal(pts.view(float), ref)
        assert np.array_equal(np.signbit(pts.view(float)), np.signbit(ref))

    @pytest.mark.parametrize("seed", [np.int64(3), np.uint32(3), np.int8(3)])
    def test_numpy_integer_seed_is_the_int_seed(self, disc, seed):
        assert sample(disc, seed, 300).points.tobytes() == sample(disc, 3, 300).points.tobytes()

    @pytest.mark.parametrize(
        "seed",
        [3.5, 3.0, np.float64(3.0), True, "3", None],
        ids=["fraction", "whole-float", "numpy-float", "bool", "string", "none"],
    )
    def test_non_integral_seed_refused(self, disc, seed):
        with pytest.raises(ConfigError, match="seed must be an integer"):
            sample(disc, seed, 300)
        with pytest.raises(ConfigError, match="seed must be an integer"):
            sample_radial_weighted(disc, (0.0,), seed, 300)

    def test_distinct_seeds_differ(self, disc):
        assert not np.array_equal(sample(disc, 0, 50).points, sample(disc, 1, 50).points)

    def test_degenerate_domain_detected(self):
        # the unit ball of C^10 fills pi^10 / (10! 2^20), about 2.5e-8, of its
        # bounding box: no proposal of the first 4 * 10^6 lands in it
        with pytest.raises(DegenerateDomainError):
            sample(parse_domain("ball(10)"), 0, 10)

    def test_degenerate_domain_detected_from_generator(self):
        with pytest.raises(DegenerateDomainError):
            sample(parse_domain("ball(10)"), np.random.default_rng(0), 10)

    @pytest.mark.parametrize("rng", [0, "generator"])
    def test_degenerate_domain_refused_before_any_draw(self, monkeypatch, rng):
        # the exact acceptance of the unit ball of C^200 underflows to 0; one
        # 65,536-row chunk of its proposals would take 210 MB
        def no_draw(*args):
            raise AssertionError("box_proposals called")

        monkeypatch.setattr(geometry, "box_proposals", no_draw)
        gen = np.random.default_rng(0) if rng == "generator" else rng
        with pytest.raises(DegenerateDomainError, match="below 1e-6"):
            sample(parse_domain("ball(200)"), gen, 10)

    def test_count_validation(self, disc):
        with pytest.raises(ConfigError):
            sample(disc, 0, 0)


class TestWeightedSampling:
    def test_disc_weighted_moment(self, disc):
        # density prop. to |z|^2: E|z|^2 = (t+2)/(t+4) = 2/3
        pts = sample_radial_weighted(disc, (2.0,), 0, 20000)
        m = float(np.mean(np.abs(pts[:, 0]) ** 2))
        assert abs(m - 2.0 / 3.0) < 0.01

    def test_ball_weighted_members(self, ball2):
        pts = sample_radial_weighted(ball2, (1.0, 3.0), 0, 2000)
        assert np.all(ball2.contains(pts))

    def test_hartogs_weighted_members_and_determinism(self, hartogs3):
        a = sample_radial_weighted(hartogs3, (2.0, 4.0), 11, 1000)
        b = sample_radial_weighted(hartogs3, (2.0, 4.0), 11, 1000)
        assert np.array_equal(a, b)
        assert np.all(hartogs3.contains(a))

    def test_fk_weighted_members(self, fk3):
        pts = sample_radial_weighted(fk3, (-1.0, 1.0), 0, 2000)
        assert np.all(fk3.contains(pts))

    def test_matches_polar_formula(self, hartogs3):
        # moduli, then uniform phases, from the one substream of the seed
        g = substream(11, TAG_REJECTION, 0)
        r = sample_moduli_weighted(hartogs3.radial_profile, (2.0, 4.0), g, 1000)
        theta = g.random((1000, 2)) * 2.0 * np.pi
        assert np.array_equal(sample_radial_weighted(hartogs3, (2.0, 4.0), 11, 1000), r * np.exp(1j * theta))

    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("desc", [COUNTEREXAMPLE_SOURCE, COUNTEREXAMPLE_TARGET])
    def test_product_moduli_match_stacked_factor_draws(self, desc, seed):
        # each factor writes its own columns; the bits are those of stacking the factors' draws
        profile = make_catalog_domain(desc).radial_profile
        t = np.array([1.0, 0.5, 2.0, -0.5])
        g = substream(seed, TAG_REJECTION, 0)
        stacked = np.hstack([sample_moduli_weighted(f, t[cols], g, 1000) for f, cols in profile.factor_columns()])
        r = sample_moduli_weighted(profile, t, substream(seed, TAG_REJECTION, 0), 1000)
        assert r.shape == stacked.shape and r.tobytes() == stacked.tobytes()


class TestBoundaryDistance:
    def test_disc_interior(self, disc):
        assert abs(boundary_distance(disc, np.array([0.3 + 0.0j])) - 0.7) < 1e-5

    def test_disc_exterior(self, disc):
        assert abs(boundary_distance(disc, np.array([1.5 + 0.0j])) - 0.5) < 1e-5

    def test_on_boundary_returns_zero(self, disc):
        assert boundary_distance(disc, np.array([1.0 + 0.0j])) == 0.0

    def test_puncture_counts_as_boundary(self, punctured):
        assert abs(boundary_distance(punctured, np.array([0.2 + 0.0j])) - 0.2) < 1e-5

    def test_ball_interior(self, ball2):
        w = np.array([0.3, 0.4j])
        assert abs(boundary_distance(ball2, w) - 0.5) < 1e-5

    @staticmethod
    def _one_direction_at_a_time(D, w, tol):
        """The probe as a scan and bisection per direction, point by point."""
        inside = D.contains(w)
        diam = 2.0 * math.sqrt(sum(2.0 * b * b for b in D.bounding_box)) + 1.0
        best = math.inf
        for d in _direction_battery(D, w):
            lo, hi = 0.0, tol
            same = D.contains(w + hi * d) == inside
            while hi < diam and same:
                lo, hi = hi, hi * 2.0
                same = D.contains(w + hi * d) == inside
            if same:
                continue
            for _ in range(80):
                if hi - lo < tol / 4.0:
                    break
                mid = 0.5 * (lo + hi)
                if D.contains(w + mid * d) == inside:
                    lo = mid
                else:
                    hi = mid
            best = min(best, 0.5 * (lo + hi))
        if inside:
            for j in D.null_exclusions:
                best = min(best, abs(w[j]))
        if not math.isfinite(best):
            best = diam
        return 0.0 if best <= tol else float(best)

    @pytest.mark.parametrize(
        "label",
        ["disc", "disc(2)", "punctured_disc(1)", "polydisc(2;1,0.5)", "ball(2)", "ball(3;1.3)", "hartogs(3)",
         "fk_ball_prime(3)", "product(ball(2),hartogs(3))", "product(punctured_disc(1),polydisc(1;2))"],
    )
    def test_all_directions_at_once_match_one_at_a_time(self, label):
        D = parse_domain(label)
        b = np.asarray(D.bounding_box)
        g = np.random.default_rng(3)
        box = [(g.uniform(-1, 1, D.dimension) + 1j * g.uniform(-1, 1, D.dimension)) * b * (1.3 if k % 3 == 0 else 1.0)
               for k in range(12)]
        sides = set()
        for w in [*box, *sample(D, 3, 4).points]:
            sides.add(bool(D.contains(w)))
            for tol in (1e-6, 1e-3):
                assert boundary_distance(D, w, tol) == self._one_direction_at_a_time(D, w, tol)
        assert sides == {True, False}

    @pytest.mark.parametrize("case", ["excluded-slice image", "ball(2) sphere"])
    @pytest.mark.parametrize("tol", [1e-6, 1e-3])
    def test_boundary_point_stops_after_the_ladder(self, monkeypatch, case, tol):
        # a crossing within the first ladder step bisects to [0, tol], read as 0.0
        if case == "excluded-slice image":
            T = build_counterexample(3, 2)
            D = T.target
            w = np.asarray(T.mapping.inverse().evaluate(_blowdown_points(3, 0, 1)))[0]
        else:
            D = parse_domain("ball(2)")
            v = np.random.default_rng(4).standard_normal(4)
            w = (v[:2] + 1j * v[2:]) / np.linalg.norm(v)
        expected = self._one_direction_at_a_time(D, w, tol)
        calls = []
        contains = type(D).contains

        def counting(self, points):
            calls.append(1)
            return contains(self, points)

        monkeypatch.setattr(type(D), "contains", counting)
        assert boundary_distance(D, w, tol) == expected == 0.0
        assert len(calls) == 2

    @pytest.mark.parametrize("tol", [1e-6, 1e-3, 10.0])
    def test_doubling_takes_one_membership_call(self, monkeypatch, tol):
        D = parse_domain("product(ball(2),hartogs(3))")
        w = sample(D, 5, 1).points[0]
        dirs = len(_direction_battery(D, w))
        diam = 2.0 * math.sqrt(sum(2.0 * b * b for b in D.bounding_box)) + 1.0
        steps = 1 + max(0, math.ceil(math.log2(diam / tol)))  # tol 2^k for k up to the first step >= diam
        sizes = []
        contains = type(D).contains

        def counting(self, points):
            sizes.append(np.asarray(points).reshape(-1, self.dimension).shape[0])
            return contains(self, points)

        monkeypatch.setattr(type(D), "contains", counting)
        boundary_distance(D, w, tol)
        # w's side, then the whole ladder, then bisection rounds of at most one battery
        assert sizes[:2] == [1, steps * dirs]
        assert all(size <= dirs for size in sizes[2:])


class TestClosureProbe:
    def test_disc_no_violation(self, disc):
        rep = interior_closure_probe(disc, 0.25)
        assert not rep.violation_found
        assert rep.grid_points > 0

    def test_puncture_is_witnessed(self, punctured):
        rep = interior_closure_probe(punctured, 0.25)
        assert rep.violation_found
        assert any(abs(w[0]) == 0.0 for w in rep.witnesses)
        assert "witness" in rep.verdict

    def test_resolution_validation(self, disc):
        with pytest.raises(ConfigError):
            interior_closure_probe(disc, 0.0)
