import json
import math

import numpy as np
import pytest
from scipy.special import expit

from conftest import assert_rel, members
from pbergman import (
    Box,
    CompositionIsometry,
    ConfigError,
    FunctionFamily,
    GaussianBump,
    LaurentPolynomial,
    LinearMap,
    MobiusFactors,
    MonomialMap,
    NonInvertibleMapError,
    PoleProximityWarning,
    SigmoidProduct,
    build_counterexample,
    equimeasure_check,
    identity_operator,
    mobius_operator,
    random_boxes,
    verify_isometry,
)
from pbergman import isometry
from pbergman._rng import TAG_PUSHFORWARD, substream
from pbergman.geometry import make_catalog_domain, sample_polar_weighted, sample_radial_weighted
from pbergman.integrate import closed_norm
from pbergman.isometry import _pushforward_stats, _region_ys, _side_key, box_masks, ratio_matrix

SWAP = MonomialMap(((0, 1), (1, 0)))


def swap_operator(polydisc2, p=3.0, lam=1.0):
    return CompositionIsometry(
        source=polydisc2,
        target=polydisc2,
        mapping=SWAP,
        weight=LaurentPolynomial.one(2),
        p=p,
        lam=lam,
        label="swap",
    )


class TestConstruction:
    def test_identity_valid(self, disc):
        T = identity_operator(disc, 2.0, lam=1j)
        assert T.p == 2.0
        assert T.lam == 1j

    def test_p_and_lambda_validation(self, disc):
        with pytest.raises(ConfigError):
            identity_operator(disc, 0.0)
        with pytest.raises(ConfigError):
            identity_operator(disc, 2.0, lam=2.0)

    def test_wrong_weight_rejected(self, disc):
        z = LaurentPolynomial.coordinate(1, 0)
        with pytest.raises(ConfigError):
            CompositionIsometry(
                source=disc,
                target=disc,
                mapping=MonomialMap.identity(1),
                weight=z,
                p=2.0,
            )
        with pytest.raises(ConfigError):
            CompositionIsometry(
                source=disc,
                target=disc,
                mapping=MonomialMap.identity(1),
                weight=LaurentPolynomial.monomial(1, (0,), 2.0),
                p=2.0,
            )

    def test_wrong_weight_accepted_unvalidated(self, disc):
        T = CompositionIsometry(
            source=disc,
            target=disc,
            mapping=MonomialMap.identity(1),
            weight=LaurentPolynomial.coordinate(1, 0),
            p=2.0,
            validate=False,
        )
        assert T.weight == LaurentPolynomial.coordinate(1, 0)

    def test_dimension_mismatch(self, disc, polydisc2):
        with pytest.raises(ConfigError):
            CompositionIsometry(
                source=disc,
                target=polydisc2,
                mapping=MonomialMap.identity(2),
                weight=LaurentPolynomial.one(2),
                p=2.0,
            )


class TestApply:
    def test_exact_laurent_image(self, disc):
        T = identity_operator(disc, 2.0, lam=1j)
        phi = LaurentPolynomial.monomial(1, (2,), 3.0)
        assert T.apply(phi) == phi * 1j

    def test_swap_image(self, polydisc2):
        T = swap_operator(polydisc2)
        phi = LaurentPolynomial.monomial(2, (2, 1))
        assert T(phi) == LaurentPolynomial.monomial(2, (1, 2))

    def test_pointwise_image_matches_formula(self):
        T = mobius_operator(0.3, 1.0)
        phi = LaurentPolynomial(1, {(0,): 1.0, (1,): 2.0})
        pts = np.array([[0.2 + 0.1j], [-0.4 + 0.3j]])
        image = T.apply(phi)
        expect = T.lam * phi(T.mapping(pts)) * np.asarray(T.weight(pts))
        assert np.allclose(image(pts), expect, rtol=1e-12)


class TestVerifyIsometry:
    def test_identity_closed_exact(self, disc):
        T = identity_operator(disc, 2.0)
        tests = [LaurentPolynomial.monomial(1, (a,)) for a in range(4)]
        assert verify_isometry(T, tests, method="closed") == 0.0

    def test_swap_closed_exact(self, polydisc2):
        T = swap_operator(polydisc2, p=1.0)
        tests = [LaurentPolynomial.monomial(2, (a, b)) for a in range(3) for b in range(2)]
        assert verify_isometry(T, tests, method="closed") == 0.0

    def test_mobius_mc(self):
        T = mobius_operator(0.3, 1.0)
        tests = [LaurentPolynomial.monomial(1, (a,)) for a in range(3)]
        worst = verify_isometry(T, tests, method="mc", samples=50_000, seed=0)
        assert worst < 0.02

    def test_needs_tests(self, disc):
        with pytest.raises(ConfigError):
            verify_isometry(identity_operator(disc, 2.0), [], method="closed")

    def test_unknown_method(self, disc):
        T = identity_operator(disc, 2.0)
        with pytest.raises(ConfigError):
            verify_isometry(T, [LaurentPolynomial.one(1)], method="exact")


class TestInverse:
    def test_monomial_roundtrip(self, polydisc2):
        T = swap_operator(polydisc2, p=3.0, lam=1j)
        Ti = T.inverse()
        phi = LaurentPolynomial.monomial(2, (2, 1), 1.5 - 0.5j)
        assert Ti.apply(T.apply(phi)).allclose(phi)
        assert abs(abs(Ti.lam) - 1.0) < 1e-12

    def test_mobius_roundtrip(self):
        T = mobius_operator(0.3, 1.0)
        Ti = T.inverse()
        phi = LaurentPolynomial(1, {(0,): 1.0, (1,): 0.5})
        pts = np.array([[0.2 + 0.1j], [-0.1 - 0.3j], [0.45 + 0.0j]])
        image = T.apply(phi)
        back = Ti.apply(image)
        assert np.allclose(np.asarray(back(pts)), np.asarray(phi(pts)), rtol=1e-10)

    def test_linear_roundtrip(self, ball2):
        c, s = math.cos(0.7), math.sin(0.7)
        T = CompositionIsometry(
            source=ball2,
            target=ball2,
            mapping=LinearMap(((c, -s), (s, c))),
            weight=LaurentPolynomial.one(2),
            p=2.0,
            label="rotation",
        )
        Ti = T.inverse()
        phi = LaurentPolynomial(2, {(1, 0): 1.0, (0, 2): 2.0})
        pts = members(ball2, 16)
        back = Ti.apply(T.apply(phi))
        assert np.allclose(np.asarray(back(pts)), np.asarray(phi(pts)), rtol=1e-10)

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    @pytest.mark.parametrize("angle", [0.7, 2.1])
    def test_rotation_inverse_matches_symbolic_constant(self, ball2, angle, p):
        # lambda' = 1/(lambda * w * det(M^-1)^(2/p)) and weight det(M^-1)^(2/p),
        # with the principal power, written out
        c, s = math.cos(angle), math.sin(angle)
        T = CompositionIsometry(
            source=ball2, target=ball2, mapping=LinearMap(((c, -s), (s, c))),
            weight=LaurentPolynomial.one(2), p=p, lam=1j,
        )
        Ti = T.inverse()
        det = complex(np.linalg.det(np.linalg.inv(np.asarray(T.mapping.matrix, dtype=complex))))
        gc = det ** (2.0 / p)
        assert Ti.weight == LaurentPolynomial.monomial(2, (0, 0), gc)
        assert Ti.lam == 1.0 / (T.lam * (T.weight.single_term()[1] * gc))

    def test_linear_nonconstant_weight_not_invertible(self, ball2):
        T = CompositionIsometry(
            source=ball2,
            target=ball2,
            mapping=LinearMap(((0.0, 1.0), (1.0, 0.0))),
            weight=LaurentPolynomial.monomial(2, (1, 0)),
            p=2.0,
            validate=False,
        )
        with pytest.raises(NonInvertibleMapError):
            T.inverse()

    def test_laurent_data_decided_once(self, polydisc2, ball2):
        assert swap_operator(polydisc2).laurent_data
        assert not mobius_operator(0.3, 1.0).laurent_data
        rotation = CompositionIsometry(
            source=ball2, target=ball2, mapping=LinearMap(((0.0, 1.0), (1.0, 0.0))),
            weight=LaurentPolynomial.one(2), p=2.0,
        )
        assert not rotation.laurent_data

    def test_invalid_weight_not_invertible(self, polydisc2):
        G = MonomialMap(((1, 0), (3, 1)))
        T = CompositionIsometry(
            source=polydisc2,
            target=polydisc2,
            mapping=G,
            weight=LaurentPolynomial.one(2),
            p=1.0,
            validate=False,
        )
        with pytest.raises(NonInvertibleMapError):
            T.inverse()


class TestMobiusWeight:
    @pytest.mark.parametrize("p", [1.0, 3.0])
    def test_modulus_identity(self, p):
        params = (0.3 + 0.1j,)
        g = MobiusFactors(params).weight_branch(p)
        mu = MobiusFactors(params)
        pts = np.array([[0.2 + 0.1j], [-0.5 + 0.2j], [0.0 + 0.0j]])
        lhs = np.abs(np.asarray(g(pts))) ** p
        rhs = np.abs(np.asarray(mu.jacobian_det(pts))) ** 2
        assert np.allclose(lhs, rhs, rtol=1e-12)

    def test_bad_parameter_rejected(self):
        with pytest.raises(ConfigError):
            mobius_operator(1.0, 2.0)


def _mass(D, family, region, p, samples, seed=0, threads=1):
    """(mass, sigma) of one region from the family's pushforward stream."""
    masses, sigmas = _pushforward_stats(D, family, [region], p, samples, seed, threads)
    return float(masses[0]), float(sigmas[0])


class TestPushforwardMass:
    def test_box_mass_oracle(self, disc):
        family = FunctionFamily.coordinates(1)
        box = Box(lo=(0.0 + 0.0j,), hi=(0.4 + 0.4j,))
        mass, sigma = _mass(disc, family, box, 2.0, samples=100_000)
        assert sigma < 0.01
        assert abs(mass - 0.16) <= 4.0 * sigma

    def test_sample_floor(self, disc):
        family = FunctionFamily.coordinates(1)
        box = Box(lo=(0.0,), hi=(0.4 + 0.4j,))
        with pytest.raises(ConfigError):
            _mass(disc, family, box, 2.0, samples=100)

    # a monomial lead takes the exactly weighted branch, any other lead the
    # rejection branch
    @pytest.mark.parametrize(
        "terms,weighted", [({(1,): 1.0}, True), ({(0,): 1.0, (1,): 0.5}, False)], ids=["weighted", "rejection"]
    )
    @pytest.mark.parametrize("threads", [1, 2])
    def test_matches_chunk_formula(self, disc, terms, weighted, threads):
        lead = LaurentPolynomial(1, terms)
        family = FunctionFamily(1, (lead, LaurentPolynomial.monomial(1, (2,))))
        box = Box(lo=(-0.3 - 0.2j,), hi=(0.4 + 0.3j,))
        got = _mass(disc, family, box, 1.5, samples=100_003, seed=3, threads=threads)
        assert got == _pushforward_reference(disc, lead, family.members[1:], box, 1.5, 100_003, 3, weighted)


def _ratio_matrix(lead, numerators, pts):
    """Ratio columns f_j/lead, one member at a time, and the rows where the
    lead is nonzero."""
    denom = np.asarray(lead(pts))
    good = np.abs(denom) > 0.0
    safe = np.where(good, denom, 1.0)
    return np.stack([np.asarray(f(pts)) / safe for f in numerators], axis=1), good


def _pushforward_reference(D, lead, numerators, region, p, samples, seed, weighted):
    """(mass, sigma) with the chunk formulas of both branches written out:
    chunks of 2^16 draws from substream (seed, TAG_PUSHFORWARD, side key, i),
    sums of y and y^2 added in chunk order."""
    key = _side_key(D, lead, numerators)
    s1 = s2 = 0.0
    for i in range(math.ceil(samples / 65536)):
        g = substream(seed, TAG_PUSHFORWARD, key, i)
        size = min(65536, samples - 65536 * i)
        if weighted:
            pts = sample_radial_weighted(D, tuple(p * e for e in lead.single_term()[0]), g, size)
            vals, good = _ratio_matrix(lead, numerators, pts)
            y = region(vals) * good
        else:
            u = g.random((size, 2 * D.dimension)) * 2.0 - 1.0
            pts = (u[:, ::2] + 1j * u[:, 1::2]) * np.asarray(D.bounding_box)
            pts = pts[D.contains(pts)]
            vals, good = _ratio_matrix(lead, numerators, pts)
            y = region(vals) * np.abs(lead(pts)) ** p * good
        s1 += float(y.sum())
        s2 += float((y * y).sum())
    n = float(samples)
    factor = closed_norm(D, lead, p).integral if weighted else D.box_volume
    mean = s1 / n
    var = max(s2 / n - mean * mean, 0.0) * n / max(n - 1.0, 1.0)
    return factor * mean, factor * math.sqrt(var / n)


class TestBoxes:
    def test_json_roundtrip(self):
        box = Box(lo=(0.1 - 0.2j, -0.3), hi=(0.5, 0.7 + 0.4j), label="b")
        assert Box.from_json_obj(box.to_json_obj()) == box

    def test_corner_grammar(self):
        obj = {"lo": [-0.5, "-0.5-0.25j", {"re": -0.5, "im": -0.25}], "hi": [0.5, "0.5+0.25j", {"re": 0.5}]}
        box = Box.from_json_obj(obj)
        assert box.lo == (-0.5 + 0j, -0.5 - 0.25j, -0.5 - 0.25j)
        assert box.hi == (0.5 + 0j, 0.5 + 0.25j, 0.5 + 0j)

    @pytest.mark.parametrize(
        "obj",
        [{"lo": 0.0, "hi": [0.5]}, {"lo": [0.0]}, {"lo": ["zero"], "hi": [0.5]}, {"lo": [[0.0, 1.0]], "hi": [0.5]}, [0.0]],
        ids=["corner-not-a-list", "no-hi", "bad-string", "nested-list", "not-an-object"],
    )
    def test_malformed_json_refused(self, obj):
        with pytest.raises(ConfigError):
            Box.from_json_obj(obj)

    def test_corner_validation(self):
        with pytest.raises(ConfigError):
            Box(lo=(0.5,), hi=(0.1,))
        with pytest.raises(ConfigError):
            Box(lo=(), hi=())

    def test_indicator(self):
        box = Box(lo=(0.0,), hi=(1.0 + 1.0j,))
        vals = np.array([[0.5 + 0.5j], [1.5 + 0.5j], [0.5 - 0.5j]])
        assert list(box(vals)) == [1.0, 0.0, 0.0]

    def test_one_pass_masks_match_per_box_comparisons(self):
        T = build_counterexample()
        family = FunctionFamily.coordinates(4)
        boxes = random_boxes(T, family, seed=0)
        pts = sample_radial_weighted(T.target, (-3.0, 0.0, 3.0, 0.0), substream(0, TAG_PUSHFORWARD, 0), 4096)
        vals, _, _ = ratio_matrix(T.apply_family(family).values(pts))
        vals = np.concatenate([vals, _edge_rows(boxes)])
        regions = [GaussianBump(), *boxes[:7], SigmoidProduct(), *boxes[7:]]
        _assert_matches_per_box(regions, vals)

    def test_one_pass_masks_on_one_coordinate(self):
        boxes = [Box(lo=(-0.5 - 0.25j,), hi=(0.5 + 0.25j,)), Box(lo=(-0.0,), hi=(0.0,)), Box(lo=(0.1,), hi=(0.3 + 1j,))]
        re = np.array([-0.5, 0.5, 0.0, -0.0, 0.3, 0.7, np.nan, np.inf, -np.inf])
        vals = np.empty((re.size, re.size), dtype=complex)
        vals.real, vals.imag = re[:, None], re[None, :]
        vals = vals.reshape(-1, 1)
        vals = np.concatenate([vals, _edge_rows(boxes)])
        _assert_matches_per_box([SigmoidProduct(), *boxes, GaussianBump()], vals)

    def test_smooth_regions_match_their_formulas(self):
        # column loops in place of np.abs(v - c)**2 and of 2N expit calls:
        # the same values up to rounding, and the same limits at +-inf and NaN
        g = np.random.default_rng(0)
        vals = g.normal(size=(2000, 3)) + 1j * g.normal(size=(2000, 3))
        vals[:4, 0] = [np.inf, complex(-np.inf, 1.0), complex(-1e4, 3.0), complex(np.nan, 0.0)]
        bump = np.exp(-np.sum(np.abs(vals - 0.2 - 0.1j) ** 2, axis=1) / (2.0 * 0.4**2))
        sigmoid = np.prod(expit(vals.real / 0.3) * expit(vals.imag / 0.3), axis=1)
        assert np.allclose(GaussianBump()(vals), bump, rtol=1e-12, atol=0.0, equal_nan=True)
        assert np.allclose(SigmoidProduct()(vals), sigmoid, rtol=1e-13, atol=0.0, equal_nan=True)

    def test_one_pass_masks_without_boxes(self):
        vals = np.array([[0.1 + 0.2j, np.nan], [-0.0, 0.3j]])
        assert box_masks([], vals).shape == (0, 2)
        _assert_matches_per_box([GaussianBump(), SigmoidProduct()], vals)

    @pytest.mark.parametrize("count", [1, 20])
    @pytest.mark.parametrize("operator", ["counterexample", "mobius"])
    def test_one_box_evaluation_per_chunk(self, monkeypatch, operator, count):
        # mobius: the target lead T(1) is not a monomial, so that side samples by rejection
        T = build_counterexample() if operator == "counterexample" else mobius_operator(0.3, 1.0)
        family = FunctionFamily.coordinates(T.source.dimension)
        boxes = random_boxes(T, family, seed=0, count=count)
        calls = []

        def counted(bs, vals):
            calls.append(len(bs))
            return box_masks(bs, vals)

        monkeypatch.setattr(isometry, "box_masks", counted)
        equimeasure_check(T, family, boxes=boxes, samples=200_000, seed=0)
        assert calls == [count] * 2 * math.ceil(200_000 / 65536)

    def test_random_boxes_deterministic(self, disc):
        T = identity_operator(disc, 2.0)
        family = FunctionFamily.coordinates(1)
        a = random_boxes(T, family, seed=4, count=5)
        b = random_boxes(T, family, seed=4, count=5)
        assert [x.to_json_obj() for x in a] == [y.to_json_obj() for y in b]
        c = random_boxes(T, family, seed=5, count=5)
        assert [x.to_json_obj() for x in a] != [y.to_json_obj() for y in c]


def _box_reference(box, vals):
    """One box's membership mask, one coordinate at a time."""
    ok = np.ones(vals.shape[0], dtype=bool)
    for j, (a, b) in enumerate(zip(box.lo, box.hi)):
        a, b = complex(a), complex(b)
        re, im = vals[:, j].real, vals[:, j].imag
        ok &= (re >= a.real) & (re <= b.real) & (im >= a.imag) & (im <= b.imag)
    return ok


def _edge_rows(boxes):
    """Rows on each box's lo and hi corners and on mixed corners, then rows
    holding NaN, +-inf and -0.0 in the real or imaginary part."""
    rows = []
    for b in boxes:
        lo, hi = np.array(b.lo, dtype=complex), np.array(b.hi, dtype=complex)
        rows += [lo, hi, lo.real + 1j * hi.imag, hi.real + 1j * lo.imag]
    d = boxes[0].dimension
    for x in (np.nan, np.inf, -np.inf, -0.0):
        rows += [np.full(d, complex(x, 0.0)), np.full(d, complex(0.0, x)), np.full(d, complex(x, x))]
        corner = np.array(boxes[0].lo, dtype=complex)
        corner[0] = complex(x, corner[0].imag)
        rows.append(corner)
    return np.array(rows)


def _assert_matches_per_box(regions, vals):
    # boxes reach the chunk sums as bool masks, whose y and y^2 sums are the
    # same exact counts as those of 0/1 floats; Box.__call__ keeps floats
    boxes = [u for u in regions if isinstance(u, Box)]
    want = [_box_reference(u, vals) if isinstance(u, Box) else u(vals) for u in regions]
    masks = box_masks(boxes, vals)
    assert masks.dtype == bool and masks.shape == (len(boxes), vals.shape[0])
    assert [m.tobytes() for m in masks] == [_box_reference(b, vals).tobytes() for b in boxes]
    assert [b(vals).tobytes() for b in boxes] == [_box_reference(b, vals).astype(float).tobytes() for b in boxes]
    got = list(_region_ys(regions, vals))
    assert [y.dtype for y in got] == [w.dtype for w in want]
    assert [y.tobytes() for y in got] == [w.tobytes() for w in want]


def _mixed_family(n):
    """Lead (0.5-0.25j) z_1^2; members with negative exponents and non-unit
    complex coefficients."""
    mono = LaurentPolynomial.monomial
    lead = mono(n, (2,) + (0,) * (n - 1), 0.5 - 0.25j)
    tail = (1,) * (n - 1)
    members = [
        mono(n, (1,) + (0,) * (n - 1)),
        mono(n, (-1,) + tail, 2.0 + 1.0j),
        mono(n, (3,) + tuple(-e for e in tail), -0.3j),
        mono(n, (0,) * n, 1.5),
    ]
    return FunctionFamily(n, (lead, *members))


class TestPolarRatios:
    DOMAINS = [
        "disc",
        "polydisc(2;0.5,2)",
        "ball(2)",
        "hartogs(3)",
        "fk_ball_prime(3)",
        "product(ball(2),hartogs(3))",
        "product(fk_ball_prime(3),polydisc(2;1,1))",
    ]

    @pytest.mark.parametrize("spec", DOMAINS)
    @pytest.mark.parametrize("kind", ["coordinates", "mixed"])
    def test_agrees_with_cartesian_ratios(self, spec, kind):
        D = make_catalog_domain(spec)
        n = D.dimension
        family, p = (FunctionFamily.coordinates(n), 2.0) if kind == "coordinates" else (_mixed_family(n), 1.5)
        t = tuple(p * e for e in family.lead.single_term()[0])
        r, theta = sample_polar_weighted(D, t, substream(0, TAG_PUSHFORWARD, 0), 8192)
        pts = sample_radial_weighted(D, t, substream(0, TAG_PUSHFORWARD, 0), 8192)
        vals, good = isometry._PolarRatios.of(family)(r, theta)
        want, want_good, _ = ratio_matrix(family.values(pts))
        assert good.all() and want_good.all()
        assert np.max(np.abs(vals - want) / np.abs(want)) <= 1e-13

    def test_only_monomial_families(self, disc):
        z = LaurentPolynomial.coordinate(1, 0)
        assert isometry._PolarRatios.of(FunctionFamily(1, (LaurentPolynomial.one(1), z + 1.0))) is None
        T = mobius_operator(0.3, 1.0)
        assert isometry._PolarRatios.of(T.apply_family(FunctionFamily.coordinates(1))) is None

    def test_zero_modulus_rows_masked_with_finite_values(self, polydisc2):
        # the family uses axis 0 only: a zero modulus there masks its row, one
        # on the unused axis 1 does not
        family = FunctionFamily(2, (LaurentPolynomial.one(2), LaurentPolynomial.monomial(2, (-1, 0), 1j)))
        r = np.array([[0.5, 0.5], [0.0, 0.5], [0.5, 0.0], [0.0, 0.0]])
        theta = np.full((4, 2), 0.25)
        vals, good = isometry._PolarRatios.of(family)(r.copy(), theta)
        assert good.tolist() == [True, False, True, False]
        assert np.all(np.isfinite(vals))
        want = 1j / (0.5 * np.exp(0.25j))
        assert abs(vals[0, 0] - want) <= 1e-15 and abs(vals[2, 0] - want) <= 1e-15

    def test_zero_modulus_draw_drops_out_of_the_mass(self, monkeypatch, polydisc2):
        # a zero first modulus would make z_1^-1 a pole and, through 0 * log 0
        # in the column of z_2, NaN; the draw is masked instead
        mono = LaurentPolynomial.monomial
        family = FunctionFamily(2, (LaurentPolynomial.one(2), mono(2, (-1, 0)), mono(2, (0, 1))))
        draw = isometry.sample_polar_weighted

        def with_zeros(*args):
            r, theta = draw(*args)
            r[:3, 0] = 0.0
            return r, theta

        monkeypatch.setattr(isometry, "sample_polar_weighted", with_zeros)
        box = Box(lo=(-1.0 - 1.0j, -1.0 - 1.0j), hi=(1.0 + 1.0j, 1.0 + 1.0j))
        for region in (box, GaussianBump(), SigmoidProduct()):
            mass, sigma = _mass(polydisc2, family, region, 2.0, samples=100_000, seed=1)
            assert math.isfinite(mass) and math.isfinite(sigma)

    def test_chunks_do_not_evaluate_the_family(self, monkeypatch):
        # both sides of the counterexample are Laurent monomial families
        T = build_counterexample()
        family = FunctionFamily.coordinates(4)
        boxes = random_boxes(T, family, seed=0, count=3)
        calls = []
        values = FunctionFamily.values

        def counted(self, pts):
            calls.append(pts.shape[0])
            return values(self, pts)

        monkeypatch.setattr(FunctionFamily, "values", counted)
        equimeasure_check(T, family, boxes=boxes, samples=100_000, seed=0)
        assert calls == []

    def test_counterexample_report_bytes_independent_of_threads(self):
        T = build_counterexample()
        family = FunctionFamily.coordinates(4)
        reports = [
            json.dumps(equimeasure_check(T, family, samples=150_000, seed=5, threads=t).to_json_obj(), sort_keys=True)
            for t in (1, 2)
        ]
        assert reports[0] == reports[1]


class TestFunctionFamily:
    def test_coordinates(self, polydisc2):
        family = FunctionFamily.coordinates(2)
        assert family.ratio_count == 2
        assert family.lead == LaurentPolynomial.one(2)

    def test_validation(self):
        with pytest.raises(ConfigError):
            FunctionFamily(dimension=1, members=())
        with pytest.raises(ConfigError):
            FunctionFamily(dimension=1, members=(LaurentPolynomial.zero(1),))
        with pytest.raises(ConfigError):
            FunctionFamily(dimension=2, members=(LaurentPolynomial.one(1),))


class TestEquimeasure:
    def test_identity_is_exactly_equal(self, disc):
        T = identity_operator(disc, 2.0)
        family = FunctionFamily.coordinates(1)
        rep = equimeasure_check(T, family, samples=100_000, seed=0)
        assert rep.passed
        assert all(r.difference == 0.0 for r in rep.regions)

    def test_weight_mutation_fails(self, disc):
        T = CompositionIsometry(
            source=disc,
            target=disc,
            mapping=MonomialMap.identity(1),
            weight=LaurentPolynomial.coordinate(1, 0),
            p=2.0,
            validate=False,
        )
        family = FunctionFamily.coordinates(1)
        rep = equimeasure_check(T, family, samples=100_000, seed=0)
        assert not rep.passed
        assert any(not r.passed for r in rep.regions)
        assert rep.max_sigma_ratio > 3.0

    def test_box_dimension_guard(self, disc):
        T = identity_operator(disc, 2.0)
        family = FunctionFamily.coordinates(1)
        bad = Box(lo=(0.0, 0.0), hi=(0.5, 0.5))
        with pytest.raises(ConfigError):
            equimeasure_check(T, family, boxes=[bad], samples=100_000)

    def test_report_bytes_independent_of_threads(self):
        # source lead 1 is weighted, target lead T(1) is the Moebius weight,
        # sampled by rejection
        T = mobius_operator(0.3, 1.0)
        family = FunctionFamily.coordinates(1)
        reports = [
            json.dumps(equimeasure_check(T, family, samples=100_000, seed=2, threads=t).to_json_obj(), sort_keys=True)
            for t in (1, 3)
        ]
        assert reports[0] == reports[1]

    def test_divergent_lead_warning_names_caller(self):
        # T(1) = z1^-3 z3^3 has a divergent 3-norm on the target, whose
        # pushforward then falls back to rejection sampling
        T = build_counterexample(mutate="wrong-weight-exponent")
        with pytest.warns(PoleProximityWarning) as rec:
            equimeasure_check(T, FunctionFamily.coordinates(4), samples=20_000, seed=0)
        assert [w.filename for w in rec] == [__file__]

    def test_report_json_shape(self, disc):
        T = identity_operator(disc, 2.0)
        family = FunctionFamily.coordinates(1)
        rep = equimeasure_check(T, family, samples=100_000, seed=0)
        obj = rep.to_json_obj()
        assert obj["verdict"] == "PASS"
        assert obj["samples"] == 100_000
        assert {"label", "difference", "passed"} <= set(obj["regions"][0])
