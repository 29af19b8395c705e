"""The rules for outside input, one table each: the shapes of points
(`functions._as_points`, and `_as_point` for entries that take exactly one),
seeds (`_rng.as_seed`), the exponent p (`functions.as_p`) and the degree of
`degree_basis`."""

import json
import math
import re

import numpy as np
import pytest

from pbergman import (
    AnalyticFunction,
    ConfigError,
    FunctionFamily,
    LaurentPolynomial,
    LinearMap,
    MobiusFactors,
    MonomialMap,
    OptimizerConfig,
    SolverConfig,
    bergman2_gram,
    boundary_distance,
    build_ratio_maps,
    closed_norm,
    degree_basis,
    fd_jacobian_det,
    identity_operator,
    make_catalog_domain,
    mc_norm,
    mc_norm_batch,
    pbergman_min_norm,
    quadrature_norm,
    reconstruct_map,
    run_named_scenario,
    sample,
    solve_point,
    verify_modulus_identity,
)
from pbergman._rng import substream
from pbergman.scenarios import SCENARIOS

DISC = make_catalog_domain("disc")
BALL2 = make_catalog_domain(("ball", 2))


# -- points -------------------------------------------------------------------


def _rows(parts):
    return [v for part in parts for v in _flat(part)]


def _batch_entries(D):
    """Every public entry that takes a batch of points on D, as
    (name, call, combine): `combine` folds the results of one-row calls into
    the flat result of the whole batch."""
    n = D.dimension
    T = identity_operator(D, 2.0)
    mobius = MobiusFactors((0.3,) * n)
    linear = LinearMap(((0.5,),) if n == 1 else ((0.6, -0.8), (0.8, 0.6)))
    return [
        ("LaurentPolynomial", LaurentPolynomial.monomial(n, (2,) + (1,) * (n - 1)), _rows),
        ("MonomialMap", MonomialMap.identity(n), _rows),
        ("MonomialMap.jacobian_det", MonomialMap.identity(n).jacobian_det, _rows),
        ("MobiusFactors", mobius, _rows),
        ("MobiusFactors.jacobian_det", mobius.jacobian_det, _rows),
        ("LinearMap", linear, _rows),
        ("LinearMap.jacobian_det", linear.jacobian_det, _rows),
        ("AnalyticFunction", AnalyticFunction(n, lambda pts: 2.0 * pts[:, 0]), _rows),
        ("fd_jacobian_det", lambda x: fd_jacobian_det(mobius, x), _rows),
        ("BoundedDomain.contains", D.contains, _rows),
        ("RatioMaps.target_ratios", build_ratio_maps(T, FunctionFamily.coordinates(n)).target_ratios, _rows),
        (
            "reconstruct_map",
            lambda x: reconstruct_map(T, FunctionFamily.coordinates(n), x, SolverConfig(starts=2)),
            lambda parts: sum(map(_flat, parts), ()),
        ),
        (
            "verify_modulus_identity",
            lambda x: verify_modulus_identity(T, mobius, x, [LaurentPolynomial.monomial(n, (1,) * n)]),
            max,
        ),
    ]


def _one_point_entries(D):
    """Every public entry that takes exactly one point on D, as (name, call)."""
    maps = build_ratio_maps(identity_operator(D, 2.0), FunctionFamily.coordinates(D.dimension))
    basis1, basis2 = degree_basis(D, 2, 1.0), degree_basis(D, 2, 2.0)
    return [
        ("pbergman_min_norm", lambda z: pbergman_min_norm(D, basis1, z)),
        ("bergman2_gram", lambda z: bergman2_gram(D, basis2, z)),
        ("solve_point", lambda z: solve_point(maps, z, SolverConfig(starts=2))),
        ("boundary_distance", lambda z: boundary_distance(D, z)),
    ]


def _flat(result):
    """A result as comparable Python values."""
    if hasattr(result, "records"):
        return tuple((r.z, r.status, r.w) for r in result.records)
    if hasattr(result, "to_json_obj"):
        return json.dumps(result.to_json_obj(), sort_keys=True)
    if isinstance(result, float):
        return result
    return np.asarray(result).reshape(-1).tolist()


def _one_point_spellings(pts):
    """The accepted spellings of the first row of an (m, n) batch: (n,) and
    (1, n), and a scalar when n = 1."""
    spellings = {"(n,)": pts[0], "(1, n)": pts[:1]}
    if pts.shape[1] == 1:
        spellings["scalar"] = pts[0, 0]
    return spellings


def _batch_cases():
    for D in (DISC, BALL2):
        for name, call, combine in _batch_entries(D):
            yield pytest.param(D, call, combine, id=f"{D.label}-{name}")


def _one_point_cases():
    for D in (DISC, BALL2):
        for name, call in _one_point_entries(D):
            yield pytest.param(D, call, id=f"{D.label}-{name}")


class TestPointShapes:
    @pytest.mark.parametrize("D, call, combine", list(_batch_cases()))
    def test_batch_entries_accept_every_shape(self, D, call, combine):
        pts = sample(D, 0, 3).points
        one = _flat(call(pts[:1]))
        for spelling, x in _one_point_spellings(pts).items():
            assert _flat(call(x)) == one, spelling
        assert _flat(call(pts)) == combine([call(pts[i : i + 1]) for i in range(len(pts))])

    @pytest.mark.parametrize("D, call", list(_one_point_cases()))
    def test_one_point_entries_accept_one_point_only(self, D, call):
        pts = sample(D, 0, 2).points
        one = _flat(call(pts[:1]))
        for spelling, x in _one_point_spellings(pts).items():
            assert _flat(call(x)) == one, spelling
        with pytest.raises(ConfigError, match=r"^expected one point, got 2$"):
            call(pts)

    @pytest.mark.parametrize(
        "call",
        [
            lambda z: reconstruct_map(identity_operator(DISC, 2.0), FunctionFamily.coordinates(1), z),
            lambda z: verify_modulus_identity(
                identity_operator(DISC, 2.0), MonomialMap.identity(1), z, [LaurentPolynomial.monomial(1, (1,))]
            ),
        ],
        ids=["reconstruct_map", "verify_modulus_identity"],
    )
    def test_scalar_disc_point_is_one_point(self, call):
        # a scalar used to reach `points.shape[1]` and raise IndexError
        assert _flat(call(0.3 + 0.1j)) == _flat(call(np.array([[0.3 + 0.1j]])))

    @pytest.mark.parametrize(
        "z, message",
        [
            (np.array([[0.3], [0.4]]), r"^expected points of shape \(m, 2\), got \(2, 1\)$"),
            (np.array([[0.3, 0.1], [0.2, 0.1]]), r"^expected one point, got 2$"),
            (np.array([0.3, 0.1, 0.2]), r"^point of length 3 for dimension 2$"),
            (0.3, r"^scalar point given for dimension 2$"),
        ],
        ids=["column", "two-rows", "long", "scalar"],
    )
    def test_kernel_refuses_what_is_not_one_point(self, z, message):
        # the column was flattened into the point (0.3, 0.4) and solved
        with pytest.raises(ConfigError, match=message):
            pbergman_min_norm(BALL2, degree_basis(BALL2, 2, 1.0), z)

    def test_boundary_distance_refuses_a_batch(self):
        # it used to answer for the first row alone
        with pytest.raises(ConfigError, match=r"^expected one point, got 2$"):
            boundary_distance(BALL2, np.array([[0.3, 0.1], [0.0, 0.9]]))

    @pytest.mark.parametrize(
        "pts", [np.zeros((2, 3)), np.zeros((2, 1)), np.zeros((1, 2, 2)), np.zeros(3)], ids=["wide", "narrow", "3d", "long"]
    )
    def test_malformed_batches_refused(self, pts):
        with pytest.raises(ConfigError):
            BALL2.contains(pts)
        with pytest.raises(ConfigError):
            reconstruct_map(identity_operator(BALL2, 2.0), FunctionFamily.coordinates(2), pts)


# -- seeds --------------------------------------------------------------------

# each was truncated to another seed's stream: roundtrip-identity at 0.9
# returned seed 0's report byte for byte
REFUSED_SEEDS = [0.9, 1.5, True, "1"]


def _seeded_entries():
    """Every public entry that takes a seed, as (name, call on a seed)."""
    basis = degree_basis(DISC, 2, 1.0)
    T = identity_operator(DISC, 2.0)
    maps = build_ratio_maps(T, FunctionFamily.coordinates(1))
    entries = [
        ("substream", lambda s: substream(s, 1).random(4).tolist()),
        ("OptimizerConfig", lambda s: pbergman_min_norm(DISC, basis, 0.5, OptimizerConfig(seed=s))),
        ("SolverConfig-solve_point", lambda s: solve_point(maps, 0.3, SolverConfig(seed=s, starts=2))),
        (
            "SolverConfig-reconstruct_map",
            lambda s: reconstruct_map(T, FunctionFamily.coordinates(1), [0.3, 0.1j], SolverConfig(seed=s, starts=2)),
        ),
        ("mc_norm", lambda s: mc_norm(DISC, LaurentPolynomial.monomial(1, (1,)), 2.0, 2_000, s)),
        ("sample", lambda s: sample(DISC, s, 4).points.tolist()),
    ]
    for name in SCENARIOS:
        samples = {"samples": 1_000} if name == "counterexample" else {}
        entries.append((f"scenario-{name}", lambda s, name=name, samples=samples: run_named_scenario(name, seed=s, **samples)))
    return entries


SEEDED = _seeded_entries()
CHEAP_SEEDED = [(name, call) for name, call in SEEDED if name != "scenario-counterexample"]


class TestSeeds:
    @pytest.mark.parametrize("seed", REFUSED_SEEDS, ids=repr)
    @pytest.mark.parametrize("name, call", SEEDED, ids=[name for name, _ in SEEDED])
    def test_refused(self, name, call, seed):
        with pytest.raises(ConfigError, match=r"^seed must be an integer, got "):
            call(seed)

    @pytest.mark.parametrize("name, call", CHEAP_SEEDED, ids=[name for name, _ in CHEAP_SEEDED])
    def test_numpy_integer_is_that_integer(self, name, call):
        assert _flat(call(np.int64(3))) == _flat(call(3))


# -- p --------------------------------------------------------------------------

REFUSED_P = [0, -1, math.nan, math.inf, True]
_F = LaurentPolynomial.monomial(1, (1,))


P_ENTRIES = [
    ("closed_norm", lambda p: closed_norm(DISC, _F, p)),
    ("quadrature_norm", lambda p: quadrature_norm(DISC, _F, p)),
    ("mc_norm", lambda p: mc_norm(DISC, _F, p, 2_000, 0)),
    ("mc_norm_batch", lambda p: mc_norm_batch(DISC, [(_F, 2.0), (_F, p)], 2_000, 0)),
    ("degree_basis", lambda p: degree_basis(DISC, 2, p)),
    ("CompositionIsometry", lambda p: identity_operator(DISC, p)),
    ("MonomialMap.weight_branch", lambda p: MonomialMap.identity(1).weight_branch(p)),
    ("MobiusFactors.weight_branch", lambda p: MobiusFactors((0.3,)).weight_branch(p)),
    ("LinearMap.weight_branch", lambda p: LinearMap(((0.5,),)).weight_branch(p)),
]


class TestP:
    @pytest.mark.parametrize("p", REFUSED_P, ids=repr)
    @pytest.mark.parametrize("name, call", P_ENTRIES, ids=[name for name, _ in P_ENTRIES])
    def test_refused(self, name, call, p):
        # mc_norm used to raise ZeroDivisionError at p = 0 and return 0.037 at p = -1
        with pytest.raises(ConfigError, match=r"^p must be a finite real number above 0, got "):
            call(p)

    @pytest.mark.parametrize("name, call", P_ENTRIES[:4], ids=[name for name, _ in P_ENTRIES[:4]])
    def test_integer_and_numpy_p_are_that_float(self, name, call):
        want = _flat(call(2.0))
        assert _flat(call(2)) == want
        assert _flat(call(np.float64(2.0))) == want


# -- degree -----------------------------------------------------------------------

# 2.5 used to raise TypeError, True to give the degree-1 basis and -1 to report
# that no basis index is in A^1(disc(1))
REFUSED_DEGREES = [2.5, True, -1, np.int64(-2), "3", None]


class TestDegree:
    @pytest.mark.parametrize("degree", REFUSED_DEGREES, ids=repr)
    def test_refused(self, degree):
        with pytest.raises(ConfigError, match=rf"^degree must be an integer of at least 0, got {re.escape(repr(degree))}$"):
            degree_basis(DISC, degree, 1.0)

    def test_numpy_integer_is_that_integer(self):
        assert degree_basis(DISC, np.int64(3), 1.0) == degree_basis(DISC, 3, 1.0)
        assert degree_basis(DISC, 0, 1.0).indices == ((0,),)

    def test_command_line_exits_two(self, capsys):
        from pbergman.cli import main

        assert main(["kernel", "--domain", "disc", "--p", "1", "--z", "0.5,0", "--degree", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: degree must be an integer of at least 0, got -1\n"
