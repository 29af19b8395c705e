import hashlib
import json
import math
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from conftest import assert_rel
from pbergman import (
    CheckResult,
    CompositionIsometry,
    ConfigError,
    EquimeasureReport,
    FunctionFamily,
    LaurentPolynomial,
    LinearMap,
    MonomialMap,
    RegionComparison,
    Report,
    battery_monomials,
    build_counterexample,
    closed_norm,
    counterexample_scenario,
    identity_operator,
    make_catalog_domain,
    mobius_operator,
    mutated,
    punctured_disc_scenario,
    roundtrip_scenario,
    run_named_scenario,
    sample,
)
from pbergman import scenarios
from pbergman.scenarios import CHECKS, OPERATORS, SCENARIOS, operator_from_spec

ROOT = Path(__file__).resolve().parents[1]

COUNTEREXAMPLE_CHECKS = {
    "isometry-battery",
    "worked-instance",
    "inverse-jacobian-formula",
    "weight-branch-modulus",
    "null-set-identification",
    "boundary-blowdown",
    "closure-probe-source",
    "closure-probe-target",
    "automorphism-dimensions",
    "equimeasurability",
    "reconstruction",
}


class TestBuildCounterexample:
    def test_defaults(self):
        T = build_counterexample()
        assert T.p == 3.0
        assert T.source.label == "product(ball(2),hartogs(3))"
        assert T.target.label == "product(fk_ball_prime(3),polydisc(2;1,1))"
        assert T.weight == LaurentPolynomial.monomial(4, (-2, 0, 2, 0))

    def test_even_p_rejected(self):
        with pytest.raises(ConfigError, match="even"):
            build_counterexample(k=1, m=1)
        with pytest.raises(ConfigError, match="even"):
            build_counterexample(k=4, m=2)

    def test_parameter_validation(self):
        with pytest.raises(ConfigError):
            build_counterexample(k=0, m=1)
        with pytest.raises(ConfigError):
            build_counterexample(k=3, m=0)
        with pytest.raises(ConfigError):
            build_counterexample(mutate="gibberish")

    def test_mutants_change_weight(self):
        dropped = build_counterexample(mutate="drop-weight")
        assert dropped.weight == LaurentPolynomial.one(4)
        wrong = build_counterexample(mutate="wrong-weight-exponent")
        assert wrong.weight == LaurentPolynomial.monomial(4, (-3, 0, 3, 0))

    def test_worked_instance_value(self):
        T = build_counterexample()
        phi = LaurentPolynomial.monomial(4, (2, 0, 0, 0))
        want = (math.pi**4 / 80.0) ** (1.0 / 3.0)
        assert_rel(closed_norm(T.source, phi, 3.0).value, want, 1e-12)
        assert_rel(closed_norm(T.target, T.apply(phi), 3.0).value, want, 1e-12)


CUSTOM_SPEC = {
    "kind": "custom",
    "source": "disc(1)",
    "target": "disc(1)",
    "exponents": [[1]],
    "weight": [{"exp": [0], "re": 1.0}],
    "p": 2.0,
}


def _rotation():
    c, s = math.cos(0.7), math.sin(0.7)
    D = make_catalog_domain(("ball", 2))
    return CompositionIsometry(D, D, LinearMap(((c, -s), (s, c))), LaurentPolynomial.one(2), 2.0, label="unitary-rotation")


# per operator kind: its spec with only the required keys, its label, and the
# same operator built directly, without the table
REFERENCE_OPERATORS = {
    "counterexample": (
        "counterexample",
        "counterexample(k=3,m=2)",
        lambda: CompositionIsometry(
            make_catalog_domain(("product", ("ball", 2), ("hartogs", 3))),
            make_catalog_domain(("product", ("fk_ball_prime", 3), ("polydisc", 2, (1.0, 1.0)))),
            MonomialMap(((1, 0, 0, 0), (-3, 1, 0, 0), (0, 0, 1, 0), (0, 0, 3, 1))),
            LaurentPolynomial.monomial(4, (-2, 0, 2, 0)),
            3.0,
            label="counterexample(k=3,m=2)",
        ),
    ),
    "identity": ("identity", "identity", lambda: identity_operator(make_catalog_domain(("disc", 1.0)), 2.0)),
    "mobius": ("mobius", "mobius((0.3+0j),)", lambda: mobius_operator(complex(0.3), 1.0)),
    "unitary": ("unitary", "unitary-rotation", _rotation),
    "custom": (
        CUSTOM_SPEC,
        "custom",
        lambda: CompositionIsometry(
            make_catalog_domain("disc(1)"), make_catalog_domain("disc(1)"), MonomialMap([[1]]), LaurentPolynomial.one(1), 2.0, label="custom"
        ),
    ),
}


class TestOperatorSpecs:
    @pytest.mark.parametrize("kind", list(OPERATORS))
    def test_table_defaults_build_the_reference_operator(self, kind):
        spec, label, reference = REFERENCE_OPERATORS[kind]
        T, ref = operator_from_spec(spec), reference()
        assert (T.label, ref.label) == (label, label)
        assert (T.p, T.lam, T.laurent_data) == (ref.p, ref.lam, ref.laurent_data)
        family = FunctionFamily.coordinates(T.source.dimension)
        pts = sample(T.target, 0, 16).points
        assert np.array_equal(T.apply_family(family).values(pts), ref.apply_family(family).values(pts))

    def test_tuple_forms_map_by_position(self):
        assert operator_from_spec(("counterexample", 5, 2)).label == "counterexample(k=5,m=2)"
        T = operator_from_spec(("mobius", 0.5, 3))
        assert (T.label, T.p) == ("mobius((0.5+0j),)", 3.0)
        assert operator_from_spec(("identity", "ball(2)")).source.label == "ball(2)"

    @pytest.mark.parametrize(
        "spec",
        [
            {"kind": "identity", "P": 3},
            {"kind": "custom", "source": "disc(1)"},
            {"kind": "spiral"},
            {"p": 2.0},
            ("counterexample", 3, 2, 1.0, "extra"),
            ["identity"],
            5,
            {"kind": "counterexample", "mutate": "drop-weight"},
        ],
        ids=repr,
    )
    def test_malformed_spec_refused(self, spec):
        with pytest.raises(ConfigError):
            operator_from_spec(spec)


class TestMutated:
    def test_none_is_the_operator(self):
        T = build_counterexample()
        assert mutated(T, None) is T

    def test_drop_weight_on_a_pointwise_weight(self):
        T = mutated(operator_from_spec("mobius"), "drop-weight")
        assert T.weight == LaurentPolynomial.one(1)
        assert T.label == "mobius((0.3+0j),)[drop-weight]"

    def test_wrong_exponent_steps_away_from_zero(self):
        spec = {**CUSTOM_SPEC, "source": "polydisc(2)", "target": "polydisc(2)", "exponents": [[1, 0], [0, 1]]}
        T = operator_from_spec({**spec, "weight": [{"exp": [1, -2], "re": 0.0, "im": 1.0}], "validate": False})
        assert mutated(T, "wrong-weight-exponent").weight == LaurentPolynomial.monomial(2, (2, -3), 1j)

    @pytest.mark.parametrize(
        "spec,name,match",
        [
            ("identity", "drop-weight", "already 1"),
            ("identity", "wrong-weight-exponent", "unchanged"),
            ("mobius", "wrong-weight-exponent", "Laurent-monomial"),
            ("counterexample", "shrunken-domain", "unknown mutation"),
        ],
    )
    def test_refusals(self, spec, name, match):
        with pytest.raises(ConfigError, match=match):
            mutated(operator_from_spec(spec), name)


class TestBattery:
    def test_deterministic_and_distinct(self):
        T = build_counterexample()
        a = battery_monomials(T, 12, seed=3)
        b = battery_monomials(T, 12, seed=3)
        assert [f.single_term()[0] for f in a] == [f.single_term()[0] for f in b]
        assert len({f.single_term()[0] for f in a}) == 12

    def test_admissible_on_both_sides(self):
        T = build_counterexample()
        for phi in battery_monomials(T, 10, seed=0):
            closed_norm(T.source, phi, T.p)
            closed_norm(T.target, T.apply(phi), T.p)


class TestCounterexampleScenario:
    def test_passes(self):
        rep = counterexample_scenario(samples=100_000)
        assert {c.name for c in rep.checks} == COUNTEREXAMPLE_CHECKS
        failed = [c.name for c in rep.checks if not c.passed]
        assert failed == []
        assert rep.passed
        assert rep.metadata["k"] == 3
        assert rep.metadata["p"] == 3.0

    def test_drop_weight_mutant_fails(self):
        rep = counterexample_scenario(samples=100_000, mutate="drop-weight")
        assert not rep.passed
        by_name = {c.name: c for c in rep.checks}
        assert not by_name["isometry-battery"].passed
        assert not by_name["null-set-identification"].passed
        assert not by_name["equimeasurability"].passed
        assert not by_name["reconstruction"].passed

    def test_wrong_exponent_mutant_fails(self):
        rep = counterexample_scenario(samples=100_000, mutate="wrong-weight-exponent")
        assert not rep.passed
        by_name = {c.name: c for c in rep.checks}
        assert not by_name["isometry-battery"].passed


class TestPuncturedDiscScenario:
    def test_p2_passes(self):
        rep = punctured_disc_scenario(2.0)
        assert rep.passed
        by_name = {c.name: c for c in rep.checks}
        assert by_name["restriction-isometry"].observed == 0.0
        assert by_name["puncture-closure-witness"].passed

    def test_p1_passes(self):
        rep = punctured_disc_scenario(1.0)
        assert rep.passed
        by_name = {c.name: c for c in rep.checks}
        assert by_name["laurent-norm"].expected == 2.0 * math.pi
        assert by_name["kernel-lower-bounds"].passed

    def test_other_p_rejected(self):
        with pytest.raises(ConfigError):
            punctured_disc_scenario(3.0)

    def test_shrunken_domain_mutant_fails(self):
        rep = punctured_disc_scenario(2.0, mutate="shrunken-domain")
        assert not rep.passed
        by_name = {c.name: c for c in rep.checks}
        assert not by_name["restriction-isometry"].passed


class TestRoundtrips:
    @pytest.mark.parametrize(
        "spec,p",
        [("identity", 2.0), (("mobius", 0.3), 1.0), ("unitary", 2.0)],
    )
    def test_known_maps_pass(self, spec, p):
        rep = roundtrip_scenario(spec, p=p)
        assert rep.passed
        names = [c.name for c in rep.checks]
        assert names == ["reconstruction-residuals", "ratio-constancy", "unimodular-constant"]

    def test_counterexample_roundtrip_passes(self):
        rep = roundtrip_scenario(("counterexample", 3, 2))
        assert rep.passed

    def test_counterexample_roundtrip_unimodular_on_seed_1(self):
        # a 1e-9 solve left |lambda| at 0.99999999977 here, outside the 1e-10 check
        rep = roundtrip_scenario(("counterexample", 3, 2), seed=1)
        by_name = {c.name: c for c in rep.checks}
        assert rep.passed
        assert abs(by_name["unimodular-constant"].observed - 1.0) < 1e-10
        assert by_name["ratio-constancy"].observed < 1e-12

    def test_drop_weight_mutant_fails(self):
        rep = roundtrip_scenario(("mobius", 0.3), p=1.0, mutate="drop-weight")
        assert not rep.passed
        by_name = {c.name: c for c in rep.checks}
        assert not by_name["ratio-constancy"].passed

    @pytest.mark.parametrize("mutation", ["drop-weight", "wrong-weight-exponent"])
    def test_counterexample_mutant_fails_where_it_cannot_be_inverted(self, mutation):
        rep = run_named_scenario("roundtrip-counterexample", mutate=mutation)
        assert not rep.passed
        [check] = rep.checks
        assert check.name == "reconstruction-residuals" and not check.passed
        assert check.observed == "reconstruction failed: weight correction is not constant; weight is invalid"

    @pytest.mark.parametrize("spec", ["identity", "unitary"])
    def test_drop_weight_refused_when_weight_is_already_one(self, spec):
        # dropping a weight of 1 would test the true operator under a mutant's name
        with pytest.raises(ConfigError, match="already 1"):
            roundtrip_scenario(spec, mutate="drop-weight")

    def test_unknown_map_rejected(self):
        with pytest.raises(ConfigError):
            roundtrip_scenario("spiral")

    @pytest.mark.parametrize(
        "name,mutate",
        [("roundtrip-identity", None), ("roundtrip-mobius", None), ("roundtrip-unitary", None), ("roundtrip-counterexample", None), ("roundtrip-mobius", "drop-weight")],
    )
    def test_batched_ratios_match_the_per_point_loop(self, name, mutate, monkeypatch):
        def per_point(records, branch, tests, images):
            ratios = []
            for r in records:
                z = np.asarray(r.z, dtype=complex).reshape(1, -1)
                w = np.asarray(r.w, dtype=complex).reshape(1, -1)
                bz = complex(np.asarray(branch(z))[0])
                for phi, image in zip(tests, images):
                    pz = complex(np.asarray(phi(z))[0])
                    if abs(pz) < 1e-12:
                        continue
                    tw = complex(np.asarray(image(w))[0])
                    ratios.append(tw * bz / pz)
            return np.asarray(ratios)

        for seed in range(4):
            batched = json.dumps(run_named_scenario(name, seed=seed, mutate=mutate).to_json_obj(), sort_keys=True)
            with monkeypatch.context() as m:
                m.setattr(scenarios, "_transport_ratios", per_point)
                oracle = json.dumps(run_named_scenario(name, seed=seed, mutate=mutate).to_json_obj(), sort_keys=True)
            assert batched == oracle, (name, seed)

    @pytest.mark.parametrize(
        "spec,p", [("custom", None), (("counterexample", 3, 2), 3.0), (("identity", "ball(2)"), None), ({"kind": "mobius", "a": [0.3, 0.2]}, None)]
    )
    def test_kind_without_round_trip_or_key_rejected(self, spec, p):
        with pytest.raises(ConfigError):
            roundtrip_scenario(spec, p=p)


# sha256 of the sorted-key report JSON of seed-0 runs, as (name, parameters,
# mutation, digest): a change to any check's text, value or order shows here
PINNED_REPORTS = [
    ("counterexample", {"samples": 20_000}, None, "879f9f996f70c43cd0e08930465578548809ef10db36430ac70599fe9b81ad2e"),
    ("counterexample", {"samples": 20_000}, "drop-weight", "ef62bc62f4634851bb5cbbcc4de3f23a33d03c7d45bce33e8e7d3e4909b6ef49"),
    ("counterexample", {"samples": 20_000}, "wrong-weight-exponent", "0d9df069ce5b02f92feb624db2e93603985b53d289951e5c46406693e073dccd"),
    ("punctured-disc", {"p": 1.0}, None, "e2b8a69617e4a46e52068dc580802e39c4f889fec14701b7bb535a719b33140d"),
    ("punctured-disc", {"p": 2.0}, None, "d13794b9194185d1bcc28d16cf8949564a3895e6e6a2160420c34c4d719db0fe"),
    ("punctured-disc", {"p": 2.0}, "shrunken-domain", "fd3fce433a97982321e49e4fead6aae18af3cad3498c13fb5fa994b10c7a4405"),
    ("roundtrip-identity", {}, None, "65979f756101af53f5979c077a73bf66b8e30d146894b88e3a9043fd77cc8346"),
    ("roundtrip-mobius", {}, None, "195da16da7513eed52d5dbfc5ed2bed93611c1ae76ecde060eb2166ea065d58d"),
    ("roundtrip-unitary", {}, None, "17f4c681ce7384dc459be269d38a3cefb4002dcfbf8ffd94129f1ad816f9f8fe"),
    ("roundtrip-counterexample", {}, None, "5561ec880ab976c42dd60fd52887f2b0d84b24d0728f2feecbfc63482a438fc1"),
    ("roundtrip-mobius", {}, "drop-weight", "daa2174c74576b3324495e968f2950c295bcad3b905ae5a02fb80ccb770180d6"),
    ("roundtrip-counterexample", {}, "drop-weight", "4cc0a08a83ec550d2bf4c58b9be8812026ac8e06440d7567508121649604d4c7"),
    ("roundtrip-counterexample", {}, "wrong-weight-exponent", "59774995f08630771b41aafa92820e60933eae331d3db8716f68a7c324c9ae02"),
]


class TestPinnedReports:
    @pytest.mark.parametrize("name,params,mutate,digest", PINNED_REPORTS)
    def test_report_bytes(self, name, params, mutate, digest):
        rep = run_named_scenario(name, seed=0, mutate=mutate, **params)
        text = json.dumps(rep.to_json_obj(), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest
        names = [c.name for c in rep.checks]
        assert names == sorted(names, key=list(CHECKS).index)  # report order is table order


class TestReportPlumbing:
    def test_check_result_verdict(self):
        good = CheckResult(name="a", claim="c", expected=1, observed=1, tolerance=0, verdict="PASS")
        bad = CheckResult(name="b", claim="c", expected=1, observed=2, tolerance=0, verdict="FAIL")
        assert good.passed and not bad.passed
        rep = Report(label="demo", checks=(good, bad))
        assert not rep.passed
        obj = rep.to_json_obj()
        assert obj["pass"] is False
        assert [c["name"] for c in obj["checks"]] == ["a", "b"]

    def test_summary_lines(self):
        rep = punctured_disc_scenario(2.0)
        lines = rep.summary_lines()
        assert lines[0].startswith("report:")
        assert lines[-1] == "overall: PASS"
        assert any("[PASS]" in ln for ln in lines[1:-1])


class TestRunNamed:
    def test_dispatch(self):
        rep = run_named_scenario("punctured-disc", p=2.0)
        assert rep.label.startswith("punctured-disc")
        rep = run_named_scenario("roundtrip-identity")
        assert rep.passed

    def test_unknown_name(self):
        with pytest.raises(ConfigError):
            run_named_scenario("nonsense")

    @pytest.mark.parametrize(
        "name,given", [("roundtrip-counterexample", {"p": 3.0}), ("punctured-disc", {"samples": 10}), ("roundtrip-identity", {"a": 0.5})]
    )
    def test_parameter_not_taken_refused(self, name, given):
        with pytest.raises(ConfigError, match=re.escape(f"{name}(")):
            run_named_scenario(name, **given)


class TestDocsInSync:
    def test_formats_operator_table_lists_every_kind_and_key(self):
        doc = (ROOT / "docs" / "formats.md").read_text()
        section = re.search(r"^## Operator specs\n(.*?)^## ", doc, re.S | re.M).group(1)
        rows = re.findall(r"^\| `(\w+)`\s*\|[^|]*\|([^|]*)\|", section, re.M)
        assert [kind for kind, _ in rows] == list(OPERATORS)
        for kind, keys in rows:
            assert re.findall(r"`(\w+)`", keys) == list(OPERATORS[kind])

    def test_formats_check_table_lists_every_check_in_order(self):
        doc = (ROOT / "docs" / "formats.md").read_text()
        section = re.search(r"^## `pbergman scenario run.*?\n(.*?)^## ", doc, re.S | re.M).group(1)
        rows = re.findall(r"^\| `([a-z-]+)`\s*\|([^|]*)\|", section, re.M)
        checks = [(name, where) for name, where in rows if name not in SCENARIOS]
        assert [name for name, _ in checks] == list(CHECKS)
        assert [name for name, where in checks if "cited" in where] == ["automorphism-dimensions"]

    def test_formats_region_comparison_fields(self):
        doc = (ROOT / "docs" / "formats.md").read_text()
        listed = re.search(r"Each entry of `boxes` is a region comparison:(.*?)\.\n", doc, re.S).group(1)
        assert re.findall(r"`(\w+)`", listed) == [f.name for f in fields(RegionComparison)]

    def test_formats_equimeasure_fields(self):
        doc = (ROOT / "docs" / "formats.md").read_text()
        section = re.search(r"^## `pbergman equimeasure`\n(.*?)^## ", doc, re.S | re.M).group(1)
        assert re.findall(r"`(\w+)`", section) == [f.name for f in fields(EquimeasureReport)]

    def test_formats_report_example_keys(self):
        doc = (ROOT / "docs" / "formats.md").read_text()
        example = re.search(r"^Report JSON:\n\n```json\n(.*?)^```", doc, re.S | re.M).group(1)
        check = re.search(r"\{\"name\".*?\}", example, re.S).group(0)
        assert re.findall(r'"(\w+)":', check) == [f.name for f in fields(CheckResult)]
        top = re.findall(r'^  "(\w+)":', example, re.M)
        assert sorted(top) == sorted([f.name for f in fields(Report)] + ["pass"])

    def test_readme_lists_every_scenario(self):
        readme = (ROOT / "README.md").read_text()
        line = re.search(r"Scenario names: (.*?)\.\n", readme, re.S).group(1)
        assert re.findall(r"`([\w-]+)`", line) == list(SCENARIOS)
