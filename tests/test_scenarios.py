import math

import pytest

from conftest import assert_rel
from pbergman import (
    CheckResult,
    ConfigError,
    LaurentPolynomial,
    Report,
    battery_monomials,
    build_counterexample,
    closed_norm,
    counterexample_scenario,
    punctured_disc_scenario,
    roundtrip_scenario,
    run_named_scenario,
)

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

    def test_unknown_map_rejected(self):
        with pytest.raises(ConfigError):
            roundtrip_scenario("spiral")


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
