"""End-to-end command-line checks, run in process via ``main(argv)``."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import pbergman
from conftest import MALFORMED_DOMAIN_SPECS, assert_rel
from pbergman.cli import main


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_python_dash_m_runs_the_cli():
    # the README's first example, through `python -m pbergman` in a child process
    root = str(Path(pbergman.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))}
    argv = ["norm", "--domain", "disc", "--exp", "-1", "--p", "1", "--method", "closed"]
    out = subprocess.run([sys.executable, "-m", "pbergman", *argv], capture_output=True, text=True, env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    assert_rel(json.loads(out.stdout)["value"], 2.0 * math.pi, 1e-12)


class TestNorm:
    def test_divergence_borderline_monomial(self, capsys):
        # integral of |z|^{-1} over the unit disc is exactly 2*pi
        code, out, err = run_cli(
            capsys, ["norm", "--domain", "disc", "--exp", "-1", "--p", "1", "--method", "closed"]
        )
        assert code == 0
        assert err == ""
        obj = json.loads(out)
        assert_rel(obj["value"], 2.0 * math.pi, 1e-12)
        assert obj["std_error"] == 0.0
        assert obj["method"] == "closed"

    def test_warning_is_one_stderr_line(self, capsys):
        # 1/z has an infinite second moment at p = 1, so the MC estimate warns
        argv = ["norm", "--domain", "punctured_disc(1)", "--exp", "-1", "--p", "1", "--method", "mc"]
        code, out, err = run_cli(capsys, argv + ["--samples", "2000"])
        assert code == 0
        assert json.loads(out)["method"] == "mc"
        lines = err.splitlines()
        assert len(lines) == 1, err
        assert lines[0].startswith("warning: PoleProximityWarning: |f|^1.0 has divergent sample variance"), err

    def test_quadrature_matches_closed(self, capsys):
        argv = ["norm", "--domain", "ball(2)", "--exp", "1,2", "--p", "2"]
        code, out, _ = run_cli(capsys, argv + ["--method", "closed"])
        assert code == 0
        closed = json.loads(out)["value"]
        code, out, _ = run_cli(capsys, argv + ["--method", "quad"])
        assert code == 0
        assert_rel(json.loads(out)["value"], closed, 1e-9)

    def test_quadrature_on_product_domain(self, capsys):
        argv = ["norm", "--domain", "product(ball(2),hartogs(3))", "--exp", "1,0,2,1", "--p", "1.5"]
        code, out, _ = run_cli(capsys, argv + ["--method", "closed"])
        assert code == 0
        closed = json.loads(out)["value"]
        code, out, err = run_cli(capsys, argv + ["--method", "quad"])
        assert code == 0
        assert err == ""
        obj = json.loads(out)
        assert obj["method"] == "quad"
        assert_rel(obj["value"], closed, 1e-9)
        assert obj["std_error"] > 0.0

    def test_divergent_integral_is_reported_not_raised(self, capsys):
        code, out, err = run_cli(
            capsys,
            ["norm", "--domain", "punctured_disc(1)", "--exp", "-2", "--p", "1", "--method", "closed"],
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["value"] is None
        assert "divergent" in obj

    @pytest.mark.parametrize(
        "argv, tail",
        [
            (["--domain", "disc", "--exp", "-2", "--method", "closed"], "exponents (-2.0,)"),
            (["--domain", "ball(2)", "--exp", "-2 0", "--method", "quad"], "exponents (-2.0, 0.0)"),
        ],
        ids=["disc-closed", "ball-quad"],
    )
    def test_divergence_message_prints_plain_numbers(self, capsys, argv, tail):
        code, out, _ = run_cli(capsys, ["norm", "--p", "1", *argv])
        assert code == 0
        message = json.loads(out)["divergent"]
        assert message.endswith(tail) and "np." not in message, message

    def test_mc_same_seed_byte_identical(self, capsys):
        argv = [
            "norm", "--domain", "disc", "--exp", "1", "--p", "2",
            "--method", "mc", "--samples", "20000", "--seed", "7",
        ]
        code1, out1, _ = run_cli(capsys, argv)
        code2, out2, _ = run_cli(capsys, argv)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_mc_distinct_seeds_differ(self, capsys):
        argv = ["norm", "--domain", "disc", "--exp", "1", "--p", "2", "--method", "mc", "--samples", "20000"]
        _, out1, _ = run_cli(capsys, argv + ["--seed", "1"])
        _, out2, _ = run_cli(capsys, argv + ["--seed", "2"])
        assert out1 != out2

    @pytest.mark.parametrize(
        "argv",
        [
            ["norm", "--domain", "disc", "--exp", "1,2", "--p", "2"],  # arity mismatch
            ["norm", "--domain", "disc", "--exp", "one", "--p", "2"],
            ["norm", "--domain", "torus", "--exp", "1", "--p", "2"],
            ["norm", "--domain", "disc", "--exp", "1", "--p", "2", "--method", "magic"],
            ["norm", "--domain", "disc", "--p", "2"],  # missing --exp
        ],
    )
    def test_usage_errors_exit_two(self, capsys, argv):
        code, _, err = run_cli(capsys, argv)
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "spec", [s if isinstance(s, str) else json.dumps(s) for s in MALFORMED_DOMAIN_SPECS if not isinstance(s, tuple)]
    )
    def test_malformed_domain_exit_two(self, capsys, spec):
        code, out, err = run_cli(capsys, ["norm", "--domain", spec, "--exp", "1", "--p", "2"])
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "p, method",
        [("nan", "closed"), ("-1", "mc"), ("inf", "quad"), ("0", "mc")],
        ids=["nan-closed", "negative-mc", "inf-quad", "zero-mc"],
    )
    def test_bad_p_exits_two(self, capsys, p, method):
        # nan used to print NaN, which is not JSON, and p = -1 by Monte Carlo a value; both exited 0
        code, out, err = run_cli(capsys, ["norm", "--domain", "disc", "--exp", "2", "--p", p, "--method", method])
        assert code == 2
        assert out == ""
        assert err == f"error: p must be a finite real number above 0, got {float(p)!r}\n"


class TestKernel:
    def test_csv_header_and_center_value(self, capsys):
        code, out, _ = run_cli(
            capsys, ["kernel", "--domain", "disc", "--p", "2", "--z", "0,0", "--degree", "6"]
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "z,value,grad_norm,iterations"
        assert len(lines) == 2
        fields = lines[1].split(",")
        # point column is "re,im" so the row splits into 5 fields
        assert len(fields) == 5
        assert_rel(float(fields[2]), 1.0 / math.pi, 1e-6)
        assert int(fields[4]) >= 0

    def test_below_one_row(self, capsys):
        code, out, _ = run_cli(
            capsys, ["kernel", "--domain", "disc", "--p", "0.5", "--z", "0.5,0", "--degree", "6"]
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        # the bound reached by reweighted least squares from every start
        assert float(lines[1].split(",")[2]) >= 0.08313090979728027 * (1.0 - 1e-9)

    def test_multiple_points_one_row_each(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["kernel", "--domain", "disc", "--p", "2", "--z", "0,0;0.3,0", "--degree", "4"],
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 3

    def test_points_share_one_table_build(self, capsys, monkeypatch):
        from pbergman import kernel

        builds = []

        class Counting(kernel._GridTables):
            def __init__(self, *args):
                builds.append(args)
                super().__init__(*args)

        monkeypatch.setattr(kernel, "_GridTables", Counting)
        code, out, _ = run_cli(
            capsys,
            ["kernel", "--domain", "disc", "--p", "1", "--z", "0.1,0;0.5,0.2;0,-0.7", "--degree", "6"],
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 4
        assert len(builds) == 1

    def test_plot_data_file(self, capsys, tmp_path):
        target = tmp_path / "kernel.dat"
        code, _, _ = run_cli(
            capsys,
            ["kernel", "--domain", "disc", "--p", "2", "--z", "0.2,0.1", "--degree", "4",
             "--plot-data", str(target)],
        )
        assert code == 0
        text = target.read_text()
        lines = text.splitlines()
        assert lines[0].startswith("# re(z1) im(z1)")
        assert len(lines) == 2
        assert len(lines[1].split()) == 5
        assert text.endswith("\n")

    def test_points_csv_input_skips_header(self, capsys, tmp_path):
        src = tmp_path / "points.csv"
        src.write_text("z1_re,z1_im\n0.2,0.0\n0.0,0.3\n")
        code, out, _ = run_cli(
            capsys, ["kernel", "--domain", "disc", "--p", "2", "--path", str(src), "--degree", "4"]
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 3

    @pytest.mark.parametrize(
        "argv",
        [
            ["kernel", "--domain", "disc", "--p", "2"],  # neither --z nor --path
            ["kernel", "--domain", "disc", "--p", "2", "--z", "0,0,0"],
            ["kernel", "--domain", "ball(2)", "--p", "2", "--z", "0,0"],  # one coord, dim 2
        ],
    )
    def test_usage_errors_exit_two(self, capsys, argv):
        code, _, err = run_cli(capsys, argv)
        assert code == 2
        assert err.startswith("error:")

    def test_missing_points_file_exit_two(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            ["kernel", "--domain", "disc", "--p", "2", "--path", str(tmp_path / "nope.csv")],
        )
        assert code == 2
        assert err.startswith("error:")


class TestScenarioCommand:
    def test_even_exponent_configuration_rejected(self, capsys):
        code, _, err = run_cli(capsys, ["scenario", "run", "counterexample", "--k", "1", "--m", "1"])
        assert code == 2
        assert err.startswith("error:")

    def test_punctured_disc_passes(self, capsys):
        code, out, _ = run_cli(capsys, ["scenario", "run", "punctured-disc", "--p", "2"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("report:")
        assert lines[-1] == "overall: PASS"
        assert all(" [FAIL] " not in line for line in lines)

    def test_mutant_fails_with_exit_one(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["scenario", "run", "punctured-disc", "--p", "2", "--mutate", "shrunken-domain"],
        )
        assert code == 1
        assert out.strip().splitlines()[-1] == "overall: FAIL"

    @pytest.mark.parametrize("mutation", ["drop-weight", "wrong-weight-exponent"])
    def test_counterexample_roundtrip_mutant_fails_with_exit_one(self, capsys, mutation):
        # the pullback family cannot invert the mutant: a FAIL, not a usage error
        code, out, err = run_cli(capsys, ["scenario", "run", "roundtrip-counterexample", "--mutate", mutation])
        assert (code, err) == (1, "")
        assert "[FAIL] reconstruction-residuals" in out
        assert out.strip().splitlines()[-1] == "overall: FAIL"

    def test_unknown_name_exit_two(self, capsys):
        code, _, err = run_cli(capsys, ["scenario", "run", "no-such-thing"])
        assert code == 2
        assert err.startswith("error:")

    def test_out_file_and_report_roundtrip(self, capsys, tmp_path):
        # punctured-disc at p=1 observes a dict whose keys the saved file sorts
        for argv in (["roundtrip-identity"], ["punctured-disc", "--p", "2"], ["punctured-disc", "--p", "1"], ["roundtrip-mobius"]):
            path = tmp_path / "report.json"
            code, out_run, _ = run_cli(capsys, ["scenario", "run", *argv, "--out", str(path)])
            assert code == 0
            obj = json.loads(path.read_text())
            assert obj["pass"] is True
            assert obj["label"]

            code, out_json, _ = run_cli(capsys, ["report", str(path), "--format", "json"])
            assert code == 0
            assert json.loads(out_json) == obj

            code, out_text, _ = run_cli(capsys, ["report", str(path)])
            assert code == 0
            assert out_text.strip().splitlines() == out_run.strip().splitlines()

    def test_parameter_the_scenario_does_not_take_exit_two(self, capsys):
        code, out, err = run_cli(capsys, ["scenario", "run", "roundtrip-counterexample", "--p", "3"])
        assert (code, out) == (2, "")
        assert err.startswith("error: roundtrip-counterexample(k, m) cannot take") and err.count("\n") == 1

    @pytest.mark.parametrize("name", ["roundtrip-identity", "roundtrip-unitary"])
    def test_no_op_mutant_exit_two(self, capsys, name):
        code, out, err = run_cli(capsys, ["scenario", "run", name, "--mutate", "drop-weight"])
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1


class TestReportCommand:
    def test_failing_report_exit_one(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        obj = {
            "label": "demo",
            "checks": [
                {"name": "c1", "verdict": "FAIL", "expected": 1, "observed": 2}
            ],
            "pass": False,
        }
        path.write_text(json.dumps(obj))
        code, out, _ = run_cli(capsys, [" report".strip(), str(path)])
        assert code == 1
        assert "overall: FAIL" in out
        assert "[FAIL] c1" in out

    def test_malformed_json_exit_two(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, ["report", str(path)])
        assert code == 2
        assert "malformed JSON" in err


IDENTITY_SPEC = {
    "operator": {"kind": "identity", "domain": "disc(1)", "p": 2.0},
    "method": "closed",
}

# weight z on an identity point map cannot be an isometry; validation skipped
# so the mutant reaches the measurement stage
WEIGHT_MUTANT_SPEC = {
    "operator": {
        "kind": "custom",
        "source": "disc(1)",
        "target": "disc(1)",
        "exponents": [[1]],
        "weight": [{"exp": [1], "re": 1.0, "im": 0.0}],
        "p": 2.0,
        "validate": False,
    },
    "family": "coordinates",
}


MOBIUS_SPEC = {"operator": {"kind": "mobius", "a": 0.3, "p": 1}, "family": "coordinates"}


def write_spec(tmp_path, obj, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


class TestOperatorFileCommands:
    def test_verify_isometry_identity_passes(self, capsys, tmp_path):
        path = write_spec(tmp_path, IDENTITY_SPEC)
        code, out, _ = run_cli(
            capsys, ["verify-isometry", "--scenario", path, "--samples", "50000"]
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["verdict"] == "PASS"
        assert obj["max_discrepancy"] <= 1e-9
        assert len(obj["boxes"]) > 0

    def test_equimeasure_identity_exact(self, capsys, tmp_path):
        path = write_spec(tmp_path, IDENTITY_SPEC)
        code, out, _ = run_cli(capsys, ["equimeasure", "--scenario", path, "--samples", "50000"])
        assert code == 0
        obj = json.loads(out)
        assert obj["verdict"] == "PASS"
        assert all(r["difference"] == 0.0 for r in obj["regions"])

    def test_equimeasure_weight_mutant_fails(self, capsys, tmp_path):
        path = write_spec(tmp_path, WEIGHT_MUTANT_SPEC)
        code, out, _ = run_cli(capsys, ["equimeasure", "--scenario", path, "--samples", "100000"])
        assert code == 1
        assert json.loads(out)["verdict"] == "FAIL"

    def test_equimeasure_lead_with_divergent_norm_falls_back(self, capsys, tmp_path):
        # |z^-2| is not integrable on the punctured disc, so neither the box
        # probe nor the pushforward draws from the lead's density
        spec = {
            "operator": {"kind": "identity", "domain": "punctured_disc(1)", "p": 1},
            "family": {"kind": "members", "members": [[{"exp": [-2], "re": 1}], [{"exp": [0], "re": 1}]]},
        }
        path = write_spec(tmp_path, spec)
        code, out, err = run_cli(capsys, ["equimeasure", "--scenario", path, "--samples", "100000"])
        assert code == 0, err
        assert json.loads(out)["verdict"] == "PASS"
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("warning: PoleProximityWarning: |lead|^1.0"), err

    def test_reconstruct_map_identity(self, capsys, tmp_path):
        path = write_spec(tmp_path, IDENTITY_SPEC)
        code, out, _ = run_cli(
            capsys, ["reconstruct-map", "--scenario", path, "--grid", "3"]
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "z1_re,z1_im,w1_re,w1_im,residual,status"
        assert len(lines) >= 2
        for line in lines[1:]:
            fields = line.split(",")
            assert fields[-1] == "mapped"
            assert abs(float(fields[0]) - float(fields[2])) < 1e-6
            assert abs(float(fields[1]) - float(fields[3])) < 1e-6

    def test_reconstruct_map_of_non_invertible_mutant_fails(self, capsys, tmp_path):
        # the default pullback family inverts the operator, and the dropped weight leaves no inverse
        path = write_spec(tmp_path, {"operator": {"kind": "counterexample", "k": 3, "m": 2}})
        code, out, err = run_cli(
            capsys, ["reconstruct-map", "--scenario", path, "--grid", "2", "--mutate", "drop-weight"]
        )
        assert (code, out) == (1, "")
        assert err.startswith("FAIL: ") and "weight correction is not constant" in err and err.count("\n") == 1

    def test_drop_weight_refused_when_weight_is_already_one(self, capsys, tmp_path):
        # the identity's weight is 1, so dropping it would run the true operator under a mutant's name
        path = write_spec(tmp_path, IDENTITY_SPEC)
        code, _, err = run_cli(
            capsys, ["equimeasure", "--scenario", path, "--mutate", "drop-weight"]
        )
        assert code == 2
        assert err.startswith("error:")

    def test_drop_weight_mutant_of_mobius_fails(self, capsys, tmp_path):
        path = write_spec(tmp_path, MOBIUS_SPEC)
        code, out, _ = run_cli(
            capsys, ["equimeasure", "--scenario", path, "--samples", "100000", "--mutate", "drop-weight"]
        )
        assert code == 1
        assert json.loads(out)["verdict"] == "FAIL"

    def test_operator_key_typo_refused(self, capsys, tmp_path):
        path = write_spec(tmp_path, {"operator": {"kind": "identity", "P": 3, "domian": "ball(2)"}})
        code, out, err = run_cli(capsys, ["verify-isometry", "--scenario", path, "--samples", "100000"])
        assert (code, out) == (2, "")
        assert err.startswith("error: identity(domain, p, lambda) cannot take") and err.count("\n") == 1

    def test_malformed_scenario_file_exit_two(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("[1, 2")
        code, _, err = run_cli(capsys, ["verify-isometry", "--scenario", str(path)])
        assert code == 2
        assert "malformed JSON" in err

    def test_scenario_file_must_hold_an_object(self, capsys, tmp_path):
        path = write_spec(tmp_path, [1, 2, 3])
        code, _, err = run_cli(capsys, ["equimeasure", "--scenario", str(path)])
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "command,spec",
        [
            ("equimeasure", {**WEIGHT_MUTANT_SPEC, "operator": {**WEIGHT_MUTANT_SPEC["operator"], "weight": {"terms": []}}}),
            ("equimeasure", {**IDENTITY_SPEC, "family": {"kind": "members", "members": [[{"re": 1.0}], [{"exp": [1], "re": 1.0}]]}}),
            ("verify-isometry", {**IDENTITY_SPEC, "tests": [[{"exp": [1]}]]}),
            ("equimeasure", {**IDENTITY_SPEC, "boxes": [{"lo": 0.0, "hi": 0.5}]}),
            ("equimeasure", {**IDENTITY_SPEC, "boxes": [{"lo": ["zero"], "hi": [0.5]}]}),
        ],
        ids=["weight-not-a-term-list", "member-term-without-exp", "test-term-without-re", "box-corner-not-a-list", "box-corner-not-a-number"],
    )
    def test_malformed_scenario_content_exit_two(self, capsys, tmp_path, command, spec):
        path = write_spec(tmp_path, spec)
        code, out, err = run_cli(capsys, [command, "--scenario", path, "--samples", "100000"])
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "command,spec",
        [
            ("equimeasure", {"operator": {"kind": "identity", "domain": "disc(1)", "p": "two"}}),
            ("equimeasure", {"operator": {"kind": "counterexample", "k": "x"}}),
            ("equimeasure", {"operator": {"kind": "counterexample", "k": 3.5}}),
            ("equimeasure", {**IDENTITY_SPEC, "family": {"kind": "degree", "max_degree": "3.5"}}),
            ("equimeasure", {**IDENTITY_SPEC, "family": {"kind": "pullback", "extra": [[1.5]]}}),
            ("equimeasure", {**IDENTITY_SPEC, "family": {"kind": "pullback", "extra": [[1, 2]]}}),
            ("verify-isometry", {**IDENTITY_SPEC, "tolerance": "x"}),
            ("equimeasure", {**WEIGHT_MUTANT_SPEC, "operator": {**WEIGHT_MUTANT_SPEC["operator"], "exponents": [[1.5]]}}),
            ("equimeasure", {**WEIGHT_MUTANT_SPEC, "operator": {**WEIGHT_MUTANT_SPEC["operator"], "exponents": [[1, 0]]}}),
            ("equimeasure", {**WEIGHT_MUTANT_SPEC, "operator": {**WEIGHT_MUTANT_SPEC["operator"], "weight": [{"exp": [1.5], "re": 1.0}]}}),
            ("equimeasure", {**IDENTITY_SPEC, "operator": {"kind": "identity", "domain": "ball(two)"}}),
            ("equimeasure", {**IDENTITY_SPEC, "family": [1]}),
            ("verify-isometry", {**IDENTITY_SPEC, "tests": 5}),
        ],
        ids=[
            "p-not-a-number", "k-not-a-number", "k-not-integral", "max-degree-not-integral", "extra-not-integral",
            "extra-wrong-length", "tolerance-not-a-number", "exponent-not-integral", "exponents-not-square",
            "weight-exponent-not-integral", "domain-malformed", "family-not-a-spec", "tests-not-a-list",
        ],
    )
    def test_malformed_scenario_number_exit_two(self, capsys, tmp_path, command, spec):
        path = write_spec(tmp_path, spec)
        code, out, err = run_cli(capsys, [command, "--scenario", path, "--samples", "100000"])
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_formats_doc_scenario_example_runs(self, capsys, tmp_path):
        doc = (Path(__file__).resolve().parents[1] / "docs" / "formats.md").read_text()
        example = re.search(r"## Scenario files.*?```json\n(.*?)```", doc, re.S).group(1)
        path = write_spec(tmp_path, json.loads(example))
        code, out, err = run_cli(capsys, ["equimeasure", "--scenario", path, "--samples", "100000"])
        assert code in (0, 1), err
        labels = [r["label"] for r in json.loads(out)["regions"]]
        assert labels == ["b0", "gaussian-bump", "sigmoid-product"]


class TestTopLevel:
    def test_version(self, capsys):
        code, out, _ = run_cli(capsys, ["--version"])
        assert code == 0
        assert out.startswith("pbergman ")

    def test_no_subcommand_exit_two(self, capsys):
        code, _, err = run_cli(capsys, [])
        assert code == 2
        assert err.startswith("error:")

    def test_unknown_subcommand_exit_two(self, capsys):
        code, _, err = run_cli(capsys, ["frobnicate"])
        assert code == 2
        assert err.startswith("error:")

    def test_help_exits_cleanly(self, capsys):
        code, out, _ = run_cli(capsys, ["--help"])
        assert code == 0
        assert "subcommand" in out or "command" in out


class TestDeterminism:
    def test_scenario_outputs_byte_identical(self, capsys, tmp_path):
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        argv = ["scenario", "run", "counterexample", "--samples", "50000", "--seed", "3"]
        code1, text1, _ = run_cli(capsys, argv + ["--out", str(out_a)])
        code2, text2, _ = run_cli(capsys, argv + ["--out", str(out_b)])
        assert code1 == code2
        assert text1 == text2
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_threads_do_not_change_output(self, capsys):
        argv = [
            "norm", "--domain", "hartogs(3)", "--exp", "1,0,2", "--p", "1",
            "--method", "mc", "--samples", "30000", "--seed", "11",
        ]
        _, out1, _ = run_cli(capsys, argv + ["--threads", "1"])
        _, out4, _ = run_cli(capsys, argv + ["--threads", "4"])
        assert out1 == out4
