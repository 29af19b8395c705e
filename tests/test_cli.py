"""End-to-end command-line checks, run in process via ``main(argv)``."""

import json
import math

import pytest

from conftest import assert_rel
from pbergman.cli import main


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_multiple_points_one_row_each(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["kernel", "--domain", "disc", "--p", "2", "--z", "0,0;0.3,0", "--degree", "4"],
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 3

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

    def test_unknown_name_exit_two(self, capsys):
        code, _, err = run_cli(capsys, ["scenario", "run", "no-such-thing"])
        assert code == 2
        assert err.startswith("error:")

    def test_out_file_and_report_roundtrip(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out_run, _ = run_cli(
            capsys, ["scenario", "run", "roundtrip-identity", "--out", str(path)]
        )
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

    def test_mutate_requires_counterexample_operator(self, capsys, tmp_path):
        path = write_spec(tmp_path, IDENTITY_SPEC)
        code, _, err = run_cli(
            capsys, ["equimeasure", "--scenario", path, "--mutate", "drop-weight"]
        )
        assert code == 2
        assert err.startswith("error:")

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
