import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from fidest import cli, qcore, symmetry

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "schemas" / "report.json").read_text())


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_report(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    report = json.loads(out)
    jsonschema.validate(report, SCHEMA)
    return report


class TestWitnessCommand:
    def test_demo_reproduces_maximal_violation(self, capsys):
        report = run_report(capsys, "witness", "--demo")
        assert abs(report["results"]["one_component"] - (-1.0)) < 1e-12

    def test_product_inputs(self, capsys):
        report = run_report(capsys, "witness", "--p", "1", "--alpha", "1",
                            "--beta", "0")
        assert report["results"]["one_component"] == pytest.approx(1.0, abs=1e-12)

    def test_rounded_amplitudes_are_renormalized(self, capsys):
        report = run_report(capsys, "witness", "--p", "0.5",
                            "--alpha", "0.7071", "--beta", "0.7071",
                            "--gamma", "0", "--delta", "0")
        assert report["results"]["one_component"] == pytest.approx(1.0, abs=1e-9)

    def test_missing_flags_fail_with_json_error(self, capsys):
        code, out, err = run_cli(capsys, "witness", "--p", "0.5")
        assert code == 1
        assert out == ""
        payload = json.loads(err.strip())
        assert "error" in payload and "\n" not in err.strip()

    def test_invalid_p_fails(self, capsys):
        code, _, err = run_cli(capsys, "witness", "--p", "1.5",
                               "--alpha", "1", "--beta", "0")
        assert code == 1
        assert "error" in json.loads(err.strip())


class TestOptimalTestCommand:
    def test_default_run(self, capsys):
        report = run_report(capsys, "optimal-test")
        res = report["results"]
        assert abs(res["delta_min"] - 1 / 3) < 1e-6
        assert abs(res["delta_numeric"] - 1 / 3) < 1e-6
        assert abs(res["sigma"] - 2 / 3) < 1e-6

    def test_dimension_independence(self, capsys):
        r2 = run_report(capsys, "optimal-test", "--d", "2")
        r3 = run_report(capsys, "optimal-test", "--d", "3")
        assert r2["results"]["delta_min"] == r3["results"]["delta_min"]
        assert abs(r3["results"]["delta_numeric"] - 1 / 3) < 1e-6

    def test_writes_optimal_effect(self, capsys, tmp_path):
        out = tmp_path / "optimal.json"
        run_report(capsys, "optimal-test", "--out", str(out))
        a = qcore.load_matrix(out)
        p_sym, _ = symmetry.sym_antisym_projectors(2)
        assert np.max(np.abs(a - 2 / 3 * p_sym)) < 1e-6

    def test_sweep_csv(self, capsys, tmp_path):
        sweep = tmp_path / "sweep.csv"
        run_report(capsys, "optimal-test", "--sweep", str(sweep),
                   "--sweep-points", "5")
        with open(sweep, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["sigma", "alpha", "delta_closed", "delta_numeric"]
        assert len(rows) == 1 + 25
        for _, _, closed, numeric in rows[1:]:
            assert abs(float(closed) - float(numeric)) < 1e-6


class TestNogoCommand:
    def test_test_file_certificate(self, capsys, tmp_path):
        p_sym, _ = symmetry.sym_antisym_projectors(2)
        path = tmp_path / "t.json"
        qcore.save_matrix(path, 2 / 3 * p_sym)
        report = run_report(capsys, "nogo", "--test-file", str(path))
        cert = report["results"]["certificates"][0]
        assert cert["kind"] == "equal_pair_fails"
        assert abs(cert["value"] - 2 / 3) < 1e-6

    def test_identity_certificate(self, capsys, tmp_path):
        path = tmp_path / "eye.json"
        qcore.save_matrix(path, np.eye(4, dtype=complex))
        report = run_report(capsys, "nogo", "--test-file", str(path))
        cert = report["results"]["certificates"][0]
        assert cert["kind"] == "orthogonal_pair_fails"
        assert cert["value"] == pytest.approx(1.0, abs=1e-12)

    def test_random_family_deterministic(self, capsys):
        r1 = run_report(capsys, "--seed", "7", "nogo", "--random-family", "6")
        r2 = run_report(capsys, "--seed", "7", "nogo", "--random-family", "6")
        assert r1["results"] == r2["results"]
        assert r1["results"]["count"] == 6

    def test_invalid_effect_rejected(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        qcore.save_matrix(path, 2.0 * np.eye(4))
        code, _, err = run_cli(capsys, "nogo", "--test-file", str(path))
        assert code == 1
        assert "spectrum" in json.loads(err.strip())["error"]

    def test_malformed_file_rejected(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"rows": 2, "cols": 2, "entries": [[0, 0]]}')
        code, _, err = run_cli(capsys, "nogo", "--test-file", str(path))
        assert code == 1
        assert "error" in json.loads(err.strip())

    @pytest.mark.parametrize("text", [
        '{"rows": 1, "cols": 1, "entries": 5}',
        '{"rows": 1, "cols": 1, "entries": [[1, null]]}',
        '{"rows": 1e400, "cols": 1, "entries": [[1, 0]]}',
    ])
    def test_mistyped_file_rejected(self, capsys, tmp_path, text):
        path = tmp_path / "typed.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, "nogo", "--test-file", str(path))
        assert code == 1
        assert out == ""
        assert "\n" not in err.strip()
        assert "error" in json.loads(err.strip())

    def test_requires_an_input(self, capsys):
        code, _, err = run_cli(capsys, "nogo")
        assert code == 1


class TestGeneralCommand:
    def test_single_copy_single_sample(self, capsys):
        report = run_report(capsys, "general", "--d", "2", "--n", "1",
                            "--m", "1", "--grid", "101")
        res = report["results"]
        assert abs(res["value_per_outcome"] - 1 / 3) < 1e-3
        assert res["block_dims"] == [3, 1]

    def test_deterministic(self, capsys):
        first = run_report(capsys, "general", "--d", "2", "--n", "2",
                           "--m", "1", "--grid", "65")
        second = run_report(capsys, "general", "--d", "2", "--n", "2",
                            "--m", "1", "--grid", "65")
        assert first["results"]["value_l1"] == second["results"]["value_l1"]
        assert first["results"]["coefficients"] == second["results"]["coefficients"]

    def test_writes_only_the_profile(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("HOME", str(tmp_path))
        monkeypatch.chdir(tmp_path)
        run_report(capsys, "general", "--d", "2", "--n", "2", "--m", "1",
                   "--grid", "33", "--profile-out", "profile.csv")
        assert [p.name for p in tmp_path.rglob("*")] == ["profile.csv"]

    def test_profile_csv(self, capsys, tmp_path):
        profile = tmp_path / "profile.csv"
        report = run_report(capsys, "general", "--d", "2", "--n", "1",
                            "--m", "1", "--grid", "33",
                            "--profile-out", str(profile))
        with open(profile, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["gamma", "l1_error"]
        assert len(rows) == 1 + 33
        worst = max(float(r[1]) for r in rows[1:])
        assert worst == pytest.approx(report["results"]["value_l1"], abs=1e-6)

    def test_instance_file(self, capsys, tmp_path):
        spec = tmp_path / "instance.json"
        spec.write_text(json.dumps({"d": 2, "n": 1, "m": 1, "grid": 65}))
        report = run_report(capsys, "general", "--instance", str(spec))
        assert abs(report["results"]["value_per_outcome"] - 1 / 3) < 1e-3

    def run_instance(self, capsys, tmp_path, spec):
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(spec))
        code, out, err = run_cli(capsys, "general", "--instance", str(path))
        assert code == 1
        assert out == ""
        assert "\n" not in err.strip()
        return json.loads(err.strip())["error"]

    def test_instance_missing_key(self, capsys, tmp_path):
        error = self.run_instance(capsys, tmp_path, {"d": 2, "n": 1})
        assert "'m'" in error

    def test_instance_json_list(self, capsys, tmp_path):
        error = self.run_instance(capsys, tmp_path, [2, 1, 1])
        assert "JSON object" in error

    @pytest.mark.parametrize("key,value", [
        ("d", 2.5), ("d", "2"), ("n", None), ("m", True), ("m", [2]),
        ("grid", None),
    ])
    def test_instance_non_integer(self, capsys, tmp_path, key, value):
        spec = {"d": 2, "n": 1, "m": 1, key: value}
        error = self.run_instance(capsys, tmp_path, spec)
        assert f"instance {key} = {value!r} is not an integer" == error

    def test_unsupported_range(self, capsys):
        code, _, err = run_cli(capsys, "general", "--d", "4", "--n", "1",
                               "--m", "1")
        assert code == 1
        assert "unsupported range" in json.loads(err.strip())["error"]
        code, _, err = run_cli(capsys, "general", "--d", "2", "--n", "5",
                               "--m", "1")
        assert code == 1
        assert "unsupported range" in json.loads(err.strip())["error"]
        code, _, err = run_cli(capsys, "general", "--d", "1", "--n", "1",
                               "--m", "1")
        assert code == 1
        assert "unsupported range" in json.loads(err.strip())["error"]

    def test_missing_flags(self, capsys):
        code, _, err = run_cli(capsys, "general", "--d", "2")
        assert code == 1


def assert_usage_error(code, out, err):
    assert code == 2
    assert out == ""
    assert "\n" not in err.strip()
    return json.loads(err.strip())["error"]


class TestSizeChecks:
    @pytest.mark.parametrize("argv", [
        ["nogo", "--random-family", "-3"],
        ["nogo", "--random-family", "0"],
        ["optimal-test", "--sweep-points", "0"],
        ["optimal-test", "--grid", "0"],
        ["optimal-test", "--grid", "-5"],
        ["optimal-test", "--grid", "ten"],
    ])
    def test_non_positive_size_rejected(self, capsys, tmp_path, argv):
        if argv[0] == "optimal-test":
            argv = argv + ["--sweep", str(tmp_path / "sweep.csv")]
        error = assert_usage_error(*run_cli(capsys, *argv))
        assert "positive integer" in error or "not an integer" in error
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
    def test_bad_refine_tol_rejected(self, capsys, tol):
        error = assert_usage_error(*run_cli(
            capsys, "general", "--d", "2", "--n", "1", "--m", "1",
            "--refine-tol", tol))
        assert "positive finite number" in error

    @pytest.mark.parametrize("argv", [
        ["--p", "0.5", "--alpha", "nan", "--beta", "1"],
        ["--p", "0.5", "--alpha", "inf", "--beta", "1"],
        ["--p", "0.5", "--alpha", "1", "--beta=-inf"],
        ["--p", "nan", "--alpha", "1", "--beta", "0"],
        ["--p", "0.5", "--alpha", "1", "--beta", "0", "--gamma", "inf"],
        ["--p", "0.5", "--alpha", "1", "--beta", "0", "--delta=-inf"],
    ])
    def test_non_finite_witness_input_rejected(self, capsys, argv):
        error = assert_usage_error(*run_cli(capsys, "witness", *argv))
        assert "finite number" in error

    def test_non_finite_angle_gives_one_json_line(self):
        # in a separate process, so a numpy RuntimeWarning would reach stderr
        src = Path(cli.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(src))
        out = subprocess.run(
            [sys.executable, "-m", "fidest.cli", "witness", "--p", "0.5",
             "--alpha", "1", "--beta", "0", "--gamma", "inf"],
            capture_output=True, text=True, env=env)
        assert_usage_error(out.returncode, out.stdout, out.stderr)

    def test_too_many_samples_gives_one_json_line(self):
        # C(m, j) overflows a float beyond m = 1029; a separate process shows
        # any traceback on stderr
        src = Path(cli.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(src))
        out = subprocess.run(
            [sys.executable, "-m", "fidest.cli", "general", "--d", "2",
             "--n", "1", "--m", "1100"],
            capture_output=True, text=True, env=env)
        assert out.returncode == 1
        assert out.stdout == ""
        assert "\n" not in out.stderr.strip()
        assert "1029" in json.loads(out.stderr.strip())["error"]

    def test_missing_subcommand(self, capsys):
        error = assert_usage_error(*run_cli(capsys))
        assert "subcommand" in error

    def test_unknown_flag(self, capsys):
        error = assert_usage_error(*run_cli(capsys, "witness", "--bogus"))
        assert "--bogus" in error

    # each asks numpy for a 9e6 x 9e6 complex array (1.15 PiB); the request
    # exceeds the address space, so it fails at once without touching memory
    @pytest.mark.parametrize("argv", [
        ["nogo", "--random-family", "1", "--d", "3000"],
        ["optimal-test", "--d", "3000"],
    ])
    def test_oversized_dimension_fails_cleanly(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "\n" not in err.strip()
        assert "error" in json.loads(err.strip())

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["general", "--help"])
        assert exc.value.code == 0
        assert "--profile-out" in capsys.readouterr().out


class TestReportShape:
    def test_all_commands_validate_against_schema(self, capsys, tmp_path):
        # schema validation happens inside run_report for each command
        run_report(capsys, "witness", "--demo")
        run_report(capsys, "optimal-test", "--grid", "100")
        path = tmp_path / "t.json"
        qcore.save_matrix(path, np.eye(4, dtype=complex))
        run_report(capsys, "nogo", "--test-file", str(path))
        run_report(capsys, "general", "--d", "2", "--n", "1", "--m", "1",
                   "--grid", "33")

    def test_wall_time_is_unrounded(self, capsys):
        report = run_report(capsys, "witness", "--demo")
        assert isinstance(report["wall_time_ms"], float)
        assert report["wall_time_ms"] > 0

    def test_seed_is_echoed(self, capsys):
        report = run_report(capsys, "--seed", "123", "witness", "--demo")
        assert report["seed"] == 123


class TestImportGraph:
    def test_cli_does_not_load_the_lp_solver(self):
        # only `general` solves an LP; every other command starts without
        # paying for the scipy.optimize import
        src = Path(cli.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(src))
        out = subprocess.run(
            [sys.executable, "-c",
             "import fidest.cli, sys; print('scipy.optimize' in sys.modules)"],
            capture_output=True, text=True, env=env, check=True)
        assert out.stdout.strip() == "False"
