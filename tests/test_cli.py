import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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
        assert rows[0] == ["sigma", "alpha", "delta_closed"]
        assert len(rows) == 1 + 25
        for sigma, alpha, closed in rows[1:]:
            s, a = float(sigma), float(alpha)
            assert abs(float(closed) - max((s + a) / 2, 1 - s)) < 1e-12

    def test_same_report_for_every_seed(self, capsys):
        r1 = run_report(capsys, "--seed", "1", "optimal-test", "--d", "3")
        r2 = run_report(capsys, "--seed", "2", "optimal-test", "--d", "3")
        assert r1["results"] == r2["results"]


class TestNogoCommand:
    def test_test_file_certificate(self, capsys, tmp_path):
        p_sym, _ = symmetry.sym_antisym_projectors(2)
        path = tmp_path / "t.json"
        qcore.save_matrix(path, 2 / 3 * p_sym)
        report = run_report(capsys, "nogo", "--test-file", str(path))
        cert = report["results"]["certificates"][0]
        assert cert["kind"] == "equal_pair_fails"
        assert abs(cert["value"] - 2 / 3) < 1e-6
        # the certificate makes no random draw, so the seed cannot move it
        reseeded = run_report(capsys, "--seed", "5", "nogo", "--test-file",
                              str(path))
        assert reseeded["results"] == report["results"]

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

    def test_instance_grid_above_the_limit(self, capsys, tmp_path):
        from fidest import general
        limit = general._MAX_GRID_POINTS
        error = self.run_instance(capsys, tmp_path,
                                  {"d": 2, "n": 1, "m": 1, "grid": limit + 1})
        assert f"grid_points <= {limit}" in error

    def test_grid_above_the_limit(self, capsys):
        from fidest import general
        limit = general._MAX_GRID_POINTS
        code, out, err = run_cli(capsys, "general", "--d", "2", "--n", "1",
                                 "--m", "1", "--grid", str(limit + 1))
        assert code == 1
        assert out == ""
        assert f"grid_points <= {limit}" in json.loads(err.strip())["error"]

    def check_largest_table(self, capsys, *argv):
        code, out, err = run_cli(capsys, "general", *argv)
        assert code == 0, err
        res = json.loads(out)["results"]
        assert len(res["profile"]) == 65537
        assert res["max_profile_error"] <= res["value_l1"]

    def test_largest_table(self, capsys):
        self.check_largest_table(capsys, "--d", "2", "--n", "1", "--m", "64",
                                 "--grid", "65537")

    def test_instance_largest_table(self, capsys, tmp_path):
        spec = tmp_path / "instance.json"
        spec.write_text(json.dumps({"d": 2, "n": 1, "m": 64, "grid": 65537}))
        self.check_largest_table(capsys, "--instance", str(spec))

    def test_table_above_the_limit(self, capsys):
        from fidest import general
        limit = general._MAX_TABLE_ENTRIES
        code, out, err = run_cli(capsys, "general", "--d", "2", "--n", "1",
                                 "--m", "65", "--grid", "65537")
        assert code == 1
        assert out == ""
        assert f"grid_points * (m + 1) <= {limit}" in json.loads(err.strip())["error"]

    def test_instance_table_above_the_limit(self, capsys, tmp_path):
        from fidest import general
        limit = general._MAX_TABLE_ENTRIES
        error = self.run_instance(capsys, tmp_path,
                                  {"d": 2, "n": 1, "m": 65, "grid": 65537})
        assert f"grid_points * (m + 1) <= {limit}" in error

    def test_unsupported_range(self, capsys):
        code, _, err = run_cli(capsys, "general", "--d", "4", "--n", "1",
                               "--m", "1")
        assert code == 1
        assert "unsupported range" in json.loads(err.strip())["error"]
        code, _, err = run_cli(capsys, "general", "--d", "2", "--n", "33",
                               "--m", "1")
        assert code == 1
        assert "unsupported range" in json.loads(err.strip())["error"]
        code, _, err = run_cli(capsys, "general", "--d", "1", "--n", "1",
                               "--m", "1")
        assert code == 1
        assert "unsupported range" in json.loads(err.strip())["error"]

    def test_instance_unsupported_range(self, capsys, tmp_path):
        error = self.run_instance(capsys, tmp_path, {"d": 2, "n": 33, "m": 1})
        assert "unsupported range" in error

    def test_largest_copy_count(self, capsys, tmp_path):
        report = run_report(capsys, "general", "--d", "2", "--n", "32",
                            "--m", "32")
        assert report["results"]["value_l1"] == pytest.approx(0.43199557,
                                                              abs=1e-6)
        assert len(report["results"]["block_dims"]) == 33
        spec = tmp_path / "instance.json"
        spec.write_text(json.dumps({"d": 2, "n": 32, "m": 1}))
        report = run_report(capsys, "general", "--instance", str(spec))
        assert len(report["results"]["coefficients"][0]) == 33

    def test_solver_failure_is_one_json_line(self, capsys, monkeypatch):
        from fidest import general
        monkeypatch.setattr(general, "_MAX_PIVOTS", 3)
        code, out, err = run_cli(capsys, "general", "--d", "2", "--n", "2",
                                 "--m", "4")
        assert code == 1
        assert out == ""
        assert "\n" not in err.strip()
        assert "pivots" in json.loads(err.strip())["error"]

    def test_missing_flags(self, capsys):
        code, _, err = run_cli(capsys, "general", "--d", "2")
        assert code == 1

    def test_largest_dense_size(self, capsys):
        # HiGHS missed a row here by 6e-8
        report = run_report(capsys, "general", "--d", "2", "--n", "3",
                            "--m", "64")
        res = report["results"]
        assert res["max_profile_error"] <= res["value_l1"]


# any JSON document, and {d, n, m, grid?} specs whose sizes sit at and beside
# the edges of the accepted range (2 <= d <= 3, 1 <= n <= 4, 1 <= m,
# 2 <= grid <= 65537), with any JSON value in place of some of them
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6)
SIZE_EDGES = {"d": st.integers(0, 4), "n": st.integers(0, 5),
              "m": st.integers(0, 3), "grid": st.sampled_from([0, 1, 2, 3, 65538])}


def instance_specs(values):
    """Specs with keys d, n, m and maybe grid, each drawn from ``values``."""
    return st.fixed_dictionaries(
        {key: values(edge) for key, edge in SIZE_EDGES.items() if key != "grid"},
        optional={"grid": values(SIZE_EDGES["grid"])})


INSTANCE_SPECS = st.one_of(instance_specs(lambda edge: edge),
                           instance_specs(lambda edge: edge | JSON_VALUES),
                           JSON_VALUES)


class TestInstanceProperty:
    # each example rewrites the spec file and reads the whole capture, so the
    # function-scoped fixtures carry nothing from one example to the next
    @settings(max_examples=100, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(INSTANCE_SPECS)
    def test_report_or_one_error_line(self, capsys, tmp_path, spec):
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(spec))
        code, out, err = run_cli(capsys, "general", "--instance", str(path))
        assert "Traceback" not in out + err
        if code == 0:
            assert err == ""
            jsonschema.validate(json.loads(out), SCHEMA)
        else:
            assert code == 1
            assert out == ""
            assert err.endswith("\n") and "\n" not in err[:-1]
            assert isinstance(json.loads(err)["error"], str)


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
        expected = {"--grid": "grid size in 2..",
                    "--sweep-points": "point count in 1.."}.get(
                        argv[1], "positive integer")
        assert expected in error or "not an integer" in error
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

    # each would ask numpy for a 9e6 x 9e6 complex array (1.15 PiB); the
    # parser rejects the size before anything is allocated
    @pytest.mark.parametrize("argv", [
        ["nogo", "--random-family", "1", "--d", "3000"],
        ["optimal-test", "--d", "3000"],
    ])
    def test_oversized_dimension_fails_cleanly(self, capsys, argv):
        error = assert_usage_error(*run_cli(capsys, *argv))
        assert "dimension" in error

    @pytest.mark.parametrize("argv, low", [
        (["nogo", "--random-family", "2"], 2),
        (["optimal-test", "--grid", "10"], 1),
    ])
    def test_dimension_limit(self, capsys, argv, low):
        limit = cli._MAX_DIMENSION
        report = run_report(capsys, *argv, "--d", str(limit))
        assert report["inputs"]["d"] == limit
        for d in (low - 1, limit + 1):
            error = assert_usage_error(*run_cli(capsys, *argv, "--d", str(d)))
            assert f"dimension in {low}..{limit}" in error

    def test_matrix_file_limit(self, capsys, tmp_path):
        # a d = 16 effect has the most entries a matrix file may hold
        path = tmp_path / "effect.json"
        run_report(capsys, "optimal-test", "--d", "16", "--out", str(path))
        report = run_report(capsys, "nogo", "--test-file", str(path))
        assert report["inputs"]["d"] == 16
        above = tmp_path / "above.json"
        code, out, err = run_cli(capsys, "optimal-test", "--d", "17",
                                 "--out", str(above))
        assert code == 1 and out == "" and "\n" not in err.strip()
        assert "limit of 65536 entries" in json.loads(err.strip())["error"]
        assert not above.exists()

    @pytest.mark.parametrize("flag, low, limit", [
        ("--grid", 2, cli._MAX_GRID),
        ("--sweep-points", 1, cli._MAX_SWEEP_POINTS),
    ])
    def test_optimal_test_size_limit(self, capsys, tmp_path, flag, low, limit):
        sweep = tmp_path / "sweep.csv"
        report = run_report(capsys, "optimal-test", "--sweep", str(sweep),
                            flag, str(limit))
        assert report["results"]["delta_numeric"] == pytest.approx(
            1 / 3, abs=1e-15)
        if flag == "--sweep-points":
            with open(sweep, newline="") as fh:
                assert sum(1 for _ in fh) == 1 + limit ** 2
        for value in (low - 1, limit + 1):
            error = assert_usage_error(*run_cli(capsys, "optimal-test", flag,
                                                str(value)))
            assert f"in {low}..{limit}" in error

    def test_negative_seed_rejected(self, capsys, tmp_path):
        path = tmp_path / "eye.json"
        qcore.save_matrix(path, np.eye(4, dtype=complex))
        for argv in (["nogo", "--test-file", str(path)],
                     ["nogo", "--random-family", "1"], ["witness", "--demo"]):
            error = assert_usage_error(*run_cli(capsys, "--seed", "-1", *argv))
            assert "non-negative integer" in error

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


GENERAL_RUNS = [
    "from fidest import general\n"
    "general.solve_minimax(general.make_instance(3, 4, 4))",
    "import runpy\n"
    "sys.argv = ['fidest', 'general', '--d', '2', '--n', '3', '--m', '3']\n"
    "runpy.run_module('fidest.cli', run_name='__main__')",
]


class TestImportGraph:
    def run_python(self, code):
        src = Path(cli.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(src))
        return subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=env, check=True)

    def test_cli_does_not_load_the_lp_solver(self):
        # only `general` solves an LP; every other command starts without
        # paying for the scipy.optimize import
        out = self.run_python(
            "import fidest.cli, sys; print('scipy.optimize' in sys.modules)")
        assert out.stdout.strip() == "False"

    def loaded_after(self, prefix, code):
        """Modules named ``prefix``* that remain loaded after ``code``."""
        out = self.run_python(
            "import atexit, sys\n"
            "atexit.register(lambda: print(sorted(k for k in sys.modules\n"
            f"    if k.startswith({prefix!r})), file=sys.stderr))\n" + code)
        return out.stderr.strip()

    @pytest.mark.parametrize("code", GENERAL_RUNS, ids=["solve_minimax", "cli"])
    def test_general_runs_without_scipy(self, code):
        # the dense dual simplex of general solves every LP
        assert self.loaded_after("scipy", code) == "[]"

    @pytest.mark.parametrize("code", GENERAL_RUNS, ids=["solve_minimax", "cli"])
    def test_general_runs_without_numpy_random(self, code):
        # the cost noise of the dense LP is a fixed sequence, not an RNG
        assert self.loaded_after("numpy.random", code) == "[]"

    def test_solve_minimax_does_not_load_symmetry(self):
        # the closed-form block weights need no operator on H+^n
        assert self.loaded_after("fidest.symmetry", GENERAL_RUNS[0]) == "[]"

    @pytest.mark.parametrize("m", [65, 128])
    def test_general_above_64_samples_runs_without_scipy(self, m):
        # every m goes through the dense dual simplex
        code = ("from fidest import general\n"
                f"inst = general.make_instance(2, 1, {m}, grid_points=33)\n"
                "coeffs, value = general.solve_minimax(inst)\n"
                "assert general.error_profile(inst, coeffs).max() <= value\n")
        assert self.loaded_after("scipy", code) == "[]"
