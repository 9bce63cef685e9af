import csv
import importlib
import importlib.util
import io
import json
import math
import runpy
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mixwidth import BallSpec, ConsistencyError, Dimensions, Instance, PsiEstimate
from mixwidth import cli
from mixwidth.cli import CSV_COLUMNS, load_instance, main, run_sweep, witness_report
import ci_families
from loader_brute import reference_ball_arrays, reference_instance, reference_ints
from test_exponents import TEXTS as EXPONENT_TEXTS

WORKED = {
    "m": 4,
    "k": 4,
    "n": 4,
    "q": "2",
    "sigma": "2",
    "balls": [
        {"p": "inf", "theta": "2", "nu": 1.0},
        {"p": "1", "theta": "2", "nu": 4.0},
    ],
}


@pytest.fixture
def worked_file(tmp_path):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(WORKED))
    return str(path)


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_instance(tmp_path, data) -> str:
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_module_runs_as_a_script(worked_file, capsys, monkeypatch):
    # `python -m mixwidth.cli` runs `main` on sys.argv and exits with its code
    code, expected, _ = run_cli(capsys, worked_file, "--format", "json")
    monkeypatch.setattr(sys, "argv", ["mixwidth", worked_file, "--format", "json"])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # runpy: the module is already imported
        with pytest.raises(SystemExit) as exit:
            runpy.run_module("mixwidth.cli", run_name="__main__")
    assert exit.value.code == code == 0
    assert capsys.readouterr().out == expected


class TestEstimate:
    def test_json_report(self, worked_file, capsys):
        code, out, _ = run_cli(capsys, worked_file, "--mode", "estimate", "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["schema"] == "mixwidth-report/1"
        assert report["psi"] == pytest.approx(2.0, rel=1e-12)
        assert report["argmin"] == [0, 1, 3]
        assert report["components"][2] == "inf"
        cert = report["certificates"]["1"]
        assert cert["weights"] == ["1/2", "1/2"]
        assert cert["theta"] == "2"
        assert not report["n_zero_convention"]

    def test_table_output(self, worked_file, capsys):
        code, out, _ = run_cli(capsys, worked_file)
        assert code == 0
        assert "psi = 2.0" in out
        assert "argmin = {0, 1, 3}" in out

    def test_malformed_exponent_names_field(self, tmp_path, capsys):
        bad = dict(WORKED, balls=[{"p": "2x", "theta": "2", "nu": 1.0}])
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        code, _, err = run_cli(capsys, str(path))
        assert code != 0
        assert "balls[0].p" in err

    def test_invalid_json_reports_line(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"m": 4,\n "k": }')
        code, _, err = run_cli(capsys, str(path))
        assert code != 0
        assert "line 2" in err

    def test_deeply_nested_json_is_one_line(self, tmp_path, capsys):
        path = tmp_path / "nested.json"
        path.write_text('{"a":' * 100_000)
        code, out, err = run_cli(capsys, str(path))
        assert (code, out) == (1, "")
        assert err.startswith(f"mixwidth: error: {path}: invalid JSON: maximum recursion depth exceeded")
        assert err.count("\n") == 1

    def test_non_utf8_file_names_the_file(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b"\xff" + json.dumps(WORKED).encode())
        code, out, err = run_cli(capsys, str(path))
        assert (code, out) == (1, "")
        assert err == (f"mixwidth: error: {path}: invalid JSON: 'utf-8' codec can't decode "
                       "byte 0xff in position 0: invalid start byte\n")

    def test_instance_validation_error(self, tmp_path, capsys):
        bad = dict(WORKED, n=16)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        code, _, err = run_cli(capsys, str(path))
        assert code != 0
        assert "exceeds" in err

    def test_missing_instance(self, capsys):
        code, _, err = run_cli(capsys, "--mode", "estimate")
        assert code != 0 and "requires an instance file" in err

    def test_n_zero_flagged(self, tmp_path, capsys):
        data = dict(WORKED, n=0)
        path = tmp_path / "n0.json"
        path.write_text(json.dumps(data))
        code, out, _ = run_cli(capsys, str(path), "--format", "json")
        assert code == 0
        assert json.loads(out)["n_zero_convention"] is True

    def test_single_ball_report_shape(self, tmp_path, capsys):
        data = dict(WORKED, balls=[{"p": "3", "theta": "5/2", "nu": 2.0}])
        path = tmp_path / "single.json"
        path.write_text(json.dumps(data))
        code, out, _ = run_cli(capsys, str(path), "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["argmin"] == [0]
        assert math.isfinite(report["components"][0])
        assert report["components"][1:] == ["inf"] * 7

    def test_deterministic_output(self, worked_file, capsys):
        _, out1, _ = run_cli(capsys, worked_file, "--format", "json")
        _, out2, _ = run_cli(capsys, worked_file, "--format", "json")
        assert out1 == out2

    def test_numeric_exponents_accepted_exactly(self, tmp_path, capsys):
        data = dict(WORKED, q=2, sigma=2.5, n=1,
                    balls=[{"p": 3, "theta": "2", "nu": 1}])
        path = tmp_path / "numeric.json"
        path.write_text(json.dumps(data))
        code, out, _ = run_cli(capsys, str(path), "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["instance"]["sigma"] == "5/2"  # decimal parsed exactly
        assert report["instance"]["balls"][0]["p"] == "3"


class TestSweep:
    def test_csv_round_trip_and_monotone(self, worked_file, capsys):
        code, out, _ = run_cli(
            capsys, worked_file, "--mode", "sweep", "--format", "csv"
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [int(r["n"]) for r in rows] == list(range(0, 9))
        psis = [float(r["psi"]) for r in rows]
        for a, b in zip(psis, psis[1:]):
            assert b <= a * (1 + 1e-12)
        # round trip: parse back exactly
        from mixwidth import psi as psi_fn
        from mixwidth.cli import load_instance
        from mixwidth.psi import Instance
        from mixwidth.phi import Dimensions

        inst = load_instance(worked_file)
        for row in rows:
            n = int(row["n"])
            est = psi_fn(Instance(Dimensions(4, 4, n), inst.target, inst.balls))
            assert float(row["psi"]) == est.value  # repr round-trips floats
            for j in range(8):
                cell = row[f"psi_{j}"]
                if cell == "inf":
                    assert math.isinf(est.components[j])
                else:
                    assert float(cell) == est.components[j]

    def test_empty_range_header_only(self, worked_file, capsys):
        code, out, _ = run_cli(
            capsys, worked_file, "--mode", "sweep", "--n-from", "3", "--n-to", "3",
            "--format", "csv",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 1 and rows[0]["n"] == "3"

    def test_range_validation(self, worked_file, capsys):
        code, _, err = run_cli(capsys, worked_file, "--mode", "sweep", "--n-to", "9")
        assert code != 0 and "sweep range" in err

    def test_row_limit(self, tmp_path, capsys, monkeypatch):
        # m = k = 10**30: the default range 0..m*k/2 is refused before any row is built
        path = write_instance(tmp_path, {**WORKED, "m": 10**30, "k": 10**30, "n": 10**30})
        code, out, err = run_cli(capsys, path, "--mode", "sweep")
        assert (code, out) == (1, "")
        assert err == (
            f"mixwidth: error: sweep of {10**60 // 2 + 1} rows exceeds the limit of "
            f"{cli.SWEEP_ROW_LIMIT}; narrow it with --n-from and --n-to\n"
        )
        assert run_cli(capsys, path, "--mode", "sweep", "--n-from", "5", "--n-to", "10")[0] == 0
        # a range of exactly the limit runs, one row more is refused
        monkeypatch.setattr(cli, "SWEEP_ROW_LIMIT", 8)
        assert run_cli(capsys, path, "--mode", "sweep", "--n-from", "3", "--n-to", "10")[0] == 0
        assert run_cli(capsys, path, "--mode", "sweep", "--n-from", "3", "--n-to", "11")[0] == 1

    def test_row_limit_in_help(self):
        assert f"at most {cli.SWEEP_ROW_LIMIT} rows" in " ".join(cli.build_parser().format_help().split())

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_closed_stdout_exits_quietly(self, tmp_path, fmt):
        # `mixwidth F --mode sweep | head -1`: the output outgrows the pipe's
        # buffer (the CSV, the smaller, is 127 KB against Linux's 64 KB), the
        # reader closes it after one line, and the run ends with 128 + SIGPIPE
        # and nothing on stderr
        path = write_instance(tmp_path, {**WORKED, "m": 128, "k": 128})
        code = "import sys, mixwidth.cli; sys.exit(mixwidth.cli.main(sys.argv[1:]))"
        proc = subprocess.Popen(
            [sys.executable, "-c", code, path, "--mode", "sweep", "--format", fmt, "--n-to", "2000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.stdout.readline() == {"json": b"{\n", "csv": ",".join(CSV_COLUMNS).encode() + b"\n"}[fmt]
        proc.stdout.close()
        assert (proc.stderr.read(), proc.wait()) == (b"", 141)
        proc.stderr.close()

    def test_argmin_set_format(self, worked_file, capsys):
        code, out, _ = run_cli(
            capsys, worked_file, "--mode", "sweep", "--n-from", "4", "--n-to", "4",
            "--format", "csv",
        )
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows[0]["argmin_set"] == "0|1|3"


class TestVerifyMode:
    def test_passes_with_small_trials(self, capsys):
        code, out, _ = run_cli(capsys, "--mode", "verify", "--trials", "10")
        assert code == 0
        assert "PASS" in out

    def test_corruption_fails(self, capsys):
        code, out, _ = run_cli(
            capsys, "--mode", "verify", "--trials", "10",
            "--self-test-corrupt", "phi-branch-overlap",
        )
        assert code != 0
        assert "FAIL" in out

    def test_deterministic(self, capsys):
        _, out1, _ = run_cli(capsys, "--mode", "verify", "--trials", "10", "--seed", "2")
        _, out2, _ = run_cli(capsys, "--mode", "verify", "--trials", "10", "--seed", "2")
        assert out1 == out2

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "--mode", "verify", "--trials", "5", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert all(s["passed"] for s in payload["suites"])

    def test_negative_seed_rejected(self, capsys):
        code, out, err = run_cli(capsys, "--mode", "verify", "--seed", "-1")
        assert code == 1
        assert out == ""
        assert err == "mixwidth: error: seed must be a nonnegative integer, got -1\n"

    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_trials_below_one_rejected(self, capsys, trials):
        code, out, err = run_cli(capsys, "--mode", "verify", "--trials", trials)
        assert code == 1
        assert out == ""
        assert err == f"mixwidth: error: trials must be at least 1, got {trials}\n"

    def test_csv_rejected(self, capsys):
        # verify prints tables or JSON only; csv is a bad argument, rejected before any suite runs
        with pytest.raises(SystemExit) as exit_info:
            main(["--mode", "verify", "--format", "csv"])
        captured = capsys.readouterr()
        assert exit_info.value.code == 2
        assert captured.out == ""
        assert captured.err.endswith(
            "mixwidth: error: argument --format: csv is not a format of --mode verify (choose table or json)\n")


class TestWitnessMode:
    def test_csv_rejected(self, worked_file, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([worked_file, "--mode", "witness", "--format", "csv"])
        captured = capsys.readouterr()
        assert exit_info.value.code == 2
        assert captured.out == ""
        assert captured.err.startswith("usage: mixwidth ")
        assert captured.err.endswith(
            "mixwidth: error: argument --format: csv is not a format of --mode witness (choose table or json)\n")

    def test_report(self, worked_file, capsys):
        code, out, _ = run_cli(capsys, worked_file, "--mode", "witness", "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["psi"] == pytest.approx(2.0)
        assert 0 < report["witness_lb"] <= report["psi"] * 4
        assert 1 <= report["r"] <= 4 and 1 <= report["l"] <= 4

    def test_psi_underflow_is_invalid_input(self, tmp_path, capsys):
        data = {"m": 64, "k": 64, "n": 2048, "q": "3", "sigma": "3",
                "balls": [{"p": "1", "theta": "1", "nu": 5e-324}]}
        path = write_instance(tmp_path, data)
        code, out, _ = run_cli(capsys, path, "--format", "json")
        assert code == 0 and json.loads(out)["psi"] == 0.0
        code, out, err = run_cli(capsys, path, "--mode", "witness")
        assert code == 1
        assert out == ""
        assert err == (
            "mixwidth: error: psi underflows to 0 for these radii, "
            "so the witness ratio is undefined\n"
        )


class TestOutOfRangeIntegers:
    @pytest.mark.parametrize("mode", ["estimate", "witness"])
    def test_radius(self, tmp_path, capsys, mode):
        data = dict(WORKED, balls=[WORKED["balls"][0], {"p": "1", "theta": "2", "nu": 10**400}])
        code, out, err = run_cli(capsys, write_instance(tmp_path, data), "--mode", mode)
        assert code == 1
        assert out == ""
        assert err == "mixwidth: error: balls[1].nu: integer too large for a float\n"

    @pytest.mark.parametrize(
        "fields, name",
        [({"m": 10**400}, "m"), ({"k": 10**400}, "k"),
         ({"m": 10**300, "k": 10**300, "n": 10**400}, "n")],
    )
    def test_dimension(self, tmp_path, capsys, fields, name):
        code, out, err = run_cli(capsys, write_instance(tmp_path, dict(WORKED, **fields)))
        assert code == 1
        assert out == ""
        assert err == f"mixwidth: error: {name}: integer too large for a float\n"

    def test_largest_float_radius_accepted(self, tmp_path, capsys):
        nu = int(sys.float_info.max)
        data = dict(WORKED, balls=[{"p": "1", "theta": "2", "nu": nu}])
        code, out, _ = run_cli(capsys, write_instance(tmp_path, data), "--format", "json")
        assert code == 0
        assert json.loads(out)["instance"]["balls"][0]["nu"] == sys.float_info.max


class TestInternalFailures:
    def test_one_line_error_without_traceback(self, worked_file, capsys, monkeypatch):
        def broken(*args):
            raise ConsistencyError("applicable branches disagree:\n{1: 1.0, 2: 2.0}")

        monkeypatch.setattr(sys.modules["mixwidth.psi"], "_profile", broken)
        code, out, err = run_cli(capsys, worked_file, "--format", "json")
        assert code == 4
        assert out == ""
        assert err == (
            "mixwidth: error: internal consistency failure: "
            "applicable branches disagree: {1: 1.0, 2: 2.0}\n"
        )

    def test_rising_sweep_column(self, worked_file, capsys, monkeypatch):
        def rising(inst):
            value = float(inst.dims.n + 1)
            return PsiEstimate(value, (value,) + (math.inf,) * 7, (0,))

        # sweep rows take their estimates from psi_sweep, one per n of the range
        def sweep(inst, ns):
            return (rising(Instance(Dimensions(inst.dims.m, inst.dims.k, n), inst.target, inst.balls))
                    for n in ns)

        monkeypatch.setattr(importlib.import_module("mixwidth.sweep"), "psi_sweep", sweep)
        code, out, err = run_cli(
            capsys, worked_file, "--mode", "sweep", "--format", "csv",
            "--n-from", "0", "--n-to", "2",
        )
        assert code == 4
        assert out == ""
        assert err == (
            "mixwidth: error: internal consistency failure: "
            "psi not monotone: n=0 -> 1.0, n=1 -> 2.0\n"
        )

    @pytest.mark.parametrize("error", [ZeroDivisionError, ArithmeticError, RuntimeError])
    def test_stray_errors_propagate(self, worked_file, capsys, monkeypatch, error):
        # Only a ConsistencyError is an internal consistency failure; any
        # other exception is a bug and keeps its traceback.
        def broken(*args):
            raise error("float division by zero")

        monkeypatch.setattr(sys.modules["mixwidth.psi"], "_profile", broken)
        with pytest.raises(error, match="float division by zero"):
            main([worked_file, "--format", "json"])
        assert capsys.readouterr().err == ""


OVERFLOW = {"m": 64, "k": 64, "n": 4, "q": "3", "sigma": "3",
            "balls": [{"p": "inf", "theta": "inf", "nu": 1e308}]}


class TestPsiOverflow:
    @pytest.mark.parametrize("args", [
        ["--mode", "estimate"],
        ["--mode", "estimate", "--format", "json"],
        ["--mode", "estimate", "--format", "csv"],
        ["--mode", "sweep", "--format", "csv", "--n-from", "0", "--n-to", "2"],
        ["--mode", "sweep", "--format", "json", "--n-from", "4", "--n-to", "4"],
        ["--mode", "witness"],
        ["--mode", "witness", "--format", "json"],
    ])
    def test_is_invalid_input(self, tmp_path, capsys, args):
        # nu * Phi is finite in exact arithmetic but not as a float
        code, out, err = run_cli(capsys, write_instance(tmp_path, OVERFLOW), *args)
        assert code == 1
        assert out == ""
        assert err == "mixwidth: error: psi overflows the float range for these radii\n"


class TestHugeDimensions:
    @pytest.mark.parametrize("args", [
        ["--mode", "witness", "--format", "json"],
        ["--mode", "estimate", "--format", "csv"],
        ["--mode", "sweep", "--format", "csv", "--n-from", "0", "--n-to", "1"],
    ])
    def test_dimensions_beyond_int64(self, tmp_path, capsys, args):
        data = dict(WORKED, m=10**30, k=10**30, n=10**30)
        code, out, err = run_cli(capsys, write_instance(tmp_path, data), *args)
        assert code == 0 and err == ""
        if "witness" in args:
            report = json.loads(out)
            assert report["ratio"] == report["witness_lb"] / report["psi"]
            assert 1 <= report["r"] <= 10**30 and 1 <= report["l"] <= 10**30
        else:
            assert all(math.isfinite(float(r["psi"])) for r in csv.DictReader(io.StringIO(out)))


class TestInstanceRejections:
    @pytest.mark.parametrize("change, message", [
        ({"q": [2]}, "q: expected an exponent string, got [2]"),
        ({"balls": [{"p": None, "theta": "2", "nu": 1.0}]},
         "balls[0].p: expected an exponent string, got None"),
        ({"m": "4"}, "m: expected an integer, got '4'"),
        ({"k": 4.0}, "k: expected an integer, got 4.0"),
        ({"n": True}, "n: expected an integer, got True"),
        ({"sigma": None}, "missing field 'q' or 'sigma'"),
        ({"balls": []}, "'balls' must be a nonempty list"),
        ({"balls": {"p": "2"}}, "'balls' must be a nonempty list"),
        ({"balls": [WORKED["balls"][0], "ball"]}, "balls[1]: expected an object"),
        ({"balls": [{"p": "2", "nu": 1.0}]}, "balls[0].theta: missing"),
        ({"balls": [{"theta": "2", "nu": 1.0}]}, "balls[0].p: missing"),
        ({"balls": [{"p": "2", "theta": "2"}]}, "balls[0].nu: missing"),
        ({"balls": [{"p": "2", "theta": "2", "nu": "1"}]}, "balls[0].nu: expected a number, got '1'"),
        ({"balls": [{"p": "2", "theta": "2", "nu": False}]},
         "balls[0].nu: expected a number, got False"),
    ])
    def test_field_named(self, tmp_path, capsys, change, message):
        # a None in `change` drops the field
        data = {key: value for key, value in {**WORKED, **change}.items() if value is not None}
        code, out, err = run_cli(capsys, write_instance(tmp_path, data))
        assert code == 1
        assert out == ""
        assert err == f"mixwidth: error: {message}\n"

    @pytest.mark.parametrize("nu", [-1.0, 0, math.nan, math.inf], ids=["-1.0", "0", "NaN", "Infinity"])
    def test_radius_out_of_range_names_the_ball(self, tmp_path, capsys, nu):
        data = dict(WORKED, balls=[WORKED["balls"][0], {"p": "1", "theta": "2", "nu": nu}])
        code, out, err = run_cli(capsys, write_instance(tmp_path, data))
        assert (code, out) == (1, "")
        assert err == f"mixwidth: error: balls[1].nu: radius must lie in (0, {sys.float_info.max!r}]\n"

    @pytest.mark.parametrize("field", ["m", "k", "n"])
    def test_missing_dimension(self, tmp_path, capsys, field):
        data = {key: value for key, value in WORKED.items() if key != field}
        code, out, err = run_cli(capsys, write_instance(tmp_path, data))
        assert (code, out, err) == (1, "", f"mixwidth: error: missing field {field!r}\n")

    def test_non_object_file(self, tmp_path, capsys):
        code, out, err = run_cli(capsys, write_instance(tmp_path, [WORKED]))
        assert (code, out) == (1, "")
        assert err == "mixwidth: error: instance file must contain a JSON object\n"

    def test_unreadable_path(self, tmp_path, capsys):
        path = str(tmp_path / "absent.json")
        code, out, err = run_cli(capsys, path)
        assert (code, out) == (1, "")
        assert err.startswith(f"mixwidth: error: cannot read {path}: ")
        assert err.count("\n") == 1


class TestReportForms:
    def test_sweep_json_rows_are_run_sweep_rows(self, worked_file, capsys):
        code, out, _ = run_cli(
            capsys, worked_file, "--mode", "sweep", "--format", "json", "--n-from", "2",
            "--n-to", "6",
        )
        assert code == 0
        payload = json.loads(out)
        assert (payload["schema"], payload["mode"]) == ("mixwidth-report/1", "sweep")
        assert payload["rows"] == run_sweep(load_instance(worked_file), 2, 6)

    def test_sweep_table(self, worked_file, capsys):
        code, out, _ = run_cli(
            capsys, worked_file, "--mode", "sweep", "--n-from", "0", "--n-to", "8"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split() == CSV_COLUMNS
        rows = run_sweep(load_instance(worked_file), 0, 8)
        assert [line.split() for line in lines[1:]] == [
            [str(row[c]) for c in CSV_COLUMNS] for row in rows
        ]

    def test_estimate_csv_is_sweep_row(self, worked_file, capsys):
        code, estimate, _ = run_cli(capsys, worked_file, "--format", "csv")
        assert code == 0
        _, sweep, _ = run_cli(
            capsys, worked_file, "--mode", "sweep", "--format", "csv", "--n-from", "4",
            "--n-to", "4",
        )
        assert estimate == sweep
        assert estimate.splitlines()[0] == ",".join(CSV_COLUMNS)

    def test_estimate_table(self, worked_file, capsys):
        code, out, _ = run_cli(capsys, worked_file)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "instance: m=4 k=4 n=4 q=2 sigma=2 balls=2"
        assert lines[3].split() == ["j", "value", "certificate"]
        assert [line.split()[0] for line in lines[4:]] == [str(j) for j in range(8)]
        assert not any(line.startswith("note:") for line in lines)

    def test_n_zero_table_note(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, write_instance(tmp_path, dict(WORKED, n=0)))
        assert code == 0
        lines = out.splitlines()
        assert lines[3] == "note: n = 0 evaluated under the 0-width convention"
        assert lines[4].split() == ["j", "value", "certificate"]

    def test_witness_table(self, worked_file, capsys):
        code, out, _ = run_cli(capsys, worked_file, "--mode", "witness")
        assert code == 0
        report = witness_report(load_instance(worked_file))
        assert out.splitlines() == [
            f"psi = {report['psi']!r}",
            f"witness lower bound = {report['witness_lb']!r} at r={report['r']}, l={report['l']}",
            f"ratio = {report['ratio']!r}",
        ]


@pytest.mark.parametrize("args, loaded", [
    (["--mode", "estimate"], set()),
    (["--mode", "witness"], set()),
    (["--mode", "sweep", "--n-to", "2"], {"sweep"}),
    (["--mode", "verify", "--trials", "1"], {"norms", "verify"}),
], ids=["estimate", "witness", "sweep", "verify"])
def test_a_mode_imports_only_what_it_runs(worked_file, args, loaded):
    # norms, oracles, sweep and verify load on first use, from the package and the CLI alike
    code = ("import sys, mixwidth.cli; mixwidth.cli.main(sys.argv[1:]); "
            "print(' '.join(sorted(m for m in sys.modules if m.startswith('mixwidth.'))), file=sys.stderr)")
    argv = args if "verify" in args else [worked_file, *args]
    result = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True, check=True)
    modules = {m.split(".")[1] for m in result.stderr.split()}
    assert modules & {"norms", "oracles", "sweep", "verify"} == loaded


def test_lazy_modules_read_as_attributes():
    # a module loaded on first use is an attribute of the package, as when
    # it was imported eagerly, and dir() lists it and its names, not the loader
    code = ("import mixwidth; names = dir(mixwidth); "
            "print(all(getattr(mixwidth, m).__name__ == 'mixwidth.' + m for m in ('norms', 'oracles', 'sweep', 'verify')), "
            "{'norms', 'oracles', 'sweep', 'verify', 'psi_sweep', 'run_suites'} <= set(names), "
            "{'importlib', '_LAZY', '__getattr__', '__dir__'} & set(names), names == dir(mixwidth), "
            "set(mixwidth.__all__) <= set(names))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert result.stdout.split() == ["True", "True", "set()", "True", "True"]


# ---------------------------------------------------------------------------
# the loader against its field-by-field reference, and the JSON writer
# ---------------------------------------------------------------------------

ROOT = Path(__file__).resolve().parent.parent


def _pool_instances(workload: str) -> list:
    """Every instance of a perfbench workload's pool, from its generator."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # its dataclasses look it up
    spec.loader.exec_module(module)
    wl = module.WORKLOADS[workload]
    entries = (module.pool_entry(wl, s, v) for s in range(len(wl.slots)) for v in range(wl.variants))
    return [entry["instance"] for entry in entries]


def _outcome(data, load, ints, arrays):
    """What a loader makes of `data`: its error message, or the instance with its caches."""
    try:
        inst = load(data)
    except ValueError as exc:
        return str(exc)
    return inst, [ints(b) for b in inst.balls], [a.tobytes() for a in arrays(inst)]


def _loaded(data):
    return _outcome(data, cli.instance_from_dict, lambda b: b._ints, lambda inst: inst._ball_arrays)


def _reference(data):
    return _outcome(data, reference_instance, reference_ints, reference_ball_arrays)


def _same_load(data):
    assert _loaded(data) == _reference(data)


class TestLoaderReference:
    @pytest.mark.parametrize("workload", ["estimate-large-N", "small-mixed"])
    def test_pool_files(self, workload):
        for data in _pool_instances(workload):
            if data is not None:
                _same_load(data)

    def test_ci_families(self, tmp_path):
        ci_families.write(tmp_path)
        for name in ci_families.FAMILIES:
            _same_load(json.loads((tmp_path / f"{name}.json").read_text()))

    @pytest.mark.parametrize("radii", [(2.0, 1.0, 3.0), (1.0, 1.0, 1.0), (3.0, 2.0, 1.0)])
    def test_duplicate_points_written_differently(self, radii):
        # "2", "4/2" and "2.0" are one exponent: one ball, the smallest radius,
        # the first seen among equal ones, at the place of the first text
        texts = ("2", "4/2", "2.0")
        balls = [{"p": "3", "theta": "inf", "nu": 5.0}]
        balls += [{"p": t, "theta": "3/2", "nu": nu} for t, nu in zip(texts, radii)]
        balls += [{"p": "3/2", "theta": t, "nu": nu} for t, nu in zip(texts, reversed(radii))]
        data = dict(WORKED, balls=balls)
        _same_load(data)
        E = cli.parse_exponent
        assert cli.instance_from_dict(data).balls == (
            BallSpec(E("3"), E("inf"), 5.0),
            BallSpec(E("2"), E("3/2"), min(radii)),
            BallSpec(E("3/2"), E("2"), min(radii)),
        )

    def test_numbers_are_keyed_by_their_text(self):
        # 1, 1.0 and True are equal keys, but their texts "1", "1.0" and "True" are not
        for values in ([1, 1.0, "1"], [1, True], [2.0, "2.0", 2]):
            balls = [{"p": v, "theta": str(i + 1), "nu": 1.0} for i, v in enumerate(values)]
            _same_load(dict(WORKED, balls=balls))

    def test_denominators_past_float_precision(self):
        # U and D past 2**53: U/D must be rounded once, as float(Fraction) is
        big = [10**30 + 57, 10**30 + 91, 10**25 + 13, 10**20 + 39]
        balls = [{"p": f"{a}/{i + 1}", "theta": f"{b}/{i + 2}", "nu": 1.0 + i}
                 for i, (a, b) in enumerate(zip(big, big[1:] + big[:1]))]
        _same_load(dict(WORKED, balls=balls))

    @pytest.mark.parametrize("field", ["p", "theta", "q", "sigma"])
    def test_every_exponent_form(self, field):
        for text in [*EXPONENT_TEXTS, "", "nope", "0.5", "-3", "1/0", "2x", 3, 2.5, True, None, [2]]:
            ball = dict(WORKED["balls"][1])
            data = dict(WORKED, balls=[WORKED["balls"][0], ball])
            (ball if field in ball else data)[field] = text
            _same_load(data)

    @pytest.mark.parametrize("ball", [
        "ball", None, [1], {"theta": "2", "nu": 1.0}, {"p": "2", "nu": 1.0}, {"p": "2", "theta": "2"},
        {"p": "2", "theta": "2", "nu": True}, {"p": "2", "theta": "2", "nu": "1"},
        {"p": "2", "theta": "2", "nu": None}, {"p": "2", "theta": "2", "nu": 10**400},
        {"p": "2", "theta": "2", "nu": -(10**400)},
    ])
    def test_malformed_balls(self, ball):
        _same_load(dict(WORKED, balls=[WORKED["balls"][0], ball]))

    @pytest.mark.parametrize("nu", [-1.0, 0, math.nan, math.inf, -math.inf])
    def test_radius_message_gains_the_field(self, nu):
        data = dict(WORKED, balls=[WORKED["balls"][0], {"p": "1", "theta": "2", "nu": nu}])
        expected = _reference(data)
        assert expected.startswith("radius must lie in")
        assert _loaded(data) == "balls[1].nu: " + expected


json_leaves = (
    st.none() | st.booleans() | st.integers() | st.integers(min_value=10**20, max_value=10**400)
    | st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
    | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, math.inf, -math.inf, math.nan])
    | st.text() | st.text(st.characters(max_codepoint=0x1F)) | st.text(st.characters(min_codepoint=0x80))
)
json_values = st.recursive(
    json_leaves,
    lambda inner: st.lists(inner) | st.lists(inner).map(tuple) | st.dictionaries(st.text(), inner),
    max_leaves=40,
)


class TestJsonWriter:
    @given(json_values)
    def test_matches_indented_dumps(self, value):
        assert cli._json(value) == json.dumps(value, indent=2)

    def test_numpy_float_is_a_float(self):
        value = {"x": np.float64(0.1), "y": [np.float64(-np.inf), np.float64(1e300)]}
        assert cli._json(value) == json.dumps(value, indent=2)

    def test_other_objects_refused(self):
        for value in ({"x": object()}, [np.int64(1)], {1: "x"}):
            with pytest.raises(TypeError):
                cli._json(value)

    @pytest.mark.parametrize("args", [
        ["--mode", "estimate"], ["--mode", "witness"], ["--mode", "sweep", "--n-to", "8"],
        ["--mode", "verify", "--trials", "2"],
    ], ids=["estimate", "witness", "sweep", "verify"])
    def test_every_report_mode(self, worked_file, capsys, monkeypatch, args):
        written = []

        def checked(obj):
            text = write(obj)
            assert text == json.dumps(obj, indent=2)
            written.append(text)
            return text

        write = cli._json
        monkeypatch.setattr(cli, "_json", checked)
        code, out, _ = run_cli(capsys, *([] if "verify" in args else [worked_file]), *args, "--format", "json")
        assert code == 0
        assert out == written[0] + "\n"
