"""Command-line interface: formats, manifests, exit codes, schema."""
import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

import abmgrid
import abmgrid.cli as cli
from abmgrid import CONSTANTS, IntegrationError, IntegratorConfig, Mode, \
    __version__, integrate_floats, integrate_star
from abmgrid.cli import main

P_CENTRAL = "3.631382e35"
FAST_TOV = ["tov", "--pc", P_CENTRAL, "--order", "4", "--tol", "1e-6",
            "--dx0", "1000", "--dxmin", "1000"]


def load_schema():
    from importlib import resources
    with resources.files("abmgrid").joinpath(
            "data/output-schema.json").open() as fh:
        return json.load(fh)


def check_against_schema(payload):
    """Structural validation against the shipped output schema."""
    schema = load_schema()
    assert isinstance(payload, dict)
    assert set(schema["required"]) <= set(payload)
    assert set(payload) <= set(schema["properties"])  # no extra properties
    assert payload["kind"] in schema["properties"]["kind"]["enum"]
    assert isinstance(payload["columns"], list)
    assert all(isinstance(c, str) for c in payload["columns"])
    assert isinstance(payload["rows"], list)
    for row in payload["rows"]:
        assert isinstance(row, list)
        for cell in row:
            assert cell is None or isinstance(cell, (int, float, str))
    assert isinstance(payload["summary"], dict)
    for value in payload["summary"].values():
        assert isinstance(value, (int, float, str, bool))


# --- exit codes --------------------------------------------------------

def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert capsys.readouterr().out.strip() == f"abmgrid {__version__}"


def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == 2


def test_missing_required_flag_is_usage_error(capsys):
    assert main(["poly"]) == 2
    assert main(["tov", "--order", "4"]) == 2


def test_bad_choice_is_usage_error(capsys):
    assert main(["poly", "--order", "4", "--format", "yaml"]) == 2


def test_validation_failures_exit_two(capsys):
    assert main(["tov", "--pc", "0", "--order", "4"]) == 2
    assert main(["tov", "--pc", "nan", "--order", "4"]) == 2
    assert main(["poly", "--order", "0"]) == 2
    assert main(["poly", "--order", "4", "--xend", "0.1"]) == 2
    assert main(["sieve", "--lo", "0"]) == 2
    assert main(["sweep", "--orders", "", "--tols", "1e-4",
                 "--pc", P_CENTRAL]) == 2
    assert main(["sweep", "--orders", "5..3", "--tols", "1e-4",
                 "--pc", P_CENTRAL]) == 2
    assert main(["sweep", "--orders", "4", "--tols", "1e-4",
                 "--pc", P_CENTRAL, "--ref-mass", "1e33"]) == 2
    err = capsys.readouterr().err
    assert "error" in err
    # non-finite and out-of-range numbers are refused as they are parsed
    sweep = ["sweep", "--orders", "4", "--pc", P_CENTRAL]
    for argv in (["poly", "--order", "4", "--tol", "nan"],
                 ["poly", "--order", "4", "--xend", "nan"],
                 ["poly", "--order", "4", "--dx", "inf"],
                 ["poly", "--order", "4", "--y0", "-inf"],
                 ["poly", "--order", "4", "--x0", "-nan"],
                 ["poly", "--order", "4", "--x0", "-1e999"],
                 ["tov", "--pc", P_CENTRAL, "--order", "4", "--dx0", "nan"],
                 ["tov", "--pc", P_CENTRAL, "--order", "4", "--tol", "inf",
                  "--dxmin", "nan"],
                 ["tov", "--pc", P_CENTRAL, "--order", "4", "--dx0", "1",
                  "--dxmin", "10"],
                 ["sieve", "--hi", "inf"],
                 ["sieve", "--jobs", "2"],
                 ["sieve", "--order", "four"],
                 sweep + ["--tols", "inf"],
                 sweep + ["--tols", "1e-4", "--jobs", "2"],
                 sweep + ["--tols", "1e-4", "--ref-mass", "nan",
                          "--ref-radius", "1e6"]):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert "error:" in err, argv
        assert "Traceback" not in err, argv


BAD_LISTS = ([("--orders", value) for value in
              ("0..3", "5..3", "", " ", "a", "3..", "3,0", "1..x")]
             + [("--tols", value) for value in
                ("0", "-1e-2", "nan", "inf", "", "1e-2,x", ",")])


@pytest.mark.parametrize("flag, value", BAD_LISTS,
                         ids=[f"{flag[2:]}={value!r}"
                              for flag, value in BAD_LISTS])
def test_bad_list_values_are_refused_as_they_are_parsed(
        tmp_path, capsys, flag, value):
    lists = {"--orders": "3", "--tols": "1e-2", flag: value}
    out_path = tmp_path / "sweep.csv"
    assert main(["sweep", "--orders", lists["--orders"],
                 "--tols", lists["--tols"], "--pc", P_CENTRAL,
                 "--ref-mass", "1.412e33", "--ref-radius", "9.16e5",
                 "--out", str(out_path)]) == 2
    err = capsys.readouterr().err
    assert f"error: argument {flag}: " in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []  # no table, no manifest


CROSS_FLAG_RULES = [
    (["poly", "--order", "4", "--xend", "0.1"], "--xend must exceed --x0"),
    (["tov", "--pc", P_CENTRAL, "--order", "4", "--dx0", "1",
      "--dxmin", "10"], "--dx0 must be >= --dxmin"),
    (["sieve", "--lo", "2e35", "--hi", "1e35"],
     "ln --lo must be below ln --hi"),
    (["sweep", "--orders", "4", "--tols", "1e-4", "--pc", P_CENTRAL,
      "--ref-mass", "1e33"],
     "give both --ref-mass and --ref-radius or neither"),
    # ends one ulp apart share one logarithm, so no search lies between
    (["sieve", "--lo", "1e35", "--hi", "1.0000000000000002e35"],
     "ln --lo must be below ln --hi"),
]


@pytest.mark.parametrize("argv, rule", CROSS_FLAG_RULES,
                         ids=["poly", "tov", "sieve", "sweep", "sieve-ulp"])
def test_cross_flag_rules_are_usage_errors_of_their_command(
        tmp_path, capsys, argv, rule):
    command = argv[0]
    if command != "sieve":  # the commands that write a table
        argv = argv + ["--out", str(tmp_path / "table.csv")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert f"usage: abmgrid {command} " in captured.err
    assert f"abmgrid {command}: error: {rule}\n" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []  # no table, no manifest


@pytest.mark.parametrize("orders, tols, expected_orders, expected_tols", [
    (" 3 , 4 ", "1e-2", [3, 4], [0.01]),
    ("3..5", "1e-2,,1e-5", [3, 4, 5], [0.01, 1e-05]),
])
def test_list_flags_parse_to_lists(orders, tols, expected_orders,
                                   expected_tols):
    args = cli.build_parser().parse_args(
        ["sweep", "--orders", orders, "--tols", tols, "--pc", P_CENTRAL])
    assert args.orders == expected_orders
    assert args.tols == expected_tols


# --- poly --------------------------------------------------------------

def test_poly_csv_to_stdout(capsys):
    assert main(["poly", "--order", "4", "--mode", "abm-fixed"]) == 0
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert lines[0] == "i,x,dx,y,epsilon_max,y_exact,error"
    assert len(lines) == 1 + 18  # (5.0 - 0.5) / 0.25 steps
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[1]) == 0.75
    # the summary line goes to stderr, not into the data stream
    assert "steps=18" in err
    assert "final_error=" in err


def test_poly_error_is_measured_from_the_given_start(capsys):
    # the exact curve passes through (--x0, --y0), not through y(0.5) = 1
    assert main(["poly", "--order", "4", "--x0", "0", "--xend", "1e-300"]) == 0
    out, err = capsys.readouterr()
    final_error = float(err.split("final_error=")[1].split()[0])
    assert abs(final_error) <= 1e-15
    for line in out.splitlines()[1:]:
        assert abs(float(line.split(",")[-1])) <= 1e-15


@pytest.mark.parametrize("flags", [
    ["--x0", "-1e-3", "--xend", "1e0"],
    ["--y0", "-2e0"],
    ["--x0", "-2.5E0", "--xend", "-1e-1"],
])
def test_negative_values_in_exponent_form_are_values(tmp_path, flags):
    # argparse alone reads -1e-3 as a flag; here it is a value, given as
    # its own token or joined with "=", and gives the same bytes
    split, joined = tmp_path / "split.csv", tmp_path / "joined.csv"
    argv = ["poly", "--order", "4", "--out"]
    assert main(argv + [str(split)] + flags) == 0
    pairs = [f"{flag}={value}" for flag, value in zip(flags[::2], flags[1::2])]
    assert main(argv + [str(joined)] + pairs) == 0
    assert split.read_bytes() == joined.read_bytes()


def test_poly_serialization_round_trips_doubles(tmp_path):
    csv_path = tmp_path / "run.csv"
    json_path = tmp_path / "run.json"
    assert main(["poly", "--order", "4", "--mode", "abm-fixed",
                 "--out", str(csv_path)]) == 0
    assert main(["poly", "--order", "4", "--mode", "abm-fixed",
                 "--out", str(json_path), "--format", "json"]) == 0
    csv_rows = csv_path.read_text().splitlines()[1:]
    payload = json.loads(json_path.read_text())
    assert len(csv_rows) == len(payload["rows"])
    for text_row, json_row in zip(csv_rows, payload["rows"]):
        y_text = text_row.split(",")[3]
        assert float(y_text) == json_row[3]  # 17 digits: exact round-trip


def test_poly_json_passes_schema(capsys):
    assert main(["poly", "--order", "4", "--mode", "abm-fixed",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    check_against_schema(payload)
    assert payload["kind"] == "trajectory"
    assert payload["summary"]["status"] == "ok"
    assert payload["summary"]["steps"] == 18
    assert payload["summary"]["n_evals"] == 2 * 18 + 1


def test_poly_failure_emits_partial_rows_and_exits_one(
        tmp_path, capsys, monkeypatch):
    # a synthetic step-budget failure carrying a real partial trajectory
    config = IntegratorConfig(order_ab=2, dx_initial=0.25,
                              mode=Mode.ABM_FIXED)
    partial = integrate_floats(lambda x, y: [1.0], [1.0], 0.5, config,
                               x_end=1.5)

    def blow_up(case):
        raise IntegrationError("synthetic failure", partial)

    monkeypatch.setattr(cli, "run_poly_case", blow_up)
    out_path = tmp_path / "partial.csv"
    assert main(["poly", "--order", "2", "--out", str(out_path)]) == 1
    rows = out_path.read_text().splitlines()
    assert len(rows) == 1 + len(partial)
    err = capsys.readouterr().err
    assert "synthetic failure" in err


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_poly_failure_reports_its_tag_as_tov_does(capsys, fmt):
    # the first step's prediction from y' = x^4 at x = 1e98 overflows
    assert main(["poly", "--mode", "abm-fixed", "--order", "4", "--x0", "0",
                 "--xend", "1e100", "--dx", "1e98", "--format", fmt]) == 1
    out, err = capsys.readouterr()
    assert err.splitlines()[0] == "failed (non-finite) after 0 accepted steps"
    assert err.splitlines()[1].startswith("error (non-finite): ")
    assert "Traceback" not in out + err
    if fmt == "csv":
        assert out.splitlines() == ["i,x,dx,y,epsilon_max,y_exact,error"]
    else:
        payload = json.loads(out)
        check_against_schema(payload)
        assert payload["rows"] == []
        assert payload["summary"]["status"].startswith(
            "failed (non-finite): ")


def test_poly_stalled_step_reports_its_own_tag(capsys):
    # at E = 1e-300 the controller's second step is far below the float
    # spacing at x = 0.75, and the engine stops before evaluating it
    assert main(["poly", "--order", "3", "--tol", "1e-300"]) == 1
    out, err = capsys.readouterr()
    assert len(out.splitlines()) == 1 + 1
    assert err.splitlines() == [
        "failed (stalled) after 1 accepted steps",
        "error (stalled): step dx=5.555859961218947e-151 does not advance "
        "x=0.75"]


def test_poly_manifest_records_the_whole_run(tmp_path):
    out_path = tmp_path / "run.csv"
    assert main(["poly", "--order", "3", "--tol", "1e-6",
                 "--out", str(out_path)]) == 0
    manifest = json.loads((tmp_path / "run.csv.manifest.json").read_text())
    assert set(manifest) == {"command", "flags", "config", "constants",
                             "version", "timestamp"}
    assert manifest["command"] == "poly"
    assert manifest["version"] == __version__
    assert manifest["constants"] == CONSTANTS._asdict()
    flags = manifest["flags"]
    assert flags["order"] == 3
    assert flags["tol"] == 1e-6
    # every flag of the command, and nothing argparse carries besides
    assert set(flags) == {"mode", "order", "dx", "tol", "x0", "y0", "xend",
                          "out", "format"}
    config = manifest["config"]
    assert config["order_ab"] == 3
    assert config["target_correction"] == 1e-6
    assert config["mode"] == "abm-adaptive"


def _csv_text(kind, rows):
    stream = io.StringIO()
    cli._write_table(stream, "csv", kind, rows, {})
    return stream.getvalue()


def test_csv_cells_are_written_byte_for_byte():
    # one literal expectation per table layout: counts as integers,
    # every double in 17 significant digits (subnormal, largest finite,
    # signed zero, the infinities and NaN included), text as it is
    poly = _csv_text(
        "trajectory",
        [(0, 0.1, 5e-324, -0.0, 0.0, 1.7976931348623157e308,
          -1.7976931348623157e308),
         (1, math.nan, math.inf, -math.inf, np.float64(0.1),
          np.float64(-2.5e-300), 3.0)])
    assert poly == (
        "i,x,dx,y,epsilon_max,y_exact,error\n"
        "0,0.10000000000000001,4.9406564584124654e-324,-0,0,"
        "1.7976931348623157e+308,-1.7976931348623157e+308\n"
        "1,nan,inf,-inf,0.10000000000000001,-2.5e-300,3\n")
    star = _csv_text(
        "star",
        [(0, 10.0, 10.0, 4.2e-3, 3.631382e35, 0.0, "floor"),
         (1, 20.0, 10.0, 1.0 / 3.0, -0.0, 1e-8, ""),
         (2, 30.0, 10.0, 1.4e33, -2.5e20, math.nan, "cap+floor+surface")])
    assert star == (
        "i,r_cm,dr_cm,m_g,P_erg_cm3,epsilon_max,flags\n"
        "0,10,10,0.0041999999999999997,3.6313819999999999e+35,0,floor\n"
        "1,20,10,0.33333333333333331,-0,1e-08,\n"
        "2,30,10,1.4e+33,-2.5e+20,nan,cap+floor+surface\n")
    sweep = _csv_text(
        "sweep",
        [(3, 1e-2, 120, 0.71017188, 9.16233, 1e-6, 2e-5, "ok"),
         (4, 1e-6, 0, math.nan, math.nan, math.nan, math.nan,
          "non-finite")])
    assert sweep == (
        "order,tol,steps,M_msun,R_km,rel_dM,rel_dR,status\n"
        "3,0.01,120,0.71017187999999998,9.1623300000000008,"
        "9.9999999999999995e-07,2.0000000000000002e-05,ok\n"
        "4,9.9999999999999995e-07,0,nan,nan,nan,nan,non-finite\n")


def test_reruns_are_bit_for_bit(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    argv = ["poly", "--order", "4", "--mode", "abm-fixed", "--out"]
    assert main(argv + [str(first)]) == 0
    assert main(argv + [str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    # manifests agree up to the timestamp and the output path itself
    load = lambda p: json.loads((tmp_path / p).read_text())
    m1, m2 = load("a.csv.manifest.json"), load("b.csv.manifest.json")
    m1.pop("timestamp"), m2.pop("timestamp")
    m1["flags"].pop("out"), m2["flags"].pop("out")
    assert m1 == m2


def test_poly_table_does_not_depend_on_the_cpu(tmp_path):
    # numpy picks its vector kernels by CPU; with the AVX-512 ones turned
    # off (which changes nothing on a CPU without them) the table keeps
    # every byte, the exact curve's cells included
    tables = []
    for disabled in ("", "X86_V4"):
        out = tmp_path / f"poly{disabled}.csv"
        env = dict(fresh_interpreter_env(), NPY_DISABLE_CPU_FEATURES=disabled)
        result = subprocess.run(
            [sys.executable, "-m", "abmgrid.cli", "poly", "--order", "4",
             "--dx", "0.01", "--out", str(out)],
            capture_output=True, text=True, timeout=60, env=env)
        assert result.returncode == 0, result.stderr
        tables.append(out.read_bytes())
    assert tables[0] == tables[1]


# --- tov ---------------------------------------------------------------

def test_tov_csv_profile(capsys):
    assert main(FAST_TOV) == 0
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert lines[0] == "i,r_cm,dr_cm,m_g,P_erg_cm3,epsilon_max,flags"
    assert len(lines) == 1 + 149
    # the controller floors the opening step and flags the surface at
    # the end; interior pressure column decreases
    assert "floor" in lines[1].split(",")[6]
    assert "surface" in lines[-1].split(",")[6]
    pressures = [float(line.split(",")[4]) for line in lines[1:-1]]
    assert all(a > b for a, b in zip(pressures, pressures[1:]))
    assert "M = 0.70999821 M_sun" in err
    assert "steps = 149" in err


def test_tov_json_summary(capsys):
    assert main(FAST_TOV + ["--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    check_against_schema(payload)
    assert payload["kind"] == "star"
    summary = payload["summary"]
    assert summary["status"] == "ok"
    assert summary["steps"] == 149
    assert summary["M_msun"] == pytest.approx(0.70999821, rel=1e-6)
    assert summary["R_km"] == pytest.approx(9.15942, rel=1e-6)
    assert summary["n_evals"] == 2 * 149 + 1


def test_tov_table_flags_floored_capped_and_surface_steps(capsys):
    # the opening steps sit on the 10 cm floor, the next ones grow by
    # the cap, and the last one crosses the surface
    assert main(["tov", "--pc", P_CENTRAL, "--order", "4",
                 "--tol", "1e-2"]) == 0
    flags = [line.split(",")[6]
             for line in capsys.readouterr().out.splitlines()[1:]]
    assert flags == (["floor"] * 2 + ["cap"] * 6 + [""] * 22
                     + ["surface"])


def test_tov_manifest_records_stellar_config(tmp_path):
    out_path = tmp_path / "star.csv"
    assert main(FAST_TOV + ["--out", str(out_path)]) == 0
    manifest = json.loads((tmp_path / "star.csv.manifest.json").read_text())
    assert manifest["command"] == "tov"
    assert manifest["config"]["dx_min"] == 1000.0
    assert manifest["config"]["max_steps"] == 200_000
    assert manifest["flags"]["pc"] == 3.631382e35


def test_tov_star_inside_its_horizon_exits_one(capsys):
    # the one accepted step crosses the surface at 2GM/(c^2 R) = 3.1
    assert main(["tov", "--pc", "1e46", "--order", "4"]) == 1
    out, err = capsys.readouterr()
    assert len(out.splitlines()) == 1 + 1
    assert "failed (horizon) after 1 accepted steps" in err
    assert "error (horizon): 2Gm/(c^2 r) >= 1 at r=10.0 cm" in err


def test_tov_integration_failure_exits_one(capsys):
    # far beyond float range the density overflows immediately
    assert main(["tov", "--pc", "1e308", "--order", "4"]) == 1
    out, err = capsys.readouterr()
    assert out.splitlines()[0].startswith("i,")
    assert len(out.splitlines()) == 1  # no accepted steps to report
    assert "non-finite" in err


@pytest.mark.parametrize("pc, tag, steps", [("1e46", "horizon", 1),
                                            ("1e308", "non-finite", 0)])
def test_tov_failure_json_summarizes_the_partial_star(capsys, pc, tag, steps):
    assert main(["tov", "--pc", pc, "--order", "4", "--tol", "1e-6",
                 "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    check_against_schema(payload)
    summary = payload["summary"]
    assert summary["status"].startswith(f"failed ({tag}): ")
    assert summary["steps"] == len(payload["rows"]) == steps
    # the star read off the partial run: its last accepted row, or the
    # center when no step was accepted
    last = payload["rows"][-1] if steps else [0, 0.0, 0.0, 0.0]
    assert summary["R_cm"] == last[1]
    assert summary["M_g"] == last[3]
    assert summary["M_msun"] == last[3] / CONSTANTS.M_sun
    assert summary["R_km"] == last[1] / 1e5
    assert summary["n_evals"] == 3


def test_tov_failure_on_an_overflowed_state_is_non_finite(capsys):
    # at P_c = 1e-300 a prediction of the surface dive overflows, and
    # tov_derivatives refuses it: the run is reported as non-finite
    assert main(["tov", "--pc", "1e-300", "--order", "6", "--tol", "1e-5",
                 "--format", "json"]) == 1
    out, err = capsys.readouterr()
    summary = json.loads(out)["summary"]
    assert summary["status"] == ("failed (non-finite): non-finite state "
                                 "at x=3.927583605639469e+44")
    assert "failed (non-finite) after 93 accepted steps" in err
    assert summary["steps"] == 93
    assert summary["n_evals"] == 188


# --- sieve -------------------------------------------------------------

def test_sieve_horizon_failure_reports_plain_numbers(capsys):
    assert main(["sieve", "--lo", "1e45", "--hi", "1e47"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(
        "error (horizon): 2Gm/(c^2 r) >= 1 at r=10.0 cm, m=")
    assert "np.float64" not in err


@pytest.mark.parametrize("lo, hi, end", [
    ("1e33", "1e34", "P_hi"),
    ("1e36", "1e37", "P_lo"),
])
def test_sieve_without_the_peak_in_its_bracket_exits_one(capsys, lo, hi, end):
    assert main(["sieve", "--lo", lo, "--hi", hi]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: the mass peak is not bracketed")
    assert f"{end} = " in err
    assert "Traceback" not in err


def test_sieve_finer_than_the_doubles_resolve_ends():
    # ln(1 + 1e-15) is below the float spacing of ln P_c ~ 82; a search
    # that never ended would hang the suite, so it runs in a child with
    # a timeout
    result = subprocess.run(
        [sys.executable, "-m", "abmgrid.cli", "sieve", "--tol", "1e-2",
         "--bracket-tol", "1e-15"],
        capture_output=True, text=True, timeout=60,
        env=fresh_interpreter_env())
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("P_c* = ")


def test_sieve_reports_peak(capsys, monkeypatch):
    stars = []

    def counted(P_c, config):
        stars.append(P_c)
        return integrate_star(P_c, config)

    monkeypatch.setattr(abmgrid.tov, "integrate_star", counted)
    assert main(["sieve", "--lo", "2e35", "--hi", "6e35", "--order", "4",
                 "--tol", "1e-6", "--bracket-tol", "0.02"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0].startswith("P_c* = ")
    p_star = float(lines[0].split()[2])
    assert 3.5e35 < p_star < 3.75e35
    assert lines[1].startswith("M*   = 0.7099")
    # criterion 5's reference radius and bound
    assert float(lines[2].split()[2]) == pytest.approx(9.16233, rel=2e-3)
    assert lines[3] == "star evaluations = 6  parabolic = 3"
    assert len(stars) == 6  # one star per probe, none integrated again


# --- sweep -------------------------------------------------------------

def test_sweep_with_explicit_reference(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    assert main(["sweep", "--orders", "3,4", "--tols", "1e-4",
                 "--pc", P_CENTRAL,
                 "--ref-mass", "1.41212950447888e33",
                 "--ref-radius", "916154.809371068",
                 "--out", str(out_path)]) == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "order,tol,steps,M_msun,R_km,rel_dM,rel_dR,status"
    assert len(lines) == 3
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[-1] == "ok"
        assert float(cells[5]) < 1e-3  # rel_dM
    manifest = json.loads((tmp_path / "sweep.csv.manifest.json").read_text())
    assert manifest["config"]["order_ab"] == "per-cell"
    assert manifest["config"]["target_correction"] == "per-cell"
    assert "2/2 cells ok" in capsys.readouterr().out


def test_sweep_manifest_records_the_resolved_lists(tmp_path):
    out_path = tmp_path / "sweep.csv"
    assert main(["sweep", "--orders", "3", "--tols", "1e-2",
                 "--pc", P_CENTRAL,
                 "--ref-mass", "1.412e33", "--ref-radius", "9.16e5",
                 "--out", str(out_path)]) == 0
    manifest = json.loads((tmp_path / "sweep.csv.manifest.json").read_text())
    assert manifest["flags"]["orders"] == [3]
    assert manifest["flags"]["tols"] == [0.01]


def test_sweep_builds_its_own_reference_when_not_given(capsys):
    assert main(["sweep", "--orders", "4", "--tols", "1e-4",
                 "--pc", P_CENTRAL, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    check_against_schema(payload)
    summary = payload["summary"]
    assert summary["cells_ok"] == 1
    # the self-computed reference is the tight high-order run
    assert summary["M_ref_g"] == pytest.approx(1.4121295e33, rel=1e-6)
    row = payload["rows"][0]
    assert row[-1] == "ok"
    assert row[5] < 1e-4  # rel_dM against that reference


def test_sweep_range_syntax(capsys):
    assert main(["sweep", "--orders", "3..4", "--tols", "1e-2",
                 "--pc", P_CENTRAL,
                 "--ref-mass", "1.412e33", "--ref-radius", "9.16e5",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [row[0] for row in payload["rows"]] == [3, 4]


def test_sweep_failure_cells_are_null_in_json_and_exit_one(capsys):
    assert main(["sweep", "--orders", "4", "--tols", "1e-6",
                 "--pc", "1e308", "--ref-mass", "1.0",
                 "--ref-radius", "1.0", "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    check_against_schema(payload)
    row = payload["rows"][0]
    assert row[-1] == "non-finite"
    assert row[3] is None  # NaN mass serialized as null
    assert payload["summary"]["status"] == "all cells failed"


def test_sweep_reference_star_failure_exits_one(capsys):
    # without --ref-mass/--ref-radius the order-10 reference star runs
    # first; at 1e300 erg/cm^3 it goes non-finite on its first step
    assert main(["sweep", "--orders", "3", "--tols", "1e-2",
                 "--pc", "1e300"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: reference star failed (non-finite): ")
    assert "Traceback" not in err


# --- one parser per process ---------------------------------------------

def _run_outputs(out: Path, code, stdout, stderr):
    """A run's (exit code, stdout, stderr, table bytes, manifest less its
    timestamp); the table ``out`` and its manifest are removed."""
    manifest_path = out.with_name(out.name + ".manifest.json")
    table = manifest = None
    if out.exists():
        table = out.read_bytes()
        out.unlink()
    if manifest_path.exists():
        manifest = json.loads(manifest_path.read_text())
        manifest.pop("timestamp")
        manifest_path.unlink()
    return code, stdout, stderr, table, manifest


def test_the_shared_parser_keeps_no_state(tmp_path, capsys, monkeypatch):
    # help and usage lines wrap at the terminal width: fix it for both
    monkeypatch.setenv("COLUMNS", "80")
    out = tmp_path / "table.csv"
    usage_error = ["poly", "--order", "4", "--x0", "1", "--xend", "0",
                   "--out", str(out)]
    argvs = [usage_error,
             ["poly", "--order", "4", "--mode", "abm-fixed", "--out",
              str(out)],
             ["--version"],
             ["sweep", "--orders", "3..4", "--tols", "1e-2", "--pc",
              P_CENTRAL, "--ref-mass", "1.412e33", "--ref-radius", "9.16e5",
              "--out", str(out)],
             usage_error]
    env = dict(fresh_interpreter_env(), COLUMNS="80")

    def fresh(argv):
        done = subprocess.run([sys.executable, "-m", "abmgrid.cli", *argv],
                              capture_output=True, text=True, timeout=60,
                              env=env)
        return done.returncode, done.stdout, done.stderr

    def in_process(argv):
        code = main(argv)
        return (code, *capsys.readouterr())

    expected = [_run_outputs(out, *fresh(argv)) for argv in argvs]
    assert [outputs[0] for outputs in expected] == [2, 0, 0, 0, 2]
    assert expected[0][3] is None and expected[1][3] is not None
    for argv, outputs in zip(argvs, expected):
        assert _run_outputs(out, *in_process(argv)) == outputs, argv
    assert cli.build_parser() is cli.build_parser()


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(order=st.integers(1, 10),
       mode=st.sampled_from([mode.value for mode in Mode]),
       dx=st.floats(1e-3, 1.0), tol=st.floats(1e-10, 1e-1),
       x0=st.floats(-2.0, 2.0), span=st.floats(-0.1, 1.0))
def test_poly_exit_codes_through_one_parser(order, mode, dx, tol, x0, span):
    # many runs through one process's main: each exits 0, 1 or 2, with
    # no traceback, and a usage error (an --xend not past --x0) exits 2
    # before it writes a table
    xend = x0 + span
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as scratch:
        out = Path(scratch) / "poly.csv"
        argv = ["poly", "--order", str(order), "--mode", mode,
                "--dx", repr(dx), "--tol", repr(tol), "--x0", repr(x0),
                "--xend", repr(xend), "--out", str(out)]
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            code = main(argv)
        written = out.exists()
    event(f"exit {code}")
    assert code in (0, 1, 2)
    assert "Traceback" not in stderr.getvalue()
    assert (code == 2) == (xend <= x0)
    assert written == (code != 2)


def _package_tags():
    """The tag of every IntegrationError class the package defines."""
    classes, tags = [IntegrationError], set()
    while classes:
        cls = classes.pop()
        if cls.__module__.startswith("abmgrid."):
            tags.add(cls.tag)
        classes.extend(cls.__subclasses__())
    return tags


PACKAGE_TAGS = _package_tags()


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(order=st.integers(1, 10), log_tol=st.floats(-5.0, -1.0),
       log_pc=st.floats(30.0, 47.0))
def test_tov_exit_codes_through_one_parser(order, log_tol, log_pc):
    # many stars through one process's main: each exits 0 with a real
    # star or 1 with a tagged failure, never with a traceback
    argv = ["tov", "--pc", repr(10.0 ** log_pc), "--order", str(order),
            "--tol", repr(10.0 ** log_tol), "--format", "json"]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        code = main(argv)
    summary = json.loads(stdout.getvalue())["summary"]
    event(f"exit {code}: {summary['status'].partition(':')[0]}")
    assert code in (0, 1)
    assert "Traceback" not in stderr.getvalue()
    if code == 1:
        assert any(summary["status"].startswith(f"failed ({tag})")
                   for tag in PACKAGE_TAGS), summary["status"]
    else:
        assert 0.0 < summary["M_g"] < math.inf
        assert 0.0 < summary["R_cm"] < math.inf


# --- installed entry point ----------------------------------------------

def fresh_interpreter_env():
    """The environment under which a new interpreter imports this abmgrid."""
    package_root = str(Path(abmgrid.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))


def test_console_script_is_installed():
    # the console script pip generates from [project.scripts] imports
    # the target and calls sys.exit(main()); run exactly that in a
    # fresh interpreter, then the installed executable where there is one
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml",
              "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"abmgrid": "abmgrid.cli:main"}
    module, _, function = scripts["abmgrid"].partition(":")
    wrapper = (f"import sys; from {module} import {function}; "
               f"sys.exit({function}())")
    env = fresh_interpreter_env()
    commands = [[sys.executable, "-c", wrapper, "--version"]]
    exe = shutil.which("abmgrid")
    if exe is not None:
        commands.append([exe, "--version"])
    for command in commands:
        result = subprocess.run(command, capture_output=True, text=True,
                                timeout=60, env=env)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == f"abmgrid {__version__}"


def test_import_starts_no_process_machinery():
    # every study runs in one process, so importing the CLI loads
    # neither process pools nor multiprocessing
    probe = ("import sys, abmgrid.cli; "
             "print(sorted({'concurrent.futures', 'multiprocessing'}"
             " & set(sys.modules)))")
    result = subprocess.run([sys.executable, "-c", probe],
                            capture_output=True, text=True, timeout=60,
                            env=fresh_interpreter_env())
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_star_path_never_imports_numpy():
    # stars, sieves and sweeps run on Python floats from the callback to
    # M and R, so neither the import nor the runs load numpy
    probe = ("import sys, abmgrid, abmgrid.cli; "
             "from abmgrid import star_config; "
             "star = abmgrid.integrate_star(3.631382e35, "
             "star_config(3, 1e-2)); "
             "abmgrid.trinary_sieve(1e35, 1e36, star_config(6, 1e-8)); "
             "cells = abmgrid.parameter_sweep((3,), (1e-2,), star.P_central, "
             "(star.M, star.R)); "
             "assert cells[0].ok and cells[0].rel_dM == 0.0; "
             "print('numpy' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", probe],
                            capture_output=True, text=True, timeout=60,
                            env=fresh_interpreter_env())
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def test_the_package_runs_without_numpy(tmp_path):
    # numpy is a test dependency only: with it blocked, the import, the
    # weights and every command run on the standard library alone
    runs = [["poly", "--order", "4", "--out", str(tmp_path / "poly.csv")],
            ["tov", "--pc", P_CENTRAL, "--order", "3", "--tol", "1e-2",
             "--out", str(tmp_path / "tov.csv")],
            ["sieve", "--tol", "1e-2", "--bracket-tol", "0.02"],
            ["sweep", "--orders", "3", "--tols", "1e-2", "--pc", P_CENTRAL,
             "--out", str(tmp_path / "sweep.csv")]]
    probe = "\n".join([
        "import json, sys",
        "sys.modules['numpy'] = None",
        "before = set(sys.modules)",
        "import abmgrid, abmgrid.cli",
        "from array import array",
        "weights = abmgrid.quadrature_weights([-1.0, 0.0], 1.0)",
        "assert weights == array('d', [-0.5, 1.5]), weights",
        "codes = [abmgrid.cli.main(argv) for argv in json.loads(sys.argv[1])]",
        "loaded = {name.partition('.')[0]"
        " for name in set(sys.modules) - before}",
        "print(json.dumps([codes,"
        " sorted(loaded - set(sys.stdlib_module_names)),"
        " sorted({'dataclasses', 'inspect'} & set(sys.modules))]))"])
    result = subprocess.run([sys.executable, "-c", probe, json.dumps(runs)],
                            capture_output=True, text=True, timeout=60,
                            env=fresh_interpreter_env())
    assert result.returncode == 0, result.stderr
    codes, outside_stdlib, machinery = json.loads(
        result.stdout.splitlines()[-1])
    assert codes == [0, 0, 0, 0]
    assert outside_stdlib == ["abmgrid"]
    # the records are named tuples: no run loads dataclasses or inspect
    assert machinery == []


def test_tov_and_poly_commands_never_import_numpy(tmp_path):
    # both tables are formatted from the trajectory's floats, so no run
    # of either command, failed or not, loads numpy
    runs = [["tov", "--pc", P_CENTRAL, "--order", "3", "--tol", "1e-2"],
            ["tov", "--pc", "1e46", "--order", "4", "--tol", "1e-6"],
            ["poly", "--order", "4"]]
    argvs = [argv + ["--format", fmt, "--out", str(tmp_path / f"{i}.{fmt}")]
             for i, argv in enumerate(runs) for fmt in ("csv", "json")]
    probe = ("import json, sys; from abmgrid.cli import main; "
             "codes = [main(argv) for argv in json.loads(sys.argv[1])]; "
             "print(json.dumps([codes, 'numpy' in sys.modules]))")
    result = subprocess.run([sys.executable, "-c", probe, json.dumps(argvs)],
                            capture_output=True, text=True, timeout=60,
                            env=fresh_interpreter_env())
    assert result.returncode == 0, result.stderr
    codes, numpy_loaded = json.loads(result.stdout.splitlines()[-1])
    assert codes == [0, 0, 1, 1, 0, 0]
    assert all((tmp_path / f"{i}.{fmt}").stat().st_size > 0
               for i in range(3) for fmt in ("csv", "json"))
    assert numpy_loaded is False
