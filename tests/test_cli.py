import argparse
import ast
import contextlib
import errno
import fractions
import io
import json
import os
import re
import runpy
import subprocess
import sys
import tracemalloc
import warnings
from importlib import resources
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isurg import cli, legendrian, oracle, planefield, surgery, triangle
from isurg.knots import torus_knot

SCHEMA = json.loads(resources.files("isurg").joinpath("schema.json").read_text())


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, "--format", "json", *argv)
    record = json.loads(out)
    jsonschema.validate(record, SCHEMA)
    return code, record, err


def test_dims_single_slope(capsys):
    code, record, _ = run_json(capsys, "dims", "--knot", "torus:2,3", "--n", "-1", "--z4")
    assert code == 0
    assert record["results"] == [
        {"n": -1, "z2": [2, 1], "z4": [1, 0, 1, 1], "provenance": "cor52"}
    ]
    assert record["warnings"] == []  # torus knots carry the lens flag


def test_dims_range_table(capsys):
    code, out, _ = run(capsys, "dims", "--genus", "2", "--range", "0:3")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    for line, (d0, d1) in zip(lines, [(3, 3), (3, 2), (3, 1), (3, 0)]):
        assert f"z2_d0={d0}" in line and f"z2_d1={d1}" in line


def test_dims_invalid_genus(capsys):
    code, _, err = run(capsys, "dims", "--genus", "0", "--n", "1")
    assert code == 2
    assert "genus" in err


@pytest.mark.parametrize("slope_range", ["0:1000000", "0:100000000"])
def test_dims_too_wide_range_exits_2(capsys, monkeypatch, slope_range):
    def no_rows(g, slopes, z4):
        raise AssertionError("a row was computed")
        yield

    monkeypatch.setattr(surgery, "dims_rows", no_rows)
    code, out, err = run(capsys, "dims", "--genus", "2", "--range", slope_range, "--z4")
    assert code == 2
    assert out == ""
    assert err.startswith("error: slope range too wide")
    assert "Traceback" not in err


@pytest.fixture
def int_digit_limit():
    """Python's default limit on converting an int to text."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python converts ints of any length to text")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(old)


@pytest.mark.parametrize("fmt", ["table", "tsv", "json"])
def test_dims_too_long_to_print_exits_2(capsys, int_digit_limit, fmt):
    # The genus parses, but the row's dimensions need one digit more: 2g - 1
    # is a constant of every regime up to n = 2g - 1, so the first regime
    # fails before its first row, and no row is written.
    genus = "9" * int_digit_limit
    for where in (["--n", "0"], ["--range", "-2:2"]):
        argv = ["--format", fmt, "dims", "--genus", genus, *where]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith("error: cannot write the result")
        assert len(err.splitlines()) == 1
        record = cli.cmd_dims(cli.build_parser().parse_args(cli._preprocess(argv)))
        assert out == _written_before_error(dict(record, results=[]), fmt)


def _written_before_error(record, fmt):
    """What `cli._emit` writes of `record` before an int too long to print
    stops it, as the dict-row writer writes it: row by row."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        with pytest.raises(ValueError):
            cli._emit(dict(record, results=[*record["results"], {"n": 10**5000}]), fmt)
    return out.getvalue()


@pytest.mark.parametrize("fmt", ["table", "tsv", "json"])
def test_dims_keeps_the_rows_before_one_too_long_to_print(capsys, monkeypatch, int_digit_limit, fmt):
    # One regime of 70 rows; row 40 lies in the first block after the first
    # row, and its varying z2_d0 has one digit more than can be printed.
    def dims_rows(g, slopes, z4):
        yield (None, None, 3), ((n, 10**int_digit_limit if n == 40 else n) for n in slopes)

    monkeypatch.setattr(surgery, "dims_rows", dims_rows)
    argv = ["--format", fmt, "dims", "--genus", "2", "--range", "1:70"]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: cannot write the result")
    assert len(err.splitlines()) == 1
    record = cli.cmd_dims(cli.build_parser().parse_args(cli._preprocess(argv)))
    record["results"] = [{"n": n, "z2": [n, 3], "provenance": "eq1"} for n in range(1, 40)]
    assert out == _written_before_error(record, fmt)
    assert out.count("eq1") == 39


@pytest.mark.parametrize("fmt", ["table", "tsv", "json"])
def test_dims_warning_shows_when_a_row_cannot_be_written(capsys, tmp_path, int_digit_limit, fmt):
    # The genus parses; the first row needs one digit more.  The warning
    # must still reach stderr, before the error.
    path = tmp_path / "cat.json"
    genus = "9" * int_digit_limit
    path.write_text('{"knots": [{"name": "k", "genus": ' + genus + ', "max_self_linking": 1}]}')
    code, _, err = run(
        capsys, "--format", fmt, "dims", "--knot", "k", "--n", "0", "--z4", "--catalog", str(path)
    )
    assert code == 2
    warning, error = err.splitlines()
    assert warning.startswith("warning: Z/4 gradings assume a positive lens-space surgery")
    assert error.startswith("error: cannot write the result")


def test_catalog_int_too_long_exits_2(capsys, tmp_path, int_digit_limit):
    path = tmp_path / "cat.json"
    genus = "9" * (int_digit_limit + 700)
    path.write_text('{"knots": [{"name": "k", "genus": ' + genus + ', "max_self_linking": 1}]}')
    code, out, err = run(capsys, "dims", "--knot", "k", "--n", "0", "--catalog", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: catalog {cli._shown(str(path), tail=True)}: catalog is not valid JSON")


# A JSON true is a Python int, and 2.5 used to fail later as a bad dimension.
@pytest.mark.parametrize("genus", ['"3"', "true", "2.5"])
def test_catalog_genus_of_the_wrong_type_exits_2(capsys, tmp_path, genus):
    path = tmp_path / "cat.json"
    path.write_text('{"knots": [{"name": "k", "genus": ' + genus + ', "max_self_linking": 1}]}')
    code, out, err = run(capsys, "dims", "--knot", "k", "--n", "0", "--z4", "--catalog", str(path))
    assert code == 2
    assert out == ""
    assert err == f"error: catalog {cli._shown(str(path), tail=True)}: knots[0] (k): genus must be an integer, got {genus}\n"


# "false" is a non-empty string: read with bool() it counted as true and
# dropped the lens-hypothesis warning.
@pytest.mark.parametrize("lens", ['"false"', '"true"', "0", "null", "[]"])
def test_catalog_lens_surgery_of_the_wrong_type_exits_2(capsys, tmp_path, lens):
    path = tmp_path / "cat.json"
    path.write_text('{"knots": [{"name": "k", "genus": 1, "max_self_linking": 1, "lens_surgery": '
                    + lens + "}]}")
    code, out, err = run(capsys, "dims", "--knot", "k", "--n", "1", "--z4", "--catalog", str(path))
    assert code == 2
    assert out == ""
    assert err == f"error: catalog {cli._shown(str(path), tail=True)}: knots[0] (k): lens_surgery must be true or false, got {lens}\n"


def test_catalog_name_of_the_wrong_type_exits_2(capsys, tmp_path):
    path = tmp_path / "cat.json"
    path.write_text('{"knots": [{"name": ["k"], "genus": 1, "max_self_linking": 1}]}')
    code, out, err = run(capsys, "dims", "--knot", "k", "--n", "1", "--catalog", str(path))
    assert code == 2
    assert out == ""
    assert err == f'error: catalog {cli._shown(str(path), tail=True)}: knots[0]: name must be a string, got ["k"]\n'


def test_dims_z4_warning_without_lens_flag(capsys, tmp_path):
    path = tmp_path / "cat.json"
    path.write_text(
        json.dumps(
            {
                "knots": [
                    {"name": "k", "genus": 1, "max_self_linking": 1}
                ]
            }
        )
    )
    code, record, err = run_json(
        capsys, "dims", "--knot", "k", "--n", "1", "--z4", "--catalog", str(path)
    )
    assert code == 0
    assert record["warnings"]
    assert "lens" in record["warnings"][0]
    # table mode routes the same warning to stderr
    code, _, err = run(capsys, "dims", "--knot", "k", "--n", "1", "--z4", "--catalog", str(path))
    assert code == 0
    assert "warning:" in err


def test_catalog_env_and_flag_precedence(capsys, tmp_path, monkeypatch):
    env_cat = tmp_path / "env.json"
    env_cat.write_text(json.dumps({"knots": [torus_knot(2, 5)._asdict()]}))
    flag_cat = tmp_path / "flag.json"
    flag_cat.write_text(json.dumps({"knots": [torus_knot(2, 3)._asdict()]}))
    monkeypatch.setenv(cli.CATALOG_ENV, str(env_cat))

    code, record, _ = run_json(capsys, "dims", "--knot", "T(2,5)", "--n", "1")
    assert code == 0
    assert record["inputs"]["genus"] == 2

    # flag wins over the environment
    code, _, err = run(
        capsys, "dims", "--knot", "T(2,5)", "--n", "1", "--catalog", str(flag_cat)
    )
    assert code == 2
    assert "not found" in err


def test_catalog_flag_without_knot_is_refused_before_it_is_opened(capsys, tmp_path, monkeypatch):
    missing = str(tmp_path / "missing.json")
    for fmt in ("table", "json"):
        code, out, err = run(capsys, "--format", fmt, "dims", "--genus", "2", "--n", "1",
                             "--catalog", missing)
        assert (code, out, err) == (2, "", "error: --catalog needs --knot; --genus reads no catalog\n")
        # A torus knot reads no catalog either.
        code, out, err = run(capsys, "--format", fmt, "dims", "--knot", "torus:2,3", "--n", "1",
                             "--catalog", missing)
        assert (code, out, err) == (2, "", "error: --catalog needs a catalog knot; torus:P,Q reads no catalog\n")

    # The environment variable is a default, not a request: --genus and a
    # torus knot ignore it.
    monkeypatch.setenv(cli.CATALOG_ENV, missing)
    code, out, err = run(capsys, "dims", "--genus", "2", "--n", "1")
    assert (code, out, err) == (0, "n=1  z2_d0=3  z2_d1=2  provenance=eq1\n", "")
    code, out, err = run(capsys, "dims", "--knot", "torus:2,5", "--n", "1")
    assert (code, out, err) == (0, "n=1  z2_d0=3  z2_d1=2  provenance=eq1\n", "")


def test_empty_knot_name_is_a_catalog_name(capsys, tmp_path, monkeypatch):
    # `--knot ''` is given, so it is looked up like any name, not taken for
    # a missing --knot and then a missing --genus.
    monkeypatch.delenv(cli.CATALOG_ENV, raising=False)
    assert run(capsys, "dims", "--knot", "", "--n", "1") == (
        2, "", "error: --knot '' needs a catalog (--catalog or $ISURG_CATALOG)\n")
    path = tmp_path / "cat.json"
    path.write_text(json.dumps({"knots": [torus_knot(2, 3)._asdict()]}))
    code, out, err = run(capsys, "dims", "--knot", "", "--n", "1", "--catalog", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: knot '' not found in catalog ")


def test_empty_catalog_flag_does_not_fall_back_to_the_environment(capsys, tmp_path, monkeypatch):
    # The flag is a request: an empty one is refused, while the variable
    # would have found the knot.
    env_cat = tmp_path / "env.json"
    env_cat.write_text(json.dumps({"knots": [torus_knot(2, 5)._asdict()]}))
    monkeypatch.setenv(cli.CATALOG_ENV, str(env_cat))
    assert run(capsys, "dims", "--knot", "T(2,5)", "--n", "1", "--catalog", "") == (
        2, "", "error: --knot 'T(2,5)' needs a catalog (--catalog or $ISURG_CATALOG)\n")


def test_triangle(capsys):
    code, record, _ = run_json(capsys, "triangle", "--n", "-1")
    assert code == 0
    (res,) = record["results"]
    assert (res["deg_surgery"], res["deg_to_s3"], res["deg_from_s3"]) == (3, 2, 2)


def test_oracle_agrees(capsys):
    code, record, _ = run_json(
        capsys, "oracle", "--genus", "1", "--lspace-slope", "5", "--range", "-10:10"
    )
    assert code == 0
    assert len(record["results"]) == 21
    assert all(r["agrees"] for r in record["results"])


def test_oracle_trace_schema(capsys):
    code, record, _ = run_json(
        capsys,
        "oracle", "--genus", "1", "--lspace-slope", "5", "--range", "4:6", "--trace",
    )
    assert code == 0
    assert record["trace"]
    assert {"constraint", "slope", "grading", "bound", "value", "consumed"} <= set(
        record["trace"][0]
    )


@pytest.mark.parametrize("fmt", ["table", "tsv"])
def test_oracle_trace_lines_in_every_text_format(capsys, fmt):
    argv = ["oracle", "--genus", "1", "--lspace-slope", "5", "--range", "-3:3", "--trace"]
    _, record, _ = run_json(capsys, *argv)
    code, out, err = run(capsys, "--format", fmt, *argv)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    trace = [line for line in lines if line.startswith("trace: ")]
    assert len(trace) == len(record["trace"]) > 0
    # The trace follows the rows, after a TSV header when there is one.
    assert lines[-len(trace):] == trace
    assert len(lines) - len(trace) == len(record["results"]) + (fmt == "tsv")


def test_oracle_wide_range_exits_0(capsys):
    code, out, _ = run(
        capsys, "oracle", "--genus", "1", "--lspace-slope", "5", "--range", "-400:400"
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 801
    assert all("agrees=true" in line for line in lines)


def test_oracle_positive_range_exits_0(capsys):
    code, record, _ = run_json(
        capsys, "oracle", "--genus", "2", "--lspace-slope", "3", "--range", "2:2"
    )
    assert code == 0
    assert record["results"][0]["z2"] == [3, 1]


def test_oracle_too_wide_range_exits_2(capsys):
    # Refused before any bound is allocated, with every rule or with only
    # C1 and C2 left; should that check regress, this test costs about
    # 0.3 GB and a few seconds.
    argv = ["oracle", "--genus", "1", "--lspace-slope", "5", "--range", "-130000:130000"]
    for drop in ([], ["C3", "C4", "C5", "C6"]):
        code, out, err = run(capsys, *argv, *(a for c in drop for a in ("--drop-constraint", c)))
        assert code == 2
        assert out == ""
        assert err.startswith("error: slope range too wide")
        assert err.count("\n") == 1


def test_oracle_one_slope_of_a_large_genus_exits_0(capsys):
    # The padding spans 0..m, about 200k slopes, so the solve makes about
    # 3.2 million applications; it runs to its fixpoint.
    code, record, _ = run_json(
        capsys, "oracle", "--genus", "100000", "--lspace-slope", "199999", "--range", "0:0"
    )
    assert code == 0
    assert [(r["n"], r["agrees"]) for r in record["results"]] == [(0, True)]


@pytest.mark.parametrize("fmt", ["table", "tsv", "json"])
def test_oracle_drop_c6_exits_3(capsys, fmt):
    # The exit-3 report is JSON whatever --format says.
    code, out, err = run(
        capsys,
        "--format", fmt,
        "oracle", "--genus", "1", "--lspace-slope", "5", "--range", "-10:10",
        "--drop-constraint", "C6",
    )
    assert (code, err) == (3, "")
    record = json.loads(out)
    jsonschema.validate(record, SCHEMA)
    assert record["error"]["kind"] == "not-determined"
    assert any(s < 0 for s in record["error"]["undetermined_slopes"])


def test_oracle_contradiction_exits_3_with_its_report(capsys, monkeypatch):
    # No valid input meets a contradiction, so the solve is made to raise
    # one after seeding C1, whose two trace entries a --trace report holds.
    message = "C3: lower bound 1 exceeds upper bound 0 at slope 3 (grading 1)"

    def contradict(system):
        system._seed_base()
        raise oracle.ContradictionError(message)

    monkeypatch.setattr(oracle.ConstraintSystem, "solve", contradict)
    argv = ["oracle", "--genus", "1", "--lspace-slope", "5", "--range", "-3:3"]
    for fmt in ("table", "tsv", "json"):
        for trace in ((), ("--trace",)):
            code, out, err = run(capsys, "--format", fmt, *argv, *trace)
            assert (code, err) == (3, ""), (fmt, trace)
            record = json.loads(out)
            jsonschema.validate(record, SCHEMA)
            assert record["error"] == {"kind": "contradiction", "message": message}
            assert record["results"] == []
            assert [e["constraint"] for e in record.get("trace", [])] == ["C1"] * 2 * len(trace)


def test_oracle_without_c3_leaves_the_base_slope_open(capsys):
    # C1 pins only the total at the L-space slope; its split (5, 0) is C3's.
    argv = ["oracle", "--genus", "1", "--lspace-slope", "5", "--range", "5:5"]
    code, out, err = run(capsys, *argv, "--drop-constraint", "C3")
    assert (code, err) == (3, "")
    assert json.loads(out)["error"]["undetermined_slopes"] == [5]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert "agrees=true" in out


def test_oracle_exit3_lists_repeated_drop_once(capsys):
    code, out, _ = run(
        capsys,
        "--format", "json",
        "oracle", "--genus", "2", "--lspace-slope", "6", "--range", "-8:8",
        "--drop-constraint", "C5", "--drop-constraint", "C5",
    )
    assert code == 3
    assert json.loads(out)["inputs"]["dropped"] == ["C5"]


@pytest.mark.parametrize("genus, slope, message", [
    pytest.param("0", "5", "genus must be >= 1", id="genus-0"),
    pytest.param("2", "2", "lspace_slope must be >= 2g-1 = 3", id="slope-below-2g-1"),
])
def test_oracle_precondition_exit_2(capsys, genus, slope, message):
    code, out, err = run(capsys, "oracle", "--genus", genus, "--lspace-slope", slope, "--range", "0:0")
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


def test_oracle_at_minimal_slope_succeeds(capsys):
    # m = 2g-1 satisfies the precondition, so g=2, m=3 is valid input.
    code, record, _ = run_json(
        capsys, "oracle", "--genus", "2", "--lspace-slope", "3", "--range", "0:3"
    )
    assert code == 0
    assert all(r["agrees"] for r in record["results"])


def test_legendrian(capsys):
    code, record, _ = run_json(
        capsys, "legendrian", "--tb", "1", "--rot", "0", "--target-tb", "-2"
    )
    assert code == 0
    (res,) = record["results"]
    assert res["rotations"] == [-3, -1, 1, 3]
    assert res["chern_count"] == 4


@pytest.mark.parametrize("target_tb", ("-999999", "-100000000000"))
def test_legendrian_too_low_target_exits_2(capsys, monkeypatch, target_tb):
    # tb 1 down to -999999 gives 10**6 + 1 rotation numbers, one over the
    # limit; none is computed.
    def no_rotations(rep, target_tb):
        raise AssertionError("rotation numbers were computed")

    monkeypatch.setattr(legendrian, "rotation_numbers_after", no_rotations)
    code, out, err = run(capsys, "legendrian", "--tb", "1", "--rot", "0", "--target-tb", target_tb)
    assert code == 2
    assert out == ""
    assert err.startswith("error: target tb too low")
    assert "Traceback" not in err


def test_legendrian_at_the_limit_is_computed(capsys, monkeypatch):
    # tb 1 down to -999998 gives exactly 10**6 rotation numbers; the stubs
    # keep the test from building them.
    monkeypatch.setattr(legendrian, "rotation_numbers_after", lambda rep, target_tb: [1])
    monkeypatch.setattr(legendrian, "distinct_chern_count", lambda rep, target_tb: 1)
    code, record, _ = run_json(
        capsys, "legendrian", "--tb", "1", "--rot", "0", "--target-tb", "-999998"
    )
    assert code == 0
    assert record["results"][0]["rotations"] == [1]


def test_legendrian_bad_parity(capsys):
    assert run(capsys, "legendrian", "--tb", "1", "--rot", "1", "--target-tb", "0") == (
        2, "", "error: tb + r must be odd, got tb=1, r=1\n")


def test_planefield(capsys):
    code, record, _ = run_json(capsys, "planefield", "--chi", "1", "--sigma", "0")
    assert code == 0
    (res,) = record["results"]
    assert res["delta"] == 0
    assert "d3" not in res

    code, record, _ = run_json(
        capsys, "planefield", "--chi", "2", "--sigma", "-1", "--c1sq", "-1"
    )
    assert code == 0
    (res,) = record["results"]
    assert res["d3"] == "-1/2"
    assert res["rho"] == "0"


@pytest.mark.parametrize("c1sq", ["1e400000", "1e10000000", "0.5e-4299"])
def test_planefield_c1sq_too_long_exits_2(capsys, monkeypatch, int_digit_limit, c1sq):
    # Refused from the text alone: building 10**10**7 would take seconds.
    def no_fraction(text):
        raise AssertionError("the Fraction was built")

    monkeypatch.setattr(fractions, "Fraction", no_fraction)
    code, out, err = run(capsys, "planefield", "--chi", "1", "--sigma", "0", "--c1sq", c1sq)
    assert code == 2
    assert out == ""
    assert err == (
        f"error: --c1sq {c1sq!r} has a numerator or denominator of more than "
        f"{int_digit_limit} digits\n"
    )


@pytest.mark.parametrize("c1sq, cause", [
    ("9" * 5000, "has a numerator or denominator of more than 4300 digits"),
    ("1/" + "9" * 5000, "has a numerator or denominator of more than 4300 digits"),
    ("9" * 4000 + "/x", "must be a rational"),
])
def test_planefield_long_c1sq_is_echoed_in_short(capsys, int_digit_limit, c1sq, cause):
    code, out, err = run(capsys, "planefield", "--chi", "1", "--sigma", "0", "--c1sq", c1sq)
    assert code == 2
    assert out == ""
    assert cause in err
    assert f"{c1sq[:40]!r}... ({len(c1sq)} characters)" in err
    assert len(err.encode()) < 200


def test_planefield_c1sq_with_a_bad_exponent_exits_2(capsys):
    assert run(capsys, "planefield", "--chi", "1", "--sigma", "0", "--c1sq", "1e5x") == (
        2, "", "error: --c1sq must be a rational, got '1e5x'\n")


def test_planefield_c1sq_at_the_digit_limit_is_computed(capsys, int_digit_limit):
    code, record, _ = run_json(capsys, "planefield", "--chi", "1", "--sigma", "0", "--c1sq", "1e4299")
    assert code == 0
    assert record["results"][0]["rho"] == "0"


@pytest.mark.parametrize("c1sq", ["9" * 4300, "1/" + "9" * 4300])
def test_planefield_unprintable_d3_exits_2(capsys, int_digit_limit, c1sq):
    # c1sq itself parses, but d3 = (c1sq + 10)/4 needs 4301 digits in its
    # numerator or its denominator.
    code, out, err = run(capsys, "planefield", "--chi", "1", "--sigma", "-4", "--c1sq", c1sq)
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write the result")
    assert "Traceback" not in err


def _boom(*args, **kwargs):
    raise ValueError("boom")


# One library call per command, each reached before any output is written.
@pytest.mark.parametrize("owner, name, argv", [
    pytest.param(triangle, "triangle_degrees", ["triangle", "--n", "1"], id="triangle"),
    pytest.param(surgery, "trefoil_one_over_n", ["trefoil", "--n", "1"], id="trefoil"),
    pytest.param(legendrian, "rotation_numbers_after",
                 ["legendrian", "--tb", "1", "--rot", "0", "--target-tb", "-2"], id="legendrian"),
    pytest.param(planefield, "delta", ["planefield", "--chi", "1", "--sigma", "0"], id="planefield"),
    pytest.param(oracle.ConstraintSystem, "solve",
                 ["oracle", "--genus", "1", "--lspace-slope", "5", "--range", "-3:3"], id="oracle"),
])
def test_a_library_value_error_exits_2(capsys, monkeypatch, owner, name, argv):
    monkeypatch.setattr(owner, name, _boom)
    assert run(capsys, *argv) == (2, "", "error: boom\n")


def test_planefield_bad_parity(capsys):
    code, _, err = run(capsys, "planefield", "--chi", "2", "--sigma", "0")
    assert code == 2
    assert "parity" in err.lower() or "even" in err.lower()


def test_trefoil(capsys):
    code, record, _ = run_json(capsys, "trefoil", "--n", "3")
    assert code == 0
    assert record["results"][0]["z2"] == [3, 2]

    assert run(capsys, "trefoil", "--n", "0") == (2, "", "error: n must be >= 1\n")


def test_tsv_columns(capsys):
    code, out, _ = run(capsys, "--format", "tsv", "dims", "--genus", "1", "--n", "5")
    assert code == 0
    header, row = out.strip().splitlines()
    assert header.split("\t") == [
        "n", "z2_d0", "z2_d1", "z4_d0", "z4_d1", "z4_d2", "z4_d3", "provenance"
    ]
    assert row.split("\t") == ["5", "5", "0", "", "", "", "", "eq1"]


def test_deterministic_output(capsys):
    argv = ["--format", "json", "oracle", "--genus", "3", "--lspace-slope", "8",
            "--range", "-5:5", "--trace"]
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2


def test_bad_range_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["dims", "--genus", "1", "--range", "5:1"])
    assert exc.value.code == 2
    capsys.readouterr()


def run_exit(capsys, *argv):
    """main(argv) for an argument that argparse refuses; (code, out, err)."""
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


def run_refused(capsys, *argv):
    """main(argv) for an argument that argparse or a command refuses."""
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv, length", [
    (["triangle", "--n", "9" * 5000], 5000),
    (["legendrian", "--tb", "1", "--rot", "x" * 5000, "--target-tb", "0"], 5000),
    (["oracle", "--genus", "1", "--lspace-slope", "5", "--range", "0:" + "9" * 5000], 5002),
    (["dims", "--genus", "1", "--range", "9" * 4000 + ":0"], 4002),  # a valid, empty range
    (["--format", "x" * 5000, "triangle", "--n", "1"], 5000),
    (["x" * 5000], 5000),
    (["oracle", "--genus", "1", "--lspace-slope", "5", "--range", "0:1",
      "--drop-constraint", "x" * 5000], 5000),
    (["dims", "--knot", "torus:" + "9" * 4994, "--n", "1"], 5000),
    (["dims", "--knot", "torus:2," + "4" * 4000, "--n", "1"], 4008),  # not coprime
])
def test_long_bad_argument_is_echoed_in_short(capsys, argv, length):
    code, out, err = run_refused(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err) < 300
    assert err.endswith(f"... ({length} characters)\n")


def test_short_torus_spec_is_echoed_whole(capsys):
    code, _, err = run(capsys, "dims", "--knot", "torus:4,6", "--n", "1")
    assert code == 2
    assert err == "error: torus knot parameters must be coprime, got 'torus:4,6'\n"


def _cut(text):
    return f"{text[:100]} ... {text[-100:]} ({len(text)} characters)"


def test_long_library_error_keeps_its_head_and_its_reason(capsys):
    # legendrian echoes the parsed int whole.
    nines = "9" * 4300
    code, out, err = run(capsys, "legendrian", "--tb", "1", "--rot", "0", "--target-tb", nines)
    assert (code, out) == (2, "")
    assert err == f"error: {_cut(f'target_tb {nines} exceeds tb 1')}\n"


def test_long_catalog_name_in_an_error_is_cut(capsys, tmp_path):
    path = tmp_path / "cat.json"
    name = "x" * 300000
    path.write_text(json.dumps({"knots": [{"name": name, "genus": 0, "max_self_linking": 1}]}))
    code, out, err = run(capsys, "dims", "--knot", "k", "--n", "1", "--catalog", str(path))
    assert (code, out) == (2, "")
    text = f"catalog {cli._shown(str(path), tail=True)}: knots[0] ({name}): genus must be >= 1"
    assert err == f"error: {_cut(text)}\n"
    assert len(err) < 300


def test_catalog_past_the_byte_limit_exits_2(capsys, tmp_path):
    # A valid catalog padded with spaces is read at exactly the limit and
    # refused one byte past it, before it is decoded or parsed.
    path = tmp_path / "cat.json"
    doc = json.dumps({"knots": [{"name": "k", "genus": 1, "max_self_linking": 1}]}).encode()
    path.write_bytes(doc.ljust(cli.MAX_CATALOG_BYTES))
    code, out, _ = run(capsys, "dims", "--knot", "k", "--n", "1", "--catalog", str(path))
    assert code == 0 and "z2_d0=" in out
    path.write_bytes(doc.ljust(cli.MAX_CATALOG_BYTES + 1))
    code, out, err = run(capsys, "dims", "--knot", "k", "--n", "1", "--catalog", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: catalog {cli._shown(str(path), tail=True)}: more than {cli.MAX_CATALOG_BYTES} bytes\n"


# A catalog path of over 400 characters, in directories that each hold a
# name of at most 200.
def _long_path(tmp_path):
    return tmp_path / ("d" * 200) / ("c" * 200 + ".json")


@pytest.mark.parametrize("content, message", [
    (None, os.strerror(errno.ENOENT)),
    ('{"knots": 1}', 'catalog must be an object with a "knots" list'),
    ('{"knots": []}', None),
    ('{"knots": [1]}', "knots[0]: entry must be an object"),
    ('{"knots": [{"name": "K", "genus": 1, "max_self_linking": 1, "lspace_slope": 0}]}',
     "knots[0] (K): lspace_slope must be a positive integer"),
    (b"\xff\xfe\x00", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
])
def test_long_catalog_path_is_echoed_once_in_short(capsys, tmp_path, content, message):
    path = _long_path(tmp_path)
    if content is not None:
        path.parent.mkdir()
        path.write_bytes(content if isinstance(content, bytes) else content.encode())
    code, out, err = run(capsys, "dims", "--knot", "k", "--n", "1", "--catalog", str(path))
    assert code == 2
    assert out == ""
    assert len(err) < 300
    # The end of the path, where its file name is, is shown once.
    assert err.count(str(path)[-40:]) == 1
    shown = f"...{str(path)[-40:]!r} ({len(str(path))} characters)"
    if message is None:
        assert err == f"error: knot 'k' not found in catalog {shown}\n"
    else:
        assert err == f"error: catalog {shown}: {message}\n"


@pytest.mark.parametrize("token", ["abc", "", "1.5", "x" * 40])
def test_short_bad_int_keeps_the_argparse_message(capsys, token):
    ref = argparse.ArgumentParser(prog="isurg triangle", exit_on_error=False)
    ref.add_argument("--n", type=int, required=True)
    with pytest.raises(argparse.ArgumentError) as exc:
        ref.parse_args(["--n", token])
    code, _, err = run_exit(capsys, "triangle", "--n", token)
    assert code == 2
    assert err == f"usage: isurg triangle [-h] --n N\nisurg triangle: error: {exc.value}\n"
    assert err.endswith(f"invalid int value: {token!r}\n")


def test_bad_int_of_41_characters_is_cut(capsys):
    code, _, err = run_exit(capsys, "triangle", "--n", "x" * 41)
    assert code == 2
    assert err.endswith(f"invalid int value: {'x' * 40!r}... (41 characters)\n")


CHOICE_ARGVS = [
    lambda t: ["--format", t, "triangle", "--n", "1"],
    lambda t: [t],
    lambda t: ["oracle", "--genus", "1", "--lspace-slope", "5", "--range", "0:1",
               "--drop-constraint", t],
]


@pytest.mark.parametrize("token", ["x", "", "C7", "it's", "x" * 40])
@pytest.mark.parametrize("which", range(len(CHOICE_ARGVS)))
def test_short_bad_choice_keeps_the_argparse_message(capsys, monkeypatch, which, token):
    argv = CHOICE_ARGVS[which](token)
    code, _, err = run_exit(capsys, *argv)
    monkeypatch.setattr(cli._Parser, "error", argparse.ArgumentParser.error)
    assert run_exit(capsys, *argv) == (code, "", err)
    assert code == 2
    assert f"invalid choice: {token!r} (choose from " in err


@pytest.mark.parametrize("which", range(len(CHOICE_ARGVS)))
def test_bad_choice_of_41_characters_is_cut(capsys, which):
    code, _, err = run_exit(capsys, *CHOICE_ARGVS[which]("x" * 41))
    assert code == 2
    assert err.endswith(f"invalid choice: {'x' * 40!r}... (41 characters)\n")


def test_long_knot_name_is_echoed_in_short(capsys, tmp_path, monkeypatch):
    monkeypatch.delenv(cli.CATALOG_ENV, raising=False)
    name = "x" * 5000
    code, _, err = run(capsys, "dims", "--knot", name, "--n", "1")
    assert code == 2
    assert err == f"error: --knot {name[:40]!r}... (5000 characters) needs a catalog " \
        f"(--catalog or ${cli.CATALOG_ENV})\n"
    path = tmp_path / "cat.json"
    path.write_text('{"knots": [{"name": "k", "genus": 1, "max_self_linking": 1}]}')
    code, _, err = run(capsys, "dims", "--knot", name, "--n", "1", "--catalog", str(path))
    assert code == 2
    assert err == f"error: knot {name[:40]!r}... (5000 characters) not found in catalog {cli._shown(str(path), tail=True)}\n"


@pytest.mark.parametrize("text, message", [
    ("a:b", "range must look like A:B, got 'a:b'"),
    ("1:2:3", "range must look like A:B, got '1:2:3'"),
    ("5:1", "empty range '5:1'"),
])
def test_short_bad_range_message_is_unchanged(capsys, text, message):
    code, _, err = run_exit(capsys, "dims", "--genus", "1", "--range", text)
    assert code == 2
    assert err.endswith(f"isurg dims: error: argument --range: {message}\n")


def test_glued_flag_as_the_last_token_keeps_the_argparse_message(capsys):
    code, out, err = run_exit(capsys, "dims", "--genus", "1", "--range")
    assert (code, out) == (2, "")
    assert err.endswith("isurg dims: error: argument --range: expected one argument\n")


def test_abbreviated_range_and_c1sq_take_a_value_that_starts_with_a_dash(capsys):
    rows = "n=-3  z2_d0=6  z2_d1=3  provenance=eq1\nn=-2  z2_d0=5  z2_d1=3  provenance=eq1\n"
    assert run(capsys, "dims", "--genus", "2", "--range", "-3:-2") == (0, rows, "")
    assert run(capsys, "dims", "--genus", "2", "--rang", "-3:-2") == (0, rows, "")
    assert run(capsys, "oracle", "--genus", "1", "--lspace-slope", "5", "--ran", "-2:-1")[0] == 0
    c1sq = run(capsys, "planefield", "--chi", "2", "--sigma", "-1", "--c1sq", "-1/2")
    assert c1sq[0] == 0 and "d3=-3/8" in c1sq[1]
    assert run(capsys, "planefield", "--chi", "2", "--sigma", "-1", "--c1", "-1/2") == c1sq
    # An ambiguous abbreviation is glued to its value too, and echoed so.
    code, _, err = run_exit(capsys, "planefield", "--chi", "2", "--sigma", "-1", "--c", "2")
    assert code == 2
    assert "error: ambiguous option: --c=2 could match --chi, --c1sq" in err


def test_drop_constraint_accepts_exactly_the_oracle_ids(capsys):
    base = ["oracle", "--genus", "1", "--lspace-slope", "5", "--range", "0:1"]
    parser = cli.build_parser()
    for cid in oracle.CONSTRAINT_IDS:
        assert parser.parse_args([*base, "--drop-constraint", cid]).drop_constraint == [cid]
    # The message lists the choices, so it also tells a missing or extra id.
    ref = argparse.ArgumentParser(prog="isurg oracle", exit_on_error=False)
    ref.add_argument("--drop-constraint", action="append", metavar="Ck",
                     choices=list(oracle.CONSTRAINT_IDS))
    with pytest.raises(argparse.ArgumentError) as exc:
        ref.parse_args(["--drop-constraint", "C7"])
    code, out, err = run_exit(capsys, *base, "--drop-constraint", "C7")
    assert code == 2
    assert out == ""
    assert err.endswith(f"\nisurg oracle: error: {exc.value}\n")


def test_calls_stay_independent_once_the_parser_is_kept(capsys):
    cli.main(["trefoil", "--n", "1"])
    capsys.readouterr()
    kept = cli._parser
    assert kept is not None
    argv = ["--format", "json", "oracle", "--genus", "2", "--lspace-slope", "6", "--range", "-8:8"]
    for _ in range(2):
        code, out, _ = run(capsys, *argv, "--drop-constraint", "C5")
        assert code == 3
        assert json.loads(out)["inputs"]["dropped"] == ["C5"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert json.loads(out)["inputs"]["dropped"] == []

    code, out, err = run_exit(capsys, "dims", "--genus", "2", "--knot", "torus:2,3", "--n", "1")
    assert code == 2
    assert out == ""
    assert "not allowed with argument" in err
    code, out, err = run(capsys, "dims", "--genus", "2", "--n", "1")
    assert (code, out, err) == (0, "n=1  z2_d0=3  z2_d1=2  provenance=eq1\n", "")

    code, out, _ = run(capsys, "--format", "json", "trefoil", "--n", "3")
    assert code == 0
    assert json.loads(out)["results"][0]["z2"] == [3, 2]
    code, out, _ = run(capsys, "trefoil", "--n", "3")
    assert (code, out) == (0, "n=3  z2_d0=3  z2_d1=2  provenance=prop61\n")
    assert cli._parser is kept


def test_a_replaced_command_runs_once_the_parser_is_kept(capsys, monkeypatch):
    assert cli.build_parser() is not cli.build_parser()
    assert run(capsys, "trefoil", "--n", "1")[0] == 0
    assert cli._parser is not None

    def fake_trefoil(args):
        return cli._record("trefoil", {"n": args.n}, [{"n": -args.n}], [])

    monkeypatch.setattr(cli, "cmd_trefoil", fake_trefoil)
    assert run(capsys, "trefoil", "--n", "4") == (0, "n=-4\n", "")


def test_main_reads_sys_argv_when_given_no_argv(capsys, monkeypatch):
    # The console script calls main() with no arguments.
    monkeypatch.setattr(sys, "argv", ["isurg", "trefoil", "--n", "3"])
    assert cli.main() == 0
    assert capsys.readouterr() == ("n=3  z2_d0=3  z2_d1=2  provenance=prop61\n", "")


def test_a_closed_stdout_ends_the_run_with_exit_0(monkeypatch, tmp_path):
    # In process, the stdout that main points at devnull is a file of the test's.
    path = tmp_path / "out"
    with open(path, "w") as out:
        monkeypatch.setattr(sys, "stdout", out)

        def closed(argv):
            raise BrokenPipeError(errno.EPIPE, "Broken pipe")

        monkeypatch.setattr(cli, "_main", closed)
        assert cli.main(["trefoil", "--n", "3"]) == 0
        out.write("buffered after the pipe closed\n")
    assert path.read_text() == ""


def test_running_the_module_exits_with_main_s_code(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["isurg", "trefoil", "--n", "0"])
    with warnings.catch_warnings():
        # runpy warns that isurg.cli is already imported; it runs a fresh copy.
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(SystemExit) as exc:
            runpy.run_module("isurg.cli", run_name="__main__")
    assert exc.value.code == 2
    assert capsys.readouterr() == ("", "error: n must be >= 1\n")


def test_dims_imports_only_what_it_computes_with():
    # One fresh interpreter: a module that an earlier test imported stays in
    # this process's sys.modules.
    script = (
        "import json, sys\n"
        "from isurg import cli\n"
        "code = cli.main(['dims', '--genus', '2', '--n', '3'])\n"
        "print(json.dumps([code, sorted(m for m in sys.modules if m.startswith(('isurg', 'fractions', 'dataclasses')))]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    row, result = proc.stdout.splitlines()
    assert row == "n=3  z2_d0=3  z2_d1=0  provenance=eq1"
    code, loaded = json.loads(result)
    assert code == 0
    assert "isurg.surgery" in loaded
    unused = {"isurg.oracle", "isurg.triangle", "isurg.legendrian", "isurg.planefield", "isurg.knots",
              "fractions", "dataclasses"}
    assert unused.isdisjoint(loaded)


def test_record_commands_load_neither_dataclasses_nor_inspect(tmp_path):
    # Every record, the graded vectors included, is a checked namedtuple;
    # `dataclasses` (and the `inspect` it imports) costs a one-shot command
    # about 10 ms of start-up.  One fresh interpreter runs every subcommand,
    # and then assigns to a field of a vector, which must fail without
    # loading `dataclasses` for its error type.
    catalog = tmp_path / "catalog.json"
    catalog.write_text(json.dumps({"knots": [{"name": "K", "genus": 2, "max_self_linking": 3}]}))
    script = (
        "import json, sys\n"
        "from isurg import cli, graded\n"
        "codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]\n"
        "try:\n"
        "    graded.GradedDimZ2(1, 0).d0 = 2\n"
        "except AttributeError:\n"
        "    codes.append('frozen')\n"
        "print(json.dumps([codes, sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules)]))\n"
    )
    commands = [
        ["dims", "--genus", "2", "--n", "1"],
        ["dims", "--knot", "torus:2,3", "--n", "1"],
        ["dims", "--knot", "K", "--n", "1", "--catalog", str(catalog)],
        ["triangle", "--n", "-1"],
        ["oracle", "--genus", "1", "--lspace-slope", "5", "--range", "-3:3", "--trace"],
        ["legendrian", "--tb", "1", "--rot", "0", "--target-tb", "-2"],
        ["planefield", "--chi", "1", "--sigma", "0", "--c1sq", "1/2"],
        ["trefoil", "--n", "3"],
    ]
    assert {argv[0] for argv in commands} == set(cli._COMMANDS)
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(commands)], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [[0] * len(commands) + ["frozen"], []]


def test_closed_pipe_exits_cleanly():
    # A reader that stops early (`isurg dims ... | head -1`) must not get a
    # BrokenPipeError traceback; the run ends with exit 0.
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "isurg.cli", "dims", "--genus", "1", "--range", "0:200000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert first.startswith(b"n=0 ")
    assert err == b""


# Escapes, non-ASCII and control characters are drawn often, not left to chance.
_TEXT = st.text(st.sampled_from('a"\\/\n\t\x00\x1f\x7f\u00e9\u20ac\U0001f600') | st.characters())
_LEAVES = st.none() | st.booleans() | st.integers(-(10**30), 10**30) | _TEXT


_TREES = st.recursive(
    _LEAVES, lambda kids: st.lists(kids) | st.dictionaries(_TEXT, kids), max_leaves=25
)


@given(_TREES)
def test_json_writer_matches_stdlib_indent(v):
    assert cli._json(v) == json.dumps(v, indent=2)


_RECORDS = st.fixed_dictionaries(
    {
        "command": _TEXT,
        "inputs": st.dictionaries(_TEXT, _LEAVES, max_size=3),
        "results": st.lists(_TREES, max_size=3),
        "warnings": st.lists(_TEXT, max_size=2),
    },
    optional={
        "trace": st.lists(st.dictionaries(_TEXT, _LEAVES), max_size=3),
        "error": st.dictionaries(_TEXT, _LEAVES, max_size=3),
    },
)


@given(_RECORDS, st.booleans())
def test_streamed_json_matches_stdlib_indent(record, rows_as_generator):
    expected = json.dumps(record, indent=2) + "\n"
    if rows_as_generator:  # as `oracle` makes its results and trace
        record = dict(record, **{k: iter(record[k]) for k in ("results", "trace") if k in record})
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit(record, "json")
    assert out.getvalue() == expected


class _CountingSink:
    """A stdout that keeps only the number of characters written (all ASCII)."""

    def __init__(self):
        self.written = 0

    def write(self, text):
        self.written += len(text)
        return len(text)

    def flush(self):
        pass


@pytest.mark.parametrize("fmt", ["table", "tsv", "json"])
def test_dims_streams_in_bounded_memory(capsys, monkeypatch, fmt):
    # 10**5 rows of 30-180 bytes each: a writer that held the rows or the
    # output would peak at tens of MiB.
    sink = _CountingSink()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        code = cli.main(["--format", fmt, "dims", "--genus", "2", "--range", "0:99999", "--z4"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert sink.written > 3 * 10**6
    assert peak < 2**20


def _peak(run):
    """`run()` and the tracemalloc peak while it ran."""
    tracemalloc.start()
    try:
        return run(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_traced_oracle_holds_no_copy_of_its_trace(monkeypatch, fmt):
    # Trace entries are written one by one, as the rows are, so a traced run
    # peaks where the traced solve itself does.  A list of the entries'
    # dicts took about 2.4 (table) and 4 (JSON) times as much.
    _, solve_peak = _peak(lambda: oracle.build_system(1, 5, (-1000, 1000), trace=True).solve())
    sink = _CountingSink()
    monkeypatch.setattr(sys, "stdout", sink)
    argv = ["--format", fmt, "oracle", "--genus", "1", "--lspace-slope", "5", "--range", "-1000:1000", "--trace"]
    code, peak = _peak(lambda: cli.main(argv))
    assert code == 0
    assert sink.written > 5 * 10**5
    assert peak < 1.2 * solve_peak


@pytest.mark.parametrize("fmt", ["table", "tsv", "json"])
def test_dims_writes_the_first_row_before_computing_the_last(capsys, monkeypatch, fmt):
    computed = []
    dims_rows = surgery.dims_rows

    def counted(rows):
        for row in rows:
            computed.append(row)
            yield row

    def counted_dims_rows(g, slopes, z4):
        for fixed, rows in dims_rows(g, slopes, z4):
            yield fixed, counted(rows)

    monkeypatch.setattr(surgery, "dims_rows", counted_dims_rows)
    # Each row names its provenance once, in every format.
    written = [0]
    at_write = []

    def write(text):
        at_write.append((len(computed), written[0]))
        written[0] += text.count("cor52")

    monkeypatch.setattr(sys, "stdout", SimpleNamespace(write=write, flush=lambda: None))
    assert cli.main(["--format", fmt, "dims", "--genus", "2", "--range", "-199:999", "--z4"]) == 0
    assert len(computed) == written[0] == 1199
    # The first write after any row was computed came after exactly one.
    assert next(k for k, _ in at_write if k > 0) == 1
    # At every write at most one block of rows past those written had been
    # computed, and a whole block was reached.
    assert max(k - done for k, done in at_write) == cli._BLOCK


def _captured(fn, *args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        result = fn(*args)
    return result, out.getvalue(), err.getvalue()


def _dict_row(g, n, z4):
    """A `dims` row built as a dict, the form every other command emits."""
    res = {"n": n, "z2": list(surgery.dims_z2(g, n).entries()), "provenance": "eq1"}
    if z4:
        res["z4"] = list(surgery.dims_z4(g, n).entries())
        res["provenance"] = "cor52"
    return res


HUGE_GENUS = 3 * 10**200 + 1
# Its constants g - 1 and g are the digits of `cli._SLOT` stand-ins.
SLOT_GENUS = cli._SLOT + 1
GENERA = (1, 2, 3, 4, 5, HUGE_GENUS, SLOT_GENUS)


@pytest.fixture(scope="module")
def warning_catalog(tmp_path_factory):
    """A knot per genus in GENERA, none marked lens_surgery, so --z4 warns."""
    path = tmp_path_factory.mktemp("catalog") / "cat.json"
    knots = [{"name": f"K{g}", "genus": g, "max_self_linking": 1} for g in GENERA]
    path.write_text(json.dumps({"knots": knots}))
    return str(path)


def _block_edges(test):
    """Add examples whose regimes fill `cli._BLOCK` = 64 rows, or miss by one,
    in every format, with and without --z4.

    At genus 2, -size..3+size gives the n <= -1 and n >= 4 regimes `size`
    rows each; the record's first row is written alone, so the first regime
    leaves size - 1 to its blocks.  At SLOT_GENUS, -65..65 and 2g-3..2g+63
    cross every regime with a constant that holds a stand-in's digits.
    """
    for fmt in ("table", "tsv", "json"):
        for z4 in (False, True):
            for size in (63, 64, 65, 129):
                test = example(fmt=fmt, z4=z4, g=2, by_knot=False, near_top=False,
                               offset=-size, width=2 * size + 3)(test)
            test = example(fmt=fmt, z4=z4, g=SLOT_GENUS, by_knot=z4, near_top=False,
                           offset=-65, width=130)(test)
            test = example(fmt=fmt, z4=z4, g=SLOT_GENUS, by_knot=not z4, near_top=True,
                           offset=-2, width=66)(test)
    return test


# A window of slopes starting near 0 or near 2g-1 crosses the regime
# boundaries there: n <= -2 of both parities, -1, 0, 1..2g-2, 2g-1, 2g.
# A width of -1 asks for the single slope with --n.
@given(
    fmt=st.sampled_from(["table", "tsv", "json"]),
    z4=st.booleans(),
    g=st.sampled_from(GENERA),
    by_knot=st.booleans(),
    near_top=st.booleans(),
    offset=st.integers(-12, 2),
    width=st.integers(-1, 16),
)
@example(fmt="table", z4=True, g=5, by_knot=False, near_top=False, offset=-4, width=16)
@example(fmt="tsv", z4=True, g=5, by_knot=True, near_top=False, offset=-4, width=16)
@example(fmt="json", z4=True, g=5, by_knot=False, near_top=False, offset=-4, width=16)
@_block_edges
def test_dims_rows_match_the_dict_row_writer(warning_catalog, fmt, z4, g, by_knot, near_top, offset, width):
    lo = (2 * g - 1) * near_top + offset
    hi = max(lo, lo + width)
    who = ["--knot", f"K{g}", "--catalog", warning_catalog] if by_knot else ["--genus", str(g)]
    where = ["--n", str(lo)] if width < 0 else ["--range", f"{lo}:{hi}"]
    argv = ["--format", fmt, "dims", *who, *where] + ["--z4"] * z4
    code, out, err = _captured(cli.main, argv)
    assert code == 0

    record = cli.cmd_dims(cli.build_parser().parse_args(cli._preprocess(argv)))
    record["results"] = [_dict_row(g, n, z4) for n in range(lo, hi + 1)]
    _, ref_out, ref_err = _captured(cli._emit, record, fmt)
    assert out == ref_out
    assert err == ref_err


# Values for every argument of every subcommand: a well-formed one three
# draws in four, else a hostile one.  A count a run makes (slopes, rotation
# numbers, padded oracle slopes) is either small or past its limit, never
# at one, so no draw computes a million rows.  PAST has more digits than
# Python's default limit on int text.
PAST = "9" * 4301
_POOLS = {
    cli._int: ([str(v) for v in range(-3, 13)],
               ["2000000", "-2000000", PAST, "-" + PAST, "x", ""]),
    cli._parse_range: (["-3:4", "0:0", "-1:-1", "2:9", "-12:12"],
                       ["5:1", "1:2:3", "a:b", ":", "", "1:", "-2000000:2000000", "0:" + PAST]),
    "--knot": (["torus:2,3", "torus:3,2", "torus:2,5", "K1", "K2", f"K{HUGE_GENUS}"],
               ["", "torus:", "torus:2,4", "torus:1,5", "torus:2,3,5", "torus:a,b", "torus:-2,-3",
                "torus:2," + PAST, "T(2,5)"]),
    "--catalog": (["<catalog>"], ["", "missing.json"]),
    "--c1sq": (["1/2", "-1/2", "-3", "0", "2.5", "1e5", "1e-5", "1_000", " 7 "],
               ["1/0", "1e99999", "1e-99999", "x", "", "nan", "inf", PAST, "1/" + PAST]),
    "--drop-constraint": (["C1", "C2", "C3", "C4", "C5", "C6"], ["C7", "c3", ""]),
}

# An error line shows at most about 250 characters of its text, and
# argparse's usage message a few hundred, however long the input.
_ERR_CHARS = 1000


def _flag(flag, keywords):
    """Tokens for one argument: the flag alone, or with a value drawn from
    its pools, repeated up to twice for an appended one."""
    if keywords.get("action") == "store_true":
        return st.just([flag])
    pools = _POOLS[keywords.get("type", flag)]
    value = st.integers(0, 3).flatmap(lambda i: st.sampled_from(pools[i == 0]))
    given_once = value.map(lambda v: [flag, v])
    if keywords.get("action") == "append":
        return st.lists(given_once, max_size=2).map(lambda tokens: sum(tokens, []))
    return given_once


@st.composite
def _argvs(draw):
    """A subcommand of `cli._COMMANDS` in one of the three formats.  A
    required argument is left out one draw in eight, an optional one in
    two; a pair of which one is required gives both or neither one draw in
    eight each."""
    name = draw(st.sampled_from(sorted(cli._COMMANDS)))
    argv = ["--format", draw(st.sampled_from(["table", "json", "tsv"])), name]
    for arg in cli._COMMANDS[name][2]:
        if type(arg) is list:
            k = draw(st.integers(0, 7))
            pairs = arg if k == 7 else [] if k == 6 else [draw(st.sampled_from(arg))]
        else:
            pairs = [arg] if draw(st.integers(0, 7 if arg[1].get("required") else 1)) else []
        for flag, keywords in pairs:
            argv += draw(_flag(flag, keywords))
    return argv


@given(argv=_argvs(), env=st.sampled_from([None, "", "<catalog>"]))
@example(argv=["--format", "json", "dims", "--knot", "", "--n", "1"], env=None)
@example(argv=["--format", "tsv", "oracle", "--genus", "1", "--lspace-slope", "5", "--range", "-3:4",
               "--drop-constraint", "C6"], env=None)
@settings(max_examples=300, deadline=None)
def test_hostile_arguments_end_in_an_exit_code_not_a_traceback(warning_catalog, argv, env):
    argv = [warning_catalog if token == "<catalog>" else token for token in argv]
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        os.environ.pop(cli.CATALOG_ENV, None)
        if env is not None:
            os.environ[cli.CATALOG_ENV] = warning_catalog if env == "<catalog>" else env
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse refused an argument
            code = exc.code
            assert code == 2
    err = err.getvalue()
    assert code in (0, 2, 3)
    assert "Traceback" not in err
    assert len(err) < _ERR_CHARS
    if code == 3 or (code == 0 and argv[1] == "json"):
        jsonschema.validate(json.loads(out.getvalue()), SCHEMA)


@st.composite
def _valid_argvs(draw):
    """The arguments, without --format, of a subcommand run that exits 0."""
    name = draw(st.sampled_from(sorted(cli._COMMANDS)))
    small = lambda lo, hi: draw(st.integers(lo, hi))
    lo, width = small(-8, 10), small(0, 12)
    if name == "dims":
        who = draw(st.sampled_from([["--genus", str(small(1, 4))], ["--knot", "torus:2,3"],
                                    ["--knot", "torus:2,5"], ["--knot", "torus:3,4"]]))
        where = draw(st.sampled_from([["--n", str(lo)], ["--range", f"{lo}:{lo + width}"]]))
        return ["dims", *who, *where] + ["--z4"] * draw(st.booleans())
    if name == "oracle":
        g = small(1, 3)
        return (["oracle", "--genus", str(g), "--lspace-slope", str(2 * g - 1 + small(0, 4)),
                 "--range", f"{lo}:{lo + width}"] + ["--trace"] * draw(st.booleans()))
    if name == "legendrian":
        tb = small(-5, 5)
        rot = 2 * small(-3, 3) + (tb + 1) % 2
        return ["legendrian", "--tb", str(tb), "--rot", str(rot), "--target-tb", str(tb - small(0, 6))]
    if name == "planefield":
        chi, b1 = small(-6, 6), small(0, 3)
        sigma = 2 * small(-3, 3) + (chi + b1 + 1) % 2
        c1sq = draw(st.sampled_from([[], ["--c1sq", "1/2"], ["--c1sq", "-3"], ["--c1sq", "2.5"]]))
        return ["planefield", "--chi", str(chi), "--sigma", str(sigma), "--b1", str(b1), *c1sq]
    return [name, "--n", str(small(-6, 6) if name == "triangle" else small(1, 9))]


_TRACE_LINE = re.compile(r"trace: (C\d) slope=(-?\d+) d(\d)\.(lo|hi)=(\d+) consumed=(\[.*\])")


def _cells(fmt, out):
    """The result rows of `out` as dicts of column to text, empty cells
    left out, and its trace entries as JSON holds them.  A `z2`/`z4` list is
    one column per grading, another list its items joined by commas.  A
    trace line is not a row; its fields are parsed back to their types."""
    if fmt == "json":
        record = json.loads(out)
        rows = []
        for res in record["results"]:
            row = {}
            for k, v in res.items():
                if k in ("z2", "z4"):
                    row.update({f"{k}_d{i}": str(x) for i, x in enumerate(v)})
                elif type(v) is bool:
                    row[k] = "true" if v else "false"
                elif v is not None:
                    row[k] = ",".join(map(str, v)) if type(v) is list else str(v)
            rows.append({k: v for k, v in row.items() if v})
        return rows, record.get("trace", [])
    lines, trace = [], []
    for line in out.splitlines():
        if not line.startswith("trace: "):
            lines.append(line)
            continue
        constraint, slope, grading, bound, value, consumed = _TRACE_LINE.fullmatch(line).groups()
        trace.append({"constraint": constraint, "slope": int(slope), "grading": int(grading), "bound": bound,
                      "value": int(value), "consumed": ast.literal_eval(consumed)})
    if fmt == "tsv":
        cols = lines.pop(0).split("\t")
        return [{k: v for k, v in zip(cols, line.split("\t")) if v} for line in lines], trace
    return [{k: v for k, _, v in (cell.partition("=") for cell in line.split("  ")) if v}
            for line in lines], trace


@given(argv=_valid_argvs())
@settings(max_examples=300, deadline=None)
def test_table_tsv_and_json_hold_the_same_rows(argv):
    runs = {}
    for fmt in ("table", "tsv", "json"):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert cli.main(["--format", fmt, *argv]) == 0
        runs[fmt] = out.getvalue(), err.getvalue()
    rows, trace = _cells("json", runs["json"][0])
    assert rows
    assert bool(trace) == ("--trace" in argv)
    warnings = "".join(f"warning: {w}\n" for w in json.loads(runs["json"][0])["warnings"])
    for fmt in ("table", "tsv"):
        assert _cells(fmt, runs[fmt][0]) == (rows, trace)
        assert runs[fmt][1] == warnings
    assert runs["json"][1] == ""
