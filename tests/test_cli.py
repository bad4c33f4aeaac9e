import contextlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from importlib import resources
from pathlib import Path
from types import SimpleNamespace

import jsonschema
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from isurg import cli, legendrian, surgery
from isurg.knots import dump_catalog, torus_knot

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
    def no_rows(g, n):
        raise AssertionError("a row was computed")

    monkeypatch.setattr(surgery, "dims_z2", no_rows)
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
    # The genus parses, but the row's dimensions need one digit more.
    genus = "9" * int_digit_limit
    code, _, err = run(capsys, "--format", fmt, "dims", "--genus", genus, "--n", "0")
    assert code == 2
    assert err.startswith("error: cannot write the result")


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
    assert err.startswith(f"error: catalog {path}: catalog is not valid JSON")


# A JSON true is a Python int, and 2.5 used to fail later as a bad dimension.
@pytest.mark.parametrize("genus", ['"3"', "true", "2.5"])
def test_catalog_genus_of_the_wrong_type_exits_2(capsys, tmp_path, genus):
    path = tmp_path / "cat.json"
    path.write_text('{"knots": [{"name": "k", "genus": ' + genus + ', "max_self_linking": 1}]}')
    code, out, err = run(capsys, "dims", "--knot", "k", "--n", "0", "--z4", "--catalog", str(path))
    assert code == 2
    assert out == ""
    assert err == f"error: catalog {path}: knots[0] (k): genus must be an integer, got {genus}\n"


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
    env_cat.write_text(dump_catalog([torus_knot(2, 5)]))
    flag_cat = tmp_path / "flag.json"
    flag_cat.write_text(dump_catalog([torus_knot(2, 3)]))
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
    # Refused before any bound is allocated; should that check regress,
    # this test costs about 0.3 GB and a few seconds.
    code, out, err = run(
        capsys, "oracle", "--genus", "1", "--lspace-slope", "5", "--range", "-130000:130000"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: slope range too wide")
    assert "Traceback" not in err


def test_oracle_drop_c6_exits_3(capsys):
    code, out, _ = run(
        capsys,
        "--format", "json",
        "oracle", "--genus", "1", "--lspace-slope", "5", "--range", "-10:10",
        "--drop-constraint", "C6",
    )
    assert code == 3
    record = json.loads(out)
    jsonschema.validate(record, SCHEMA)
    assert record["error"]["kind"] == "not-determined"
    assert any(s < 0 for s in record["error"]["undetermined_slopes"])


def test_oracle_exit3_lists_repeated_drop_once(capsys):
    code, out, _ = run(
        capsys,
        "--format", "json",
        "oracle", "--genus", "2", "--lspace-slope", "6", "--range", "-8:8",
        "--drop-constraint", "C5", "--drop-constraint", "C5",
    )
    assert code == 3
    assert json.loads(out)["inputs"]["dropped"] == ["C5"]


def test_oracle_precondition_exit_2(capsys):
    code, _, err = run(capsys, "oracle", "--genus", "2", "--lspace-slope", "2", "--range", "0:0")
    assert code == 2
    assert "2g-1" in err


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
    code, _, err = run(capsys, "legendrian", "--tb", "1", "--rot", "1", "--target-tb", "0")
    assert code == 2
    assert "odd" in err


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

    monkeypatch.setattr(cli, "Fraction", no_fraction)
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


def test_planefield_bad_parity(capsys):
    code, _, err = run(capsys, "planefield", "--chi", "2", "--sigma", "0")
    assert code == 2
    assert "parity" in err.lower() or "even" in err.lower()


def test_trefoil(capsys):
    code, record, _ = run_json(capsys, "trefoil", "--n", "3")
    assert code == 0
    assert record["results"][0]["z2"] == [3, 2]

    code, _, err = run(capsys, "trefoil", "--n", "0")
    assert code == 2


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
    if rows_as_generator:
        record = dict(record, results=(row for row in record["results"]))
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


@pytest.mark.parametrize("fmt", ["table", "tsv", "json"])
def test_dims_writes_the_first_row_before_computing_the_last(capsys, monkeypatch, fmt):
    computed = []
    dims_z4 = surgery.dims_z4

    def counted_dims_z4(g, n):
        computed.append(n)
        return dims_z4(g, n)

    monkeypatch.setattr(surgery, "dims_z4", counted_dims_z4)
    rows_at_write = []
    sink = SimpleNamespace(write=lambda text: rows_at_write.append(len(computed)), flush=lambda: None)
    monkeypatch.setattr(sys, "stdout", sink)
    assert cli.main(["--format", fmt, "dims", "--genus", "2", "--range", "0:999", "--z4"]) == 0
    assert len(computed) == 1000
    # The first write after any row was computed came after exactly one.
    assert next(k for k in rows_at_write if k > 0) == 1


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
GENERA = (1, 2, 3, 4, 5, HUGE_GENUS)


@pytest.fixture(scope="module")
def warning_catalog(tmp_path_factory):
    """A knot per genus in GENERA, none marked lens_surgery, so --z4 warns."""
    path = tmp_path_factory.mktemp("catalog") / "cat.json"
    knots = [{"name": f"K{g}", "genus": g, "max_self_linking": 1} for g in GENERA]
    path.write_text(json.dumps({"knots": knots}))
    return str(path)


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
