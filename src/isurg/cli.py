"""Command-line front end.

Subcommands: dims, triangle, oracle, legendrian, planefield, trefoil.
Each is one entry of the `_COMMANDS` table (help, arguments, TSV columns)
and one `cmd_<name>`, which imports the modules it computes with when it
runs.  The parser is built from the table once per process and reused.
Output is a human-readable table by default; --format json|tsv switches.
JSON output, including the exit-3 report, has exactly the layout of
`json.dumps(record, indent=2)` (non-ASCII characters escaped) and is
byte-stable.  Result rows are written as they are computed, so `dims`
holds at most one block of `_BLOCK` rows at any range (`oracle` holds its
solved slopes and trace, and makes each row and trace entry as it is
written), and a reader that closes stdout early (`isurg dims ... | head -1`)
stops a long range there and ends the run quietly with exit 0.  A `dims`
range is written one closed-form regime at a time, from one template per
regime (`_write_rows`).

Exit codes: 0 success; 2 when a `cmd_<name>` raises ValueError, whose
text is written as `error: <text>`; 3 when it returns a record holding
`error`, which is written as the JSON report whatever --format says.  A
ValueError is the library's own refusal of its input, or a check of the
CLI's: a `dims` range of more than MAX_ITEMS slopes, a `--catalog` given
with `--genus` or a torus knot (which read no catalog), a `legendrian`
target tb that gives more than MAX_ITEMS rotation numbers, a `--catalog`
file of more than MAX_CATALOG_BYTES bytes, or a `--c1sq` whose numerator
or denominator would pass Python's limit on int digits.  A result holding
an integer too long for Python to convert to text also exits 2; the part
of the record already written stays on stdout, in every format, and any
warning still reaches stderr.  Exit 3 is a mathematical failure: an
oracle contradiction or undetermined slopes.  A usage error echoes at
most 40 characters of a bad argument: the first 40, or the last 40 of a
`--catalog` path.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from itertools import chain, islice

from . import surgery

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MATH = 3

CATALOG_ENV = "ISURG_CATALOG"

# More slopes or rotation numbers than this are refused.  `dims` streams
# its rows, so for it this bounds only the run time; `legendrian` holds
# every rotation number in its one row.
MAX_ITEMS = 10**6

# A longer `--catalog` file is refused; at most one byte past this is read.
MAX_CATALOG_BYTES = 2**20


# -- output formatting ----------------------------------------------------

_ESCAPE = json.encoder.encode_basestring_ascii  # the stdlib's C escaper


def _json(v, pad="\n") -> str:
    """`json.dumps(v, indent=2)`, written directly.

    The stdlib indents through pure-Python generators (its C encoder runs
    only without `indent`); this writes each dict or list with one join and
    formats int items in place.  Values other than non-empty dicts with str
    keys, non-empty lists, str and int items go through `json.dumps`.
    """
    t = type(v)
    if t is dict and v:
        inner = pad + "  "
        items = [_ESCAPE(k) + ": " + (repr(x) if type(x) is int else _json(x, inner))
                 for k, x in v.items()]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if t is list and v:
        inner = pad + "  "
        items = [repr(x) if type(x) is int else _json(x, inner) for x in v]
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    if t is str:
        return _ESCAPE(v)
    return json.dumps(v)


def _fmt(v):
    if type(v) is int or type(v) is str:
        return str(v)
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    return ",".join([str(x) for x in v])  # a list: the last kind of value a row holds


def _emit(record: dict, fmt: str) -> None:
    """Write the record, each result row or trace entry as soon as it is made.

    Warnings go to stderr before the first row, except in JSON, which
    holds them in the record.
    """
    write = sys.stdout.write
    if fmt == "json":
        # The layout of _json(record), with "results" and "trace" row by row.
        sep = "{\n  "
        for k, v in record.items():
            write(sep + _ESCAPE(k) + ": ")
            sep = ",\n  "
            if k not in ("results", "trace"):
                write(_json(v, "\n  "))
            elif _write_rows(v, lambda res: _json(res, "\n    "), "[\n    ", ",\n    "):
                write("\n  ]")
            else:
                write("[]")
        write("\n}\n")
        return
    for w in record["warnings"]:
        print(f"warning: {w}", file=sys.stderr)
    if fmt == "tsv":
        cols = _COMMANDS[record["command"]][1].split()
        write("\t".join(cols) + "\n")
        _write_rows(record["results"], lambda res: _tsv_row(res, cols))
    else:
        _write_rows(record["results"], _table_row)
    if "trace" in record:
        for e in record["trace"]:
            write(
                f"trace: {e['constraint']} slope={e['slope']} "
                f"d{e['grading']}.{e['bound']}={e['value']} "
                f"consumed={e['consumed']}\n"
            )


def _tsv_row(res: dict, cols) -> str:
    return "\t".join(map(_fmt, map(_flatten(res).get, cols))) + "\n"


def _table_row(res: dict) -> str:
    return "  ".join([f"{k}={_fmt(v)}" for k, v in _flatten(res).items() if v is not None]) + "\n"


def _flatten(res: dict) -> dict:
    out = {}
    for k, v in res.items():
        if k == "z2":
            out["z2_d0"], out["z2_d1"] = v
        elif k == "z4":
            out["z4_d0"], out["z4_d1"], out["z4_d2"], out["z4_d3"] = v
        else:
            out[k] = v
    return out


def _write_rows(results, render, first="", sep="") -> bool:
    """Write each row of `results` as `render` gives it, with `first` before
    the first row and `sep` before each later one; False if there was none.

    A dict row is rendered on its own.  `dims` results are `(fixed, rows)`
    regimes (see `surgery.dims_rows`).  A sample row is rendered once per
    record into a skeleton, its text with each `%` escaped for two `%`
    steps and a `%s` at each int; one `%` over the skeleton gives a
    regime's template, with its constants and a `%d` for each varying
    entry.  The record's first row is written alone, the rest `_BLOCK` rows
    to one `%` and one `write`.  `%d` refuses an int too long to print with
    the same ValueError as `str`; a block that holds one is written again
    row by row, so the rows before it still go out.
    """
    write = sys.stdout.write
    rows = iter(results)
    for row in rows:  # not next(rows, None): a generic row may be None
        break
    else:
        return False
    if type(row) is not tuple:
        write(first + render(row))
        for row in rows:
            write(sep + render(row))
        return True
    skeleton = _skeleton(render, len(row[0]))
    for fixed, flat in chain((row,), rows):
        template = skeleton % tuple(["%d" if c is None else "%d" % c for c in fixed])
        if first is not None:
            write((first + template) % next(flat))
            first = None
        _write_blocks(write, sep + template, flat)
    return True


# Rows of a `dims` regime written with one `%` and one `write`.
_BLOCK = 64


def _write_blocks(write, template, rows) -> None:
    """Write `rows`, the varying entries of a regime's rows, through the
    regime's `template`, `_BLOCK` rows to one `%` and one `write`."""
    # A batch is a list, so the n = 0 regime's one row, (), still counts.
    while batch := list(islice(rows, _BLOCK)):
        try:
            text = (template * len(batch)) % tuple(chain.from_iterable(batch))
        except ValueError:  # an int too long to print: the rows before it go out
            for row in batch:  # first, and then its own row raises the same error
                write(template % row)
        write(text)


# Stand-ins for the ints of a sample row: all 41 digits long, so none is
# part of another, and no fixed text of a row holds a number that long.
_SLOT = 10**40


def _skeleton(render, width: int) -> str:
    """The text of `render(_dims_row(row))` for a flat `dims` row of `width`
    ints, with each `%` escaped for two `%` steps and a `%s` at each int."""
    text = render(_dims_row(tuple(range(_SLOT, _SLOT + width)))).replace("%", "%%%%")
    for slot in range(_SLOT, _SLOT + width):
        text = text.replace(str(slot), "%s", 1)
    return text


# -- argument helpers -----------------------------------------------------

def _shown(text: str, tail: bool = False) -> str:
    """`repr(text)`, cut to its first 40 characters when it is longer, or
    to its last 40 with `tail` (a path, whose file name ends it)."""
    if len(text) <= 40:
        return repr(text)
    if tail:
        return f"...{text[-40:]!r} ({len(text)} characters)"
    return f"{text[:40]!r}... ({len(text)} characters)"


def _int(text: str) -> int:
    """`int` for an argument, with argparse's message for a bad one."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {_shown(text)}")


def _parse_range(text: str):
    try:
        a, b = text.split(":")
        lo, hi = int(a), int(b)
    except ValueError:
        raise argparse.ArgumentTypeError(f"range must look like A:B, got {_shown(text)}")
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty range {_shown(text)}")
    return lo, hi


# Values like "-10:10" or "-1/2" look like options to argparse; glue them
# to their flag so they tokenize as a single argument.  Each abbreviation
# of 3 or more characters is glued too, so argparse resolves `--rang -3:-2`
# as it does `--rang 3:4`.
_GLUED_FLAGS = {flag[:k] for flag in ("--range", "--c1sq") for k in range(3, len(flag) + 1)}


def _preprocess(argv):
    out = []
    it = iter(argv)
    for tok in it:
        if tok in _GLUED_FLAGS:
            val = next(it, None)
            if val is None:
                out.append(tok)
            else:
                out.append(f"{tok}={val}")
        else:
            out.append(tok)
    return out


def _resolve_knot(args):
    from . import knots
    spec_str = args.knot
    if spec_str.startswith("torus:"):
        try:
            p, q = (int(x) for x in spec_str[len("torus:"):].split(","))
        except ValueError:
            raise ValueError(f"torus knot must look like torus:P,Q, got {_shown(spec_str)}")
        try:
            return knots.torus_knot(p, q)
        except ValueError as e:
            raise ValueError(f"{e}, got {_shown(spec_str)}")
    path = os.environ.get(CATALOG_ENV) if args.catalog is None else args.catalog
    if not path:
        raise ValueError(
            f"--knot {_shown(spec_str)} needs a catalog (--catalog or ${CATALOG_ENV})"
        )
    shown = _shown(path, tail=True)
    try:
        with open(path, "rb") as fh:
            data = fh.read(MAX_CATALOG_BYTES + 1)
        if len(data) > MAX_CATALOG_BYTES:
            raise ValueError(f"catalog {shown}: more than {MAX_CATALOG_BYTES} bytes")
        catalog = knots.load_catalog(data.decode("utf-8"))
    except OSError as e:  # its text would repeat the path whole
        raise ValueError(f"catalog {shown}: {e.strerror}")
    except (knots.CatalogError, UnicodeDecodeError) as e:
        raise ValueError(f"catalog {shown}: {e}")
    for k in catalog:
        if k.name == spec_str:
            return k
    raise ValueError(f"knot {_shown(spec_str)} not found in catalog {shown}")


# -- subcommands ----------------------------------------------------------

def cmd_dims(args) -> dict:
    # $ISURG_CATALOG is a default and stays silent; the flag is a request.
    if args.catalog is not None and args.knot is None:
        raise ValueError("--catalog needs --knot; --genus reads no catalog")
    if args.catalog is not None and args.knot.startswith("torus:"):
        raise ValueError("--catalog needs a catalog knot; torus:P,Q reads no catalog")
    lo, hi = (args.n, args.n) if args.range is None else args.range
    if hi - lo + 1 > MAX_ITEMS:
        raise ValueError(
            f"slope range too wide: {lo}:{hi} holds {hi - lo + 1} slopes, "
            f"more than the limit of {MAX_ITEMS}"
        )
    warnings = []
    if args.knot is not None:
        k = _resolve_knot(args)
        g = k.genus
        inputs = {"knot": k.name, "genus": g}
        lens_known = k.lens_surgery
    else:
        if args.genus < 1:
            raise ValueError("genus must be >= 1")
        g = args.genus
        inputs = {"genus": g}
        lens_known = False
    if args.z4 and not lens_known:
        warnings.append(
            "Z/4 gradings assume a positive lens-space surgery; this knot is "
            "not marked lens_surgery=true"
        )
    inputs.update({"n": lo} if args.range is None else {"range": [lo, hi]})
    return _record("dims", inputs, surgery.dims_rows(g, range(lo, hi + 1), args.z4), warnings)


def _dims_row(row: tuple) -> dict:
    """The record form of a flat `dims` row (n, z2_d0, z2_d1[, z4_d0..z4_d3])."""
    if len(row) == 3:
        return {"n": row[0], "z2": list(row[1:]), "provenance": "eq1"}
    return {"n": row[0], "z2": list(row[1:3]), "provenance": "cor52", "z4": list(row[3:])}


def cmd_triangle(args) -> dict:
    from . import triangle
    n = args.n
    degs = triangle.triangle_degrees(n)
    res = {
        "n": n,
        **degs._asdict(),
        "d_spin_surgery": triangle.d_degree(triangle.surgery_map_cobordism_data(n)),
        "d_spin_other": triangle.d_degree(triangle.spin_s3_cobordism_data(n)),
        "provenance": "cor51",
    }
    return _record("triangle", {"n": n}, [res], [])


def cmd_oracle(args) -> dict:
    from . import oracle
    g = args.genus
    m = args.lspace_slope
    drop = frozenset(args.drop_constraint or [])
    system = oracle.build_system(g, m, args.range, drop=drop, trace=args.trace)
    inputs = {"genus": g, "lspace_slope": m, "range": list(args.range), "dropped": sorted(drop)}
    record = _record("oracle", inputs, [], [])
    try:
        solved = system.solve()
    except oracle.ContradictionError as e:
        record["error"] = {"kind": "contradiction", "message": str(e)}
    except oracle.NotDeterminedError as e:
        record["error"] = {
            "kind": "not-determined", "message": str(e), "undetermined_slopes": e.slopes
        }
    else:
        # Rows are made as _emit writes them; `solved` is in slope order.
        record["results"] = (
            {"n": n, "z2": list(v.entries()), "agrees": v == surgery.dims_z2(g, n),
             "provenance": "oracle"}
            for n, v in solved.items()
        )
    if args.trace:
        record["trace"] = (e.to_dict() for e in system.trace)
    return record


def cmd_legendrian(args) -> dict:
    from . import legendrian
    n_rots = args.tb - args.target_tb + 1
    if n_rots > MAX_ITEMS:
        raise ValueError(
            f"target tb too low: tb {args.tb} down to {args.target_tb} gives "
            f"{n_rots} rotation numbers, more than the limit of {MAX_ITEMS}"
        )
    rep = legendrian.LegendrianRep(args.tb, args.rot)
    rots = legendrian.rotation_numbers_after(rep, args.target_tb)
    count = legendrian.distinct_chern_count(rep, args.target_tb)
    inputs = {"tb": args.tb, "rot": args.rot, "target_tb": args.target_tb}
    res = {**inputs, "rotations": rots, "chern_count": count, "provenance": "prop41"}
    return _record("legendrian", inputs, [res], [])


def cmd_planefield(args) -> dict:
    from . import planefield
    c1sq = None if args.c1sq is None else _rational(args.c1sq)
    f = planefield.FillingData(args.chi, args.sigma, args.b1, c1sq)
    res = {
        "delta": planefield.delta(f),
        "contact_grading": planefield.contact_grading(f),
        "provenance": "delta",
    }
    if c1sq is not None:
        try:
            res["d3"] = str(planefield.d3(f))
            res["rho"] = str(planefield.rho(f))
        except ValueError as e:  # an int past sys.get_int_max_str_digits()
            raise ValueError(f"cannot write the result: {e}")
    inputs = {"chi": args.chi, "sigma": args.sigma, "b1": args.b1}
    if args.c1sq is not None:
        inputs["c1sq"] = args.c1sq
    return _record("planefield", inputs, [res], [])


def _rational(text: str):
    """`Fraction(text)` for `--c1sq`.

    Refused before it is built when a decimal's numerator or denominator,
    before reduction, would have more digits than Python converts to text:
    an exponent alone can ask for 10**10**7, which takes seconds to build
    and cannot be printed.  Each part of an "a/b" is an int parse, which
    that limit already bounds; the error names the limit then too.  Errors
    echo at most the first 40 characters of the text.
    """
    shown = _shown(text)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    too_long = f"--c1sq {shown} has a numerator or denominator of more than {limit} digits"
    if limit and "/" not in text:
        mantissa, _, exp = text.strip().lower().partition("e")
        whole, _, frac = mantissa.partition(".")
        try:
            shift = int(exp or 0) - len(frac.replace("_", ""))
        except ValueError:
            shift = 0  # not a rational; Fraction says so below
        digits = len((whole + frac).replace("_", "").lstrip("+-").lstrip("0"))
        if digits + max(shift, 0) > limit or -shift >= limit:
            raise ValueError(too_long)
    from fractions import Fraction
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        if limit and any(len(run) > limit for run in re.findall(r"\d+", text.replace("_", ""))):
            raise ValueError(too_long)
        raise ValueError(f"--c1sq must be a rational, got {shown}")


def cmd_trefoil(args) -> dict:
    v = surgery.trefoil_one_over_n(args.n)
    res = {"n": args.n, "z2": list(v.entries()), "provenance": "prop61"}
    return _record("trefoil", {"n": args.n}, [res], [])


def _record(command, inputs, results, warnings) -> dict:
    return {
        "command": command,
        "inputs": inputs,
        "results": results,
        "warnings": warnings,
    }


# -- parser ---------------------------------------------------------------

_INT = {"type": _int}
_REQUIRED_INT = {"type": _int, "required": True}
_RANGE = {"type": _parse_range, "metavar": "A:B"}

# One entry per subcommand: (help, TSV columns in order, arguments).  An
# argument is a (flag, keywords) pair; a list of pairs is a group of which
# exactly one must be given.  `_main` runs `cmd_<name>`.
_COMMANDS = {
    "dims": ("closed-form graded dimensions of surgeries",
             "n z2_d0 z2_d1 z4_d0 z4_d1 z4_d2 z4_d3 provenance",
             [[("--genus", _INT), ("--knot", {"help": "catalog name or torus:P,Q"})],
              [("--n", _INT), ("--range", _RANGE)],
              ("--z4", {"action": "store_true", "help": "include Z/4 gradings"}),
              ("--catalog", {"help": f"catalog file (or ${CATALOG_ENV})"})]),
    "triangle": ("Z/4 degree table of the surgery triangle",
                 "n deg_surgery deg_to_s3 deg_from_s3 d_spin_surgery d_spin_other provenance",
                 [("--n", _REQUIRED_INT)]),
    "oracle": ("re-derive dimensions by constraint propagation",
               "n z2_d0 z2_d1 agrees provenance",
               [("--genus", _REQUIRED_INT), ("--lspace-slope", _REQUIRED_INT),
                ("--range", {**_RANGE, "required": True}),
                ("--trace", {"action": "store_true"}),
                # oracle.CONSTRAINT_IDS, written out so that parsing does not
                # import the oracle; tests/test_cli.py checks that they agree.
                ("--drop-constraint", {"action": "append", "metavar": "Ck",
                                       "choices": ["C1", "C2", "C3", "C4", "C5", "C6"]})]),
    "legendrian": ("rotation numbers after stabilization",
                   "tb rot target_tb rotations chern_count provenance",
                   [("--tb", _REQUIRED_INT), ("--rot", _REQUIRED_INT),
                    ("--target-tb", _REQUIRED_INT)]),
    "planefield": ("plane-field invariants from filling data",
                   "delta contact_grading d3 rho provenance",
                   [("--chi", _REQUIRED_INT), ("--sigma", _REQUIRED_INT),
                    ("--b1", {**_INT, "default": 0}), ("--c1sq", {})]),
    "trefoil": ("1/n-surgery on the right-handed trefoil", "n z2_d0 z2_d1 provenance",
                [("--n", _REQUIRED_INT)]),
}


class _Parser(argparse.ArgumentParser):
    """argparse's parser, but a bad choice of more than 40 characters is shown
    as `_shown` shows it, with no list of choices.  Subparsers share the class."""

    def error(self, message):
        import ast
        head, sep, rest = message.partition("invalid choice: ")
        token = rest.rpartition(" (choose from ")[0]  # argparse's repr of the token
        if len(token) > 42 and token[-1] in "'\"":  # 40 characters in quotes, no "maybe you meant"
            message = head + sep + _shown(ast.literal_eval(token))
        super().error(message)


def build_parser() -> argparse.ArgumentParser:
    """A new parser for the commands of `_COMMANDS`."""
    parser = _Parser(
        prog="isurg",
        description="Graded instanton surgery dimensions, degree tables, and "
        "the constraint-propagation oracle.",
    )
    parser.add_argument("--format", choices=["table", "json", "tsv"], default="table")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, args) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for arg in args:
            into, pairs = p, [arg]
            if type(arg) is list:
                into, pairs = p.add_mutually_exclusive_group(required=True), arg
            for flag, keywords in pairs:
                into.add_argument(flag, **keywords)
    return parser


def main(argv=None) -> int:
    try:
        code = _main(argv)
        sys.stdout.flush()  # a closed pipe then fails here, not at exit
        return code
    except BrokenPipeError:
        # The reader has all it wants.  Point stdout at devnull so the
        # interpreter's final flush of the buffered rest cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_OK


_parser = None  # built by the first call of _main and kept for the next ones


def _main(argv) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = _parser.parse_args(_preprocess(argv))
    try:
        # Looked up now, so that a replaced cmd_<name> is the one that runs.
        record = globals()["cmd_" + args.command](args)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    if "error" in record:  # the exit-3 report is JSON in every format
        _emit(record, "json")
        return EXIT_MATH
    try:
        _emit(record, args.format)
    except ValueError as e:  # an int past sys.get_int_max_str_digits()
        if args.format == "json":  # table and TSV wrote them before the rows
            for w in record["warnings"]:
                print(f"warning: {w}", file=sys.stderr)
        print(f"error: cannot write the result: {e}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
