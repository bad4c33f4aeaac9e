"""Command-line front end.

Subcommands: dims, triangle, oracle, legendrian, planefield, trefoil.
Output is a human-readable table by default; --format json|tsv switches.
JSON output, including the exit-3 report, has exactly the layout of
`json.dumps(record, indent=2)` (non-ASCII characters escaped) and is
byte-stable.  Result rows are written as they are computed, so `dims`
holds one row at a time at any range, and a reader that closes stdout
early (`isurg dims ... | head -1`) stops a long range there and ends
the run quietly with exit 0.  A `dims` row is a flat tuple of ints from
`surgery.dims_rows`, which computes a range one closed-form regime at a
time.  Once per record, a sample row goes through the writer that formats
every other command's dict rows, with each int as a `%d` slot; each row
is then one `template % row` and one `write`.  Exit codes: 0 success, 2
usage/validation error (including a `dims` range of more than MAX_ITEMS
slopes, a `legendrian` target tb that gives more than MAX_ITEMS rotation
numbers, a `--c1sq` whose numerator or denominator would pass Python's
limit on int digits, and a result holding an integer too long for Python
to convert to text, after which the part of the record already written
stays on stdout, in every format, and any warning still reaches stderr),
3 mathematical failure (contradiction or undetermined oracle).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction

from . import graded, knots, legendrian, oracle, planefield, surgery, triangle

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MATH = 3

CATALOG_ENV = "ISURG_CATALOG"

# More slopes or rotation numbers than this are refused.  `dims` streams
# its rows, so for it this bounds only the run time; `legendrian` holds
# every rotation number in its one row.
MAX_ITEMS = 10**6


class UsageError(Exception):
    pass


# -- output formatting ----------------------------------------------------

# Fixed TSV column order per command.
_TSV_COLUMNS = {
    "dims": ["n", "z2_d0", "z2_d1", "z4_d0", "z4_d1", "z4_d2", "z4_d3", "provenance"],
    "oracle": ["n", "z2_d0", "z2_d1", "agrees", "provenance"],
    "triangle": ["n", "deg_surgery", "deg_to_s3", "deg_from_s3", "d_spin_surgery", "d_spin_other", "provenance"],
    "legendrian": ["tb", "rot", "target_tb", "rotations", "chern_count", "provenance"],
    "planefield": ["delta", "contact_grading", "d3", "rho", "provenance"],
    "trefoil": ["n", "z2_d0", "z2_d1", "provenance"],
}


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
    if isinstance(v, list):
        return ",".join([str(x) for x in v])
    return str(v)


def _emit(record: dict, fmt: str) -> None:
    """Write the record, each result row as soon as `results` yields it.

    Warnings go to stderr before the first row, except in JSON, which
    holds them in the record.
    """
    write = sys.stdout.write
    if fmt == "json":
        # The layout of _json(record), with "results" written row by row.
        sep = "{\n  "
        for k, v in record.items():
            write(sep + _ESCAPE(k) + ": ")
            sep = ",\n  "
            if k != "results":
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
        cols = _TSV_COLUMNS[record["command"]]
        write("\t".join(cols) + "\n")
        _write_rows(record["results"], lambda res: _tsv_row(res, cols))
        return
    _write_rows(record["results"], _table_row)
    if "trace" in record:
        for e in record["trace"]:
            write(
                f"trace: {e['constraint']} slope={e['slope']} "
                f"d{e['grading']}.{e['bound']}={e['value']} "
                f"consumed={e['consumed']}\n"
            )


def _tsv_row(res: dict, cols) -> str:
    row = _flatten(res)
    return "\t".join([str(v) if type(v) is int else _fmt(v) for v in map(row.get, cols)]) + "\n"


def _table_row(res: dict) -> str:
    return "  ".join([f"{k}={str(v) if type(v) is int else _fmt(v)}"
                      for k, v in _flatten(res).items() if v is not None]) + "\n"


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

    A dict row is rendered on its own.  Flat `dims` rows (int tuples, see
    `_dims_row`) share one `%` template, rendered once from a sample row,
    so each costs one `%` and one `write`; `%d` refuses an int too long to
    print with the same ValueError as `str`.
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
    template = _row_template(render, len(row))
    write((first + template) % row)
    template = sep + template
    for row in rows:
        write(template % row)
    return True


# Stand-ins for the ints of a sample row: all 41 digits long, so none is
# part of another, and no fixed text of a row holds a number that long.
_SLOT = 10**40


def _row_template(render, width: int) -> str:
    """The `%` template with `template % row == render(_dims_row(row))` for
    every flat `dims` row of `width` ints."""
    text = render(_dims_row(tuple(range(_SLOT, _SLOT + width))))
    fixed = []
    for slot in range(_SLOT, _SLOT + width):
        head, _, text = text.partition(str(slot))
        fixed.append(head)
    fixed.append(text)
    return "%d".join([part.replace("%", "%%") for part in fixed])


# -- argument helpers -----------------------------------------------------

def _parse_range(text: str):
    try:
        a, b = text.split(":")
        lo, hi = int(a), int(b)
    except ValueError:
        raise argparse.ArgumentTypeError(f"range must look like A:B, got {text!r}")
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return lo, hi


# Values like "-10:10" or "-1/2" look like options to argparse; glue them
# to their flag so they tokenize as a single argument.
_GLUED_FLAGS = {"--range", "--c1sq"}


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


def _resolve_knot(args) -> knots.KnotDescriptor:
    spec_str = args.knot
    if spec_str.startswith("torus:"):
        try:
            p, q = (int(x) for x in spec_str[len("torus:"):].split(","))
        except ValueError:
            raise UsageError(f"torus knot must look like torus:P,Q, got {spec_str!r}")
        try:
            return knots.torus_knot(p, q)
        except ValueError as e:
            raise UsageError(str(e))
    path = args.catalog or os.environ.get(CATALOG_ENV)
    if not path:
        raise UsageError(
            f"--knot {spec_str!r} needs a catalog (--catalog or ${CATALOG_ENV})"
        )
    try:
        with open(path) as fh:
            catalog = knots.load_catalog(fh.read())
    except (OSError, knots.CatalogError) as e:
        raise UsageError(f"catalog {path}: {e}")
    for k in catalog:
        if k.name == spec_str:
            return k
    raise UsageError(f"knot {spec_str!r} not found in catalog {path}")


def _slopes(args):
    if args.n is not None:
        return range(args.n, args.n + 1)
    return range(args.range[0], args.range[1] + 1)


# -- subcommands ----------------------------------------------------------

def cmd_dims(args) -> dict:
    if args.range:
        lo, hi = args.range
        if hi - lo + 1 > MAX_ITEMS:
            raise UsageError(
                f"slope range too wide: {lo}:{hi} holds {hi - lo + 1} slopes, "
                f"more than the limit of {MAX_ITEMS}"
            )
    warnings = []
    if args.knot:
        k = _resolve_knot(args)
        g = k.genus
        inputs = {"knot": k.name, "genus": g}
        lens_known = k.lens_surgery
    else:
        if args.genus < 1:
            raise UsageError("genus must be >= 1")
        g = args.genus
        inputs = {"genus": g}
        lens_known = False
    if args.z4 and not lens_known:
        warnings.append(
            "Z/4 gradings assume a positive lens-space surgery; this knot is "
            "not marked lens_surgery=true"
        )
    inputs.update(_slope_inputs(args))
    return _record("dims", inputs, surgery.dims_rows(g, _slopes(args), args.z4), warnings)


def _dims_row(row: tuple) -> dict:
    """The record form of a flat `dims` row (n, z2_d0, z2_d1[, z4_d0..z4_d3])."""
    if len(row) == 3:
        return {"n": row[0], "z2": list(row[1:]), "provenance": "eq1"}
    return {"n": row[0], "z2": list(row[1:3]), "provenance": "cor52", "z4": list(row[3:])}


def cmd_triangle(args) -> dict:
    n = args.n
    degs = triangle.triangle_degrees(n)
    res = {
        "n": n,
        "deg_surgery": degs.deg_surgery,
        "deg_to_s3": degs.deg_to_s3,
        "deg_from_s3": degs.deg_from_s3,
        "d_spin_surgery": triangle.d_degree(triangle.surgery_map_cobordism_data(n)),
        "d_spin_other": triangle.d_degree(triangle.spin_s3_cobordism_data(n)),
        "provenance": "cor51",
    }
    return _record("triangle", {"n": n}, [res], [])


def cmd_oracle(args) -> dict:
    g = args.genus
    m = args.lspace_slope
    if g < 1:
        raise UsageError("genus must be >= 1")
    if m < 2 * g - 1:
        raise UsageError(f"lspace-slope must be >= 2g-1 = {2 * g - 1}")
    drop = frozenset(args.drop_constraint or [])
    try:
        system = oracle.build_system(g, m, args.range, drop=drop, trace=args.trace)
    except ValueError as e:
        raise UsageError(str(e))
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
        for n in sorted(solved):
            closed = surgery.dims_z2(g, n)
            record["results"].append(
                {
                    "n": n,
                    "z2": list(solved[n].entries()),
                    "agrees": solved[n] == closed,
                    "provenance": "oracle",
                }
            )
    if args.trace:
        record["trace"] = [e.to_dict() for e in system.trace]
    if "error" in record:
        raise MathError(record)
    return record


def cmd_legendrian(args) -> dict:
    n_rots = args.tb - args.target_tb + 1
    if n_rots > MAX_ITEMS:
        raise UsageError(
            f"target tb too low: tb {args.tb} down to {args.target_tb} gives "
            f"{n_rots} rotation numbers, more than the limit of {MAX_ITEMS}"
        )
    try:
        rep = legendrian.LegendrianRep(args.tb, args.rot)
        rots = legendrian.rotation_numbers_after(rep, args.target_tb)
        count = legendrian.distinct_chern_count(rep, args.target_tb)
    except ValueError as e:
        raise UsageError(str(e))
    res = {
        "tb": args.tb,
        "rot": args.rot,
        "target_tb": args.target_tb,
        "rotations": rots,
        "chern_count": count,
        "provenance": "prop41",
    }
    return _record(
        "legendrian",
        {"tb": args.tb, "rot": args.rot, "target_tb": args.target_tb},
        [res],
        [],
    )


def cmd_planefield(args) -> dict:
    c1sq = None if args.c1sq is None else _rational(args.c1sq)
    try:
        f = planefield.FillingData(args.chi, args.sigma, args.b1, c1sq)
        d = planefield.delta(f)
        grading = planefield.contact_grading(f)
    except ValueError as e:
        raise UsageError(str(e))
    res = {
        "delta": d,
        "contact_grading": grading,
        "provenance": "delta",
    }
    if c1sq is not None:
        try:
            res["d3"] = str(planefield.d3(f))
            res["rho"] = str(planefield.rho(f))
        except ValueError as e:  # an int past sys.get_int_max_str_digits()
            raise UsageError(f"cannot write the result: {e}")
    inputs = {"chi": args.chi, "sigma": args.sigma, "b1": args.b1}
    if args.c1sq is not None:
        inputs["c1sq"] = args.c1sq
    return _record("planefield", inputs, [res], [])


def _rational(text: str) -> Fraction:
    """`Fraction(text)` for `--c1sq`.

    Refused before it is built when a decimal's numerator or denominator,
    before reduction, would have more digits than Python converts to text:
    an exponent alone can ask for 10**10**7, which takes seconds to build
    and cannot be printed.  Each part of an "a/b" is an int parse, which
    that limit already bounds; the error names the limit then too.  Errors
    echo at most the first 40 characters of the text.
    """
    shown = repr(text) if len(text) <= 40 else f"{text[:40]!r}... ({len(text)} characters)"
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
            raise UsageError(too_long)
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        if limit and any(len(run) > limit for run in re.findall(r"\d+", text.replace("_", ""))):
            raise UsageError(too_long)
        raise UsageError(f"--c1sq must be a rational, got {shown}")


def cmd_trefoil(args) -> dict:
    if args.n < 1:
        raise UsageError("n must be >= 1")
    v = surgery.trefoil_one_over_n(args.n)
    res = {"n": args.n, "z2": list(v.entries()), "provenance": "prop61"}
    return _record("trefoil", {"n": args.n}, [res], [])


def _slope_inputs(args):
    if args.n is not None:
        return {"n": args.n}
    return {"range": list(args.range)}


def _record(command, inputs, results, warnings) -> dict:
    return {
        "command": command,
        "inputs": inputs,
        "results": results,
        "warnings": warnings,
    }


class MathError(Exception):
    """A mathematical failure; carries the JSON report printed with exit 3."""

    def __init__(self, report):
        super().__init__(report["error"]["message"])
        self.report = report


# -- parser ---------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isurg",
        description="Graded instanton surgery dimensions, degree tables, and "
        "the constraint-propagation oracle.",
    )
    parser.add_argument("--format", choices=["table", "json", "tsv"], default="table")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dims", help="closed-form graded dimensions of surgeries")
    who = p.add_mutually_exclusive_group(required=True)
    who.add_argument("--genus", type=int)
    who.add_argument("--knot", help="catalog name or torus:P,Q")
    where = p.add_mutually_exclusive_group(required=True)
    where.add_argument("--n", type=int)
    where.add_argument("--range", type=_parse_range, metavar="A:B")
    p.add_argument("--z4", action="store_true", help="include Z/4 gradings")
    p.add_argument("--catalog", help=f"catalog file (or ${CATALOG_ENV})")
    p.set_defaults(func=cmd_dims)

    p = sub.add_parser("triangle", help="Z/4 degree table of the surgery triangle")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_triangle)

    p = sub.add_parser("oracle", help="re-derive dimensions by constraint propagation")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--lspace-slope", type=int, required=True)
    p.add_argument("--range", type=_parse_range, metavar="A:B", required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument(
        "--drop-constraint",
        action="append",
        choices=list(oracle.CONSTRAINT_IDS),
        metavar="Ck",
    )
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("legendrian", help="rotation numbers after stabilization")
    p.add_argument("--tb", type=int, required=True)
    p.add_argument("--rot", type=int, required=True)
    p.add_argument("--target-tb", type=int, required=True)
    p.set_defaults(func=cmd_legendrian)

    p = sub.add_parser("planefield", help="plane-field invariants from filling data")
    p.add_argument("--chi", type=int, required=True)
    p.add_argument("--sigma", type=int, required=True)
    p.add_argument("--b1", type=int, default=0)
    p.add_argument("--c1sq")
    p.set_defaults(func=cmd_planefield)

    p = sub.add_parser("trefoil", help="1/n-surgery on the right-handed trefoil")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_trefoil)

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


def _main(argv) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_preprocess(argv))
    try:
        record = args.func(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except MathError as e:
        _emit(e.report, "json")
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
