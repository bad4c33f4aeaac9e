"""Correctness checks, run outside the timed region.

A check returns a failure kind (or None) and the request's machine-independent
counters.  Failure kinds:

  exit          unexpected exit code
  traceback     the call raised, or a child printed a traceback
  wrong         an answer disagrees with the closed forms or a golden
  schema        JSON output does not validate against schema.json
  undetermined  NotDeterminedError on an instance the closed form determines

Only "undetermined" is the program declining to answer; every other kind is
a wrong output and makes the run incorrect.
"""

from __future__ import annotations

import json
from pathlib import Path

from inputs import CATALOG, GOLDENS

EXIT_OK, EXIT_MATH = 0, 3


class Wrong(Exception):
    """The library's own closed forms break an identity they must satisfy."""


class Checker:
    def __init__(self, src: Path):
        import jsonschema

        from isurg import graded, legendrian, planefield, surgery, triangle

        schema = json.loads((src / "isurg" / "schema.json").read_text())
        self.validator = jsonschema.Draft202012Validator(schema)
        self.graded, self.surgery = graded, surgery
        self.triangle, self.legendrian, self.planefield = triangle, legendrian, planefield

    # -- oracle_scaling ---------------------------------------------------

    def oracle(self, req, system, result, error):
        """result: {slope: GradedDimZ2} or None; error: the exception raised."""
        from isurg import oracle

        counters = oracle_counters(system)
        if isinstance(error, oracle.NotDeterminedError):
            return "undetermined", counters, 0
        if error is not None:  # a contradiction on a consistent instance
            return "wrong", counters, 0
        R = req["R"]
        if sorted(result) != list(range(-R, R + 1)):
            return "wrong", counters, 0
        for n, v in result.items():
            if v != self.surgery.dims_z2(req["g"], n):
                return "wrong", counters, 0
        return None, counters, len(result)

    # -- cli_inproc / cli_spawn -------------------------------------------

    def cli(self, req, code, out, err):
        counters = {"cli.rows": 0, "cli.out_bytes": len(out.encode()) + len(err.encode())}
        if "Traceback (most recent call last)" in err:
            return "traceback", counters
        expect_exit = EXIT_MATH if req.get("drop") else EXIT_OK
        if code != expect_exit:
            return "exit", counters
        if code == EXIT_MATH:
            # The error report is JSON whatever --format says.
            try:
                record = json.loads(out)
            except ValueError:
                return "schema", counters
            if not self.validator.is_valid(record):
                return "schema", counters
            error = record.get("error", {})
            if error.get("kind") != "not-determined" or not error.get("undetermined_slopes"):
                return "wrong", counters
            return None, counters
        if req["fmt"] == "json":
            try:
                record = json.loads(out)
            except ValueError:
                return "schema", counters
            if not self.validator.is_valid(record):
                return "schema", counters
            if record["command"] != req["cmd"]:
                return "wrong", counters
            rows = [_flatten(r) for r in record["results"]]
            if req.get("trace"):
                if not record.get("trace"):
                    return "wrong", counters
                counters["oracle.trace_len"] = len(record["trace"])
        else:
            try:
                rows = _parse_text(req["fmt"], out)
            except (ValueError, IndexError):
                return "wrong", counters
        counters["cli.rows"] = len(rows)
        try:
            expected = self.expected_rows(req)
        except Wrong:
            return "wrong", counters
        if len(rows) != len(expected):
            return "wrong", counters
        for row, want in zip(rows, expected):
            if any(row.get(k) != v for k, v in want.items()):
                return "wrong", counters
        return None, counters

    def expected_rows(self, req) -> list:
        """Rows as strings, from the library's closed forms (or a golden)."""
        if "golden" in req:
            return GOLDENS[req["golden"]][1]
        cmd = req["cmd"]
        s, t = self.surgery, self.triangle
        if cmd in ("dims", "oracle"):
            g = req.get("genus") or _knot_genus(req)
            slopes = range(req["range"][0], req["range"][1] + 1) if "range" in req else [req["n"]]
            rows = []
            for n in slopes:
                z2 = s.dims_z2(g, n)
                row = {"n": str(n), "z2_d0": str(z2.d0), "z2_d1": str(z2.d1)}
                if req.get("z4"):
                    z4 = s.dims_z4(g, n)
                    if self.graded.collapse_z4_to_z2(z4) != z2:
                        raise Wrong(f"Z/4 collapse disagrees with Z/2 at g={g}, n={n}")
                    row.update(zip(("z4_d0", "z4_d1", "z4_d2", "z4_d3"), map(str, z4.entries())))
                if cmd == "oracle":
                    row["agrees"] = "true"
                rows.append(row)
            return rows
        if cmd == "triangle":
            n = req["n"]
            degs = t.triangle_degrees(n)
            if sum(degs.entries()) % 4 != 3:
                raise Wrong(f"triangle degrees at n={n} do not sum to 3 mod 4")
            other = t.surgery_cobordism_data(n) if n % 2 == 0 else t.to_s3_cobordism_data(n)
            return [{
                "n": str(n),
                "deg_surgery": str(degs.deg_surgery),
                "deg_to_s3": str(degs.deg_to_s3),
                "deg_from_s3": str(degs.deg_from_s3),
                "d_spin_surgery": str(t.d_degree(t.surgery_map_cobordism_data(n))),
                "d_spin_other": str(t.d_degree(other)),
            }]
        if cmd == "legendrian":
            rep = self.legendrian.LegendrianRep(req["tb"], req["rot"])
            rots = self.legendrian.rotation_numbers_after(rep, req["target_tb"])
            if len(rots) != req["tb"] - req["target_tb"] + 1:
                raise Wrong("rotation count is not tb - target_tb + 1")
            return [{
                "rotations": ",".join(map(str, rots)),
                "chern_count": str(self.legendrian.distinct_chern_count(rep, req["target_tb"])),
            }]
        if cmd == "planefield":
            p = self.planefield
            f = p.FillingData(req["chi"], req["sigma"], req["b1"], req["c1sq"])
            return [{
                "delta": str(p.delta(f)),
                "contact_grading": str(p.contact_grading(f)),
                "d3": str(p.d3(f)),
                "rho": str(p.rho(f)),
            }]
        if cmd == "trefoil":
            n = req["n"]
            return [{"n": str(n), "z2_d0": str(n), "z2_d1": str(n - 1)}]
        raise ValueError(f"unknown command {cmd!r}")


def oracle_counters(system) -> dict:
    active = sum(1 for c in ("C3", "C4", "C5", "C6") if c not in system.dropped)
    per_sweep = len(system.bounds) * active
    return {
        "oracle.applications": system.applications,
        "oracle.sweeps": -(-system.applications // per_sweep),
        "oracle.trace_len": len(system.trace),
    }


def _knot_genus(req) -> int:
    name = req["knot"]
    if name.startswith("torus:"):
        p, q = map(int, name[len("torus:"):].split(","))
        return (p - 1) * (q - 1) // 2
    return next(k["genus"] for k in CATALOG["knots"] if k["name"] == name)


def _flatten(res: dict) -> dict:
    row = {}
    for k, v in res.items():
        if k == "z2":
            row["z2_d0"], row["z2_d1"] = map(str, v)
        elif k == "z4":
            row["z4_d0"], row["z4_d1"], row["z4_d2"], row["z4_d3"] = map(str, v)
        elif isinstance(v, bool):
            row[k] = "true" if v else "false"
        elif isinstance(v, list):
            row[k] = ",".join(map(str, v))
        else:
            row[k] = str(v)
    return row


def _parse_text(fmt: str, out: str) -> list:
    lines = out.splitlines()
    if fmt == "tsv":
        header = lines[0].split("\t")
        return [dict(zip(header, line.split("\t"))) for line in lines[1:]]
    return [
        dict(tok.split("=", 1) for tok in line.split("  "))
        for line in lines
        if not line.startswith("trace: ")
    ]
