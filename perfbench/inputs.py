"""Seeded request generation.

A workload's input is a sequence of *rounds*.  Round k is a pure function of
(seed, k), and every round of a workload has the same composition (the same
ladder rungs, subcommands, formats and row counts); only the drawn
parameters differ.  Runs repeat whole rounds, so each run's latency
distribution has the same shape whatever the machine's speed.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

# oracle_scaling draws R, the slope half-width, from bands (low, high,
# requests per round), spread evenly in log R with a random offset in each
# stratum.  The host's speed moves in phases, and a run's median or tail
# taken from a tight group of like requests snaps to whichever phase held
# the run; a continuous spread of costs makes them move smoothly instead.
# Two thirds of each round lie in the first band, so the median does too.
# Every band stays below the seed oracle's application cap (R = 300 needs at
# most 772k of its 10**6 applications).
ORACLE_BANDS = ((30, 120, 12), (120, 300, 5))
# Each round adds one request above the cap point (the seed answers "not
# determined" from about R = 350), cycling through these by round.  One
# takes the seed about 1.6 s, so more per round would leave a run too few
# rounds.  They expose the defect; do not trim them.
CAP_RUNGS = (500, 1000, 2000)

FORMATS = ("table", "json", "tsv")

# Typical rows of the bulk `dims --range ... --z4` request per format, sized
# so that the three take about the same time on the seed commit (JSON
# emission is the slowest per row).  Each round scales them by factors spread
# evenly over [0.6, 1.4], one stratum per format in random order, so the
# heaviest requests form one continuous group whose tail neither jumps
# between formats nor snaps to the host's speed phases.
BULK_ROWS = {"table": 20001, "json": 16001, "tsv": 20001}
SMALL_ROWS = 41

TORUS = ((2, 3), (2, 5), (2, 7), (2, 9), (3, 4), (3, 5), (4, 5))

# Written to the benchmark's scratch directory; lens_surgery is false on the
# last two, so --z4 lookups on them also exercise the warning path.
CATALOG = {
    "knots": [
        {"name": "T(2,3)", "genus": 1, "max_self_linking": 1, "lspace_slope": 5, "lens_surgery": True},
        {"name": "T(3,4)", "genus": 3, "max_self_linking": 5, "lspace_slope": 11, "lens_surgery": True},
        {"name": "P(-2,3,7)", "genus": 5, "max_self_linking": 9, "lspace_slope": 18},
        {"name": "K2", "genus": 2, "max_self_linking": 3},
    ]
}

# README worked examples, with their expected rows written out by hand.
GOLDENS = (
    ({"cmd": "dims", "knot": "torus:2,3", "n": -1, "z4": True},
     [{"n": "-1", "z4_d0": "1", "z4_d1": "0", "z4_d2": "1", "z4_d3": "1"}]),
    ({"cmd": "dims", "genus": 2, "range": [0, 3]},
     [{"n": str(n), "z2_d0": "3", "z2_d1": str(3 - n)} for n in range(4)]),
    ({"cmd": "trefoil", "n": 10}, [{"n": "10", "z2_d0": "10", "z2_d1": "9"}]),
    ({"cmd": "oracle", "genus": 1, "m": 5, "range": [-10, 10], "drop": "C6"}, []),
)


def rng_for(seed: int, k: int) -> random.Random:
    return random.Random(f"isurg-perfbench:{seed}:{k}")


def _genus_and_slope(rng, strict=False):
    g = rng.randint(1, 3)
    # Dropping C5 leaves slopes open only when m > 2g-1; at m = 2g-1 the
    # base fact alone pins the adjunction chain.
    return g, rng.randint(2 * g - 1 + strict, 2 * g + 9)


def oracle_round(seed: int, k: int) -> list:
    rng = rng_for(seed, k)
    reqs = []
    slopes = [CAP_RUNGS[k % len(CAP_RUNGS)]]
    for low, high, count in ORACLE_BANDS:
        slopes += [round(low * (high / low) ** ((j + rng.random()) / count)) for j in range(count)]
    for R in slopes:
        g, m = _genus_and_slope(rng)
        reqs.append({"g": g, "m": m, "R": R})
    rng.shuffle(reqs)
    return reqs


def cli_round(seed: int, k: int, catalog_path: str, bulk: bool) -> list:
    """One request per (kind, format), plus the README goldens.

    bulk=True sizes the range queries for in-process timing (about BULK_ROWS);
    bulk=False keeps every request small, for one process per request.
    """
    rng = rng_for(seed, k)
    reqs = []
    strata = rng.sample(range(len(FORMATS)), len(FORMATS))
    for i, fmt in enumerate(FORMATS):
        scale = 0.6 + 0.8 * (strata[i] + rng.random()) / len(FORMATS)
        width = round(BULK_ROWS[fmt] * scale) if bulk else SMALL_ROWS
        # Centred near 0: rows for n < 0 and n > 2g-1 take different branches
        # of dims_z4, so a fixed mix keeps the cost of a row constant.
        a = -(width // 2) + rng.randint(-1000, 1000) if bulk else rng.randint(-60, 20)
        p, q = rng.choice(TORUS)
        knot = rng.choice(CATALOG["knots"])["name"]
        c = rng.randint(-40, 40)
        g, m = _genus_and_slope(rng)
        R = rng.randint(10, 40) if bulk else rng.randint(5, 20)
        dg, dm = _genus_and_slope(rng, strict=True)
        tb = rng.randint(-5, 5)
        rot = rng.choice([r for r in range(-6, 7) if (tb + r) % 2])
        chi, sigma = rng.randint(1, 10), rng.randint(-6, 6)
        b1 = rng.choice([b for b in range(4) if (chi + sigma + b - 1) % 2 == 0])
        reqs += [
            {"cmd": "dims", "fmt": fmt, "genus": rng.randint(1, 3), "range": [a, a + width - 1], "z4": True},
            {"cmd": "dims", "fmt": fmt, "knot": f"torus:{p},{q}", "n": rng.randint(-50, 50), "z4": rng.random() < 0.5},
            {"cmd": "dims", "fmt": fmt, "knot": knot, "catalog": catalog_path, "range": [c, c + 20], "z4": rng.random() < 0.5},
            {"cmd": "oracle", "fmt": fmt, "genus": g, "m": m, "range": [-R, R], "trace": fmt == "json"},
            {"cmd": "oracle", "fmt": fmt, "genus": dg, "m": dm, "range": [-rng.randint(5, 20), rng.randint(5, 20)],
             "drop": ("C5", "C6")[i % 2]},
            {"cmd": "triangle", "fmt": fmt, "n": rng.randint(-50, 50)},
            {"cmd": "legendrian", "fmt": fmt, "tb": tb, "rot": rot, "target_tb": tb - rng.randint(0, 30)},
            {"cmd": "planefield", "fmt": fmt, "chi": chi, "sigma": sigma, "b1": b1,
             "c1sq": str(Fraction(rng.randint(-40, 40), rng.randint(1, 9)))},
            {"cmd": "trefoil", "fmt": fmt, "n": rng.randint(1, 10**6)},
        ]
    for j, (golden, _) in enumerate(GOLDENS):
        reqs.append(dict(golden, fmt=FORMATS[(k + j) % 3], golden=j))
    rng.shuffle(reqs)
    return reqs


def argv(req: dict) -> list:
    """Command line for a cli request (without the program name)."""
    out = ["--format", req["fmt"], req["cmd"]]
    cmd = req["cmd"]
    if cmd == "dims":
        if "knot" in req:
            out += ["--knot", req["knot"]]
            if "catalog" in req:
                out += ["--catalog", req["catalog"]]
        else:
            out += ["--genus", str(req["genus"])]
    elif cmd == "oracle":
        out += ["--genus", str(req["genus"]), "--lspace-slope", str(req["m"])]
    if "range" in req:
        out += ["--range", f"{req['range'][0]}:{req['range'][1]}"]
    if cmd == "oracle":
        if req.get("trace"):
            out.append("--trace")
        if req.get("drop"):
            out += ["--drop-constraint", req["drop"]]
    elif cmd == "legendrian":
        out += ["--tb", str(req["tb"]), "--rot", str(req["rot"]), "--target-tb", str(req["target_tb"])]
    elif cmd == "planefield":
        out += ["--chi", str(req["chi"]), "--sigma", str(req["sigma"]), "--b1", str(req["b1"]),
                "--c1sq", req["c1sq"]]
    elif "n" in req:
        out += ["--n", str(req["n"])]
    if req.get("z4"):
        out.append("--z4")
    return out


def digest(requests: list) -> str:
    return hashlib.sha256(json.dumps(requests, sort_keys=True).encode()).hexdigest()
