"""The isurg benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
Workloads (BENCHMARK.json says why each exists):

  oracle_scaling  oracle.build_system(g, m, (-R, R)).solve() in-process, R on
                  a ladder from 30 to 2000; work = determined slopes
  cli_inproc      cli.main(argv) in-process with stdout/stderr captured: all
                  six subcommands in all three formats, bulk dims ranges of
                  20001 rows; work = emitted result rows
  cli_spawn       one ``python -m isurg.cli ...`` child per request with
                  PYTHONPATH=src, small requests; work = invocations (not
                  in BENCHMARK.json, see NOTES.md)

Every workload is a closed loop: one caller, one request (and at most one
child process) at a time.  Requests come in rounds generated from the seed
(see inputs.py); a run repeats whole rounds until --seconds of wall time have
passed, so it measures at least one round.  Each answer is checked after its
timed call returns (checks.py).

--trace 0 prints the end-to-end metrics.  --trace 1 spends half the time on
rounds with spans around every layer (tracer.py), replays the same rounds
untraced to measure the tracing overhead, and prints the per-layer metrics:
times per round, counts for round 0.  Spans go to
.bench_build/perfbench/spans-<workload>-<seed>.json.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  Exit status 2 means the benchmark could not run.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import checks
import inputs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"
CATALOG_PATH = ".bench_build/perfbench/catalog.json"  # relative to ROOT
SETUP_REPEATS = 9
STARTUP_PROBES = 7
CHILD_TIMEOUT_S = 60

# Counters that do not depend on the machine (round 0 of the seed's inputs).
EXACT_COUNTERS = ("oracle.applications", "oracle.sweeps", "oracle.trace_len", "cli.rows", "cli.out_bytes")

E2E = (
    ("setup_s", "s"),
    ("latency_p50_s", "s"),
    ("latency_tail_s", "s"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
)

LAYER_TIMES = (
    ("cli.parse_s", "cli.parse"),
    ("cli.cmd_s", "cli.cmd"),
    ("cli.emit_s", "cli.emit"),
    ("surgery.busy_s", "surgery"),
    ("graded.busy_s", "graded"),
    ("triangle.busy_s", "triangle"),
    ("legendrian.busy_s", "legendrian"),
    ("planefield.busy_s", "planefield"),
    ("knots.busy_s", "knots"),
    ("oracle.build_s", "oracle.build"),
    ("oracle.solve_s", "oracle.solve"),
    ("oracle.trace_dict_s", "oracle.trace_dict"),
)
LAYER_CALLS = ("surgery.calls", "graded.objects", "triangle.calls", "legendrian.calls",
               "planefield.calls", "knots.calls")
ORACLE_COUNTS = ("oracle.applications", "oracle.sweeps", "oracle.trace_len", "oracle.capped",
                 "oracle.undetermined")


def purge_isurg():
    for name in [n for n in sys.modules if n == "isurg" or n.startswith("isurg.")]:
        del sys.modules[name]


def write_catalog():
    OUT.mkdir(parents=True, exist_ok=True)
    (ROOT / CATALOG_PATH).write_text(json.dumps(inputs.CATALOG))


class OracleScaling:
    work_unit = "determined slopes/s"

    def __init__(self, seed):
        self.seed = seed

    def setup(self):
        purge_isurg()
        self.oracle = importlib.import_module("isurg.oracle")
        self.round(0)
        self.call({"g": 1, "m": 5, "R": 30})

    def round(self, k):
        return inputs.oracle_round(self.seed, k)

    def call(self, req):
        system = self.oracle.build_system(req["g"], req["m"], (-req["R"], req["R"]))
        try:
            return system, system.solve(), None
        except (self.oracle.NotDeterminedError, self.oracle.ContradictionError) as e:
            return system, None, e

    def check(self, checker, req, outcome):
        return checker.oracle(req, *outcome)


class CliInproc:
    work_unit = "emitted result rows/s"
    bulk = True

    def __init__(self, seed):
        self.seed = seed

    def setup(self):
        purge_isurg()
        self.cli = importlib.import_module("isurg.cli")
        write_catalog()
        for req in self.round(0):
            if "golden" in req:
                self.call(req)

    def round(self, k):
        return inputs.cli_round(self.seed, k, CATALOG_PATH, bulk=self.bulk)

    def call(self, req):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = self.cli.main(inputs.argv(req))
            except SystemExit as e:
                code = e.code
        return code, out.getvalue(), err.getvalue()

    def check(self, checker, req, outcome):
        kind, counters = checker.cli(req, *outcome)
        return kind, counters, counters["cli.rows"] if kind is None else 0


class CliSpawn(CliInproc):
    work_unit = "invocations/s"
    bulk = False

    def setup(self):
        self.env = dict(os.environ, PYTHONPATH="src")
        write_catalog()
        self.round(0)
        self.call({"cmd": "trefoil", "fmt": "table", "n": 1})

    def call(self, req):
        p = subprocess.run(
            [sys.executable, "-m", "isurg.cli", *inputs.argv(req)],
            cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        return p.returncode, p.stdout, p.stderr

    def check(self, checker, req, outcome):
        kind, counters = checker.cli(req, *outcome)
        return kind, counters, 1 if kind is None else 0


WORKLOADS = {"oracle_scaling": OracleScaling, "cli_inproc": CliInproc, "cli_spawn": CliSpawn}


class Tally:
    def __init__(self):
        self.latencies = []
        self.work = 0
        self.failures = Counter()
        self.round0 = Counter()


def run_rounds(wl, checker, tally, seconds=None, rounds=None, tracer=None):
    """Run the listed rounds, or rounds 0, 1, ... until `seconds` of wall
    time have passed.  Returns the indices of the rounds run."""
    start = time.perf_counter()
    done = []
    for index in itertools.count() if rounds is None else rounds:
        for i, req in enumerate(wl.round(index)):
            # The checker's garbage is not the program's: start every request
            # from a collected heap so its GC pauses are its own.
            gc.collect()
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    outcome = wl.call(req)
                else:
                    tracer.request, tracer.active = f"{index}.{i}", True
                    try:
                        outcome = tracer.span("request", wl.call, req)
                    finally:
                        tracer.active = False
                error = None
            except Exception as e:  # a traceback in the program is a failed request
                error = e
            tally.latencies.append(time.perf_counter() - t0)
            if error is not None:
                tally.failures["traceback"] += 1
                continue
            kind, counters, work = wl.check(checker, req, outcome)
            tally.work += work
            if kind is not None:
                tally.failures[kind] += 1
            if index == 0:
                tally.round0.update(counters)
        done.append(index)
        if tracer is not None and index == 0:
            tracer.calls0 = Counter(tracer.calls)
            tracer.oracle0 = Counter(tracer.oracle)
        if rounds is None and time.perf_counter() - start >= seconds:
            break
    return done


def tail(latencies):
    """Highest percentile with at least ten samples beyond it."""
    s = sorted(latencies)
    i = max(len(s) - 11, 0)
    return s[i], 100.0 * (i + 1) / len(s), len(s) - 1 - i


def startup_probes(env):
    interp, imported = [], []
    for _ in range(STARTUP_PROBES):
        for code, sink in (("pass", interp), ("import isurg.cli", imported)):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
                           timeout=CHILD_TIMEOUT_S)
            sink.append(time.perf_counter() - t0)
    i = statistics.median(interp)
    return i, statistics.median(imported) - i


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    os.chdir(ROOT)
    wl = WORKLOADS[args.workload](args.seed)
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl.setup()
        setups.append(time.perf_counter() - t0)
    checker = checks.Checker(SRC)
    digest = inputs.digest(wl.round(0))

    tally = Tally()
    if args.trace:
        from tracer import Tracer, instrument

        tracer = Tracer()
        patch = instrument(tracer)
        try:
            done = run_rounds(wl, checker, tally, seconds=args.seconds / 2, tracer=tracer)
        finally:
            patch.restore()
        traced_s = sum(tally.latencies)
        replay = Tally()
        run_rounds(wl, checker, replay, rounds=done)
        overhead = traced_s / sum(replay.latencies) - 1
        tally.failures.update(replay.failures)
        attempted = len(tally.latencies) + len(replay.latencies)
        interp_s, import_s = startup_probes(dict(os.environ, PYTHONPATH="src"))
        metrics = layer_metrics(tracer, tally, len(done), interp_s, import_s, overhead)
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.dump(OUT / f"spans-{args.workload}-{args.seed}.json",
                    {"rounds": done, "metrics": metrics, "inputs_sha256": digest})
    else:
        done = run_rounds(wl, checker, tally, seconds=args.seconds)
        attempted = len(tally.latencies)
        metrics = e2e_metrics(wl, tally, setups)

    failed = sum(tally.failures.values())
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"rounds={len(done)} inputs_sha256={digest}")
    if not args.trace:
        value, pct, beyond = tail(tally.latencies)
        print(f"latency_tail_s is p{pct:.1f}: {beyond} of {len(tally.latencies)} samples beyond it")
        print(f"throughput_per_s counts {wl.work_unit}")
    detail = ", ".join(f"{k}={v}" for k, v in sorted(tally.failures.items())) or "none"
    print(f"failed_ratio={failed / attempted:.6g} ({failed} failed / {attempted} attempted; {detail})")
    print("counters (round 0): " + " ".join(f"{k}={tally.round0[k]}" for k in EXACT_COUNTERS))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value if isinstance(value, int) else f'{value:.6g}'} {unit}")
    correct = all(kind == "undetermined" for kind in tally.failures)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def e2e_metrics(wl, tally, setups):
    if isinstance(wl, CliSpawn):
        peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "setup_s": statistics.median(setups),
        "latency_p50_s": statistics.median(tally.latencies),
        "latency_tail_s": tail(tally.latencies)[0],
        # A ratio of totals, not a median of per-round rates: under the host's
        # speed phases a mean moves smoothly where a median snaps to one phase.
        "throughput_per_s": tally.work / sum(tally.latencies),
        "peak_rss_mib": peak_kib / 1024,
    }
    return {name: (values[name], unit) for name, unit in E2E}


def layer_metrics(tracer, tally, rounds, interp_s, import_s, overhead):
    calls0 = tracer.calls0
    # A child process's solves are invisible to the tracer; its JSON traces
    # still give oracle.trace_len.
    oracle0 = tracer.oracle0 or tally.round0
    m = {
        "startup.interp_s": (interp_s, "s"),
        "startup.import_s": (import_s, "s"),
        "trace.overhead_ratio": (overhead, "ratio"),
        "cli.rows": (tally.round0["cli.rows"], "count"),
        "cli.out_bytes": (tally.round0["cli.out_bytes"], "count"),
    }
    for name, layer in LAYER_TIMES:
        m[name] = (tracer.self_time[layer] / rounds, "s")
    for name in LAYER_CALLS:
        m[name] = (calls0[name], "count")
    for name in ORACLE_COUNTS:
        m[name] = (oracle0[name], "count")
    apps = oracle0["oracle.applications"]
    m["oracle.tighten_ratio"] = (oracle0["oracle.trace_len"] / apps if apps else 0.0, "ratio")
    return m


def _load_program():
    """Put src/ on the path; exit 2 when the checkout lacks the program or
    the checker's dependency."""
    if not (SRC / "isurg" / "cli.py").is_file():
        print(f"perfbench: no isurg sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    try:
        import jsonschema  # noqa: F401  (schema checks need it)
    except ImportError:
        print("perfbench: jsonschema is required for the output checks", file=sys.stderr)
        sys.exit(2)


if __name__ == "__main__":
    _load_program()
    sys.exit(main())
