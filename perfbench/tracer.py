"""Spans around calls into isurg's modules, recorded from outside ``src/``.

The benchmark patches module attributes and class methods for the length of
a traced run and restores them afterwards; the program's own code is never
edited.  Every wrapped call pushes a frame, so each layer's *self* time
(its duration minus the time of wrapped calls made inside it) is exact.
Only coarse spans (requests, parsing, commands, emission, oracle build and
solve) are kept as records; leaf calls into the closed forms can number in
the hundreds of thousands per round, so for them only counts and self time
are accumulated.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import Counter, defaultdict

from checks import oracle_counters

# Modules whose public functions and classes count as closed-form layers.
CLOSED_FORM_LAYERS = ("surgery", "graded", "triangle", "legendrian", "planefield", "knots")


class Tracer:
    def __init__(self):
        self.active = False
        self.request = None
        self.spans = []                  # (name, start, end, parent index, request id)
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.oracle = Counter()          # oracle.applications, .sweeps, .trace_len, .capped, .undetermined
        self.calls0 = Counter()          # snapshots of calls and oracle after round 0
        self.oracle0 = Counter()
        # Frames: [layer, start, child time, own or nearest recorded span index,
        # recorded?, parent span index]
        self._stack = []

    def wrap(self, layer, fn, record=False, count_key=None):
        key = count_key or f"{layer}.calls"
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer._enter(layer, record)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(key)

        return wrapper

    def span(self, layer, fn, *args):
        """Call fn(*args) inside a recorded span of the given layer."""
        self._enter(layer, True)
        try:
            return fn(*args)
        finally:
            self._exit(f"{layer}.calls")

    def _enter(self, layer, record):
        parent = self._stack[-1][3] if self._stack else None
        index = parent
        if record:
            index = len(self.spans)
            self.spans.append(None)  # filled in on exit; keeps parents before children
        self._stack.append([layer, time.perf_counter(), 0.0, index, record, parent])

    def _exit(self, key):
        end = time.perf_counter()
        layer, start, child, index, record, parent = self._stack.pop()
        duration = end - start
        self.self_time[layer] += duration - child
        self.calls[key] += 1
        if self._stack:
            self._stack[-1][2] += duration
        if record:
            self.spans[index] = (layer, start, end, parent, self.request)

    def observe_system(self, system, undetermined):
        from isurg import oracle

        self.oracle.update(oracle_counters(system))
        self.oracle["oracle.capped"] += system.applications > oracle.MAX_APPLICATIONS
        self.oracle["oracle.undetermined"] += undetermined

    def dump(self, path, summary):
        with open(path, "w") as fh:
            json.dump(
                {
                    "summary": summary,
                    "fields": ["name", "start", "end", "parent", "request"],
                    "spans": self.spans,
                },
                fh,
            )


class Patcher:
    """Sets attributes and puts the originals back on exit."""

    def __init__(self):
        self._saved = []

    def set(self, owner, name, value):
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def restore(self):
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)


def _defined_here(module):
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj) or (
            inspect.isclass(obj) and not issubclass(obj, BaseException)
        ):
            yield name, obj


def instrument(tracer: Tracer) -> Patcher:
    """Wrap the public entry points of every isurg layer; returns the patcher
    whose restore() undoes it."""
    import isurg.cli as cli
    from isurg import oracle

    patch = Patcher()
    for layer in CLOSED_FORM_LAYERS:
        module = __import__(f"isurg.{layer}", fromlist=[layer])
        for name, obj in list(_defined_here(module)):
            if inspect.isfunction(obj):
                patch.set(module, name, tracer.wrap(layer, obj))
                continue
            for attr, member in list(vars(obj).items()):
                if attr == "__init__" or (not attr.startswith("_") and inspect.isfunction(member)):
                    key = "graded.objects" if layer == "graded" and attr == "__init__" else None
                    patch.set(obj, attr, tracer.wrap(layer, member, count_key=key))

    patch.set(oracle, "build_system", tracer.wrap("oracle.build", oracle.build_system, record=True))
    patch.set(oracle.TraceEntry, "to_dict", tracer.wrap("oracle.trace_dict", oracle.TraceEntry.to_dict))
    solve = oracle.ConstraintSystem.solve

    def observed_solve(system):
        try:
            result = solve(system)
        except oracle.NotDeterminedError:
            tracer.observe_system(system, 1)
            raise
        except oracle.ContradictionError:
            tracer.observe_system(system, 0)
            raise
        tracer.observe_system(system, 0)
        return result

    patch.set(oracle.ConstraintSystem, "solve", tracer.wrap("oracle.solve", observed_solve, record=True))

    build_parser = cli.build_parser

    def traced_build_parser():
        parser = build_parser()
        parser.parse_args = tracer.wrap("cli.parse", parser.parse_args, record=True)
        return parser

    patch.set(cli, "build_parser", tracer.wrap("cli.parse", traced_build_parser, record=True))
    patch.set(cli, "_preprocess", tracer.wrap("cli.parse", cli._preprocess))
    patch.set(cli, "_emit", tracer.wrap("cli.emit", cli._emit, record=True))
    for name in [n for n in vars(cli) if n.startswith("cmd_")]:
        patch.set(cli, name, tracer.wrap("cli.cmd", getattr(cli, name), record=True))
    return patch
