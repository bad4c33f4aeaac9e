"""Line-coverage gate: every executable line of src/isurg must run in tier-1.

Runs `pytest tests` in this process under `sys.settrace`, tracing only
frames whose code is in src/isurg, and takes the executable lines of each
module from its compiled code (`co_lines()`, recursively).  Prints each
executable line that no test reached as `file:line text` and exits 1; exits
0 when there is none.  A failing suite exits 1 as well.

Lines that tier-1 runs only in a child process cannot be traced from here.
They are listed in ALLOWED by file and source text, not line number, each
with its argument.

Run from the repository root:

    PYTHONPATH=src python tools/line_gate.py
"""

import sys
import time
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "isurg"

# (file, consecutive stripped source lines, why no in-process test reaches them)
ALLOWED = [
    ("cli.py",
     ("devnull = os.open(os.devnull, os.O_WRONLY)",
      "os.dup2(devnull, sys.stdout.fileno())",
      "return EXIT_OK"),
     "main's BrokenPipeError branch points the process's own stdout at devnull; "
     "test_closed_pipe_exits_cleanly reaches it in a child whose reader closed the pipe."),
    ("cli.py",
     ("sys.exit(main())",),
     "runs only when the module is `python -m isurg.cli`, which the subprocess tests start."),
]


def executable_lines(code) -> set:
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= executable_lines(const)
    return lines


def run_traced(args) -> tuple:
    """pytest's exit code for `args`, and the lines run in each src/isurg file."""
    reached = {}  # resolved path -> set of line numbers
    tracers = {}  # file name as the code has it -> its local tracer, or None
    prefix = str(SRC) + "/"

    def local_for(name):
        path = Path(name).resolve()
        if not str(path).startswith(prefix):
            return None
        add = reached.setdefault(path, set()).add

        def local(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return local
        return local

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        try:
            return tracers[name]
        except KeyError:
            tracer = tracers[name] = local_for(name)
            return tracer

    sys.settrace(on_call)
    try:
        code = pytest.main(args, plugins=[sys.modules[__name__]])
    finally:
        replaced = sys.gettrace() is not on_call
        sys.settrace(None)
    if replaced:
        sys.exit("line gate: the suite replaced the trace function, so coverage is incomplete")
    return code, reached


def pytest_configure(config):
    # Tracing slows each example about 4x; no test is about hypothesis deadlines.
    # Imported here, once pytest can rewrite the asserts of its plugin.
    from hypothesis import settings
    settings.register_profile("line_gate", deadline=None)
    settings.load_profile("line_gate")


def main() -> int:
    start = time.monotonic()
    code, reached = run_traced(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    if code != 0:
        print(f"line gate: the suite failed (pytest exit {code})")
        return 1
    isurg = sys.modules.get("isurg")
    if isurg is None or Path(isurg.__file__).resolve().parent != SRC:
        print(f"line gate: the suite did not import isurg from {SRC}; run with PYTHONPATH=src")
        return 1
    missed = []
    n_lines = n_allowed = 0
    for path in sorted(SRC.rglob("*.py")):
        source = path.read_text()
        stripped = [line.strip() for line in source.splitlines()]
        lines = executable_lines(compile(source, str(path), "exec"))
        hit = reached.get(path, set())
        allowed = set()
        for file, block, _ in ALLOWED:
            if file == path.name:
                found = {i + 1 + j for i in range(len(stripped) - len(block) + 1)
                         if tuple(stripped[i:i + len(block)]) == block for j in range(len(block))}
                if not found or found <= hit:
                    missed.append(f"{path.relative_to(ROOT)}: allowlist entry {block[0]!r} "
                                  "matches no unreached line; remove it")
                allowed |= found
        n_lines += len(lines)
        for line in sorted(lines - hit):
            if line in allowed:
                n_allowed += 1
            else:
                missed.append(f"{path.relative_to(ROOT)}:{line} {stripped[line - 1]}")
    for entry in missed:
        print(entry)
    print(f"line gate: {n_lines} executable lines in src/isurg, {len(missed)} failing, "
          f"{n_allowed} allowlisted, {time.monotonic() - start:.0f} s")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
