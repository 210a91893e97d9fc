"""The lines of ``src/eqrate`` that a pytest run never executes.

An opt-in pytest plugin that needs only the standard library, run from the
root of a checkout:

    PYTHONPATH=src:tests python -m pytest -q -p linetrace

``sys.settrace`` (and ``threading.settrace``, for threads started later)
records each line run in a file under ``src/eqrate``, from before the
conftests import the package to the end of the session.  The terminal
summary then lists, per file, the executable lines that never ran, as
ranges.  A line is executable if the compiled module's code objects map an
instruction to it, less each function's first line, where only the call
event lands.  Lines run only in a subprocess are not seen, and tracing
makes the run a few times slower.
"""

import os
import sys
import threading
import types
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "eqrate"
_PREFIX = str(PACKAGE) + os.sep
_seen: dict[str, set[int]] = {}


def _line(frame, event, arg):
    if event == "line":
        _seen[frame.f_code.co_filename].add(frame.f_lineno)
    return _line


def _call(frame, event, arg):
    name = frame.f_code.co_filename
    if not name.startswith(_PREFIX):
        return None
    _seen.setdefault(name, set())
    return _line


def _executable(path: Path) -> set[int]:
    lines, stack = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        body = {line for _, _, line in code.co_lines() if line}
        if code.co_name != "<module>":
            body.discard(code.co_firstlineno)
        lines |= body
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def _ranges(lines: list[int]) -> str:
    out, start = [], None
    for i, line in enumerate(lines):
        start = line if start is None else start
        if i + 1 == len(lines) or lines[i + 1] != line + 1:
            out.append(str(line) if start == line else f"{start}-{line}")
            start = None
    return ", ".join(out)


@pytest.hookimpl(tryfirst=True)
def pytest_load_initial_conftests(early_config, parser, args):
    sys.settrace(_call)
    threading.settrace(_call)


def pytest_sessionfinish(session, exitstatus):
    sys.settrace(None)
    threading.settrace(None)


def pytest_terminal_summary(terminalreporter):
    terminalreporter.write_sep("-", f"lines of {PACKAGE.parent.name}/{PACKAGE.name} never run")
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        missed = sorted(_executable(path) - _seen.get(str(path), set()))
        total += len(missed)
        if missed:
            terminalreporter.write_line(f"{path.relative_to(PACKAGE.parents[1])} ({len(missed)}): {_ranges(missed)}")
    terminalreporter.write_line(f"{total} lines never run")
