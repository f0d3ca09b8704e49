"""List the statements of ``src/ssethom`` that the test suite never runs.

Run from the repository root:

    python3 scripts/uncovered.py [pytest arguments]

The pytest arguments default to ``-q -p no:cacheprovider tests``, the whole
suite.  pytest runs in this process under a ``sys.settrace`` line tracer
that records the lines each frame of ``src/ssethom/*.py`` executes, imports
included.  Then one line ``path:line: source`` goes to stdout for every
statement that no test reached, and a count after them.  Docstrings,
``def`` and ``class`` lines and imports are left out; a statement counts as
run when any line of it (of its header, for a compound statement) ran.

A ``RecursionError`` raised inside a trace function switches tracing off
for the rest of the process, and the tests of the loader's nesting limit
raise one deep in the stack.  So a pytest hook installs the tracer again
before each test, and the tests that switched it off are named after the
count: a statement that one of them ran after that is listed.  The worker
processes of ``check --batch --jobs`` are not traced: a statement that only
they run is listed.  Tracing makes the suite about four times slower.  It
needs nothing beyond the standard library and pytest.  The exit status is
pytest's.
"""

from __future__ import annotations

import ast
import glob
import os
import sys
import threading

import pytest

ROOT = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
SOURCES = sorted(glob.glob(os.path.join(ROOT, "src", "ssethom", "*.py")))

# executed line numbers, per source file
executed: dict[str, set[int]] = {path: set() for path in SOURCES}


def _trace(frame, event, arg):
    lines = executed.get(frame.f_code.co_filename)
    if lines is None:
        return None

    def local(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return local
    return local


class _Retrace:
    """Installs the tracer again before each test, and keeps the ids of the
    tests that switched it off."""

    def __init__(self):
        self.cut: list[str] = []

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_protocol(self, item, nextitem):
        sys.settrace(_trace)
        yield
        if sys.gettrace() is None:
            self.cut.append(item.nodeid)


def _is_docstring(node: ast.stmt) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def statements(path: str):
    """(first line, the lines that run it) of every statement of the file
    that is not a docstring, a ``def``, a ``class`` or an import."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or _is_docstring(node) or isinstance(node, (
                ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import,
                ast.ImportFrom, ast.Global, ast.Nonlocal)):
            continue
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if body else node.end_lineno
        yield node.lineno, range(node.lineno, max(last, node.lineno) + 1)


def main(argv: list[str]) -> int:
    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    retrace = _Retrace()
    sys.settrace(_trace)
    threading.settrace(_trace)
    try:
        code = pytest.main(argv or ["-q", "-p", "no:cacheprovider", "tests"], plugins=[retrace])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed = 0
    for path in SOURCES:
        with open(path, encoding="utf-8") as fh:
            text = fh.read().splitlines()
        ran = executed[path]
        for first, lines in sorted(statements(path)):
            if ran.isdisjoint(lines):
                missed += 1
                print(f"{os.path.relpath(path, ROOT)}:{first}: {text[first - 1].strip()}")
    print(f"{missed} statements never run")
    for nodeid in retrace.cut:
        print(f"tracing was switched off inside {nodeid}; what it ran after that is listed")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
