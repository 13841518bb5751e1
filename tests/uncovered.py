"""The library statements that no tier-1 test executes.

    python tests/uncovered.py [PYTEST_ARGS ...]

runs the tier-1 suite (or the tests the arguments name) in this process
under a stdlib line tracer and prints each statement of `src/gaquot`
that no test executed, as `file:line: text`, then the count.
Docstrings, `def` and `class` lines, imports and `try:` lines (which
compile to no instruction) are not statements here.  A statement
counts as executed when any line of it, or of a compound statement's
head, raised a line event.  The tracer is installed before collection,
so the library's module-level statements are traced as they are
imported, and again at each test's setup and call: a test that
exhausts the recursion limit (the parser's too-deep-nesting test)
raises RecursionError inside the tracer, and Python then turns
tracing off.  Threads the tests start are traced; the CLI tests that
run `gaquot` in a subprocess are not, so what only they execute is
listed.  Tracing makes the suite about four times slower.  It exits
with pytest's status.  pytest does not collect this file (no `test_`
prefix).
"""

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "gaquot"


def statement_lines(source: str) -> dict:
    """First line of each statement of a module -> the lines whose line
    events mean it ran: all of a simple statement's lines, and a compound
    statement's head, up to the line before its body."""
    lines = {}

    def visit(body):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(node.body[1:] if ast.get_docstring(node) is not None else node.body)
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            nested = [getattr(node, field) for field in ("body", "orelse", "finalbody")
                      if getattr(node, field, None)]
            nested += [handler.body for handler in getattr(node, "handlers", ())]
            if not isinstance(node, ast.Try):
                end = nested[0][0].lineno - 1 if nested else node.end_lineno
                lines[node.lineno] = range(node.lineno, max(end, node.lineno) + 1)
            for block in nested:
                visit(block)

    module = ast.parse(source)
    visit(module.body[1:] if ast.get_docstring(module) is not None else module.body)
    return lines


class LineTracer:
    """pytest plugin recording (file, line) of every line event in the
    library."""

    def __init__(self):
        self.executed = set()
        self.prefix = str(LIBRARY) + os.sep

    def trace(self, frame, event, arg):
        if frame.f_code.co_filename.startswith(self.prefix):
            return self.trace_lines
        return None

    def trace_lines(self, frame, event, arg):
        if event == "line":
            self.executed.add((frame.f_code.co_filename, frame.f_lineno))
        return self.trace_lines

    def install(self):
        sys.settrace(self.trace)
        threading.settrace(self.trace)

    def pytest_runtest_setup(self, item):
        self.install()

    def pytest_runtest_call(self, item):
        self.install()


def main(args) -> int:
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    sources = {path: path.read_text(encoding="utf-8") for path in sorted(LIBRARY.glob("*.py"))}
    tracer = LineTracer()
    tracer.install()
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *args], plugins=[tracer])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed = 0
    for path, source in sources.items():
        text = source.splitlines()
        for first, span in sorted(statement_lines(source).items()):
            if not any((str(path), line) in tracer.executed for line in span):
                missed += 1
                print(f"{path.relative_to(ROOT)}:{first}: {text[first - 1].strip()}")
    print(f"{missed} statements not executed")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
