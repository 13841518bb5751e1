"""The mutant catalogue (`tests/mutants.py`) matches the code it mutates
and the tests it names: each snippet occurs exactly once in its file, and
each node id names a test defined in its file.  Checked on the sources
alone, with no subprocess, so a change to mutated code that leaves the
catalogue stale fails here, before anyone runs the catalogue."""

import ast

from mutants import MUTANTS, ROOT


def defined_tests(source: str) -> set:
    """Names of the module-level test functions a test module defines."""
    return {node.name for node in ast.parse(source).body
            if isinstance(node, ast.FunctionDef) and node.name.startswith("test")}


def stale_entries(mutants, sources: dict) -> list:
    """(label, what) for each stale part of a catalogue: "snippet" when a
    mutant's snippet does not occur exactly once in its file, or the node
    id, parameters stripped, of a listed test its file does not define.
    `sources` maps each path the catalogue names to its text."""
    stale = []
    for label, file, snippet, _, node_ids in mutants:
        if sources[file].count(snippet) != 1:
            stale.append((label, "snippet"))
        for node in node_ids:
            path, _, name = node.partition("::")
            if name.partition("[")[0] not in defined_tests(sources[path]):
                stale.append((label, node))
    return stale


def test_mutant_catalogue_is_not_stale():
    paths = {file for _, file, _, _, _ in MUTANTS}
    paths |= {node.partition("::")[0] for *_, node_ids in MUTANTS for node in node_ids}
    sources = {path: (ROOT / path).read_text(encoding="utf-8") for path in paths}
    assert len(MUTANTS) >= 50
    assert stale_entries(MUTANTS, sources) == []


def test_detects_a_stale_mutant_entry():
    sources = {
        "lib.py": "def f(x):\n    return x + 1\n\n\ndef g(x):\n    return x + 1\n",
        "test_lib.py": "import pytest\n\n\ndef test_f():\n    pass\n\n\n"
                       "class TestG:\n    def test_g(self):\n        pass\n",
    }
    doctored = [
        ("fresh", "lib.py", "def f(x):\n", "def f(y):\n", ("test_lib.py::test_f[1]",)),
        ("gone", "lib.py", "return x - 1", "return x", ("test_lib.py::test_f",)),
        ("twice", "lib.py", "return x + 1", "return x", ("test_lib.py::test_f",)),
        ("renamed test", "lib.py", "def g(x):\n", "def g(y):\n",
         ("test_lib.py::test_f", "test_lib.py::test_g", "test_lib.py::helper")),
    ]
    assert stale_entries(doctored, sources) == [
        ("gone", "snippet"), ("twice", "snippet"),
        ("renamed test", "test_lib.py::test_g"), ("renamed test", "test_lib.py::helper")]
