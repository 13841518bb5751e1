"""Every name a library or test module imports is used in that module,
every private module-level definition is used somewhere in the library,
every public one, and every public member of a library class, is used
by the library or the acceptance tests, no two library classes share a
public method or property name but the listed ones, each
module imports only from the modules below it in the layering, every
process cache is private and bounded, no library module loads
`dataclasses` (nor, through it, `inspect`), the library's
heap-driven reduction loops are the known ones, the Groebner engine
turns packed terms into polynomials in one place, only `_completed_run`
builds a Buchberger run, and `is_unit_ideal` has no loop."""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(
    path for path in (ROOT / "src" / "gaquot").glob("*.py") if path.name != "__init__.py"
)
TESTS = sorted((ROOT / "tests").glob("*.py"))
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"


# The library's layers, lowest first; a module may import only from layers below it.
LAYERS = ("errors", "poly", "linalg", "groebner", "derivations", "families", "cli")


def package_imports(source: str) -> set:
    """Names of the sibling modules a module imports, at any depth; the
    library imports its own modules only relatively."""
    modules = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                modules.add(node.module.split(".")[0])
            else:
                modules.update(alias.name for alias in node.names)
    return modules


def layering_violations(sources: dict) -> list:
    """(importer, imported) for each import of a module not below the importer."""
    rank = {name: i for i, name in enumerate(LAYERS)}
    return sorted((module, imported) for module, source in sources.items()
                  for imported in package_imports(source)
                  if rank.get(imported, len(LAYERS)) >= rank[module])


def process_caches(source: str) -> list:
    """(name, bounded) of each definition decorated with `lru_cache` or
    `cache`, plain or through `functools`: bounded iff it is private and
    the decorator passes an int maxsize."""
    caches = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for decorator in node.decorator_list:
            call = decorator if isinstance(decorator, ast.Call) else None
            target = call.func if call else decorator
            name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
            if name not in ("lru_cache", "cache"):
                continue
            sizes = [k.value for k in call.keywords if k.arg == "maxsize"] if call else []
            if call and call.args:
                sizes.append(call.args[0])
            bounded = (name == "lru_cache" and len(sizes) == 1
                       and isinstance(sizes[0], ast.Constant) and type(sizes[0].value) is int)
            caches.append((node.name, bounded and node.name.startswith("_")))
    return caches


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name not in used)


def module_definitions(source: str) -> list:
    """Functions, classes and constants defined at module level."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return names


def private_definitions(source: str) -> list:
    """Private functions, classes and constants defined at module level."""
    return [name for name in module_definitions(source)
            if name.startswith("_") and not name.startswith("__")]


def public_definitions(source: str) -> list:
    """Public functions, classes and constants defined at module level."""
    return [name for name in module_definitions(source) if not name.startswith("_")]


def slot_names(item) -> list:
    """The names a class-body statement lists in `__slots__`, alone or in
    a chain such as `__slots__ = _fields = (...)`; none for any other."""
    if not (isinstance(item, ast.Assign) and isinstance(item.value, (ast.Tuple, ast.List))
            and any(isinstance(t, ast.Name) and t.id == "__slots__" for t in item.targets)):
        return []
    return [e.value for e in item.value.elts
            if isinstance(e, ast.Constant) and isinstance(e.value, str)]


def public_members(source: str) -> list:
    """"Class.member" for each public method, property, annotated field and
    slot of the classes defined at module level."""
    members = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names = [item.name]
                elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    names = [item.target.id]
                else:
                    names = slot_names(item)
                members += [f"{node.name}.{name}" for name in names if not name.startswith("_")]
    return members


def public_methods(source: str) -> list:
    """"Class.method" for each public method and property of the classes
    defined at module level."""
    return [f"{node.name}.{item.name}" for node in ast.parse(source).body
            if isinstance(node, ast.ClassDef) for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not item.name.startswith("_")]


def shared_public_methods(sources: dict) -> list:
    """(module, "Class.method") for each public method or property whose
    name another class defined at module level, in any module, also
    gives a public method or property."""
    methods = [(module, member) for module, source in sources.items()
               for member in public_methods(source)]
    owners = Counter(member.rpartition(".")[2] for _, member in methods)
    return sorted(entry for entry in methods if owners[entry[1].rpartition(".")[2]] > 1)


def dataclass_imports(source: str) -> list:
    """Line numbers of the imports of `dataclasses`, at any depth: loading
    it loads `inspect` and what that imports, a large part of a short
    command's start-up."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        if any(module.split(".")[0] == "dataclasses" for module in modules):
            lines.append(node.lineno)
    return lines


def innermost_definitions(tree, matches) -> list:
    """Qualified names ("Class.method", "function", or "<module>") of the
    innermost definitions holding a node of `tree` for which `matches`
    holds, in order of first match."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if matches(child):
                caller = ".".join(scope) or "<module>"
                if caller not in found:
                    found.append(caller)
            visit(child, scope)

    visit(tree, ())
    return found


def heappop_callers(source: str) -> list:
    """The innermost definitions (`innermost_definitions`) that refer to
    `heapq.heappop`, as an attribute or by a name imported from `heapq`."""
    tree = ast.parse(source)
    names = {alias.asname or alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "heapq"
             for alias in node.names if alias.name == "heappop"}
    return innermost_definitions(tree, lambda node: (
        isinstance(node, ast.Attribute) and node.attr == "heappop"
        or isinstance(node, ast.Name) and node.id in names))


def callers(source: str, name: str) -> list:
    """The innermost definitions (`innermost_definitions`) that call
    `name` by that bare name, or take an attribute `name` of anything,
    called or not."""
    return innermost_definitions(ast.parse(source), lambda node: (
        isinstance(node, ast.Attribute) and node.attr == name
        or isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == name))


def loop_lines(source: str, function: str) -> list:
    """Line numbers of the `for` and `while` statements, at any depth, in
    the module-level function `function`; comprehensions are no
    statements, so they are not listed."""
    (definition,) = [node for node in ast.parse(source).body
                     if isinstance(node, ast.FunctionDef) and node.name == function]
    return [node.lineno for node in ast.walk(definition)
            if isinstance(node, (ast.For, ast.AsyncFor, ast.While))]


def referenced_names(source: str) -> set:
    """Names read, attributes taken and names imported anywhere in a module."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def unreferenced_private_definitions(sources: dict) -> list:
    """(module, name) of each private definition no module refers to."""
    referenced = set().union(*map(referenced_names, sources.values()))
    return sorted((module, name) for module, source in sources.items()
                  for name in private_definitions(source) if name not in referenced)


def unreferenced_public_definitions(sources: dict, acceptance: str, shared=()) -> list:
    """(module, name) of each public definition, and (module,
    "Class.member") of each public class member, that no module and not
    the acceptance tests refer to.  A member counts as referenced when
    its name is, except a method or property whose name another class
    shares (`shared_public_methods`): a reference by bare name cannot
    tell the two apart, so it is reported unless `shared` lists it."""
    referenced = set().union(referenced_names(acceptance), *map(referenced_names, sources.values()))
    ambiguous = set(shared_public_methods(sources)) - set(shared)
    return sorted((module, name) for module, source in sources.items()
                  for name in public_definitions(source) + public_members(source)
                  if name.rpartition(".")[2] not in referenced or (module, name) in ambiguous)


# The public methods that library classes share by name, each with one
# library definition ("module.qualified name") that calls it under that
# name; `test_shared_public_methods_are_listed_with_a_reference_site`
# checks the table against the sources.  `_saturation_round` asks either
# span, the one `derivations._span` builds.
SHARED_MEMBER_SITES = {
    ("derivations.py", "_GradedSpan.contains"): "derivations._saturation_round",
    ("groebner.py", "_GraphSpan.contains"): "derivations._saturation_round",
    ("groebner.py", "_Run.reduce"): "groebner._completed_run",
    ("linalg.py", "Echelon.reduce"): "linalg.Echelon.insert",
}


def test_sources_found():
    assert {"cli.py", "groebner.py", "poly.py"} <= {path.name for path in SOURCES}
    assert {"helpers.py", "test_acceptance.py", "test_imports.py"} <= {path.name for path in TESTS}


@pytest.mark.parametrize("path", SOURCES + TESTS,
                         ids=lambda path: path.name if path in SOURCES else f"tests/{path.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_detects_unused_import():
    assert unused_imports("import os\nfrom typing import List, Sequence\nx: List\n") \
        == ["Sequence", "os"]


def test_modules_import_only_lower_layers():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in SOURCES}
    assert set(sources) == set(LAYERS)
    assert layering_violations(sources) == []


def test_detects_layering_violation():
    sources = {
        "errors": "",
        "poly": "from .errors import ParseError\n",
        "linalg": "def f():\n    from .groebner import buchberger\n",
        "groebner": "from . import poly, derivations\n",
        "derivations": "from .families import run_battery\n",
        "families": "from .families import FAMILIES\n",
        "cli": "from .families import run_battery\n",
    }
    assert layering_violations(sources) == [
        ("derivations", "families"), ("families", "families"),
        ("groebner", "derivations"), ("linalg", "groebner")]


def test_process_caches_are_private_and_bounded():
    caches = {(path.stem, name): bounded for path in SOURCES
              for name, bounded in process_caches(path.read_text(encoding="utf-8"))}
    assert set(caches) == {("groebner", "_packing"), ("cli", "_parser"),
                           ("families", "_representation")}
    assert all(caches.values())


def test_detects_unbounded_process_cache():
    source = ("import functools\nfrom functools import cache, lru_cache\n"
              "@lru_cache(maxsize=None)\ndef table(n):\n    return n\n"
              "@lru_cache(maxsize=None)\ndef _table(n):\n    return n\n"
              "@functools.lru_cache(maxsize=8)\ndef public(n):\n    return n\n"
              "@lru_cache\ndef _default(n):\n    return n\n"
              "@functools.cache\ndef _forever(n):\n    return n\n"
              "@cache\ndef _also_forever(n):\n    return n\n"
              "@lru_cache(16)\ndef _positional(n):\n    return n\n"
              "@functools.lru_cache(maxsize=4)\ndef _bounded(n):\n    return n\n")
    assert process_caches(source) == [
        ("table", False), ("_table", False), ("public", False), ("_default", False),
        ("_forever", False), ("_also_forever", False), ("_positional", True),
        ("_bounded", True)]


def test_no_unreferenced_private_definitions():
    sources = {path.name: path.read_text(encoding="utf-8") for path in SOURCES}
    assert sum(len(private_definitions(source)) for source in sources.values()) > 40
    assert unreferenced_private_definitions(sources) == []


def test_detects_unreferenced_private_definition():
    sources = {
        "a.py": "_LIMIT = 3\n_dead: int = 0\ndef _used():\n    return _LIMIT\n"
                "class _Gone:\n    pass\ndef _unused(n):\n    return n\n",
        "b.py": "from .a import _used\n_used()\n",
    }
    assert unreferenced_private_definitions(sources) == [
        ("a.py", "_Gone"), ("a.py", "_dead"), ("a.py", "_unused")]


def test_no_unreferenced_public_definitions():
    sources = {path.name: path.read_text(encoding="utf-8") for path in SOURCES}
    assert sum(len(public_definitions(source)) for source in sources.values()) > 40
    assert sum(len(public_members(source)) for source in sources.values()) > 40
    unreferenced = unreferenced_public_definitions(sources, ACCEPTANCE.read_text(encoding="utf-8"),
                                                   SHARED_MEMBER_SITES)
    assert unreferenced == []


def test_shared_public_methods_are_listed_with_a_reference_site():
    """The methods library classes share by name are the table's, and each
    one's listed site refers to that name."""
    sources = {path.name: path.read_text(encoding="utf-8") for path in SOURCES}
    assert shared_public_methods(sources) == sorted(SHARED_MEMBER_SITES)
    for (_, member), site in SHARED_MEMBER_SITES.items():
        module, _, qualified = site.partition(".")
        assert qualified in callers(sources[f"{module}.py"], member.rpartition(".")[2]), site


def test_detects_unreferenced_public_definition():
    sources = {
        "a.py": "LIMIT = 3\ndead: int = 0\ndef used():\n    return LIMIT\n"
                "class Gone:\n    pass\ndef unused(n):\n    return n\n"
                "def checked():\n    pass\n_private = 1\n"
                "class Kept:\n    field: int\n    stale: int = 0\n    counter = 0\n"
                "    def method(self):\n        return self.field\n"
                "    @property\n    def orphan(self):\n        return 1\n"
                "    def _helper(self):\n        pass\n    def accepted(self):\n        pass\n"
                "class Slotted:\n"
                "    __slots__ = _fields = ('read', 'unread', '_cache', '__dict__')\n"
                "class Listed:\n    __slots__ = ['listed']\n"
                "class Ideal:\n    def is_zero(self):\n        return False\n",
        "b.py": "from .a import Ideal, Kept, Listed, Slotted, used\nused()\nKept().method()\n"
                "Slotted().read\nListed()\nIdeal\n"
                "class Polynomial:\n    @property\n    def is_zero(self):\n        return True\n"
                "Polynomial().is_zero\n",
    }
    acceptance = "from gaquot import checked\nchecked().accepted()\n"
    pair = [("a.py", "Ideal.is_zero"), ("b.py", "Polynomial.is_zero")]
    assert shared_public_methods(sources) == pair
    unreferenced = [
        ("a.py", "Gone"), ("a.py", "Kept.orphan"), ("a.py", "Kept.stale"),
        ("a.py", "Listed.listed"), ("a.py", "Slotted.unread"), ("a.py", "dead"),
        ("a.py", "unused")]
    assert unreferenced_public_definitions(sources, acceptance) == sorted(unreferenced + pair)
    assert unreferenced_public_definitions(sources, acceptance, pair) == unreferenced


def test_heap_reduction_loops_are_the_known_ones():
    """One heap-driven polynomial reduction loop, `_reduce_full`, beside
    the Buchberger pair queue and the linear algebra on exponent tuples;
    exact division is a normal form on `_reduce_full`, with no loop of
    its own."""
    callers = {f"{path.stem}.{name}" for path in SOURCES
               for name in heappop_callers(path.read_text(encoding="utf-8"))}
    assert callers == {"groebner._reduce_full", "groebner._Run.complete",
                       "linalg.Echelon.reduce"}


def test_detects_heappop_callers():
    source = ("import heapq\nfrom heapq import heappop as pop, heappush\n"
              "def direct(h):\n    while h:\n        heapq.heappop(h)\n"
              "def aliased(h):\n    take = heapq.heappop\n    return take(h)\n"
              "def imported(h):\n    return pop(h)\n"
              "def pushes(h):\n    heappush(h, 1)\n    heapq.heapify(h)\n"
              "class Queue:\n    def drain(self):\n        def step():\n"
              "            return pop(self.h)\n        return step\n"
              "    def size(self):\n        return len(self.h)\n"
              "first = heapq.heappop\n")
    assert heappop_callers(source) == ["direct", "aliased", "imported", "Queue.drain.step",
                                       "<module>"]


def test_packed_terms_become_polynomials_in_one_place():
    """In the Groebner engine only `_polynomial` builds a `Polynomial`,
    and exponent tuples are unpacked only there, in the pair update's
    lcm and in the dimension's supports; `_Packing.unpack` is listed for
    its own call of `Struct.unpack`."""
    source = (ROOT / "src" / "gaquot" / "groebner.py").read_text(encoding="utf-8")
    assert callers(source, "Polynomial") == ["_polynomial"]
    assert set(callers(source, "unpack")) == {"_Packing.unpack", "_update", "_polynomial",
                                              "krull_dimension"}


def test_detects_callers():
    source = ("from .poly import Polynomial\n"
              "def annotated(p: Polynomial) -> Polynomial:\n    return p\n"
              "def built(ring):\n    return Polynomial(ring, {})\n"
              "def attribute(packing, m):\n    return packing.unpack(m)\n"
              "def bound(packing):\n    unpack = packing.unpack\n    return unpack\n"
              "def aliased(unpack, m):\n    return unpack(m)\n"
              "class Packing:\n    def unpack(self, m):\n        return m\n"
              "    def read(self, m):\n        return [self.unpack(t) for t in m]\n"
              "unpack = Packing().unpack\n")
    assert callers(source, "Polynomial") == ["built"]
    assert callers(source, "unpack") == ["attribute", "bound", "aliased", "Packing.read",
                                         "<module>"]


def test_one_function_builds_and_drives_a_run():
    """`_completed_run` is the one code that constructs a `_Run`, and the
    unit-ideal test decides with no loop of its own: a constant
    generator, the zero ideal, or one completed run."""
    source = (ROOT / "src" / "gaquot" / "groebner.py").read_text(encoding="utf-8")
    assert callers(source, "_Run") == ["_completed_run"]
    assert loop_lines(source, "is_unit_ideal") == []


def test_detects_loops_in_a_function():
    source = ("def flat(gens):\n    return [g for g in gens if g]\n"
              "def looping(gens):\n    while gens:\n        gens = gens[1:]\n"
              "    for g in gens:\n        if g:\n            for h in g:\n"
              "                pass\n    return any(g for g in gens)\n")
    assert loop_lines(source, "flat") == []
    assert loop_lines(source, "looping") == [4, 6, 8]


def test_no_source_imports_dataclasses():
    assert {path.name: dataclass_imports(path.read_text(encoding="utf-8"))
            for path in SOURCES} == {path.name: [] for path in SOURCES}


def test_detects_dataclasses_import():
    source = ("import os\nimport dataclasses\nfrom dataclasses import dataclass\n"
              "from .dataclasses import local\nimport dataclasses.x as y, json\n"
              "def f():\n    from dataclasses import replace\n")
    assert dataclass_imports(source) == [2, 3, 5, 7]


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    """A fresh interpreter imports gaquot.cli, as every `gaquot` command
    does; the modules it adds are compared with those loaded before, so
    the check holds where `site` preloads modules."""
    script = ("import sys\n"
              "before = set(sys.modules)\n"
              "import gaquot.cli\n"
              "print(' '.join(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before))))\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert (done.returncode, done.stdout.strip()) == (0, ""), done.stderr
