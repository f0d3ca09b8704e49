"""Every imported name is used by the module that imports it, every private
module-level name of the package is used somewhere, and so is every public
function, class and method of the package; a public function or method that
only tests call is a named oracle."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for d in ("src", "tests", "scripts") for p in (ROOT / d).rglob("*.py"))
PACKAGE = sorted((ROOT / "src" / "ssethom").glob("*.py"))
# the public names may also be used by the benchmark, which drives the package
# from outside
USERS = MODULES + sorted((ROOT / "perfbench").rglob("*.py"))
PROGRAM = [p for p in USERS if p.relative_to(ROOT).parts[0] != "tests"]
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def unused_imports(source: str) -> list[str]:
    """The names a module imports and never reads; names listed in its
    ``__all__`` count as read, and ``__future__`` imports are exempt."""
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
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_caught():
    source = ("from __future__ import annotations\n"
              "import os, os.path\n"
              "from ssethom.sset import HomotopyCertificate, check_certificate\n"
              "from . import cat\n"
              "__all__ = ['cat']\n"
              "check_certificate(os)\n")
    assert unused_imports(source) == ["line 3: HomotopyCertificate"]


def references(trees) -> tuple[set[str], set[str]]:
    """The names the syntax trees read, call or import as ``name``, and those
    they read or call as ``.name``."""
    names, attrs = set(), set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names, attrs


def unreferenced_privates(package: dict[str, str], sources: list[str]) -> list[str]:
    """The module-level private functions, classes and constants of each
    ``package`` module (name to source) that no source in ``sources`` reads,
    calls or imports; dunder names are exempt."""
    refs = set.union(*references(ast.parse(source) for source in sources))
    found = []
    for module, source in package.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            found += [f"{module}:{node.lineno}: {name}" for name in names
                      if name.startswith("_") and not name.startswith("__") and name not in refs]
    return found


def test_no_unreferenced_private_names():
    package = {p.name: p.read_text() for p in PACKAGE}
    assert unreferenced_privates(package, [p.read_text() for p in MODULES]) == []


def test_unreferenced_private_is_caught():
    module = ("_LIMIT = 20\n"
              "_USED: int = 1\n"
              "def _helper():\n"
              "    return _USED\n"
              "def _left_over():\n"
              "    return 0\n"
              "class _Gone:\n"
              "    pass\n"
              "def public():\n"
              "    return _helper()\n")
    user = "from m import _LIMIT\n"
    assert unreferenced_privates({"m.py": module}, [module, user]) == [
        "m.py:5: _left_over", "m.py:7: _Gone"]


def unreferenced_publics(package: dict[str, str], sources: list[str]) -> list[str]:
    """The public module-level functions and classes of each ``package``
    module (name to source) that no source in ``sources`` reads, calls or
    imports, and its non-dunder methods that no source reads or calls as
    ``.name``."""
    names, attrs = references(ast.parse(source) for source in sources)
    refs = names | attrs
    found = []
    for module, source in package.items():
        for node in ast.parse(source).body:
            if isinstance(node, FUNCTIONS + (ast.ClassDef,)) and not node.name.startswith("_") \
                    and node.name not in refs:
                found.append(f"{module}:{node.lineno}: {node.name}")
            if isinstance(node, ast.ClassDef):
                found += [f"{module}:{m.lineno}: {node.name}.{m.name}" for m in node.body
                          if isinstance(m, FUNCTIONS) and not m.name.startswith("__")
                          and m.name not in attrs]
    return found


def test_no_unreferenced_public_names():
    package = {p.name: p.read_text() for p in PACKAGE}
    assert unreferenced_publics(package, [p.read_text() for p in USERS]) == []


def test_unreferenced_public_is_caught():
    module = ("def used():\n"
              "    return Kept().size\n"
              "def unused():\n"
              "    return 0\n"
              "class Kept:\n"
              "    def __init__(self):\n"
              "        self.n = 1\n"
              "    @property\n"
              "    def size(self):\n"
              "        return self.n\n"
              "    def _grow(self):\n"
              "        return self.n + 1\n"
              "    def shrink(self):\n"
              "        return self.n - 1\n"
              "class Gone:\n"
              "    pass\n")
    user = "from m import used\nshrink = 0\nprint(shrink)\n"
    assert unreferenced_publics({"m.py": module}, [module, user]) == [
        "m.py:3: unused", "m.py:11: Kept._grow", "m.py:13: Kept.shrink", "m.py:15: Gone"]


# The public functions and methods that only tests call, each with the reason
# the package keeps it.
TEST_ONLY = {
    "SparseIntMatrix.from_dense": "builds the dense test matrices the reference SNF reads",
    "SparseIntMatrix.to_dense": "the dense view the reference SNF and echelon oracles read",
}


def owned_references(tree) -> list[tuple[str | None, set[str], set[str]]]:
    """(owner, names, attrs) as ``references`` reads them, for each top-level
    function and each method (owner ``f`` or ``Class.m``) and, with owner
    None, for the rest of the module."""
    out, rest = [], []
    for node in tree.body:
        if isinstance(node, FUNCTIONS):
            out.append((node.name, *references([node])))
        elif isinstance(node, ast.ClassDef):
            for m in node.body:
                if isinstance(m, FUNCTIONS):
                    out.append((f"{node.name}.{m.name}", *references([m])))
                else:
                    rest.append(m)
            rest += node.decorator_list + node.bases
        else:
            rest.append(node)
    return out + [(None, *references(rest))]


def publics_only_tests_call(package: dict[str, str], program: dict[str, str]) -> list[str]:
    """The public functions and methods of each ``package`` module that no
    ``program`` source reads, calls or imports outside their own body and
    the bodies of the others found: a reference from test-only code is a
    test reference.  Both map a path to its source, and the package modules
    are program modules."""
    owned = [(path, owner, names, attrs) for path, source in program.items()
             for owner, names, attrs in owned_references(ast.parse(source))]
    publics = []
    for path, source in package.items():
        for node in ast.parse(source).body:
            if isinstance(node, FUNCTIONS) and not node.name.startswith("_"):
                publics.append((path, node.name, node.name, True))
            if isinstance(node, ast.ClassDef):
                publics += [(path, f"{node.name}.{m.name}", m.name, False) for m in node.body
                            if isinstance(m, FUNCTIONS) and not m.name.startswith("_")]

    def called(path, owner, name, as_name, found):
        return any(name in attrs or (as_name and name in names) for p, o, names, attrs in owned
                   if (p, o) != (path, owner) and (p, o) not in found)

    found, grown = None, set()
    while found != grown:
        found = grown
        grown = {(path, owner) for path, owner, name, as_name in publics
                 if not called(path, owner, name, as_name, found)}
    return [owner for path, owner, _, _ in publics if (path, owner) in found]


def test_public_names_only_tests_call_are_named_oracles():
    package = {str(p.relative_to(ROOT)): p.read_text() for p in PACKAGE}
    program = {str(p.relative_to(ROOT)): p.read_text() for p in PROGRAM}
    assert sorted(publics_only_tests_call(package, program)) == sorted(TEST_ONLY)


def test_test_only_public_is_caught():
    # oracle is test-only, so inner and Box.shrink, which only it calls, are
    # too, and so is innermost, which only inner calls
    module = ("def called():\n"
              "    return Box().size() + helper()\n"
              "def helper():\n"
              "    return 1\n"
              "def recursive(n):\n"
              "    return recursive(n - 1) if n else 0\n"
              "class Box:\n"
              "    def size(self):\n"
              "        return 0\n"
              "    def shrink(self):\n"
              "        return 1\n"
              "    def grow(self):\n"
              "        return self.grow()\n"
              "def _private():\n"
              "    return 0\n"
              "def oracle():\n"
              "    return inner() + Box().shrink()\n"
              "def inner():\n"
              "    return innermost()\n"
              "def innermost():\n"
              "    return 0\n")
    user = "from m import called\ncalled()\n"
    assert publics_only_tests_call({"m.py": module}, {"m.py": module, "run.py": user}) == [
        "recursive", "Box.shrink", "Box.grow", "oracle", "inner", "innermost"]


def route_users(sources: dict[str, str], route: str) -> list[str]:
    """``path: owner`` for each top-level function and method (``f`` or
    ``Class.m``, ``<module>`` for the rest) of the ``sources`` that reads or
    calls ``route`` as a name or as ``.route``; each maps a path to its source."""
    return [f"{path}: {owner or '<module>'}" for path, source in sources.items()
            for owner, names, attrs in owned_references(ast.parse(source))
            if route in names or route in attrs]


def test_unchecked_complex_route_has_one_user():
    # ChainComplex._certified skips the d o d products; unnormalized_chains
    # alone may take it, after validate_sset has checked the face identities
    sources = {str(p.relative_to(ROOT)): p.read_text() for p in USERS}
    assert route_users(sources, "_certified") == ["src/ssethom/homalg.py: unnormalized_chains"]


def test_index_tables_have_one_matrix_builder():
    # _table_matrix turns (partial) index tables into matrices; the other
    # owners sum blocks of built matrices, restriction tables or parsed entries
    sources = {str(p.relative_to(ROOT)): p.read_text() for p in PACKAGE}
    assert sorted(route_users(sources, "from_entries")) == [
        "src/ssethom/cat.py: grothendieck_group",
        "src/ssethom/formats.py: _load_matrix",
        "src/ssethom/homalg.py: _table_matrix",
        "src/ssethom/homalg.py: alexander_whitney",
        "src/ssethom/homalg.py: tensor_double_complex",
        "src/ssethom/homalg.py: total_complex",
        "src/ssethom/theorems.py: _induced_is_onto",
    ]


def json_readers(sources: dict[str, str]) -> list[str]:
    """``path: owner`` for each owner of the ``sources`` that reads
    ``json.load`` or ``json.loads``."""
    return sorted(set(route_users(sources, "load") + route_users(sources, "loads")))


def test_json_files_have_one_reader():
    # read_json turns undecodable bytes and too-deep nesting into FormatError;
    # a second decoder would let them escape as internal errors
    sources = {str(p.relative_to(ROOT)): p.read_text() for p in PACKAGE}
    assert json_readers(sources) == ["src/ssethom/formats.py: read_json"]


def test_second_json_reader_is_caught():
    module = ("import json\n"
              "def read_json(name):\n"
              "    with open(name) as fh:\n"
              "        return json.load(fh)\n"
              "def batch(text):\n"
              "    return json.loads(text)\n")
    user = "from json import loads\n"
    assert json_readers({"formats.py": module, "cli.py": user}) == [
        "cli.py: <module>", "formats.py: batch", "formats.py: read_json"]


def test_second_route_user_is_caught():
    module = ("class Complex:\n"
              "    @classmethod\n"
              "    def _certified(cls):\n"
              "        return object.__new__(cls)\n"
              "    def copy(self):\n"
              "        return self._certified()\n"
              "def chains():\n"
              "    return Complex._certified()\n"
              "def other():\n"
              "    return Complex()\n")
    user = "from m import Complex, _certified\nmake = Complex._certified\n"
    assert route_users({"m.py": module, "run.py": user}, "_certified") == [
        "m.py: Complex.copy", "m.py: chains", "run.py: <module>"]


def calls(sources: dict[str, str], callee: str) -> list[str]:
    """``path: owner`` once per call of ``callee`` or ``.callee`` in the
    ``sources``, the owner named as ``route_users`` names it; a name read
    that is not a call, such as a return annotation, is not counted."""
    found = []
    for path, source in sources.items():
        for top in ast.parse(source).body:
            parts = top.body + top.decorator_list + top.bases if isinstance(top, ast.ClassDef) else [top]
            for part in parts:
                owner = part.name if isinstance(part, FUNCTIONS) else None
                if owner and isinstance(top, ast.ClassDef):
                    owner = f"{top.name}.{owner}"
                found += [f"{path}: {owner or '<module>'}" for node in ast.walk(part)
                          if isinstance(node, ast.Call)
                          and callee in (getattr(node.func, "id", None), getattr(node.func, "attr", None))]
    return found


def test_validation_reports_have_one_constructor():
    # _staged is the one validation policy: a report built anywhere else
    # would skip its stage order or its cap
    sources = {str(p.relative_to(ROOT)): p.read_text() for p in PACKAGE}
    assert calls(sources, "ValidationReport") == ["src/ssethom/sset.py: _staged"] * 2


def test_second_report_constructor_is_caught():
    module = ("import sset\n"
              "from sset import ValidationReport, _staged\n"
              "def direct(x) -> ValidationReport:\n"
              "    return ValidationReport(True)\n"
              "class Doc:\n"
              "    def report(self) -> ValidationReport:\n"
              "        return sset.ValidationReport(False, ())\n"
              "DEFAULT = ValidationReport(True)\n"
              "@_staged(20)\n"
              "def staged(x) -> ValidationReport:\n"
              "    yield []\n")
    assert calls({"m.py": module}, "ValidationReport") == [
        "m.py: direct", "m.py: Doc.report", "m.py: <module>"]
