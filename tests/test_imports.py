"""Static checks on the runtime package's source: it imports nothing
outside the standard library, every private function has a caller, no
function recurses outside an allowlist, and no assert statement stands in
for a check."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "monograd"
ALLOWED = set(sys.stdlib_module_names) | {"monograd"}


def _foreign_imports(source: str):
    """Top-level names of absolute imports that are neither standard
    library modules nor monograd itself."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.append(node.module)
    return sorted({name.split(".")[0] for name in names} - ALLOWED)


def test_foreign_import_detection():
    assert _foreign_imports("import sympy") == ["sympy"]
    assert _foreign_imports("def f():\n    from networkx.algorithms import x\n"
                            ) == ["networkx"]
    assert _foreign_imports("from __future__ import annotations\n"
                            "import os.path\nfrom . import caps\n"
                            "from monograd.errors import DomainError") == []


def test_runtime_imports_only_the_standard_library():
    files = sorted(SRC.glob("*.py"))
    assert len(files) > 10
    foreign = {f.name: _foreign_imports(f.read_text()) for f in files}
    assert not {name: mods for name, mods in foreign.items() if mods}


def _unreferenced_private_functions(sources):
    """Names of the _-prefixed, non-dunder functions and methods defined in
    the given sources that no name or attribute in them refers to, outside
    the bodies of the definitions of that name."""
    defined, used = set(), set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name.startswith("_") and not node.name.endswith("__"):
                defined.add(node.name)
            inside = inside | {node.name}
        elif isinstance(node, ast.Name) and node.id not in inside:
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in inside:
            used.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    for source in sources:
        visit(ast.parse(source), frozenset())
    return sorted(defined - used)


def test_unreferenced_private_function_detection():
    assert _unreferenced_private_functions([
        "def _used(): pass\n"
        "def _dead(): return _dead()\n"
        "class C:\n"
        "    def __init__(self): self._m()\n"
        "    def _m(self): pass\n"
        "    def _n(self): return self._n()\n",
        "x = _used()\n"]) == ["_dead", "_n"]


def test_every_private_function_has_a_caller_in_the_package():
    sources = [f.read_text() for f in sorted(SRC.glob("*.py"))]
    assert _unreferenced_private_functions(sources) == []


# The self-recursive functions the package keeps, each with the bound on
# its depth.  Any other recursion belongs on an explicit stack, as the
# linear-quotients search and vertex splitting have theirs, because the
# input can drive the depth past the interpreter's recursion limit.
RECURSION_ALLOWED = {
    "kruskal._colex_iter": "k < d levels for the d-subsets, whose colex "
                           "segment the colex-enum cap bounds",
    "verify._plain": "the nesting depth of a report value",
}


def _self_recursive_functions(module: str, source: str):
    """Qualified names (module.function, module.Class.method) of the
    functions in source that call themselves: a function by its own name,
    a method through self, cls or its class's name.  Recursion through
    other functions is not looked for."""
    found = []

    def visit(node, prefix, owners):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.",
                      {"self", "cls", child.name})
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for call in ast.walk(child):
                    f = getattr(call, "func", None)
                    if (isinstance(f, ast.Name) and not owners
                            and f.id == child.name
                            or isinstance(f, ast.Attribute)
                            and f.attr == child.name
                            and isinstance(f.value, ast.Name)
                            and f.value.id in owners):
                        found.append(prefix + child.name)
                        break
                visit(child, f"{prefix}{child.name}.", set())
            else:
                visit(child, prefix, owners)

    visit(ast.parse(source), f"{module}.", set())
    return found


def test_self_recursive_function_detection():
    assert _self_recursive_functions("m", (
        "def f(n):\n    return f(n - 1) if n else 0\n"
        "def g():\n    def h(k):\n        return h(k)\n    return h\n"
        "def plain():\n    return table.plain()\n"
        "class C:\n"
        "    def walk(self): return [self.walk()]\n"
        "    def size(self): return other.size()\n"
        "    @classmethod\n"
        "    def make(cls): return cls.make()\n"
        "    def leaf(self): return leaf()\n")) == [
            "m.f", "m.g.h", "m.C.walk", "m.C.make"]


def test_every_self_recursive_function_is_allowed():
    found = [name for f in sorted(SRC.glob("*.py"))
             for name in _self_recursive_functions(f.stem, f.read_text())]
    assert sorted(found) == sorted(RECURSION_ALLOWED)


def _assert_lines(source: str):
    """Line numbers of the assert statements in source."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Assert)]


def test_assert_statement_detection():
    assert _assert_lines("assert x\n"
                         "def f(y):\n"
                         "    assert y, 'message'\n"
                         "    return 'assert y'  # assert in a string\n"
                         "class C:\n"
                         "    def m(self):\n"
                         "        assert self\n") == [1, 3, 7]
    assert _assert_lines("if not x:\n    raise DomainError('x')\n") == []


def test_package_has_no_assert_statements():
    # python -O drops asserts, and a failing one would escape the CLI as a
    # traceback: a premise belongs in a test, a check in a typed error
    found = {f.name: lines for f in sorted(SRC.glob("*.py"))
             if (lines := _assert_lines(f.read_text()))}
    assert found == {}
