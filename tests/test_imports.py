"""Static checks on the runtime package's source: it imports nothing
outside the standard library and no dataclasses, every import is used,
every private function has a caller, every public function and class has
one outside an allowlist, no function recurses outside an allowlist, no
assert statement stands in for a check, importing the package loads only
the monomial core, and each CLI command loads only the engines it runs."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "monograd"
ALLOWED = set(sys.stdlib_module_names) | {"monograd"}


def _absolute_imports(source: str):
    """Top-level names of the absolute imports anywhere in source."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.append(node.module)
    return {name.split(".")[0] for name in names}


def _foreign_imports(source: str):
    """Top-level names of absolute imports that are neither standard
    library modules nor monograd itself."""
    return sorted(_absolute_imports(source) - ALLOWED)


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


def test_runtime_imports_no_dataclasses():
    # dataclasses loads inspect, ast, dis and tokenize into every process
    # that imports it; the package's records are NamedTuples instead
    assert "dataclasses" in _absolute_imports(
        "def f():\n    from dataclasses import dataclass\n")
    assert [f.name for f in sorted(SRC.glob("*.py"))
            if "dataclasses" in _absolute_imports(f.read_text())] == []


def _unused_imports(source: str, reexports: bool = False):
    """The names that the imports in source bind (anywhere in it, the
    __future__ ones left out) and that no name in source reads; with
    reexports set, the relative imports, which a package's __init__ makes
    to re-export, are left out too."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update((a.asname or a.name).split(".")[0]
                         for a in node.names)
        elif (isinstance(node, ast.ImportFrom)
              and node.module != "__future__"
              and not (reexports and node.level)):
            bound.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_unused_import_detection():
    assert _unused_imports("from __future__ import annotations\n"
                           "import os.path, re\n"
                           "from operator import add, neg as minus\n"
                           "from typing import Optional\n"
                           "def f(x: Optional[int]):\n"
                           "    from .caps import Caps\n"
                           "    return os.path.join(add(x, 1))\n") == [
        "Caps", "minus", "re"]
    source = "from .caps import Caps\nfrom importlib import import_module\n"
    assert _unused_imports(source) == ["Caps", "import_module"]
    assert _unused_imports(source, reexports=True) == ["import_module"]


def test_every_import_is_used():
    unused = {f.name: names for f in sorted(SRC.glob("*.py"))
              if (names := _unused_imports(f.read_text(),
                                           reexports=f.stem == "__init__"))}
    assert unused == {}


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


# The public functions nothing in the package calls, each kept on purpose.
PUBLIC_UNCALLED = {
    "gradient.gradient_via_colon":
        "the colon-ideal oracle that gradient() and the benchmark check",
    "resolution.koszul_betti":
        "one Betti number from Koszul homology, the oracle of the tables",
    "resolution.polarize": "polarization, a utility and second oracle",
    "verify.two_linear_edge_ideals":
        "the labeled sweep that thm6.1's class-level screen stands for",
}


_SCOPES = (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
           ast.Lambda, ast.ListComp, ast.SetComp, ast.DictComp,
           ast.GeneratorExp)


def _own_bindings(scope):
    """The names a module, class, function, lambda or comprehension binds
    itself: its parameters, the targets of its assignments, loops,
    comprehensions and `with`, and its `as` names.  An import without `as`
    binds the name it imports, so it is not counted; nor are the names its
    nested scopes bind."""
    bound, todo = set(), list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            bound.add(node.id)
        elif isinstance(node, ast.arg):
            bound.add(node.arg)
        elif isinstance(node, ast.alias) and node.asname:
            bound.add(node.asname)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bound.add(node.name)
        if not isinstance(node, _SCOPES):
            todo += ast.iter_child_nodes(node)
    return bound


def _unreferenced_public_names(sources):
    """Qualified names (module.name) of the public module-level functions
    and classes in {module: source} that no name, attribute or identifier
    string in the sources refers to, outside the definition of that name.
    A name read where an enclosing scope binds it itself refers to that
    binding, so it does not count.  The lazy table _ENGINES of __init__
    lists every export, so it does not count as a reference either."""
    defined, used = {}, set()

    def visit(node, inside, hidden):
        if isinstance(node, _SCOPES):
            hidden = hidden | _own_bindings(node)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            inside = inside | {node.name}
        elif isinstance(node, ast.Name):
            used.update({node.id} - inside - hidden)
        elif isinstance(node, ast.Attribute):
            used.update({node.attr} - inside)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            used.update({node.value} - inside)
        for child in ast.iter_child_nodes(node):
            visit(child, inside, hidden)

    for module, source in sources.items():
        tree = ast.parse(source)
        defined.update((node.name, f"{module}.{node.name}")
                       for node in tree.body
                       if isinstance(node, (ast.FunctionDef,
                                            ast.AsyncFunctionDef,
                                            ast.ClassDef))
                       and not node.name.startswith("_"))
        if module == "__init__":
            tree.body = [node for node in tree.body if not (
                isinstance(node, ast.Assign) and
                [getattr(t, "id", None) for t in node.targets] == ["_ENGINES"])]
        visit(tree, frozenset(), frozenset())
    return sorted(q for name, q in defined.items() if name not in used)


def test_unreferenced_public_name_detection():
    assert _unreferenced_public_names({
        "a": "def used(): pass\n"
             "def dead(): return dead()\n"
             "class Shown: pass\n"
             "class Hidden:\n    def m(self): return Hidden()\n"
             "def _private(): pass\n"
             "def outer():\n    def inner(): pass\n"
             "def imported(): pass\n"
             "def deg(): pass\n",
        "b": "x = used()\nTABLE = {'key': 'Shown'}\nouter\n"
             "from .a import imported\nimported()\n",
        # names each scope binds itself refer to that binding, not to a.deg
        "c": "def _draw(rng, k):\n"
             "    deg = rng.randint(2, 3)\n"
             "    return deg\n"
             "def _by_parameter(deg): return deg\n"
             "def _by_loop(xs):\n    for deg in xs: print(deg)\n"
             "def _by_comprehension(xs): return [deg for deg in xs]\n"
             "def _by_lambda(): return lambda deg: deg\n"
             "def _by_with(f):\n    with f() as deg: return deg\n"
             "def _by_import():\n    import math as deg\n    return deg\n"
             "def _by_handler():\n"
             "    try: pass\n"
             "    except ValueError as deg: return deg\n"
             "def _by_closure(xs):\n"
             "    deg = len(xs)\n"
             "    return lambda: deg\n",
        "__init__": "_ENGINES = {'a': ('dead', 'Hidden')}\n"}) == [
            "a.Hidden", "a.dead", "a.deg"]


def test_every_public_name_has_a_caller_or_a_reason():
    sources = {f.stem: f.read_text() for f in sorted(SRC.glob("*.py"))}
    assert _unreferenced_public_names(sources) == sorted(PUBLIC_UNCALLED)


# The self-recursive functions the package keeps, each with the bound on
# its depth.  Any other recursion belongs on an explicit stack, as the
# linear-quotients search and vertex splitting have theirs, because the
# input can drive the depth past the interpreter's recursion limit.
RECURSION_ALLOWED = {
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


# the submodules `import monograd` loads; every other one loads on first
# access through the package's lazy table
EAGER = {"caps", "errors", "gradient", "monomials"}


def _eager_imports(source: str):
    """The monograd submodules a package source imports outside function
    and class bodies: relative imports, and absolute monograd.x ones."""
    found = set()

    def visit(node):
        if isinstance(node, ast.ImportFrom) and node.level:
            found.update([node.module.split(".")[0]] if node.module
                         else [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("monograd."))
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.ClassDef, ast.Lambda)):
            for child in ast.iter_child_nodes(node):
                visit(child)

    visit(ast.parse(source))
    return sorted(found)


def _top_level_names(source: str):
    """The names a module source binds at its top level: functions,
    classes, assignment targets and imports."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = getattr(node, "targets", [getattr(node, "target", None)])
            names.update(t.id for t in targets if isinstance(t, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0]
                         for a in node.names)
    return names


def _lazy_table(source: str):
    """The literal {submodule: public names} that a package source assigns
    to _ENGINES."""
    for node in ast.parse(source).body:
        if (isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets]
                == ["_ENGINES"]):
            return ast.literal_eval(node.value)
    return {}


def test_package_import_detection():
    assert _eager_imports("from .caps import Caps\n"
                          "from . import errors, graphs\n"
                          "from .resolution.x import y\n"
                          "import monograd.verify, os\n"
                          "from importlib import import_module\n"
                          "if True:\n    from .kruskal import z\n"
                          "def f():\n    from .structure import w\n"
                          "class C:\n    from .cli import main\n") == [
        "caps", "errors", "graphs", "kruskal", "resolution", "verify"]
    assert _top_level_names("X = 1\nY: int = 2\na, b = 3, 4\n"
                            "def f():\n    Z = 5\n"
                            "class C:\n    W = 6\n"
                            "from .m import p as q, r\nimport os.path\n"
                            ) == {"X", "Y", "f", "C", "q", "r", "os"}
    assert _lazy_table("_ENGINES = {'graphs': ('edge_ideal',)}\n"
                       "_LAZY = {}\n") == {"graphs": ("edge_ideal",)}


def test_package_imports_only_the_core_eagerly():
    source = (SRC / "__init__.py").read_text()
    assert _eager_imports(source) == sorted(EAGER)
    table = _lazy_table(source)
    assert table and not EAGER & set(table)
    for module, names in table.items():
        defined = _top_level_names((SRC / f"{module}.py").read_text())
        assert set(names) <= defined, (module, set(names) - defined)


def _python(code: str) -> str:
    src = str(SRC.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_import_footprint_in_a_fresh_interpreter():
    loaded = ("sorted(k for k in sys.modules "
              "if k == 'monograd' or k.startswith('monograd.'))")
    out = _python(f"import sys, monograd\nprint({loaded})\n"
                  f"monograd.edge_ideal\nprint({loaded})\n").splitlines()
    core = ["monograd"] + [f"monograd.{m}" for m in sorted(EAGER)]
    assert out == [repr(core), repr(sorted(core + ["monograd.graphs"]))]
    # loading the gradient submodule's neighbours leaves the package's
    # gradient bound to the function
    assert _python("import monograd.resolution\n"
                   "from monograd import gradient\n"
                   "print(gradient.__module__, gradient.__name__)\n"
                   ) == "monograd.gradient gradient\n"
    # a star import binds what it bound when every engine loaded eagerly:
    # the public names and the submodules other than the CLI
    out = _python("ns = {}\nexec('from monograd import *', ns)\n"
                  "print(' '.join(sorted(set(ns) - {'__builtins__'})))\n")
    assert out.split() == sorted(STAR_NAMES.split())


def _added_by(argv):
    """The modules that importing the CLI and run_cli(argv) add to
    sys.modules in a fresh interpreter."""
    out = _python("import contextlib, io, sys\n"
                  "before = set(sys.modules)\n"
                  "from monograd.cli import run_cli\n"
                  "with contextlib.redirect_stdout(io.StringIO()):\n"
                  f"    run_cli({argv!r})\n"
                  "print(' '.join(sorted(set(sys.modules) - before)))\n")
    return set(out.split())


def _loaded_after(argv):
    """The monograd submodules loaded after run_cli(argv) in a fresh
    interpreter, the package itself left out."""
    return {k[9:] for k in _added_by(argv) if k.startswith("monograd.")}


def test_each_cli_command_loads_only_its_engines(tmp_path):
    ideal = tmp_path / "ideal.json"
    ideal.write_text('{"n": 3, "gens": ["x1*x2", "x2*x3", "x1^2*x3"]}')
    lattice = EAGER | {"cli", "ioformats", "verify_ids", "resolution",
                       "structure", "complexes", "exact_rank"}
    for argv in (["betti", str(ideal)], ["reg", str(ideal)],
                 ["betti", str(ideal), "--engine", "hochster", "--json"],
                 ["reg", str(ideal), "--engine", "koszul"]):
        assert _loaded_after(argv) == lattice, argv
    assert _loaded_after(["stats", str(ideal)]) == \
        EAGER | {"cli", "ioformats", "verify_ids"}
    assert _loaded_after(["kk", "rep", "--a", "10", "--d", "3"]) == \
        EAGER | {"cli", "verify_ids", "kruskal"}
    everything = {f.stem for f in SRC.glob("*.py")} - {"__init__", "__main__"}
    added = _added_by(["verify", "kk-remark", "--seed", "0"])
    assert {k[9:] for k in added if k.startswith("monograd.")} == everything
    # every engine loaded, and none of them brings in dataclasses or the
    # inspect module it imports
    assert not {"dataclasses", "inspect"} & added


STAR_NAMES = """
BettiTable Caps CapsFormatError CycleCertificate
DifferentialLinearReport DimensionMismatchError DomainError
ExponentOverflowError GeneratorStats MacaulayRep MonogradError
MonomialIdeal Polarization QuadraticDecomposition QuotientOrder
RegGapFamily Report ResourceCapError SimpleGraph SimplicialComplex
UNDECIDED VERIFY_IDS betti_table caps closed_form_count
closed_form_shadow colex_shadow_oracle complementary_edge_ideal
complexes cycle_certificate default_caps edge_ideal errors exact_rank
family_overlap_run family_reg_gap gradient gradient_chain
gradient_power_closed_forms gradient_via_colon graphs
has_differential_linear_resolution has_linear_quotients
has_linear_resolution hochster_betti ideal_to_json ioformats
is_complete_intersection is_componentwise_polymatroidal is_connected
is_polymatroidal is_stable is_strongly_stable is_vertex_splittable
iterated_gradient koszul_betti koszul_betti_table kruskal
linear_quotients_order macaulay_rep many_generators_threshold
monomial_str monomials parse_generators parse_graph parse_ideal
parse_monomial_string polarize quadratic_decompositions random_ideal
regularity resolution serialize_ideal shadow_bound stable_closure
stanley_reisner_complex strongly_stable_closure structure supp
underlying_graph verify verify_theorem veronese_type vertex_split_tree
"""
