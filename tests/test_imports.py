"""The runtime package imports nothing outside the standard library."""

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
