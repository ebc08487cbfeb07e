"""Source hygiene checks that need no linter: stdlib ``ast`` only."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "collatzlab"


def unused_imports(source):
    """(line, name) for every name the module imports and never reads.

    A name counts as read wherever it appears as a bare name, attribute
    roots included. Imports on a line marked ``# noqa: F401`` and
    ``from __future__`` imports are exempt.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [(a, (a.asname or a.name).partition(".")[0])
                     for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [(a, a.asname or a.name) for a in node.names]
        else:
            continue
        imported += [(a.lineno, name) for a, name in names
                     if "# noqa: F401" not in lines[a.lineno - 1]]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


def test_unused_import_check_flags_only_unused_names():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "from itertools import (chain,\n"
              "                       count)\n"
              "from sys import argv  # noqa: F401  kept on purpose\n"
              "print(os.path.sep, count)\n")
    assert unused_imports(source) == [(3, "chain")]


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = [f"{p.name}:{line}: {name}" for p in modules
              for line, name in unused_imports(p.read_text())]
    assert unused == []
