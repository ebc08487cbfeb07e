"""Source hygiene checks that need no linter: stdlib ``ast`` only."""

import ast
from pathlib import Path

import collatzlab

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "collatzlab"


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


def eager_imports(source):
    """(line, module) for every import of ``dataclasses``, anywhere, and
    every import of ``fractions`` outside a function body: a fresh process
    should load neither, and fractions only once a Fraction is built."""
    tree = ast.parse(source)
    in_function = {id(node) for top in ast.walk(tree)
                   if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for node in ast.walk(top)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        for module in {m.partition(".")[0] for m in modules}:
            if module == "dataclasses" or (module == "fractions"
                                           and id(node) not in in_function):
                found.append((node.lineno, module))
    return sorted(found)


def test_eager_import_check_flags_only_dataclasses_and_eager_fractions():
    source = ("import dataclasses\n"
              "from fractions import Fraction\n"
              "import os, fractions as fr\n"
              "from .fractions import local\n"
              "import decimal\n"
              "def build():\n"
              "    from fractions import Fraction\n"
              "    from dataclasses import field\n"
              "    return Fraction, field\n"
              "class Holder:\n"
              "    from fractions import Fraction\n")
    assert eager_imports(source) == [(1, "dataclasses"), (2, "fractions"),
                                     (3, "fractions"), (8, "dataclasses"),
                                     (11, "fractions")]


def test_no_module_imports_dataclasses_or_fractions_at_import_time():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    eager = [f"{p.name}:{line}: {module}" for p in modules
             for line, module in eager_imports(p.read_text())]
    assert eager == []


def names_read(source):
    """Every identifier a source names: bare names, attributes, imported
    names and identifier-shaped string constants, which is how setattr-style
    wiring names an attribute."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            names.add(node.value)
    return names


def dead_definitions(modules, readers, exported):
    """(module, line, name) for every top-level def or class of a module
    source that no reader source names and exported does not list.

    A definition's own header does not name it; a function that only calls
    itself still counts as named.
    """
    read = set().union(*map(names_read, readers))
    return [(module, node.lineno, node.name)
            for module, source in modules.items()
            for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and node.name not in read and node.name not in exported]


def test_dead_definition_check_flags_only_unnamed_definitions():
    module = ("def called():\n    pass\n"
              "def exported():\n    pass\n"
              "class Dead:\n    def method(self):\n        pass\n"
              "def collatz_step(x):\n    return x\n"
              "def wired():\n    pass\n"
              "def read_as_attribute():\n    pass\n")
    reader = ("from m import called\nimport m\n"
              "setattr(m, 'wired', m.read_as_attribute)\n")
    assert dead_definitions({"m.py": module}, [module, reader],
                            {"exported"}) == [("m.py", 5, "Dead"),
                                              ("m.py", 8, "collatz_step")]


def test_every_top_level_definition_is_named_or_exported():
    modules = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))
               if p.name != "__init__.py"}
    assert modules
    readers = [p.read_text() for p in sorted(SRC.glob("*.py"))
               + sorted((ROOT / "bench").glob("*.py"))]
    assert dead_definitions(modules, readers, set(collatzlab.__all__)) == []


TRACER_MARK = "# noqa: F401  bound for bench/tracer.py"


def stale_tracer_bindings(modules, tracer):
    """(module, line, name) for every import on a line marked TRACER_MARK
    whose name the tracer source no longer wraps, i.e. no longer spells as
    an identifier-shaped string."""
    wrapped = {node.value for node in ast.walk(ast.parse(tracer))
               if isinstance(node, ast.Constant)
               and isinstance(node.value, str) and node.value.isidentifier()}
    stale = []
    for module, source in modules.items():
        lines = source.splitlines()
        stale += [(module, alias.lineno, alias.asname or alias.name)
                  for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.ImportFrom)
                  for alias in node.names
                  if TRACER_MARK in lines[alias.lineno - 1]
                  and (alias.asname or alias.name) not in wrapped]
    return stale


def test_stale_tracer_binding_check_flags_only_unwrapped_names():
    module = (f"from .a import kept  {TRACER_MARK}\n"
              f"from .b import gone  {TRACER_MARK}\n"
              "from .c import plain\n")
    tracer = "_set(mod, 'kept', wrapper)\nprint(gone, 'plain')\n"
    assert stale_tracer_bindings({"m.py": module}, tracer) == [
        ("m.py", 2, "gone")]


def test_every_tracer_binding_names_a_wrapped_function():
    modules = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    tracer = (ROOT / "bench" / "tracer.py").read_text()
    assert stale_tracer_bindings(modules, tracer) == []


def rows_readers(modules):
    """(module, line) for every read of a ``.rows`` attribute in a module
    source: only the catalog may read a claim's rows."""
    return [(module, node.lineno)
            for module, source in modules.items()
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr == "rows"
            and isinstance(node.ctx, ast.Load)]


def test_rows_reader_check_flags_only_rows_reads():
    source = ("rows = claim.at(1)\n"
              "for row in claim.rows:\n    pass\n"
              "print(claim.columns, getattr(claim, 'rows'))\n")
    assert rows_readers({"m.py": source}) == [("m.py", 2)]


def test_only_the_catalog_reads_a_claims_rows():
    modules = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))
               if p.name != "catalog.py"}
    assert modules
    assert rows_readers(modules) == []


def build_claims_callers(modules):
    """(module, line) for every call of ``build_claims`` in a module source,
    bare or as an attribute, outside verify.py's ``_default_registry``: the
    one registry per process is the only catalog a run reads."""
    callers = []
    for module, source in modules.items():
        tree = ast.parse(source)
        allowed = {id(node) for top in tree.body
                   if module == "verify.py"
                   and isinstance(top, ast.FunctionDef)
                   and top.name == "_default_registry"
                   for node in ast.walk(top)}
        callers += [(module, node.lineno) for node in ast.walk(tree)
                    if isinstance(node, ast.Call) and id(node) not in allowed
                    and (getattr(node.func, "id", None) == "build_claims"
                         or getattr(node.func, "attr", None)
                         == "build_claims")]
    return callers


def test_build_claims_caller_check_flags_only_other_calls():
    registry = ("from . import catalog\n"
                "def _default_registry():\n"
                "    return _registry(catalog.build_claims())\n"
                "def all_claim_ids():\n"
                "    return list(_registry(catalog.build_claims()))\n")
    cli = ("from .catalog import build_claims  # bound, not called\n"
           "claims = build_claims()\n"
           "known = all_claim_ids(build_claims)\n")
    assert build_claims_callers({"verify.py": registry, "cli.py": cli,
                                 "m.py": registry}) == [
        ("verify.py", 5), ("cli.py", 2), ("m.py", 3), ("m.py", 5)]


def test_only_the_default_registry_builds_the_catalog():
    modules = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert "catalog.build_claims()" in modules["verify.py"]
    assert build_claims_callers(modules) == []
