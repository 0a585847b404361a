"""Every library module uses every name it imports and exports only
names it defines, every exported name has a reader, and no function
assigns a local it never reads.

A name imported and never used is dead weight a reader still has to
trace, and an __all__ that lists an imported name re-exports it.
__init__.py is left out of the first two checks: importing names is how
it exports them.
"""

import ast
import glob
import importlib
import os
import sys
import types

import pytest

import elemcalc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "elemcalc")
PERFBENCH = os.path.join(ROOT, "perfbench")
sys.path.insert(0, PERFBENCH)

from tracer import TARGETS  # noqa: E402
from workloads import CAPTURES  # noqa: E402
MODULES = sorted(p for p in glob.glob(os.path.join(SRC, "*.py"))
                 if os.path.basename(p) != "__init__.py")


def unused_imports(path):
    """Names the module at path imports but never reads, sorted."""
    with open(path) as f:
        tree = ast.parse(f.read(), path)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0]
                            for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


@pytest.mark.parametrize("path", MODULES, ids=os.path.basename)
def test_module_uses_its_imports(path):
    assert unused_imports(path) == []


def defined_names(path):
    """Names bound at the top level of the module at path by a def, a
    class or an assignment."""
    with open(path) as f:
        tree = ast.parse(f.read(), path)
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets
                         if isinstance(t, ast.Name))
    return names


@pytest.mark.parametrize("path", MODULES, ids=os.path.basename)
def test_module_exports_only_its_own_names(path):
    name = os.path.splitext(os.path.basename(path))[0]
    module = importlib.import_module("elemcalc." + name)
    exported = getattr(module, "__all__", [])
    assert sorted(set(exported) - defined_names(path)) == []


def _parse(path):
    with open(path) as f:
        return ast.parse(f.read(), path)


def _own_nodes(fn):
    """Nodes of fn's body, not descending into nested functions,
    lambdas or classes."""
    stack = list(fn.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def dead_locals(path):
    """"function: name" for each name that a plain `name = ...` in the
    function's own body binds and that nothing in the function, nested
    functions included, reads; names starting with _ are skipped."""
    out = []
    for fn in ast.walk(_parse(path)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        read = {n.id for n in ast.walk(fn) if isinstance(n, ast.Name)
                and isinstance(n.ctx, ast.Load)}
        bound = {t.id for n in _own_nodes(fn) if isinstance(n, ast.Assign)
                 for t in n.targets if isinstance(t, ast.Name)}
        out.extend("%s: %s" % (fn.name, name) for name in sorted(bound - read)
                   if not name.startswith("_"))
    return out


@pytest.mark.parametrize("path", sorted(glob.glob(os.path.join(SRC, "*.py"))),
                         ids=os.path.basename)
def test_module_has_no_dead_locals(path):
    assert dead_locals(path) == []


def _reads(node):
    """Names read under node, as plain names or as attributes."""
    names = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
    return names


def library_reads():
    """(names defined, names read) for each top-level statement of the
    library that is not an import."""
    out = []
    for path in glob.glob(os.path.join(SRC, "*.py")):
        for stmt in _parse(path).body:
            if not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                defined = set()
                if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                    defined.add(stmt.name)
                elif isinstance(stmt, ast.Assign):
                    defined.update(t.id for t in stmt.targets
                                   if isinstance(t, ast.Name))
                out.append((defined, _reads(stmt)))
    return out


def outside_reads():
    """Names scripts/ reads or imports, and names perfbench/ takes from
    the library: attributes of anything but its own modules (oracle.py
    defines names of its own), tracer targets and suite captures."""
    names = set()
    for path in glob.glob(os.path.join(ROOT, "scripts", "*.py")):
        tree = _parse(path)
        names |= _reads(tree)
        for n in ast.walk(tree):
            if isinstance(n, ast.ImportFrom):
                names.update(a.name for a in n.names)
    bench = glob.glob(os.path.join(PERFBENCH, "*.py"))
    own = {os.path.splitext(os.path.basename(p))[0] for p in bench}
    for path in bench:
        for n in ast.walk(_parse(path)):
            if isinstance(n, ast.Attribute) and not (
                    isinstance(n.value, ast.Name) and n.value.id in own):
                names.add(n.attr)
    names.update(attr.split(".")[0] for _, attr, *_ in TARGETS)
    names.update(CAPTURES)
    return names


def test_every_export_has_a_reader():
    exported = {n for n in elemcalc.__all__
                if not isinstance(getattr(elemcalc, n), types.ModuleType)}
    for path in MODULES:
        name = os.path.splitext(os.path.basename(path))[0]
        module = importlib.import_module("elemcalc." + name)
        exported.update(getattr(module, "__all__", []))
    rows = library_reads()
    outside = outside_reads()
    dead = [n for n in sorted(exported) if n not in outside
            and not any(n in read and n not in defined
                        for defined, read in rows)]
    assert dead == []
