"""Every library module uses every name it imports and exports only
names it defines.

A name imported and never used is dead weight a reader still has to
trace, and an __all__ that lists an imported name re-exports it.
__init__.py is left out: importing names is how it exports them.
"""

import ast
import glob
import importlib
import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src", "elemcalc")
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
