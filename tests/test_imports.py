"""Every library module uses every name it imports.

A name imported and never used is dead weight a reader still has to
trace. __init__.py is left out: importing names is how it exports
them.
"""

import ast
import glob
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
