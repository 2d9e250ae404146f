"""Every module-level import of a package module is used in that module."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "dwropt"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Names bound by a module-level import that the module never reads.

    ``from __future__`` imports are exempt.  A name counts as read when it
    occurs as an identifier anywhere in the module, attribute chains such
    as ``np.zeros`` included.
    """
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in read]


def test_detector_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os\nimport numpy as np\nfrom .errors import A, B\n"
              "print(np.pi, B)\n")
    assert unused_imports(source) == ["os", "A"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_module_imports(module):
    assert unused_imports((SRC / module).read_text(encoding="utf-8")) == []
