"""Every module-level import of a package module is used in that module,
and every parameter of its functions and methods in that function."""

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


def unused_parameters(source):
    """Parameters of module-level functions and methods never read in the body.

    ``self`` and ``cls`` are exempt, and so are nested functions, whose
    signatures a protocol fixes (data ``fn(x, y)``, goal ``value(u, q)``).
    A read inside a nested function counts for the enclosing one.
    """
    tree = ast.parse(source)
    funcs = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            funcs.append((node.name, node))
        elif isinstance(node, ast.ClassDef):
            funcs += [(f"{node.name}.{f.name}", f) for f in node.body
                      if isinstance(f, ast.FunctionDef)]
    unused = []
    for name, fn in funcs:
        a = fn.args
        params = [x.arg for x in a.posonlyargs + a.args + a.kwonlyargs]
        params += [x.arg for x in (a.vararg, a.kwarg) if x is not None]
        read = {n.id for stmt in fn.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name)}
        unused += [f"{name}({p})" for p in params
                   if p not in ("self", "cls") and p not in read]
    return unused


def test_detector_finds_an_unused_parameter():
    source = ("def f(a, b, *args, c=1, **kw):\n"
              "    def g(x, y):\n        return a + 1\n"
              "    return g, kw\n"
              "class K:\n    def m(self, d, e):\n        return d\n"
              "    @classmethod\n    def n(cls):\n        return 0\n")
    assert unused_parameters(source) == ["f(b)", "f(c)", "f(args)", "K.m(e)"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_parameters(module):
    assert unused_parameters((SRC / module).read_text(encoding="utf-8")) == []
