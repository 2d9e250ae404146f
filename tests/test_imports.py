"""Every module-level import of a package module is used in that module,
every parameter of its functions and methods in that function, and every
module-level definition somewhere in the package."""

import ast
import os
import pathlib
import subprocess
import sys

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


def dead_definitions(sources):
    """Module-level functions, classes and methods the package never names.

    sources maps module name to source text.  A function or class counts
    as used when its name occurs as a ``Name`` or an ``Attribute`` anywhere
    in the sources outside its own definition, a method only when it occurs
    as an ``Attribute``: a local variable of the same name is not a use.
    Dunder methods are exempt: the language calls them.
    """
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    defs, refs = [], []
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append((mod, node.name, node))
            if isinstance(node, ast.ClassDef):
                defs += [(mod, f"{node.name}.{f.name}", f) for f in node.body
                         if isinstance(f, ast.FunctionDef)
                         and not (f.name.startswith("__") and f.name.endswith("__"))]
        for n in ast.walk(tree):
            if isinstance(n, ast.Name):
                refs.append((mod, n.id, n.lineno, False))
            elif isinstance(n, ast.Attribute):
                refs.append((mod, n.attr, n.lineno, True))
    dead = []
    for mod, qualname, node in defs:
        name = qualname.rsplit(".", 1)[-1]
        method = "." in qualname
        if not any(r == name and (attr or not method)
                   and not (m == mod and node.lineno <= line <= node.end_lineno)
                   for m, r, line, attr in refs):
            dead.append(f"{mod}.{qualname}")
    return dead


def test_detector_finds_a_dead_definition():
    sources = {
        "a": ("def used():\n    return 1\n"
              "def dead():\n    return dead()\n"
              "class K:\n    def __init__(self):\n        pass\n"
              "    def m(self):\n        return self.m()\n"
              "    def n(self):\n        return 0\n"
              "    def parts(self):\n        return 0\n"),
        "b": ("from .a import used, K\nprint(used(), K().n)\n"
              "def f():\n    parts = [1]\n    return parts\nf()\n"),
    }
    assert dead_definitions(sources) == ["a.dead", "a.K.m", "a.K.parts"]


def test_no_dead_definitions():
    # a re-export in __init__.py is not a use
    sources = {p.stem: p.read_text(encoding="utf-8")
               for p in SRC.glob("*.py") if p.name != "__init__.py"}
    assert dead_definitions(sources) == []


SPARSE_SOLVERS = {"splu", "spilu", "spsolve", "factorized"}


def named_calls(source, names):
    """(enclosing definition, callee) of every call of one of names.

    A call counts when its callee is a name or attribute in names; the
    enclosing definition is the dotted path of the classes and functions
    around it, "" at module level.
    """
    calls = []

    def visit(node, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{path}.{child.name}".lstrip("."))
                continue
            if isinstance(child, ast.Call):
                f = child.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if name in names:
                    calls.append((path, name))
            visit(child, path)

    visit(ast.parse(source), "")
    return calls


def test_detector_finds_sparse_solver_calls():
    source = ("import scipy.sparse.linalg as spla\n"
              "from scipy.sparse.linalg import spsolve\n"
              "x = spsolve(A, b)\n"
              "class F:\n    def __init__(self, A):\n"
              "        self.lu = spla.splu(A, relax=1)\n"
              "def g(A):\n    return spla.factorized(A), spla.eigsh(A)\n")
    assert named_calls(source, SPARSE_SOLVERS) == [
        ("", "spsolve"), ("F.__init__", "splu"), ("g", "factorized")]


@pytest.mark.parametrize("module", MODULES)
def test_only_factorization_calls_a_sparse_solver(module):
    # every factorization then gets the ordering and SuperLU options of
    # fem.Factorization
    calls = named_calls((SRC / module).read_text(encoding="utf-8"), SPARSE_SOLVERS)
    want = [("Factorization.__init__", "splu")] if module == "fem.py" else []
    assert calls == want


#: the quadrature sweep and the element kernels of a hand-written assembly loop
ASSEMBLY_LOOP = {"sweep", "local_vector", "local_matrix"}


def test_detector_finds_assembly_loop_calls():
    source = ("from . import kernels\nfrom .fem import sweep\n"
              "def f(mesh, space):\n"
              "    for ctx in sweep(mesh, spaces=(space,)):\n"
              "        kernels.local_vector(ctx.wdet, *ctx.basis(space), ctx.inv_h,\n"
              "                             kernels.cell_integrals(ctx.wdet, 1), None)\n")
    assert named_calls(source, ASSEMBLY_LOOP) == [("f", "sweep"), ("f", "local_vector")]


@pytest.mark.parametrize("module", MODULES)
def test_only_fem_assemblers_loop_over_quadrature_chunks(module):
    # a form goes through assemble_matrix, assemble_vector or integrate,
    # which sweep the chunks, check the fields and scatter in one order
    calls = named_calls((SRC / module).read_text(encoding="utf-8"), ASSEMBLY_LOOP)
    want = [("assemble_matrix", "sweep"), ("assemble_matrix", "local_matrix"),
            ("assemble_vector", "sweep"), ("assemble_vector", "local_vector"),
            ("integrate", "sweep")] if module == "fem.py" else []
    assert calls == want


def test_importing_the_driver_starts_no_subprocess():
    # a library lookup such as ctypes.util.find_library runs ldconfig or a
    # compiler at import, which every fresh start would pay for
    code = ("import subprocess\n"
            "def refuse(*args, **kwargs):\n"
            "    raise AssertionError(f'subprocess started: {args[:1]}')\n"
            "subprocess.Popen = refuse\n"
            "import dwropt.driver\n")
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
