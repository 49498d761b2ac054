"""Dead-code checks for the library, on the standard library's `ast`.

No linter ships with the project's dependencies, so these tests stand in for
six rules:

* every name a library module imports must be used in that module;
* every public top-level function or class of a library module must be
  referenced by other library code or by the benchmark (`bench/`);
* every public method or property of a library class must be read as an
  attribute by library or benchmark code;
* every private top-level function, class or constant of a library module,
  and every private method of its classes, must be read in that module
  (dunders such as `__init__` or `__version__` are exempt);
* no library module reads a private name of another library module, by
  importing it or as an attribute of an imported module;
* every local name a library function stores must be read in that function
  or in one nested in it (`_` is exempt).

Three last checks keep imports off paths that do not need them:
`scipy.optimize` stays out of training, whose QP solver is numpy only, and
the process pool and `scipy.ndimage` stay out of `import mmreg.cli`, which
every command pays for. Only `evaluate` with `threads` > 1 loads the pool,
and Gaussian smoothing is numpy only.

`__init__.py` is skipped by the first three, since its imports are the
package's re-exports and do not count as uses.
"""

import ast
import collections
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "mmreg"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def unreferenced_definitions(library, users):
    """(module, name) of each public top-level function or class in the
    `library` sources ({module: source}) that no other top-level statement
    of the library or of the `users` sources names; a definition's uses of
    its own name (recursion) do not count."""
    defined = []
    refs = {}                     # name -> ids of the top-level statements using it
    for module, source in list(library.items()) + list(users.items()):
        for k, stmt in enumerate(ast.parse(source).body):
            if module in library and isinstance(
                    stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("_"):
                defined.append((module, stmt.name, (module, k)))
            for node in ast.walk(stmt):
                name = (node.id if isinstance(node, ast.Name)
                        else node.attr if isinstance(node, ast.Attribute) else None)
                if name is not None:
                    refs.setdefault(name, set()).add((module, k))
    return sorted((module, name) for module, name, own in defined
                  if not refs.get(name, set()) - {own})


def unreferenced_members(library, users):
    """(module, "Class.name") of each public method or property of a
    top-level class in the `library` sources that no attribute read
    (`x.name`) in the library or the `users` sources names; reads inside
    the member's own body (recursion) do not count."""
    trees = {module: ast.parse(source)
             for module, source in list(library.items()) + list(users.items())}
    reads = collections.Counter(node.attr for tree in trees.values() for node in ast.walk(tree)
                                if isinstance(node, ast.Attribute))
    dead = []
    for module in library:
        for cls in trees[module].body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for member in cls.body:
                if not isinstance(member, ast.FunctionDef) or member.name.startswith("_"):
                    continue
                own = sum(isinstance(node, ast.Attribute) and node.attr == member.name
                          for node in ast.walk(member))
                if reads[member.name] == own:
                    dead.append((module, f"{cls.name}.{member.name}"))
    return sorted(dead)


def _reads(node):
    """How often each name is read under `node`, as a name or an attribute."""
    return collections.Counter(
        n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load))


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def unread_private_names(source):
    """Each private top-level function, class or constant of `source`, and
    each private method of its top-level classes ("Class.name"), that the
    module reads nowhere outside the definition itself (recursion does not
    count)."""
    tree = ast.parse(source)
    defined = []                  # (label, name, defining statement)
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            defined.append((stmt.name, stmt.name, stmt))
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            for target in stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]:
                defined += [(n.id, n.id, stmt) for n in ast.walk(target)
                            if isinstance(n, ast.Name)]
        if isinstance(stmt, ast.ClassDef):
            defined += [(f"{stmt.name}.{m.name}", m.name, m) for m in stmt.body
                        if isinstance(m, ast.FunctionDef)]
    reads = _reads(tree)
    return sorted(label for label, name, node in defined
                  if _private(name) and reads[name] == _reads(node)[name])


@pytest.mark.parametrize("path", MODULES + ["__init__.py"])
def test_every_private_name_is_read(path):
    assert unread_private_names((SRC / path).read_text()) == []


def test_check_finds_an_unread_private_name():
    source = ("__version__ = '1'\n_USED, _LEFTOVER = 1, 2\n_ALONE: int = 3\n\n"
              "def _helper(n):\n    return _helper(n - 1) + _USED\n\n"
              "def _dead(n):\n    return _dead(n - 1)\n\n"
              "class _Net:\n    def __init__(self):\n        self._x = 0\n\n"
              "    def _half(self):\n        return self._x\n\n"
              "    def _stale(self):\n        return self._stale()\n\n"
              "    def run(self):\n        return self._half()\n\n"
              "def solve():\n    return _Net().run(), _helper(1)\n")
    assert unread_private_names(source) == [
        "_ALONE", "_LEFTOVER", "_Net._stale", "_dead"]


def foreign_private_reads(source):
    """(line, "module.name") of each private name of another library module
    that `source` reads: imported by name (`from .volume import _x`) or as
    an attribute of a module it imports (`from . import volume as vo`, then
    `vo._x`)."""
    tree = ast.parse(source)
    modules = {}                  # local name -> the library module it binds
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    modules[alias.asname or alias.name] = alias.name
                elif _private(alias.name):
                    found.append((node.lineno, f"{node.module}.{alias.name}"))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _private(node.attr)):
            found.append((node.lineno, f"{modules[node.value.id]}.{node.attr}"))
    return sorted(found)


@pytest.mark.parametrize("path", MODULES + ["__init__.py"])
def test_no_private_name_of_another_module_is_read(path):
    assert foreign_private_reads((SRC / path).read_text()) == []


def test_check_finds_a_foreign_private_read():
    source = ("import numpy as np\nfrom . import volume as vo, metrics\n"
              "from .graphreg import solve, _ExpansionNetwork\n\n"
              "def f(x):\n    y = vo.warp(x) + np._pi + x._cache\n"
              "    return y + vo._CHUNK + metrics._scale(x) + vo.__name__\n")
    assert foreign_private_reads(source) == [
        (3, "graphreg._ExpansionNetwork"), (7, "metrics._scale"), (7, "volume._CHUNK")]


def _own_nodes(func):
    """The nodes of a function, without those of the functions nested in it."""
    todo = list(ast.iter_child_nodes(func))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            todo.extend(ast.iter_child_nodes(node))


def unread_locals(source):
    """(line, function, name) of each name that a function of `source`
    stores and that neither it nor a function nested in it reads; an
    augmented assignment (`x += y`) reads its target, and `_` is exempt."""
    dead = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        read = {"_"} | {node.id for node in ast.walk(func) if isinstance(node, ast.Name)
                        and isinstance(node.ctx, ast.Load)}
        read |= {node.target.id for node in ast.walk(func) if isinstance(node, ast.AugAssign)
                 and isinstance(node.target, ast.Name)}
        stored = {}
        for node in _own_nodes(func):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                stored.setdefault(node.id, node.lineno)
        dead += [(line, func.name, name) for name, line in stored.items() if name not in read]
    return sorted(dead)


@pytest.mark.parametrize("path", MODULES)
def test_every_local_is_read(path):
    assert unread_locals((SRC / path).read_text()) == []


def test_check_finds_an_unread_local():
    source = ("def shape(a):\n    V, L, n = a.shape\n    for i, _ in enumerate(a):\n"
              "        pass\n    return V * L\n\n"
              "def outer(x):\n    seen = x\n    view = x[1:]\n    view += 1\n\n"
              "    def inner():\n        left = 2\n        return seen\n    return inner\n")
    assert unread_locals(source) == [(2, "shape", "n"), (3, "shape", "i"), (13, "inner", "left")]


@pytest.mark.parametrize("path", MODULES)
def test_no_unused_imports(path):
    assert unused_imports((SRC / path).read_text()) == []


def test_check_finds_an_unused_import():
    assert unused_imports("import os\nimport sys\nfrom a import b as c\nsys.exit()\n") == [
        (1, "os"), (3, "c")]


def library_and_bench():
    """({module: source} of the library, {path: source} of `bench/`)."""
    library = {name: (SRC / name).read_text() for name in MODULES}
    bench = {f"bench/{p.name}": p.read_text() for p in sorted((ROOT / "bench").glob("*.py"))}
    return library, bench


def test_every_public_definition_is_referenced():
    assert unreferenced_definitions(*library_and_bench()) == []


def test_every_public_member_is_read():
    assert unreferenced_members(*library_and_bench()) == []


def test_check_finds_an_unread_member():
    library = {
        "a.py": "class A:\n    def __init__(self):\n        pass\n\n"
                "    def used(self):\n        return self\n\n"
                "    def dead(self, n):\n        return self.dead(n - 1)\n\n"
                "    @property\n    def size(self):\n        return 1\n\n"
                "    @property\n    def unread(self):\n        return 2\n\n"
                "    def _private(self):\n        pass\n",
        "b.py": "def caller(a):\n    return a.used()\n",
    }
    bench = {"run.py": "import a\nprint(a.A().size)\n"}
    assert unreferenced_members(library, bench) == [("a.py", "A.dead"), ("a.py", "A.unread")]


def test_check_finds_an_unreferenced_definition():
    library = {
        "a.py": "def used():\n    pass\n\ndef dead(n):\n    return dead(n - 1)\n\n"
                "class _Private:\n    pass\n\nclass Called:\n    pass\n",
        "b.py": "from a import dead\n\ndef caller():\n    return used()\n",
    }
    bench = {"run.py": "import a\na.Called()\n"}
    assert unreferenced_definitions(library, bench) == [("a.py", "dead"), ("b.py", "caller")]


def test_training_leaves_scipy_optimize_unloaded():
    code = """
import sys
from mmreg import learn
from mmreg.graphreg import PyramidConfig
from mmreg.synth import SynthSpec, synth_dataset
spec = SynthSpec(dims=(24, 24, 20), spacing_mm=(2.0, 2.0, 2.0), n_pairs=1,
                 organ_radii_mm=(8.0,), organ_centers_frac=((0.5, 0.5, 0.5),))
p = synth_dataset(spec, 21)[0]
cfg = learn.TrainConfig(max_cccp=1)
calls = []
solve_qp = learn.solve_qp
learn.solve_qp = lambda *args: calls.append(args) or solve_qp(*args)
schedule = PyramidConfig(finest_spacing_mm=14.0, labels_per_level=27)
tables = learn.pair_tables(p.source, p.target, schedule, None)
learn.train_class([learn.prepare_sample(tables, p.source_mask, p.target_mask, 1)], cfg)
print(len(calls) > 0, 'scipy.optimize' in sys.modules)
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(SRC.parent)), check=True)
    assert out.stdout.split() == ["True", "False"]


def test_cli_import_leaves_process_pool_unloaded():
    code = ("import sys, mmreg.cli\n"
            "print('multiprocessing' in sys.modules, 'concurrent.futures.process' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(SRC.parent)), check=True)
    assert out.stdout.split() == ["False", "False"]


def test_cli_import_leaves_scipy_ndimage_unloaded():
    code = "import sys, mmreg.cli\nprint('scipy.ndimage' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(SRC.parent)), check=True)
    assert out.stdout.split() == ["False"]
