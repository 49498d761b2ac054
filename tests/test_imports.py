"""Unused-import check for the library, on the standard library's `ast`.

No linter ships with the project's dependencies, so this test stands in for
one rule: every name a library module imports must be used in that module.
`__init__.py` is skipped, since its imports are the package's re-exports.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "mmreg"


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


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py"))
def test_no_unused_imports(path):
    assert unused_imports((SRC / path).read_text()) == []


def test_check_finds_an_unused_import():
    assert unused_imports("import os\nimport sys\nfrom a import b as c\nsys.exit()\n") == [
        (1, "os"), (3, "c")]
