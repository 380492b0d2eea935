"""Guards over the package source itself."""

import ast
from pathlib import Path

import secure_isac

SRC = Path(secure_isac.__file__).resolve().parent


def test_no_assert_statements_in_package():
    # python -O strips assert statements, so a check written as one vanishes;
    # package checks raise named errors (InvariantError) instead
    files = sorted(SRC.glob("*.py"))
    assert len(files) >= 10
    found = [f"{path.name}:{node.lineno}" for path in files
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_every_module_level_name_is_used_in_the_package():
    # a helper that only tests call belongs in the tests; the references
    # inside a definition's own body (recursion) do not count
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.glob("*.py"))}
    defined, named = [], []
    for module, tree in trees.items():
        for top in tree.body:
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((module, top.name, top))
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    named.append((node.id, top))
                elif isinstance(node, ast.Attribute):
                    named.append((node.attr, top))
                elif isinstance(node, ast.alias):
                    named.append((node.name, top))
    unused = [f"{module}:{name}" for module, name, top in defined
              if not any(n == name and where is not top for n, where in named)]
    assert unused == []
