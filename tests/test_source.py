"""Guards over the package source itself."""

import ast
import re
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


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def test_every_module_level_name_and_method_is_used_in_the_package():
    # a helper or a method that only tests call belongs in the tests; the
    # references inside a definition's own body (recursion) do not count, and
    # dunder methods are called by Python itself
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.glob("*.py"))}
    defined, named = [], []
    for module, tree in trees.items():
        for top in tree.body:
            if isinstance(top, DEFINITIONS):
                defined.append((module, top.name, top))
            if isinstance(top, ast.ClassDef):
                defined += [(module, f"{top.name}.{item.name}", item) for item in top.body
                            if isinstance(item, DEFINITIONS)
                            and not re.fullmatch("__.*__", item.name)]
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    named.append((node.id, node))
                elif isinstance(node, ast.Attribute):
                    named.append((node.attr, node))
                elif isinstance(node, ast.alias):
                    named.append((node.name, node))
    unused = []
    for module, name, definition in defined:
        own = {id(node) for node in ast.walk(definition)}
        short = name.rpartition(".")[2]
        if not any(n == short and id(where) not in own for n, where in named):
            unused.append(f"{module}:{name}")
    assert unused == []
