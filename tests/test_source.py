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
