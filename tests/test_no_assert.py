"""Runtime invariants must survive ``python -O``: the package raises
explicit errors instead of using ``assert``."""

import ast
import pathlib

import constacyclic

SRC = pathlib.Path(constacyclic.__file__).parent


def test_no_assert_statements_in_package():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"assert statements in the package: {found}"
