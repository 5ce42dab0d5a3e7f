"""Rules on the package source itself."""

import ast
from pathlib import Path

import bethelab


def test_no_assert_statements_in_the_package():
    """Guards must survive `python -O`, which strips assert statements."""
    root = Path(bethelab.__file__).parent
    found = [f"{path.relative_to(root)}:{node.lineno}"
             for path in sorted(root.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []
