"""Checks on the source text itself."""

import ast
from pathlib import Path

import tropgw

SRC = Path(tropgw.__file__).parent


def test_source_has_no_assert_statements():
    # python -O strips asserts, so a check must raise a typed error instead
    found = [f"{p.name}:{node.lineno}" for p in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(p.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []
