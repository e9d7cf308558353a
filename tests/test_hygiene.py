"""Source rules checked on the syntax tree of every library module."""

import ast
from pathlib import Path

import pytest

import liepar

MODULES = sorted(Path(liepar.__file__).parent.glob("*.py"))


def tree(path):
    return ast.parse(path.read_text(), filename=str(path))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # python -O strips asserts, so no invariant may rest on one
    lines = [n.lineno for n in ast.walk(tree(path))
             if isinstance(n, ast.Assert)]
    assert lines == [], "%s: assert at lines %s" % (path.name, lines)


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "ratmat.py"],
                         ids=lambda p: p.name)
def test_elimination_only_through_ratmat_calls(path):
    # the Gauss-Jordan core stays private to ratmat; other modules go
    # through rref / kernel / solve / Subspace
    uses = [
        n.lineno for n in ast.walk(tree(path))
        if (isinstance(n, ast.alias) and n.name == "_rref_rows")
        or (isinstance(n, ast.Name) and n.id == "_rref_rows")
        or (isinstance(n, ast.Attribute) and n.attr == "_rref_rows")
    ]
    assert uses == [], "%s: _rref_rows at lines %s" % (path.name, uses)
