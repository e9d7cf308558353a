"""Source rules checked on the syntax tree of every library module."""

import ast
from pathlib import Path

import pytest

import liepar

MODULES = sorted(Path(liepar.__file__).parent.glob("*.py"))

# private name -> the one module that may use it; the others go through
# its public callers (rref / kernel / solve / Subspace for _rref_rows,
# flag_stabilizer / frame_levi for _action_stabilizer, type_of_any /
# base_types for _transport_to_ml, induced_filtration for
# _check_compatibility)
OWNER = {"_rref_rows": "ratmat.py", "_action_stabilizer": "catalog.py",
         "_transport_to_ml": "rootdata.py",
         "_check_compatibility": "liealg.py"}


def tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def outside(name):
    return [p for p in MODULES if p.name != OWNER[name]]


def uses(path, name):
    return [
        n.lineno for n in ast.walk(tree(path))
        if (isinstance(n, ast.alias) and n.name == name)
        or (isinstance(n, ast.Name) and n.id == name)
        or (isinstance(n, ast.Attribute) and n.attr == name)
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # python -O strips asserts, so no invariant may rest on one
    lines = [n.lineno for n in ast.walk(tree(path))
             if isinstance(n, ast.Assert)]
    assert lines == [], "%s: assert at lines %s" % (path.name, lines)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_attribute_probes(path):
    # every attribute is declared where its object is built, so none is
    # probed for or stuck on afterwards
    lines = [n.lineno for n in ast.walk(tree(path))
             if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
             and n.func.id in ("getattr", "hasattr", "setattr")]
    assert lines == [], "%s: attribute probes at lines %s" % (path.name,
                                                              lines)


@pytest.mark.parametrize("path", outside("_rref_rows"), ids=lambda p: p.name)
def test_elimination_only_through_ratmat_calls(path):
    lines = uses(path, "_rref_rows")
    assert lines == [], "%s: _rref_rows at lines %s" % (path.name, lines)


@pytest.mark.parametrize("path", outside("_action_stabilizer"),
                         ids=lambda p: p.name)
def test_stabilizers_only_through_catalog_calls(path):
    lines = uses(path, "_action_stabilizer")
    assert lines == [], "%s: _action_stabilizer at lines %s" % (path.name,
                                                                 lines)


@pytest.mark.parametrize("path", outside("_transport_to_ml"),
                         ids=lambda p: p.name)
def test_base_transport_only_through_rootdata_calls(path):
    lines = uses(path, "_transport_to_ml")
    assert lines == [], "%s: _transport_to_ml at lines %s" % (path.name,
                                                               lines)


@pytest.mark.parametrize("path", outside("_check_compatibility"),
                         ids=lambda p: p.name)
def test_filtration_check_only_through_liealg_calls(path):
    lines = uses(path, "_check_compatibility")
    assert lines == [], "%s: _check_compatibility at lines %s" % (path.name,
                                                                   lines)


def imported_at_load(path):
    """Dotted names imported by the statements that run when the module
    is loaded: its body and class bodies, not function bodies."""
    names = []

    def visit(nodes):
        for n in nodes:
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.Lambda)):
                continue
            if isinstance(n, ast.Import):
                names.extend(a.name for a in n.names)
            elif isinstance(n, ast.ImportFrom):
                prefix = n.module + "." if n.module else ""
                names.extend(prefix + a.name for a in n.names)
            else:
                visit(ast.iter_child_nodes(n))

    visit(tree(path).body)
    return names


def test_catalog_loads_neither_building_nor_rootdata():
    # `liepar make` and `liepar check` never use them; a cold process
    # should not pay for importing them
    path = Path(liepar.__file__).parent / "catalog.py"
    eager = [name for name in imported_at_load(path)
             if {"building", "rootdata"} & set(name.split("."))]
    assert eager == [], "catalog.py imports %s at load" % eager
