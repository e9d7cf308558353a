"""Source rules checked on the syntax tree of every library module."""

import ast
import sys
from pathlib import Path

import pytest

import liepar

MODULES = sorted(Path(liepar.__file__).parent.glob("*.py"))
TESTS = sorted(Path(__file__).parent.glob("*.py"))
TRACING = Path(liepar.__file__).parents[2] / "perfbench" / "tracing.py"

# name -> the one module that may use it; the others go through its
# public callers (rref / kernel / solve / Subspace for _rref_rows,
# flag_stabilizer / frame_levi for _action_stabilizer, type_of_any /
# quotient_simple_system / apartment_word for levi_transport,
# induced_filtration for _check_compatibility, weyl_word /
# standardize_type / apartment_word / quotient_simple_system for
# _descend)
OWNER = {"_rref_rows": "ratmat.py", "_action_stabilizer": "catalog.py",
         "levi_transport": "rootdata.py",
         "_check_compatibility": "liealg.py", "_descend": "rootdata.py"}


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


@pytest.mark.parametrize("path", outside("levi_transport"),
                         ids=lambda p: p.name)
def test_base_transport_only_through_rootdata_calls(path):
    lines = uses(path, "levi_transport")
    assert lines == [], "%s: levi_transport at lines %s" % (path.name,
                                                             lines)


@pytest.mark.parametrize("path", outside("_check_compatibility"),
                         ids=lambda p: p.name)
def test_filtration_check_only_through_liealg_calls(path):
    lines = uses(path, "_check_compatibility")
    assert lines == [], "%s: _check_compatibility at lines %s" % (path.name,
                                                                   lines)


@pytest.mark.parametrize("path", outside("_descend"), ids=lambda p: p.name)
def test_weyl_descent_only_through_rootdata_calls(path):
    lines = uses(path, "_descend")
    assert lines == [], "%s: _descend at lines %s" % (path.name, lines)


def calls_of(node, name):
    """Lines of the calls of ``name`` (bare or as an attribute) under
    node."""
    return [n.lineno for n in ast.walk(node) if isinstance(n, ast.Call)
            and (isinstance(n.func, ast.Name) and n.func.id == name
                 or isinstance(n.func, ast.Attribute)
                 and n.func.attr == name)]


def called_only_in(owner, name):
    """(module, line) of every library call of ``name``, and of those
    inside parabolic.py's function ``owner``."""
    (fn,) = [n for path in MODULES if path.name == "parabolic.py"
             for n in tree(path).body if isinstance(n, ast.FunctionDef)
             and n.name == owner]
    return ([(path.name, line) for path in MODULES
             for line in calls_of(tree(path), name)],
            [("parabolic.py", line) for line in calls_of(fn, name)])


def test_parabolic_data_is_built_only_by_make_parabolic():
    # a ParabolicData's filtration trusts what is_parabolic proved, so
    # every one must come from make_parabolic
    built, inside = called_only_in("make_parabolic", "ParabolicData")
    assert built == inside != []


def test_centralizers_are_taken_only_by_common_levi():
    # the joint centralizer of two grading lifts is formed once, by
    # common_levi, which returns it with the lifts that define it
    taken, inside = called_only_in("common_levi", "centralizer_element")
    assert taken == inside != []


def test_config_reads_centers_through_rootdata():
    # a center's quotient simple system and iota come from
    # rootdata.quotient_simple_system; config lifts nothing itself
    module = tree(Path(liepar.__file__).parent / "config.py")
    lines = calls_of(module, "grading_lift") + calls_of(module, "common_levi")
    assert lines == [], "config.py: lifts at lines %s" % lines


def test_traced_names_resolve():
    # the benchmark's tracer wraps these names after importing the three
    # modules below; a deleted one would break only a traced run
    import liepar.catalog  # noqa: F401
    import liepar.cli  # noqa: F401
    import liepar.config  # noqa: F401

    (targets,) = [n.value for n in tree(TRACING).body
                  if isinstance(n, ast.Assign)
                  and [t.id for t in n.targets] == ["TARGETS"]]
    missing = []
    for _, _, module, attr in ast.literal_eval(targets):
        owner = vars(sys.modules[module]) if module in sys.modules else {}
        cls, _, method = attr.partition(".")
        if cls not in owner or method and method not in vars(owner[cls]):
            missing.append("%s.%s" % (module, attr))
    assert missing == [], "traced names missing: %s" % missing


def private_definitions(paths):
    """(module, line, name) of every single-underscore function, method
    or class defined in the given modules, and the set of names they
    read: AST names, attributes and import aliases."""
    defined, named = [], set()
    for path in paths:
        for n in ast.walk(tree(path)):
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
                if n.name.startswith("_") and not n.name.startswith("__"):
                    defined.append((path.name, n.lineno, n.name))
            elif isinstance(n, ast.Name):
                named.add(n.id)
            elif isinstance(n, ast.Attribute):
                named.add(n.attr)
            elif isinstance(n, ast.alias):
                named.add(n.name)
    return defined, named


def test_no_unreferenced_private_helpers():
    # a private helper is reachable only through the library itself, so
    # one that no library code names is dead
    defined, named = private_definitions(MODULES)
    assert defined
    unreferenced = [d for d in defined if d[2] not in named]
    assert unreferenced == [], "unreferenced private helpers: %s" % (
        unreferenced,)


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


def unused_imports(path):
    """Names a module imports and never reads; a name listed in its
    __all__ counts as read."""
    module = tree(path)
    bound = {}
    for n in ast.walk(module):
        if isinstance(n, ast.Import) or isinstance(n, ast.ImportFrom) \
                and n.module != "__future__":
            for a in n.names:
                name = a.asname or a.name.split(".")[0]
                bound.setdefault(name, n.lineno)
    read = {n.id for n in ast.walk(module) if isinstance(n, ast.Name)}
    for n in module.body:
        if isinstance(n, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in n.targets):
            read |= set(ast.literal_eval(n.value))
    return sorted((line, name) for name, line in bound.items()
                  if name not in read)


@pytest.mark.parametrize("path", MODULES + TESTS,
                         ids=lambda p: "%s/%s" % (p.parent.name, p.name))
def test_no_unused_imports(path):
    unused = unused_imports(path)
    assert unused == [], "%s: unused imports %s" % (path.name, unused)
