import ast
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import srdual
from srdual import (GlueSpec, append_facet_chain, build, cone, enumerate_mu,
                    expected_diameter, glue)
from srdual.errors import BadParams
from srdual.families import FamilyId


def test_no_assert_statements_in_the_library():
    # python -O strips assert statements, so contracts must raise
    # SrdualError subclasses instead
    root = Path(srdual.__file__).parent
    paths = sorted(root.rglob("*.py"))
    assert len(paths) >= 10  # the whole package was walked
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += ["%s:%d" % (path.relative_to(root), node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_the_library_parses_at_the_declared_python_floor():
    # syntax only: a call to an API added after the floor still passes
    root = Path(srdual.__file__).parent
    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    major, minor = map(int, re.search(r'requires-python = ">=(\d+)\.(\d+)"',
                                      pyproject).groups())
    paths = sorted(root.rglob("*.py"))
    assert len(paths) >= 10
    for path in paths:
        ast.parse(path.read_text(), filename=str(path),
                  feature_version=(major, minor))


def _raised_names(tree):
    """Names of the exceptions a module's `raise` statements raise."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
    return names


def test_every_error_type_is_raised_by_the_library():
    # an SrdualError subclass nothing raises is dead public surface
    root = Path(srdual.__file__).parent
    errors = ast.parse((root / "errors.py").read_text())
    defined = [node.name for node in errors.body
               if isinstance(node, ast.ClassDef) and node.name != "SrdualError"]
    assert len(defined) >= 10
    raised = set()
    for path in sorted(root.rglob("*.py")):
        raised |= _raised_names(ast.parse(path.read_text(), filename=str(path)))
    assert [name for name in defined if name not in raised] == []


def _reads(tree):
    """How often a tree reads each name, as a variable or an attribute."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute)
                   or isinstance(node, ast.Name)
                   and isinstance(node.ctx, ast.Load))


def _private_definitions(tree):
    """(name, node) of each private module-level function, class or
    constant; node is the definition of a function or class, else None."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found = [(node.name, node)]
        else:
            targets = getattr(node, "targets", [getattr(node, "target", None)])
            found = [(t.id, None) for t in targets if isinstance(t, ast.Name)]
        yield from ((name, definition) for name, definition in found
                    if name.startswith("_") and not name.startswith("__"))


def test_no_unread_imports_or_private_names():
    # an import its module never reads, or a private module-level name
    # that no module reads outside its own definition, is dead code;
    # __init__ imports to re-export
    root = Path(srdual.__file__).parent
    trees = {path.relative_to(root): ast.parse(path.read_text(),
                                               filename=str(path))
             for path in sorted(root.rglob("*.py"))}
    assert len(trees) >= 10
    reads = sum(map(_reads, trees.values()), Counter())
    dead = []
    for path, tree in trees.items():
        own = _reads(tree)
        for node in ast.walk(tree):
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and path.name != "__init__.py"
                    and getattr(node, "module", None) != "__future__"):
                dead += ["%s imports %s" % (path, name) for name in
                         ((a.asname or a.name).split(".")[0]
                          for a in node.names) if not own[name]]
        for name, definition in _private_definitions(tree):
            if reads[name] == (definition and _reads(definition)[name] or 0):
                dead.append("%s defines %s" % (path, name))
    assert dead == []


_FIG = build(FamilyId("fig_a2"), check=False)
_SELF_GLUE = {1: 1, 2: 2, 3: 3}


# integer parameters must be ints, not bools, and a search budget a
# SearchBudget: anything else, a float equal to an int included, raises
# BadParams
@pytest.mark.parametrize("call", [
    pytest.param(lambda: glue(GlueSpec(_FIG, _FIG, _SELF_GLUE, level=2.5)),
                 id="glue-level-2.5"),
    pytest.param(lambda: glue(GlueSpec(_FIG, _FIG, _SELF_GLUE, level="2")),
                 id="glue-level-str"),
    pytest.param(lambda: glue(GlueSpec(_FIG, _FIG, _SELF_GLUE, level=None)),
                 id="glue-level-None"),
    pytest.param(lambda: glue(GlueSpec(_FIG, _FIG, {True: 1, 2: 2, 3: 3})),
                 id="identify-key-True"),
    pytest.param(lambda: glue(GlueSpec(_FIG, _FIG, {1.0: 1, 2: 2, 3: 3})),
                 id="identify-key-1.0"),
    pytest.param(lambda: glue(GlueSpec(_FIG, _FIG, {"1": 1, 2: 2, 3: 3})),
                 id="identify-key-str"),
    pytest.param(lambda: glue(GlueSpec(_FIG, _FIG, {1: True, 2: 2, 3: 3})),
                 id="identify-value-True"),
    pytest.param(lambda: glue(GlueSpec(_FIG, _FIG, {1: 1.0, 2: 2, 3: 3})),
                 id="identify-value-1.0"),
    pytest.param(lambda: glue(GlueSpec(_FIG, _FIG, {1: "1", 2: 2, 3: 3})),
                 id="identify-value-str"),
    pytest.param(lambda: expected_diameter(FamilyId("glued_d4", k=1.5, j=0)),
                 id="expected_diameter-glued_d4-k-1.5"),
    pytest.param(lambda: build(FamilyId("glued_d4", k=1.5, j=0)),
                 id="build-glued_d4-k-1.5"),
    pytest.param(lambda: expected_diameter(FamilyId("path2", n=4.0)),
                 id="path2-n-4.0"),
    pytest.param(lambda: build(FamilyId("glued_d3", k=True, j=0)),
                 id="glued_d3-k-True"),
    pytest.param(lambda: build(FamilyId("glued_d3_g0", k=1, j=4.0)),
                 id="glued_d3_g0-j-4.0"),
    pytest.param(lambda: build(FamilyId("table1_witness", d=3.0, n=7)),
                 id="table1_witness-d-3.0"),
    pytest.param(lambda: cone(_FIG, True), id="cone-True"),
    pytest.param(lambda: cone(_FIG, 1.5), id="cone-1.5"),
    pytest.param(lambda: append_facet_chain(_FIG, _FIG.facets[0], True),
                 id="chain-True"),
    pytest.param(lambda: append_facet_chain(_FIG, _FIG.facets[0], 1.5),
                 id="chain-1.5"),
    pytest.param(lambda: enumerate_mu(2, 5, budget=0), id="budget-0"),
    pytest.param(lambda: enumerate_mu(2, 5, budget=5), id="budget-5"),
    pytest.param(lambda: enumerate_mu(2, 5, budget={"max_nodes": 5}),
                 id="budget-dict"),
])
def test_mistyped_parameters_raise_bad_params(call):
    with pytest.raises(BadParams):
        call()


def test_benchmark_selftest_passes():
    # the benchmark imports public names of srdual; its self-test catches
    # a renamed one before a benchmark run does
    root = Path(__file__).parents[1]
    proc = subprocess.run([sys.executable, "bench/selftest.py"], cwd=root,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stdout + proc.stderr
