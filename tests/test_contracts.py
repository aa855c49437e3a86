import ast
from pathlib import Path

import srdual


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
