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
