"""`python -O` strips `assert` statements, so the package keeps none:
its invariants are explicit raises that hold under every flag."""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "nilmod"


def test_the_package_has_no_assert_statements():
    files = sorted(SOURCE.rglob("*.py"))
    assert files
    found = [
        f"{path.relative_to(SOURCE)}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == [], "assert statements vanish under python -O: " + ", ".join(found)
