import ast
from pathlib import Path

import normgrowth

SOURCES = sorted(Path(normgrowth.__file__).parent.glob("*.py"))


def test_no_assert_statements():
    """Guarantees raise typed errors; `python -O` would strip an assert."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES and not found
