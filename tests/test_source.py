import ast
from pathlib import Path

import normgrowth

SOURCES = sorted(Path(normgrowth.__file__).parent.glob("*.py"))
TREES = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}


def test_no_assert_statements():
    """Guarantees raise typed errors; `python -O` would strip an assert."""
    found = [
        f"{name}:{node.lineno}"
        for name, tree in TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES and not found


def _tolerance_aliases(tree):
    """Local names bound to the tolerances module or to a value from it."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").rpartition(".")[2]
            for alias in node.names:
                if module == "tolerances" or alias.name == "tolerances":
                    names.add(alias.asname or alias.name)
    return names


def test_no_tolerance_defaults():
    """A default is bound at def time, so a --tolerance override never reaches it."""
    found = []
    for name, tree in TREES.items():
        aliases = _tolerance_aliases(tree)
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            defaults = node.args.defaults + [d for d in node.args.kw_defaults if d]
            found += [
                f"{name}:{d.lineno}"
                for d in defaults
                if any(
                    isinstance(sub, ast.Name) and sub.id in aliases
                    for sub in ast.walk(d)
                )
            ]
    assert not found
