import ast
from pathlib import Path

import pytest

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


def test_tolerances_imported_by_name():
    """Tolerances travel as one frozen `Tolerances` value, never as module state.

    No module imports the tolerances module itself, or any name from it but
    `DEFAULT` and `Tolerances`, so none can read or write a tolerance as a
    module attribute; and no module calls `setattr`, which could.
    """
    found = []
    for name, tree in TREES.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                found += [
                    f"{name}:{node.lineno}"
                    for alias in node.names
                    if alias.name.rpartition(".")[2] == "tolerances"
                ]
            elif isinstance(node, ast.ImportFrom):
                module = (node.module or "").rpartition(".")[2]
                found += [
                    f"{name}:{node.lineno}"
                    for alias in node.names
                    if alias.name == "tolerances"
                    or (module == "tolerances" and alias.name not in {"DEFAULT", "Tolerances"})
                ]
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                if node.func.id == "setattr":
                    found.append(f"{name}:{node.lineno}")
    assert SOURCES and not found


def test_no_unused_imports():
    """Every imported name is used; `__init__.py` re-exports, so it is exempt."""
    found = []
    for name, tree in TREES.items():
        if name == "__init__.py":
            continue
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    local = (alias.asname or alias.name).partition(".")[0]
                    if local != "annotations":
                        imported[local] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [f"{name}:{line} {local}" for local, line in imported.items() if local not in used]
    assert not found


def test_all_exports_resolve():
    """`__all__` names only what exists and every public name `__init__.py` imports.

    `__init__.py` is exempt from the unused-import lint, so a deleted function
    would otherwise leave a dangling export behind.
    """
    missing = [name for name in normgrowth.__all__ if not hasattr(normgrowth, name)]
    imported = {
        alias.asname or alias.name
        for node in ast.walk(TREES["__init__.py"])
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    unlisted = sorted(
        name for name in imported - set(normgrowth.__all__) if not name.startswith("_")
    )
    assert not missing and not unlisted


def _reached_functions(module: str, name: str) -> dict:
    """Every package function that `module.name` calls, directly or through others.

    Calls are followed by name: to a function defined in the same module, to
    one imported from a sibling module, and from `obj.attr(...)` to every
    method named `attr` of a package class.  Returns {(module, name): node},
    with methods named `Class.method`.
    """
    defs = {
        (mod, node.name): node
        for mod, tree in TREES.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
    }
    methods = {}
    for mod, tree in TREES.items():
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef):
                for node in cls.body:
                    if isinstance(node, ast.FunctionDef):
                        key = (mod, f"{cls.name}.{node.name}")
                        defs[key] = node
                        methods.setdefault(node.name, []).append(key)
    imports = {
        (mod, alias.asname or alias.name): (f"{node.module}.py", alias.name)
        for mod, tree in TREES.items()
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
        for alias in node.names
    }
    reached, todo = {}, [(module, name)]
    while todo:
        key = todo.pop()
        if key in reached or key not in defs:
            continue
        reached[key] = defs[key]
        for node in ast.walk(defs[key]):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                local = (key[0], node.func.id)
                todo.append(local if local in defs else imports.get(local, local))
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                todo += methods.get(node.func.attr, [])
    return reached


def _naming(reached: dict, names: set) -> list:
    """`module:function` for each reached function that names one of `names`."""
    return [
        f"{mod}:{name}"
        for (mod, name), fn in reached.items()
        for node in ast.walk(fn)
        if (isinstance(node, ast.Name) and node.id in names)
        or (isinstance(node, ast.Attribute) and node.attr in names)
    ]


def test_frobenius_oracle_counts_on_the_elements():
    """The oracle checks the class tensor, so it must not count with it."""
    reached = _reached_functions("growth.py", "frobenius_oracle_report")
    oracle = reached[("growth.py", "frobenius_oracle_report")]
    calls = {
        node.func.id
        for node in ast.walk(oracle)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }
    assert "pair_count" in calls
    tensor_names = {"class_pair_counts", "class_tensor", "class_mult_tensor", "tensor"}
    assert not _naming(reached, tensor_names)


CHARACTER_NAMES = {
    "lambda_normal",
    "eigenvalues_normal",
    "class_tensor",
    "class_mult_tensor",
    "frobenius_tensor",
    "burnside_dixon_numeric",
    "tensor",
}


@pytest.mark.parametrize("name", ["lambda_direct", "deflated_lambda"])
def test_element_lambda_never_reads_the_characters(name):
    """The element route to lambda is checked against the character route.

    So nothing it reaches may use the character table or the class tensor;
    the cyclic-subgroup blocks of `deflated_lambda` and the translates of
    Lanczos come from the elements' spanning tree.
    """
    reached = _reached_functions("spectral.py", name)
    if name == "lambda_direct":
        assert ("spectral.py", "_lanczos_lambda") in reached
    assert ("permgroup.py", "FiniteGroup.cyclic_cosets") in reached
    assert ("permgroup.py", "FiniteGroup._spanning_tree") in reached
    assert ("permgroup.py", "FiniteGroup._tree_walk") in reached
    assert not _naming(reached, CHARACTER_NAMES)


def test_convolve_rows_never_reads_the_characters():
    """The kernel counts the products that the character bounds are checked on.

    So nothing it reaches may name the character table, the class tensor or
    the table recovery; both of its routes need only element products, the
    translates gathered along a spanning tree whose generator tables come
    from `mul`.
    """
    reached = _reached_functions("spectral.py", "convolve_rows")
    assert ("spectral.py", "walk_matrix") in reached
    assert ("permgroup.py", "FiniteGroup.division_table") in reached
    assert ("permgroup.py", "FiniteGroup.left_translates") in reached
    assert ("permgroup.py", "FiniteGroup.right_translates") in reached
    assert ("permgroup.py", "FiniteGroup._spanning_tree") in reached
    assert ("permgroup.py", "FiniteGroup.mul") in reached
    table_names = CHARACTER_NAMES | {"CharacterTable", "compute_character_table"}
    assert not _naming(reached, table_names)


# every normal x normal product, single check or sweep
TENSOR_ROUTED = [
    "dichotomy_check",
    "sweep_gowers2",
    "sweep_asymp",
    "sweep_dichotomy",
    "square_growth_survey",
    "pyber_report",
    "word_growth_report",
]


def test_one_count_on_the_class_tensor():
    """Only `class_pair_counts` reads the tensor, and it recounts on the elements itself.

    The recount has two halves, `pair_count` at the representatives and the
    classes met by r_i*B (`_classes_met`).  The second rests on the class
    partition, so the call certifies it; `product_set`, |A||B| products per
    pair, stays out of the recount.
    """
    functions = {
        node.name: node for node in ast.walk(TREES["growth.py"]) if isinstance(node, ast.FunctionDef)
    }
    naming = [
        name
        for name, fn in functions.items()
        if any(isinstance(sub, ast.Name) and sub.id == "class_tensor" for sub in ast.walk(fn))
    ]
    assert naming == ["class_pair_counts"]
    calls = {
        node.func.id
        for node in ast.walk(functions["class_pair_counts"])
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }
    assert {"_recounted", "pair_count", "_classes_met", "certify_classes"} <= calls
    reached = _reached_functions("growth.py", "class_pair_counts")
    assert ("growth.py", "product_set") not in reached


@pytest.mark.parametrize("name", TENSOR_ROUTED)
def test_tensor_routed_checks_count_through_the_recount(name):
    reached = _reached_functions("growth.py", name)
    assert ("growth.py", "class_pair_counts") in reached
    assert ("spectral.py", "_recounted") in reached


def test_checks_take_one_group_context():
    """Every public check that returns a report takes one `ctx` first.

    A group, its class table and its character table are only valid
    together, so no check takes one of them as its own parameter.
    """
    checks = {
        f"{mod}:{node.name}": [a.arg for a in node.args.posonlyargs + node.args.args + node.args.kwonlyargs]
        for mod in ("growth.py", "distributions.py")
        for node in TREES[mod].body
        if isinstance(node, ast.FunctionDef)
        and not node.name.startswith("_")
        and node.returns is not None
        and ast.unparse(node.returns) == "ReportDocument"
    }
    bad = [
        name
        for name, params in checks.items()
        if params[:1] != ["ctx"] or {"group", "ct", "tab"} & set(params)
    ]
    assert len(checks) == 12 and not bad
