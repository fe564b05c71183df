import ast
from pathlib import Path

import pytest

import normgrowth
from normgrowth import acceptance

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


@pytest.mark.parametrize("name", ["lambda_direct", "deflated_lambda", "class_characters"])
def test_element_lambda_never_reads_the_characters(name):
    """The element route to lambda is checked against the character route.

    So nothing it reaches may use the character table or the class tensor;
    the build's one class-side input is the partition.  The cyclic-subgroup
    blocks come from left translates along the elements' spanning tree, with
    no right translate table.  The per-set routes
    that the build replaced are gone.
    """
    reached = _reached_functions("spectral.py", name)
    if name != "deflated_lambda":
        assert ("spectral.py", "_build_class_characters") in reached
        assert ("spectral.py", "_class_walks") in reached
        assert ("permgroup.py", "FiniteGroup.coset_positions") in reached
        assert ("permgroup.py", "FiniteGroup.right_translates") not in reached
    assert ("permgroup.py", "FiniteGroup.cyclic_cosets") in reached
    assert ("permgroup.py", "FiniteGroup.left_translates") in reached
    assert ("permgroup.py", "FiniteGroup._tree_walk") in reached
    assert not _naming(reached, CHARACTER_NAMES)
    deleted = {
        "central_spectrum", "_diagonalise_class_blocks", "lambda_route", "_lanczos_lambda",
        "_coset_table", "_coset_walk", "CENTRAL_BUDGET", "CENTRAL_TRIES", "CENTRAL_ULPS",
        "lanczos_tol",
    }
    names = {
        getattr(node, field, None)
        for tree in TREES.values()
        for node in ast.walk(tree)
        for field in ("name", "id", "attr", "target")
    }
    assert not names & deleted


def test_convolve_rows_never_reads_the_characters():
    """The kernel counts the products that the character bounds are checked on.

    So nothing it reaches may name the character table, the class tensor or
    the table recovery; both of its routes need only element products, the
    translates gathered along the spanning tree and generator tables that
    `closure` certified.  Translates resolve no image row, so `mul` is not
    reached.
    """
    reached = _reached_functions("spectral.py", "convolve_rows")
    assert ("spectral.py", "walk_matrix") in reached
    assert ("permgroup.py", "FiniteGroup.division_table") in reached
    assert ("permgroup.py", "FiniteGroup.left_translates") in reached
    assert ("permgroup.py", "FiniteGroup.right_translates") in reached
    assert ("permgroup.py", "FiniteGroup._tree_walk") in reached
    assert ("permgroup.py", "FiniteGroup.mul") not in reached
    table_names = CHARACTER_NAMES | {"CharacterTable", "compute_character_table"}
    assert not _naming(reached, table_names)


def test_only_closure_builds_a_group():
    """`FiniteGroup(...)` is called only inside `permgroup.closure`.

    So every group's spanning tree and generator tables are the ones that
    closure's BFS recorded and its certificate checked.
    """

    def lines_calling(node):
        return {
            sub.lineno
            for sub in ast.walk(node)
            if isinstance(sub, ast.Call)
            and "FiniteGroup" in (getattr(sub.func, "id", None), getattr(sub.func, "attr", None))
        }

    calls = {(mod, line) for mod, tree in TREES.items() for line in lines_calling(tree)}
    closure = next(
        node
        for node in TREES["permgroup.py"].body
        if isinstance(node, ast.FunctionDef) and node.name == "closure"
    )
    assert calls and calls == {("permgroup.py", line) for line in lines_calling(closure)}


def test_word_image_never_reads_the_characters():
    """The `words` check holds word images against character bounds.

    So the images come from element products alone: `word_image` evaluates
    the word with `mul` at the class representatives, on a certified class
    partition, and nothing it reaches names the character table or the
    class tensor.
    """
    reached = _reached_functions("permgroup.py", "word_image")
    assert ("permgroup.py", "certify_classes") in reached
    assert ("permgroup.py", "FiniteGroup.mul") in reached
    assert not _naming(reached, CHARACTER_NAMES)


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


def test_class_tensor_and_its_recount_stay_on_separate_kernels():
    """The tensor, its recount and the element lambda routes each resolve products their own way.

    `class_mult_tensor` reads x^-1 * r off base images (`division_columns`),
    with neither `mul` nor the spanning tree that `class_characters` and
    `convolve_rows` walk.  The recount in `class_pair_counts`, `pair_count`
    and `_classes_met`, multiplies with `mul`.
    """
    tensor = _reached_functions("chartable.py", "class_mult_tensor")
    assert ("permgroup.py", "FiniteGroup.division_columns") in tensor
    assert ("permgroup.py", "FiniteGroup._tree_walk") not in tensor
    assert ("permgroup.py", "FiniteGroup.mul") not in tensor
    for name in ("pair_count", "_classes_met"):
        assert ("permgroup.py", "FiniteGroup.mul") in _reached_functions("growth.py", name)


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


# (sweep, the function that builds its records, whether it counts A x B
# through the class tensor); 2step counts element sets B, not unions
UNION_SWEEPS = [
    ("sweep_2step", "_2step_block", False),
    ("sweep_gowers2", "_gowers2_block", True),
    ("sweep_asymp", "_asymp_block", True),
    ("sweep_dichotomy", "_dichotomy_block", True),
    ("square_growth_survey", "_squares_met", True),
    ("pyber_report", "_squares_met", True),
]


@pytest.mark.parametrize("name, builder, tensor", UNION_SWEEPS, ids=[f"{n}-{b}" for n, b, _ in UNION_SWEEPS])
def test_union_sweeps_build_no_record_objects(name, builder, tensor):
    """The sweeps over union pools build their records as columns of one block.

    A pool is (u, k) bool indicator rows from the moment it is made, and
    nothing a sweep reaches names `CheckResult` or `NormalSubset.expr`, so a
    per-record or per-union object, whose cost once outweighed the counting,
    cannot come back unseen.  Nor does anything name `id`: a pair is two row
    indices into the pool, never two set objects told apart by identity.
    The helpers of the object pools are gone.
    """
    reached = _reached_functions("growth.py", name)
    assert ("growth.py", "_union_pool") in reached
    assert ("growth.py", builder) in reached
    assert (("growth.py", "class_pair_counts") in reached) == tensor
    assert not _naming(reached, {"CheckResult", "expr"})
    assert not _naming(reached, {"id"})
    deleted = {
        "_indicators", "_square_counts", "_union_sweep", "_dichotomy_record",
        "_2step_record", "_covered_size", "_covers_nonidentity",
    }
    names = {getattr(node, field, None) for node in ast.walk(TREES["growth.py"]) for field in ("name", "id", "attr")}
    assert not names & deleted


def test_report_floats_are_formatted_in_one_place():
    """In `reports.py`, `float.__repr__` appears only inside `_float_texts`.

    So neither writer formats a float on its own path: both take their
    float texts from the one helper, which formats each distinct value of a
    document column once.  The per-column formatter it replaced is gone,
    and so are the CSV writer's own path (`csv_chunks`, a `writerows`
    loop), the small-block fork (`_FEW_RECORDS`) and the per-record n and
    seed lists (`_shared`, `_per_record`).
    """

    def float_reprs(node):
        return {
            sub.lineno
            for sub in ast.walk(node)
            if isinstance(sub, ast.Attribute)
            and sub.attr == "__repr__"
            and getattr(sub.value, "id", None) == "float"
        }

    tree = TREES["reports.py"]
    helper = next(
        node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "_float_texts"
    )
    assert float_reprs(tree) and float_reprs(tree) == float_reprs(helper)
    names = {getattr(node, field, None) for node in ast.walk(tree) for field in ("name", "id", "attr")}
    assert not names & {"_json_floats", "csv_chunks", "writerows", "_FEW_RECORDS", "_shared", "_per_record"}


def _report_functions() -> dict:
    """name -> (module, parameters) of every public function that returns a ReportDocument."""
    return {
        node.name: (mod, [a.arg for a in node.args.posonlyargs + node.args.args])
        for mod, tree in TREES.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and not node.name.startswith("_")
        and node.returns is not None
        and ast.unparse(node.returns) == "ReportDocument"
    }


def test_one_registry_runs_every_check():
    """`acceptance.CHECKS` is the one table of checks, for the CLI and the gate alike.

    Each public function that returns a report takes one `ctx` first and is
    run by exactly one registry entry, and each entry runs exactly one of
    them.  Every step of a criterion names a registry entry or one of the
    gate's expected values.  No other module imports a check or names one
    outside a function body, so no second table can grow beside it.
    """
    checks = _report_functions()
    assert len(checks) == 20
    assert all(params[:1] == ["ctx"] for _, params in checks.values())
    table = next(
        node.value
        for node in TREES["acceptance.py"].body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["CHECKS"]
    )
    runs = [
        {node.func.id for node in ast.walk(entry) if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
        & set(checks)
        for entry in table.values
    ]
    assert all(len(called) == 1 for called in runs)
    assert sorted(name for called in runs for name in called) == sorted(checks)
    assert [key.value for key in table.keys] == list(acceptance.CHECKS)
    steps = {check for row in acceptance.ROWS for check, _, _ in row.steps}
    assert steps <= set(acceptance.CHECKS) | set(acceptance.EXPECTED)
    assert not set(acceptance.CHECKS) & set(acceptance.EXPECTED)
    elsewhere = []
    for mod, tree in TREES.items():
        if mod in ("acceptance.py", "__init__.py"):
            continue
        for stmt in tree.body:
            if isinstance(stmt, ast.ImportFrom):
                elsewhere += [f"{mod}:{stmt.lineno}" for alias in stmt.names if alias.name in checks]
            elif not isinstance(stmt, (ast.FunctionDef, ast.ClassDef, ast.Import)):
                elsewhere += [
                    f"{mod}:{node.lineno}"
                    for node in ast.walk(stmt)
                    if isinstance(node, ast.Name) and node.id in checks
                ]
    assert not elsewhere
