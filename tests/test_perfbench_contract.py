"""The benchmark's entry points into the package, checked in process.

`perfbench/` calls the package by name: the tracer rebinds the functions it
lists in TRACED, and each workload calls a fixed set of functions and CLI
commands.  A refactor that breaks one of those names fails here, not only
when the benchmark runs.  Nothing under `perfbench/` is modified.
"""

import importlib
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    """The benchmark's modules, imported from `perfbench/` and unloaded after."""
    names = ("tracer", "workloads", "run")
    sys.path.insert(0, str(PERFBENCH))
    try:
        modules = {name: importlib.import_module(name) for name in names}
    finally:
        sys.path.remove(str(PERFBENCH))
    yield modules
    for name in names:
        sys.modules.pop(name, None)


def test_tracer_binds_and_restores_every_traced_name(perfbench):
    tracer = perfbench["tracer"]
    targets = [
        (sys.modules[mod], attr) for specs in tracer.TRACED.values() for mod, attr in specs
    ]

    def bound():
        out = []
        for owner, attr in targets:
            if "." in attr:
                cls, meth = attr.split(".")
                out.append(vars(getattr(owner, cls))[meth])
            else:
                out.append(getattr(owner, attr))
        return out

    before = bound()
    tr = tracer.Tracer()
    # raises when a listed name is missing or a binding is left unwrapped
    tr.install()
    try:
        during = bound()
    finally:
        tr.uninstall()
    assert all(new is not old for new, old in zip(during, before))
    assert all(new is old for new, old in zip(bound(), before))


def test_metric_and_workload_names_match_the_benchmark(perfbench):
    for trace in (False, True):
        perfbench["run"].check_contract(trace, perfbench["workloads"].WORKLOADS)


@pytest.mark.parametrize("workload", ["gate-quick", "class-sweeps", "large-order"])
def test_smoke_pass_is_correct_with_the_recorded_counts(perfbench, workload, tmp_path):
    run, workloads = perfbench["run"], perfbench["workloads"]
    tasks = workloads.WORKLOADS[workload].run(0, "smoke", str(tmp_path))
    _, counts, failures = run.summarize(tasks)
    assert failures == []
    recorded = json.loads(run.EXPECTED_COUNTS.read_text(encoding="utf-8"))
    assert counts == recorded[workload]["smoke"]["0"]
