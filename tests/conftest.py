import os
import subprocess
import sys

import pytest

import normgrowth
from normgrowth.context import get_context

# a child script's last lines: print the child's own peak RSS, VmHWM, in kB.
# A forked child's ru_maxrss would also count the resident set of its parent.
PRINT_PEAK_KB = (
    "with open('/proc/self/status') as fh:\n"
    "    print(next(line.split()[1] for line in fh if line.startswith('VmHWM:')))\n"
)


def run_child(script: str, *flags: str) -> str:
    """Run `script` in a fresh interpreter on this checkout's package; return its stdout."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(normgrowth.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, *flags, "-c", script], env=env, capture_output=True, text=True, timeout=300
    )
    assert run.returncode == 0, run.stderr
    return run.stdout


@pytest.fixture(scope="session")
def a5():
    return get_context("A:5")


@pytest.fixture(scope="session")
def s5():
    return get_context("S:5")


@pytest.fixture(scope="session")
def psl27():
    return get_context("PSL2:7")


@pytest.fixture(scope="session")
def psl211():
    return get_context("PSL2:11")
