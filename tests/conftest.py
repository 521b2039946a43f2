import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
# The checkout's package directory, absolute so it resolves from any cwd.
SRC = TESTS.parent / "src"

sys.path.insert(0, str(TESTS))
sys.path.insert(0, str(SRC))

# Child processes import the checkout under test first, whatever their cwd;
# an inherited PYTHONPATH is kept after it.
CLI_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])),
    "PYTHONHASHSEED": "0",
}

from cxtherm.gates import default_gate_set


@pytest.fixture(scope="session")
def gate_set():
    return default_gate_set()


@pytest.fixture(scope="session")
def chain_gate_set():
    return default_gate_set("chain")


@pytest.fixture(scope="session")
def run_cli():
    """Run `python -m cxtherm ARGS` in CWD with CLI_ENV plus EXTRA_ENV."""

    def run(args, cwd, **extra_env):
        return subprocess.run(
            [sys.executable, "-m", "cxtherm", *args],
            capture_output=True, text=True, cwd=cwd,
            env={**CLI_ENV, **extra_env},
        )

    return run


@pytest.fixture(scope="session")
def run_python():
    """Run `python -c CODE` in CWD with CLI_ENV plus EXTRA_ENV."""

    def run(code, cwd, **extra_env):
        return subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, cwd=cwd,
            env={**CLI_ENV, **extra_env},
        )

    return run
