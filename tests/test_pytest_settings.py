"""The repository's pytest settings report a failing Hypothesis test as one
failure and still run the tests after it.

`filterwarnings = ["error"]` turns every warning into an error.  When a
`@given` test fails, Hypothesis imports libcst to explain the example, and a
DeprecationWarning raised there would end the run with INTERNALERROR.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

TESTS = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
'''


def test_failing_hypothesis_test_is_reported_and_the_run_goes_on(tmp_path):
    (tmp_path / "test_sample.py").write_text(TESTS)
    res = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_sample.py"],
        capture_output=True, text=True, cwd=tmp_path, timeout=300,
    )
    assert res.returncode == 1, res.stdout + res.stderr
    assert "INTERNALERROR" not in res.stdout + res.stderr
    assert "1 failed, 1 passed" in res.stdout
    assert "FAILED test_sample.py::test_fails" in res.stdout
