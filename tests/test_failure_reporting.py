"""A failing hypothesis test is reported as a failure, and the run goes on.

The project's pytest settings turn every warning into an error.  When a
@given test fails, hypothesis imports its failure-patch helpers, and with
libcst installed that import warns; the error it became stopped the whole
session with INTERNALERROR, so no later test reported.  This runs a failing
@given test and a passing test under the project's settings in a fresh
directory; it holds with or without libcst installed.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

PAIR = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x != x


def test_passes():
    pass
"""


def test_failing_given_test_does_not_end_the_session(tmp_path):
    (tmp_path / "test_pair.py").write_text(PAIR)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider", "-q", "test_pair.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out, out
    assert "1 failed, 1 passed" in out, out
