"""The repository's pytest settings report every failure (needs hypothesis).

pyproject.toml turns every DeprecationWarning into an error.  When a
@given test fails, hypothesis's pytest plugin imports libcst to write a
patch, and libcst imports mypy_extensions.TypedDict, which warns.  Without
the filterwarnings entry that ignores that one message, pytest stops with
INTERNALERROR, prints no falsifying example and runs no later test.
"""

import os
import subprocess
import sys

import pytest

pytest.importorskip("hypothesis")

PYPROJECT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "pyproject.toml")

GENERATED = '''
import warnings

from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 0


def test_runs_after_the_failure():
    pass


def test_any_other_deprecation_fails():
    warnings.warn("some other API is deprecated", DeprecationWarning)
'''


def test_a_failing_property_test_is_reported_and_the_run_goes_on(tmp_path):
    (tmp_path / "test_generated.py").write_text(GENERATED)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", PYPROJECT, "--rootdir", str(tmp_path), "-p", "no:cacheprovider",
         "-rA", "test_generated.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out, out
    assert "Falsifying example" in out, out
    assert "PASSED test_generated.py::test_runs_after_the_failure" in out, out
    assert "FAILED test_generated.py::test_any_other_deprecation_fails" in out, out
    assert "2 failed, 1 passed" in out, out
