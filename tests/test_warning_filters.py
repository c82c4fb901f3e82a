"""The suite's warning filters keep one failing test from hiding the rest."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY_THEN_PASSING_TEST = '''
from hypothesis import given
from hypothesis import strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_failing_property_test_leaves_later_tests_running(tmp_path):
    # reporting a failing example makes hypothesis import libcst, which emits
    # a DeprecationWarning; under the suite's error filters that warning must
    # not become an INTERNALERROR that ends the session at the first failure
    (tmp_path / "test_gate.py").write_text(FAILING_PROPERTY_THEN_PASSING_TEST)
    result = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_gate.py",
        ],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    output = result.stdout + result.stderr
    assert "INTERNALERROR" not in output
    assert result.returncode == 1, output
    assert "1 failed, 1 passed" in result.stdout, output
