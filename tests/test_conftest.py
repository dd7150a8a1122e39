"""The suite's own set-up (tests/conftest.py), as CI runs it: with every warning an error."""

import shutil
import subprocess
import sys
from pathlib import Path

FAILING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails_on_purpose(x):
    assert x < 10
'''


def test_a_failing_hypothesis_test_reports_its_example_under_w_error(tmp_path):
    shutil.copy(Path(__file__).with_name("conftest.py"), tmp_path / "conftest.py")
    (tmp_path / "test_fails.py").write_text(FAILING)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-W", "error", "-p", "no:cacheprovider", "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    output = result.stdout + result.stderr
    assert result.returncode == 1, output
    assert "Falsifying example: test_fails_on_purpose(" in output
    assert "x=10" in output
    assert "INTERNALERROR" not in output
