import os
import subprocess
import sys

PYPROJECT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "pyproject.toml")


def test_a_failing_hypothesis_test_reports_its_example(tmp_path):
    """With every warning an error, a failing ``@given`` test must still print
    its falsifying example: hypothesis imports libcst to report it, and a
    DeprecationWarning from that import would abort pytest instead."""
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 5\n")
    run = subprocess.run([sys.executable, "-m", "pytest", "-c", PYPROJECT, "--rootdir",
                          str(tmp_path), "-p", "no:cacheprovider", "-q", "test_fails.py"],
                         cwd=tmp_path, capture_output=True, text=True)
    output = run.stdout + run.stderr
    assert run.returncode == 1, output
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output
