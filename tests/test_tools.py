import subprocess
import sys
from pathlib import Path

CODE_LINES = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

_MODULE = '''"""Module docstring
over two lines."""

import os  # a trailing comment keeps its line


# a comment-only line
@decorator(
    1)
def f(a,
      b):
    """Docstring."""
    x = {
        "k": 1,

        # inside a literal
    }
    return x


class C:
    """Docstring."""
'''


def test_code_lines_counts_statement_lines_less_docstrings_comments_and_blanks(tmp_path):
    # import, two decorator lines, two def lines, three of the literal's
    # lines, return, class
    (tmp_path / "m.py").write_text(_MODULE)
    (tmp_path / "empty.py").write_text('"""Only a docstring."""\n')
    out = subprocess.run([sys.executable, str(CODE_LINES), str(tmp_path)],
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines() == ["     0  empty.py", "    10  m.py", "    10  total"]
