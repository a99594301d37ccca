"""``tools/code_lines.py``: blanks, comments and docstrings do not count;
every line of a statement spread over several lines does, and so does
every line of a string literal that is not a docstring."""

import pathlib
import subprocess
import sys

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

SNIPPET = '''"""Module docstring,
over two lines."""

import math  # a trailing comment

BANNER = """two
lines"""


def area(r):
    """Docstring."""
    # a comment-only line

    return (math.pi
            * r ** 2)
'''


def test_counts_code_lines_only(tmp_path):
    path = tmp_path / "snippet.py"
    path.write_text(SNIPPET)
    result = subprocess.run([sys.executable, str(TOOL), str(path)],
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0
    # import, the two lines of BANNER, def, and the two lines of the return
    assert result.stdout.split() == ["6", str(path), "6", "total"]
