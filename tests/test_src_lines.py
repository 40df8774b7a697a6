import importlib.util
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "src_lines.py"
_spec = importlib.util.spec_from_file_location("src_lines", _SCRIPT)
src_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(src_lines)


def test_lines_are_split_into_docstrings_comments_code_and_blanks(tmp_path, capsys):
    text = '''"""A module.

Four docstring lines, one of them blank.
"""

# a comment
X = "not a docstring"


class A:
    """One line."""

    def f(self):
        """Two
        lines."""
        return 1  # code with a comment
'''
    assert src_lines.count(text) == {"total": 16, "docstring": 7, "comment": 1, "code": 4}
    (tmp_path / "m.py").write_text(text)
    (tmp_path / "n.py").write_text("# only a comment\n\nY = 2\n")
    assert src_lines.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows[0] == ["module", "total", "docstring", "comment", "code"]
    assert rows[1:] == [["m.py", "16", "7", "1", "4"], ["n.py", "3", "0", "1", "1"],
                        ["all", "19", "7", "2", "5"]]
