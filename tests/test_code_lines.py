"""``tools/code_lines.py`` counts a line as code when it holds a token other
than a comment, a line break, an indent or a docstring."""

import importlib.util
import pathlib

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
SPEC = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(code_lines)

MODULE = '''"""Module docstring,
over two lines."""

# a comment


class C:
    """Class docstring."""

    def f(self):
        """Function
        docstring."""
        text = """a multi-line
string that is no docstring"""  # a trailing comment
        return text


async def g():
    """Docstring."""
    x = (
        1
    )
'''


def test_docstrings_comments_and_blank_lines_are_not_code():
    # code: class C, def f, both lines of text = ..., return, async def g
    # and the three lines of x = (1)
    assert code_lines.count_lines(MODULE) == (len(MODULE.splitlines()), 9)
    assert code_lines.count_lines("") == (0, 0)
    assert code_lines.count_lines('"""Only a docstring."""\n# and a comment\n') == (2, 0)


def test_the_package_totals(capsys):
    code_lines.main()
    lines = capsys.readouterr().out.splitlines()
    files = sorted(p.name for p in code_lines.PACKAGE.glob("*.py"))
    assert [line.split()[-1] for line in lines[1:-1]] == files
    rows = [list(map(int, line.split()[:2])) for line in lines[1:-1]]
    assert lines[-1].split()[:2] == [str(sum(r[0] for r in rows)), str(sum(r[1] for r in rows))]
