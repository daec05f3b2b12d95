"""``tools/code_lines.py`` counts a line as code when it holds a token other
than a comment, a line break, an indent or a docstring."""

import ast
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


def test_every_private_name_is_used():
    # a helper whose last caller is gone would still be counted as code
    defined, used = {}, set()
    for path in sorted(code_lines.PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for scope in [tree] + [node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]:
            for node in scope.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    names = [node.name]
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
                else:
                    continue
                for name in names:
                    if name.startswith("_") and not name.startswith("__"):
                        defined.setdefault(name, f"{path.name}:{node.lineno}")
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
                used.add(node.id if isinstance(node, ast.Name) else node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    assert len(defined) > 40
    assert {name: where for name, where in defined.items() if name not in used} == {}
