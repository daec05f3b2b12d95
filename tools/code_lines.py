"""Count the raw and code lines of each file of ``src/leavitt``.

A code line holds a token other than a comment, NL, NEWLINE, INDENT, DEDENT,
ENDMARKER or a module, class or function docstring.  Tokens come from
``tokenize`` and docstrings from ``ast``; a token that spans several lines,
such as a multi-line string that is not a docstring, makes each of them a
code line.  Run from anywhere: ``python tools/code_lines.py``.
"""

import ast
import io
import pathlib
import tokenize

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "leavitt"
SKIPPED = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_starts(tree) -> set:
    """The (row, column) where each module, class or function docstring starts."""
    return {
        (first.lineno, first.col_offset)
        for node in ast.walk(tree)
        if isinstance(node, SCOPES) and node.body
        for first in node.body[:1]
        if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str)
    }


def count_lines(source: str) -> tuple[int, int]:
    """(raw lines, code lines) of one module's source text."""
    docstrings = _docstring_starts(ast.parse(source))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIPPED and not (tok.type == tokenize.STRING and tok.start in docstrings):
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code)


def main() -> None:
    print(f"{'raw':>6} {'code':>6}  file")
    totals = [0, 0]
    for path in sorted(PACKAGE.glob("*.py")):
        raw, code = count_lines(path.read_text(encoding="utf-8"))
        totals[0] += raw
        totals[1] += code
        print(f"{raw:6} {code:6}  {path.name}")
    print(f"{totals[0]:6} {totals[1]:6}  total (raw, code)")


if __name__ == "__main__":
    main()
