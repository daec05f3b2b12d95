"""Byte-for-byte CLI output on the fixtures, replayed against a checked-in table.

Each line of ``golden_cli.tsv`` is one run: the arguments after the fixture
file, the exit code, and the sha256 of stdout and of stderr.  The table
covers 6 fixtures x ``rat``/``fp:2``/``fp:97`` x ``analyze``,
``idempotents``, ``verify --max-degree 4`` and ``center --degree
0|3|-2|6|-6`` x text and ``--json``: 288 runs.  A change that is meant to
keep every output must leave the table as it is.  When output is meant to
change, regenerate it with ``PYTHONPATH=src python tests/test_golden_cli.py``
and review the diff.  Each text run's stdout is also the text view of its
``--json`` twin's report.
"""

import contextlib
import hashlib
import io
import json
import pathlib
import sys

from leavitt.cli import _text_lines, main

HERE = pathlib.Path(__file__).parent
TABLE = HERE / "golden_cli.tsv"
FIXTURES = ["g1", "g2", "g3", "g4", "g5", "g6"]
FIELDS = ["rat", "fp:2", "fp:97"]
COMMANDS = [
    ["analyze"],
    ["idempotents"],
    ["verify", "--max-degree", "4"],
    ["center", "--degree", "0"],
    ["center", "--degree", "3"],
    ["center", "--degree", "-2"],
    ["center", "--degree", "6"],
    ["center", "--degree", "-6"],
]


def _runs():
    """(fixture, argv) for every run of the table, in table order."""
    for name in FIXTURES:
        path = str(HERE / "fixtures" / f"{name}.lpa")
        for field in FIELDS:
            for command in COMMANDS:
                for json_flag in ([], ["--json"]):
                    yield name, [command[0], path, *command[1:], "--field", field, *json_flag]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _run(argv):
    """Exit code, stdout and stderr of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _replay(argv):
    """Exit code and the sha256 of stdout and stderr of one in-process run."""
    code, out, err = _run(argv)
    return code, _digest(out), _digest(err)


def _line(name, argv, code, out, err) -> str:
    # the fixture's path is not part of the output, so the table names it only
    args = " ".join([argv[0], name] + argv[2:])
    return f"{args}\t{code}\t{out}\t{err}"


def _table():
    return [_line(name, argv, *_replay(argv)) for name, argv in _runs()]


def test_cli_output_matches_golden_table():
    expected = TABLE.read_text().splitlines()
    assert len(expected) == 288
    got = _table()
    mismatched = [want.split("\t")[0] for want, have in zip(expected, got) if want != have]
    assert not mismatched, mismatched
    assert got == expected


def test_text_output_is_the_view_of_the_json_report():
    runs = list(_runs())
    pairs = list(zip(runs[::2], runs[1::2]))
    assert len(pairs) == 144
    for (_, argv), (_, json_argv) in pairs:
        assert json_argv == [*argv, "--json"]
        code, text, _ = _run(argv)
        report = json.loads(_run(json_argv)[1])
        assert text == "\n".join(_text_lines(report)) + "\n", (code, argv)


if __name__ == "__main__":
    TABLE.write_text("\n".join(_table()) + "\n")
    print(f"wrote {TABLE}", file=sys.stderr)
