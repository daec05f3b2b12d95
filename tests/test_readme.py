"""README's examples, run as written: the CLI transcripts byte for byte and
the library snippet by its printed lines."""

import pathlib
import re
import shlex

import pytest

import leavitt
from leavitt import LeavittAlgebra
from leavitt.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", README, re.M | re.S)
TRANSCRIPTS = [body for lang, body in BLOCKS if body.startswith("$ leavitt ")]


def test_readme_has_the_four_transcripts():
    commands = [body.split("\n", 1)[0].split()[2] for body in TRANSCRIPTS]
    assert commands == ["analyze", "center", "verify", "idempotents"]


@pytest.mark.parametrize("body", TRANSCRIPTS, ids=lambda body: body.split("\n", 1)[0][2:])
def test_readme_transcript(body, capsys, monkeypatch):
    command, expected = body.split("\n", 1)
    monkeypatch.chdir(ROOT)
    assert main(shlex.split(command)[2:]) == 0
    assert capsys.readouterr().out == expected


def test_readme_library_example(capsys, monkeypatch):
    [snippet] = [body for lang, body in BLOCKS if lang == "python" and "parse_element" in body]
    monkeypatch.chdir(ROOT)
    exec(compile(snippet, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == ["v2+v3+v4", "True"]


def test_readme_element_syntax_example(g3):
    section = README.split("## Element syntax", 1)[1]
    example = re.search(r"^```\n(.*?)\n```$", section, re.M | re.S).group(1)
    assert str(LeavittAlgebra(g3).parse_element(example)) == "-1/2*v1+[a b2][@v3]"


def test_readme_entry_points_are_exported():
    # every backticked name before a bullet's first colon is a package export
    entries = README.split("The main entry points:\n\n", 1)[1].split("\n\n", 1)[0]
    bullets = entries[2:].split("\n- ")
    assert len(bullets) == 5
    for bullet in bullets:
        names = re.findall(r"`([^`]+)`", bullet.split(":", 1)[0])
        assert names and set(names) <= set(leavitt.__all__), (names, bullet)


def test_readme_reprs_of_the_example_algebra(g3):
    [block] = [body for lang, body in BLOCKS if lang == "text" and body.startswith("Graph(")]
    alg = LeavittAlgebra(g3)
    assert block.splitlines() == [repr(alg.graph), repr(alg.specialization), repr(alg)]
