import json
import os
import pathlib
import random
import re
import subprocess
import sys

import pytest

import leavitt
import leavitt.algebra
from leavitt import (
    LeavittAlgebra,
    finitary_boolean_subalgebra,
    idempotent,
    parse_graph,
    perp,
)
from leavitt.cli import _boolean_law_failure, main

from conftest import CORPUS_SEED, FIXTURES_DIR


def fx(name):
    return str(FIXTURES_DIR / f"{name}.lpa")


def fs(*names):
    return frozenset(names)


def fork_text(k):
    """A root u with one edge to each of k sinks w1..wk: m = k classes."""
    return (
        "vertex u\n"
        + "".join(f"vertex w{i}\n" for i in range(1, k + 1))
        + "".join(f"edge f{i} u w{i}\n" for i in range(1, k + 1))
    )


def write_fork(tmp_path, k):
    path = tmp_path / f"fork{k}.lpa"
    path.write_text(fork_text(k))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


def test_idempotents_products_grow_with_the_nonzero_ones(tmp_path, capsys, monkeypatch):
    # the law check squares the atom, which on a chain of n vertices has a
    # term per vertex.  A product meets only the right factor's terms whose
    # left path starts where the left factor's right path does, one term on
    # a chain, so 4x the vertices may cost at most 5x the monomial products:
    # trying every pair of terms costs 16x
    calls = []
    original = LeavittAlgebra._monomial_product

    def counted(self, m1, m2):
        calls.append(None)
        return original(self, m1, m2)

    monkeypatch.setattr(LeavittAlgebra, "_monomial_product", counted)
    counts = []
    for n in (100, 400):
        path = tmp_path / f"chain{n}.lpa"
        lines = [f"vertex v{i}" for i in range(n)] + [f"edge e{i} v{i} v{i + 1}" for i in range(n - 1)]
        path.write_text("\n".join(lines) + "\n")
        calls.clear()
        code, out, err = run(capsys, "idempotents", str(path))
        assert code == 0 and "finitary annihilator subsets: 2\n" in out, (out[:80], err)
        counts.append(len(calls))
    assert 0 < counts[0] and counts[1] <= 5 * counts[0], counts


def test_commands_build_no_monomial(capsys, monkeypatch):
    # elements key their terms by flat tuples and the report text is read off
    # those keys, so no command, text or JSON, builds a Monomial
    built = []
    monomial = leavitt.algebra.Monomial
    original = monomial.__new__
    monkeypatch.setattr(monomial, "__new__", lambda cls, *args: built.append(args) or original(cls, *args))
    runs = 0
    for name in sorted(p.stem for p in FIXTURES_DIR.glob("*.lpa")):
        for argv in (["analyze"], ["center", "--degree", "0"], ["verify"], ["idempotents"]):
            for extra in ((), ("--json",)):
                code, out, err = run(capsys, argv[0], fx(name), *argv[1:], *extra)
                assert code == 0 and out and not err, (name, argv, extra, err)
                runs += 1
    assert runs == 48 and built == [], (runs, len(built))
    # the counter does count: listing an element's terms builds its monomials
    LeavittAlgebra(parse_graph(pathlib.Path(fx("g1")).read_text())).one().terms()
    assert built


def test_analyze_text_output(capsys):
    code, out, err = run(capsys, "analyze", fx("g3"))
    assert code == 0
    assert err == ""
    assert out == (
        "graph: 5 vertices, 5 edges\n"
        "minimal hereditary sets:\n"
        "  W1 = {v2,v3,v4}\n"
        "  W2 = {v5}\n"
        "classes:\n"
        "  I1 = {W1}: support {v2,v3,v4}, Laurent via cycle (b2 b3 b4) of length 3\n"
        "  I2 = {W2}: support {v5}, field\n"
        "annihilator algebra: 4 subsets (2^2)\n"
        "finitary subalgebra: 4 subsets (2^2)\n"
        "center: F[t^-1,t] (+) F\n"
    )


def test_analyze_json_payload(capsys):
    code, report, _ = run_json(capsys, "analyze", fx("g3"))
    assert code == 0
    assert report["format_version"] == "1"
    assert report["command"] == "analyze"
    assert report["graph"] == {"vertices": 5, "edges": 5}
    payload = report["payload"]
    assert payload["k"] == 2
    assert payload["m"] == 2
    assert payload["isomorphism"] == "F[t^-1,t] (+) F"
    assert payload["minimal_sets"] == [["v2", "v3", "v4"], ["v5"]]
    assert payload["classes"][0]["kind"] == "laurent"
    assert payload["classes"][0]["cycle"] == "(b2 b3 b4)"
    assert payload["classes"][1]["kind"] == "field"
    assert payload["classes"][1]["cycle"] is None


def test_analyze_iso_strings(capsys):
    code, report, _ = run_json(capsys, "analyze", fx("g1"))
    assert code == 0 and report["payload"]["isomorphism"] == "F[t^-1,t]"
    code, report, _ = run_json(capsys, "analyze", fx("g6"))
    assert code == 0
    assert report["payload"]["isomorphism"] == "F"
    assert report["payload"]["finitary_size"] == 2
    assert report["payload"]["annihilator_size"] == 4


def test_center_degree_zero(capsys):
    code, out, _ = run(capsys, "center", fx("g3"), "--degree", "0")
    assert code == 0
    assert out == (
        "graph: 5 vertices, 5 edges\n"
        "degree 0 basis (predicted dimension 2):\n"
        "  v1+v2+v3+v4-[d][d]  (idempotent of {v2,v3,v4})\n"
        "  v5+[d][d]  (idempotent of {v5})\n"
    )


def test_center_empty_degree(capsys):
    code, out, _ = run(capsys, "center", fx("g3"), "--degree", "1")
    assert code == 0
    assert "predicted dimension 0" in out
    assert "(none)" in out


def test_center_loop_power(capsys):
    code, out, _ = run(capsys, "center", fx("g1"), "--degree", "2")
    assert code == 0
    assert out == (
        "graph: 1 vertex, 1 edge\n"
        "degree 2 basis (predicted dimension 1):\n"
        "  [c c][@v1]  (cycle (c) to the power 2)\n"
    )


def test_center_requires_degree(capsys):
    code, _, err = run(capsys, "center", fx("g1"))
    assert code == 2
    assert "--degree" in err


def test_center_json_over_prime_field(capsys):
    code, report, _ = run_json(
        capsys, "center", fx("g3"), "--degree", "0", "--field", "fp:97"
    )
    assert code == 0
    assert report["payload"]["field"] == "fp:97"
    assert [row["element"] for row in report["payload"]["basis"]] == [
        "v1+v2+v3+v4+96*[d][d]",
        "v5+[d][d]",
    ]


@pytest.mark.parametrize("bad", ["1_0", "+3", " 3", "3 ", "\u0663", "\uff13", "3.0", "0x3", "--3", "-", ""])
def test_center_degree_is_an_optional_minus_and_ascii_digits(capsys, bad):
    # int() would read the first six as 10, 3, 3, 3, 3 and 3
    code, out, err = run(capsys, "center", fx("g1"), f"--degree={bad}")
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == f"leavitt center: error: argument --degree: expected an integer, not {bad!r}"


def test_center_degree_takes_a_minus_and_leading_zeros(capsys):
    for text, degree in [("-0", 0), ("007", 7), ("-12", -12)]:
        code, report, _ = run_json(capsys, "center", fx("g1"), "--degree", text)
        assert (code, report["payload"]["degree"]) == (0, degree)


def test_verify_ok_dimensions(capsys):
    code, report, _ = run_json(capsys, "verify", fx("g3"), "--max-degree", "4")
    assert code == 0
    assert report["payload"]["ok"] is True
    dims = {row["degree"]: row["oracle_dimension"] for row in report["payload"]["degrees"]}
    assert dims == {-4: 0, -3: 1, -2: 0, -1: 0, 0: 2, 1: 0, 2: 0, 3: 1, 4: 0}
    for row in report["payload"]["degrees"]:
        assert row["ok"] is True
        assert row["oracle_dimension"] == row["predicted_dimension"]


def test_verify_text_output(capsys):
    code, out, _ = run(capsys, "verify", fx("g1"), "--max-degree", "3")
    assert code == 0
    body = out.splitlines()
    assert body[-1] == "all degrees OK"
    middle = body[1:-1]
    assert len(middle) == 7
    for line in middle:
        assert line.endswith(": OK")
        assert "oracle dim 1, predicted 1" in line


def test_verify_loop_exit_dimensions(capsys):
    code, report, _ = run_json(capsys, "verify", fx("g2"), "--max-degree", "2")
    assert code == 0
    dims = {row["degree"]: row["oracle_dimension"] for row in report["payload"]["degrees"]}
    assert dims == {-2: 0, -1: 0, 0: 1, 1: 0, 2: 0}


def test_verify_fails_when_bound_is_too_small(capsys):
    # a cap of 0 hides the degree-2 generator c*c, so the oracle comes up short
    code, out, _ = run(capsys, "verify", fx("g1"), "--max-degree", "2", "--max-len", "0")
    assert code == 1
    assert out.splitlines()[-1] == "verification FAILED"
    assert "degree 2: oracle dim 0, predicted 1, bound 0: FAIL" in out


def test_verify_searches_the_bound_base_once(capsys, monkeypatch):
    # the bound of degree d is oracle_bound(g, 0) + |d|, so one call serves
    # every degree, and --max-len needs none
    original, calls = leavitt.cli.oracle_bound, []

    def counted(g, d):
        calls.append(d)
        return original(g, d)

    monkeypatch.setattr(leavitt.cli, "oracle_bound", counted)
    code, report, _ = run_json(capsys, "verify", fx("g3"), "--max-degree", "4")
    assert code == 0 and calls == [0]
    g3 = parse_graph(pathlib.Path(fx("g3")).read_text())
    bounds = {row["degree"]: row["bound"] for row in report["payload"]["degrees"]}
    assert bounds == {d: original(g3, d) for d in range(-4, 5)}
    calls.clear()
    code, _, _ = run(capsys, "verify", fx("g3"), "--max-degree", "1", "--max-len", "6")
    assert code == 0 and calls == []


def test_verify_rejects_negative_arguments(capsys):
    code, _, err = run(capsys, "verify", fx("g1"), "--max-degree", "-1")
    assert code == 2 and "--max-degree" in err
    code, _, err = run(capsys, "verify", fx("g1"), "--max-len", "-3")
    assert code == 2 and "--max-len" in err
    code, _, err = run(capsys, "verify", fx("g1"), "--max-len", "x")
    assert code == 2 and "--max-len" in err and "'x'" in err


def test_idempotents_rows(capsys):
    code, out, _ = run(capsys, "idempotents", fx("g3"))
    assert code == 0
    assert out == (
        "graph: 5 vertices, 5 edges\n"
        "finitary annihilator subsets: 4\n"
        "  {} -> 0\n"
        "  {v5} -> v5+[d][d]\n"
        "  {v2,v3,v4} -> v1+v2+v3+v4-[d][d]\n"
        "  {v1,v2,v3,v4,v5} -> v1+v2+v3+v4+v5\n"
    )


def test_idempotents_fork_row(capsys):
    code, out, _ = run(capsys, "idempotents", fx("g4"))
    assert code == 0
    assert "  {w1} -> u+w1-[f][f]\n" in out


def test_idempotents_trivial_family(capsys):
    code, report, _ = run_json(capsys, "idempotents", fx("g6"))
    assert code == 0
    assert report["payload"]["count"] == 2
    assert [row["element"] for row in report["payload"]["subsets"]] == [
        "0",
        "v0+w1+w2",
    ]


def test_idempotents_law_failure_exits_1(monkeypatch, capsys):
    # every subset mapped to 1 makes the two atoms overlap
    monkeypatch.setattr("leavitt.cli.idempotent", lambda algebra, ws: algebra.one())
    code, out, err = run(capsys, "idempotents", fx("g3"))
    assert code == 1
    assert out == ""
    assert err == "error: atoms {v2,v3,v4} and {v5} are not orthogonal\n"


def with_complements(*images):
    """An idempotent map that sends each subset ws of a triple (ws, comp, f)
    to f(algebra) and its complement comp to one minus that, so the
    complement law still holds; every other subset keeps its idempotent."""
    table = {}
    for ws, comp, f in images:
        table[ws] = f
        table[comp] = lambda algebra, f=f: algebra.one() - f(algebra)
    return lambda algebra, ws: table[ws](algebra) if ws in table else idempotent(algebra, ws)


def image_of(*names):
    return lambda algebra: idempotent(algebra, fs(*names))


# each broken map keeps 1 - image(w) as the image of perp(w), so the element
# complement law holds and only the atom checks catch it; on fork-k the
# complement of a set of sinks is the set of the other sinks
MUTANTS = [
    pytest.param(
        4,
        with_complements(
            (fs("w1", "w2"), fs("w3", "w4"), image_of("w1", "w3")),
            (fs("w1", "w3"), fs("w2", "w4"), image_of("w1", "w2")),
        ),
        "sum law fails for {w1,w2}",
        id="atoms-kept-sums-swapped",
    ),
    pytest.param(
        3,
        with_complements(
            (fs("w1"), fs("w2", "w3"), image_of("w1", "w2")),
            (fs("w1", "w2"), fs("w3"), image_of("w1")),
        ),
        "atoms {w1} and {w2} are not orthogonal",
        id="overlapping-atoms",
    ),
    pytest.param(
        3,
        with_complements((fs("w1"), fs("w2", "w3"), lambda algebra: image_of("w1")(algebra) * 2)),
        "atom {w1} is not idempotent",
        id="doubled-atom",
    ),
    pytest.param(
        3,
        with_complements((fs("w1"), fs("w2", "w3"), lambda algebra: algebra.zero())),
        "atom {w1} maps to 0",
        id="zero-atom",
    ),
    pytest.param(
        3,
        with_complements(
            *[
                (fs(w), fs("w1", "w2", "w3") - {w}, lambda algebra, w=w: algebra.vertex(w))
                for w in ("w1", "w2", "w3")
            ]
        ),
        "atoms do not sum to 1",
        id="bare-sink-atoms",
    ),
]


@pytest.mark.parametrize("k, image, message", MUTANTS)
def test_idempotents_law_failures_past_the_complement_check(
    monkeypatch, tmp_path, capsys, k, image, message
):
    path = write_fork(tmp_path, k)
    monkeypatch.setattr("leavitt.cli.idempotent", image)
    assert run(capsys, "idempotents", path) == (1, "", f"error: {message}\n")


FAMILY_MUTANTS = [
    pytest.param(
        4,
        (fs("w1", "w2"), fs("w3", "w4")),
        "members do not match the 2^4 atom sets one to one",
        id="missing-atom-set",
    ),
    pytest.param(3, (fs("w1", "w2"), fs("w3")), "class support {w3} escapes the family", id="missing-atom"),
]


@pytest.mark.parametrize("k, dropped, message", FAMILY_MUTANTS)
def test_idempotents_family_missing_a_complement_pair(
    monkeypatch, tmp_path, capsys, k, dropped, message
):
    # a family without one member and its complement still passes the complement law
    def family(g):
        return [w for w in finitary_boolean_subalgebra(g) if w not in dropped]

    path = write_fork(tmp_path, k)
    monkeypatch.setattr("leavitt.cli.finitary_boolean_subalgebra", family)
    assert run(capsys, "idempotents", path) == (1, "", f"error: {message}\n")


# the laws read on vertex sets, which no broken image map can reach
VERTEX_SET_MUTANTS = [
    pytest.param(
        3,
        {"perp": lambda g, ws: fs("w3") if ws == fs("w1") else perp(g, ws)},
        "complement law fails for {w1}",
        id="wrong-complement",
    ),
    pytest.param(
        2,
        {
            # {u} stands in for {}: no atom, image 0, complement the top
            "finitary_boolean_subalgebra": lambda g: [
                w or fs("u") for w in finitary_boolean_subalgebra(g)
            ],
            "idempotent": lambda algebra, ws: (
                algebra.zero() if ws == fs("u") else idempotent(algebra, ws)
            ),
            "perp": lambda g, ws: (
                {fs("u"): fs("u", "w1", "w2"), fs("u", "w1", "w2"): fs("u")}.get(ws) or perp(g, ws)
            ),
        },
        "meet law fails for {u}",
        id="bottom-not-a-meet",
    ),
]


@pytest.mark.parametrize("k, patches, message", VERTEX_SET_MUTANTS)
def test_idempotents_vertex_set_law_failures(monkeypatch, tmp_path, capsys, k, patches, message):
    path = write_fork(tmp_path, k)
    for name, value in patches.items():
        monkeypatch.setattr(f"leavitt.cli.{name}", value)
    assert run(capsys, "idempotents", path) == (1, "", f"error: {message}\n")


def test_readme_lists_every_law_failure_line():
    # README writes a vertex set as {…} and the number of atoms as m
    readme = (FIXTURES_DIR.parent.parent / "README.md").read_text()
    [block] = re.findall(r"^```\n(error: .*?)^```$", readme, re.M | re.S)
    produced = {
        re.sub(r"2\^\d+", "2^m", re.sub(r"\{[^}]*\}", "{…}", f"error: {param.values[-1]}"))
        for param in MUTANTS + FAMILY_MUTANTS + VERTEX_SET_MUTANTS
    }
    assert set(block.splitlines()) == produced


def test_atom_certificate_agrees_with_the_pairwise_reference(corpus):
    # the reference: every pair of members multiplied (4^m products), then
    # complements, then injectivity
    def pairwise_failure(g, one, members, texts):
        for w1 in members:
            for w2 in members:
                meet = w1 & w2
                if meet not in members:
                    return "meet escapes"
                if members[w1] * members[w2] != members[meet]:
                    return "product law"
        for w in members:
            comp = perp(g, w)
            if comp not in members or members[comp] != one - members[w]:
                return "complement law"
        if len(set(texts.values())) != len(members):
            return "not injective"
        return None

    def swapped(images, g, w1, w2):
        out = dict(images)
        out[w1], out[w2] = images[w2], images[w1]
        c1, c2 = perp(g, w1), perp(g, w2)
        out[c1], out[c2] = images[c2], images[c1]
        return out

    rng = random.Random(CORPUS_SEED + 3)
    forks = [parse_graph(fork_text(k)) for k in range(1, 7)]
    verdicts = []
    for g, perturb in [(g, True) for g in corpus] + [(g, False) for g in forks]:
        alg = LeavittAlgebra(g)
        one = alg.one()
        images = {w: idempotent(alg, w) for w in finitary_boolean_subalgebra(g)}
        variants = [images]
        if perturb and len(images) > 2:
            family = list(images)
            atom = min(family[1:], key=len)
            variants += [
                swapped(images, g, *rng.sample(family, 2)),
                swapped(images, g, *rng.sample(family, 2)),
                {**images, atom: images[atom] * 2, perp(g, atom): one - images[atom] * 2},
                {w: one for w in images},
            ]
        for members in variants:
            texts = {w: str(x) for w, x in members.items()}
            new = _boolean_law_failure(g, one, members)
            old = pairwise_failure(g, one, members, texts)
            assert (new is None) == (old is None), (g, new, old)
            verdicts.append(new is None)
        assert verdicts[-len(variants)], g  # the true images pass
    assert False in verdicts  # some variants are caught


def test_idempotents_on_a_fork_with_ten_sinks(tmp_path, capsys):
    # 2^10 members, certified from 10 atoms rather than 4^10 products
    code, out, err = run(capsys, "idempotents", write_fork(tmp_path, 10))
    lines = out.splitlines()
    assert (code, err) == (0, "")
    assert lines[1] == "finitary annihilator subsets: 1024"
    assert len(lines) == 2 + 2**10
    sinks = ",".join(f"w{i}" for i in range(1, 11))
    assert lines[-1] == f"  {{u,{sinks}}} -> u+{sinks.replace(',', '+')}"


def test_output_is_deterministic(capsys):
    for argv in (
        ("analyze", fx("g3")),
        ("analyze", fx("g3"), "--json"),
        ("center", fx("g3"), "--degree", "0", "--json"),
        ("verify", fx("g2"), "--max-degree", "2"),
        ("idempotents", fx("g4"), "--json"),
    ):
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second


def test_missing_file_is_an_input_error(capsys):
    code, out, err = run(capsys, "analyze", str(FIXTURES_DIR / "absent.lpa"))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_non_utf8_file_is_an_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.lpa"
    bad.write_bytes(b"vertex v1\n\xff\n")
    code, out, err = run(capsys, "analyze", str(bad))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "UTF-8" in err


def test_byte_order_mark_is_dropped(tmp_path, capsys):
    text = pathlib.Path(fx("g3")).read_bytes()
    bom = tmp_path / "bom.lpa"
    bom.write_bytes(b"\xef\xbb\xbf" + text)
    assert run(capsys, "analyze", str(bom)) == run(capsys, "analyze", fx("g3"))


def test_parse_error_reports_line_number(tmp_path, capsys):
    bad = tmp_path / "bad.lpa"
    bad.write_text("vertex v1\nedge e v1 nowhere\n")
    code, out, err = run(capsys, "analyze", str(bad))
    assert code == 2
    assert out == ""
    assert "line 2" in err


def test_empty_graph_is_rejected(tmp_path, capsys):
    empty = tmp_path / "empty.lpa"
    empty.write_text("# nothing here\n")
    code, _, err = run(capsys, "analyze", str(empty))
    assert code == 2
    assert "no vertices" in err


def test_bad_field_argument(capsys):
    code, _, err = run(capsys, "center", fx("g1"), "--degree", "0", "--field", "fp:4")
    assert code == 2
    assert "prime" in err or "fp:4" in err
    code, _, err = run(capsys, "center", fx("g1"), "--degree", "0", "--field", "real")
    assert code == 2
    # only ASCII digits name a prime, not an Arabic-Indic 3 or a fullwidth 97
    for bad in ("fp:", "fp:x", "fp:\u0663", "fp:\uff19\uff17"):
        code, _, err = run(capsys, "center", fx("g1"), "--degree", "0", "--field", bad)
        assert code == 2
        assert f"unknown field {bad!r}: use rat or fp:<prime>" in err
        assert "invalid literal" not in err


def test_unknown_command(capsys):
    code, _, _ = run(capsys, "explode", fx("g1"))
    assert code == 2


def alone_env():
    """The environment of a fresh interpreter that imports the leavitt under test."""
    src = str(pathlib.Path(leavitt.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def run_alone(*argv):
    """Exit code, stdout and stderr of one run in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-m", "leavitt.cli", *argv],
        capture_output=True,
        text=True,
        env=alone_env(),
        timeout=60,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_closed_stdout_exits_141_quietly(tmp_path):
    # a fork with 3,000 sinks: about 190 KB of report, more than a pipe buffers,
    # so the run is still writing when the reader closes the pipe
    graph = write_fork(tmp_path, 3000)
    with subprocess.Popen(
        [sys.executable, "-m", "leavitt.cli", "analyze", graph],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=alone_env(),
    ) as proc:
        head = proc.stdout.read(100)
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert head.startswith(b"graph: 3001 vertices, 3000 edges\n")
    assert (code, err) == (141, b"")


def test_import_leaves_dataclasses_typing_and_json_unloaded():
    # -S: no site hook runs, since a .pth file may import typing itself
    src = str(pathlib.Path(leavitt.__file__).resolve().parents[1])
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import leavitt.cli; "
        "print(sorted({'dataclasses', 'inspect', 'typing', 'json'} & set(sys.modules))); "
        "sys.exit(leavitt.cli.main(['analyze', sys.argv[2], '--json']))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code, src, fx("g6")], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    loaded, _, report = proc.stdout.partition("\n")
    assert loaded == "[]"
    assert json.loads(report)["payload"]["isomorphism"] == "F"


def test_repeated_calls_print_what_single_runs_print(monkeypatch, capsys):
    # main keeps one parser for the process; neither a failed parse nor a
    # finished command may change what the next call prints
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal
    calls = [
        ("center", fx("g3"), "--degree", "x"),
        ("verify", fx("g3"), "--max-degree", "2"),
        ("center", fx("g1"), "--degree", "-1"),
    ]
    in_process = [run(capsys, *argv) for argv in calls]
    assert [code for code, _, _ in in_process] == [2, 0, 0]
    assert in_process == [run_alone(*argv) for argv in calls]
