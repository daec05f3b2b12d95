"""``tools/replay_catalog.py`` replays benchmark catalog entries through the
CLI and names each entry whose output is not the recorded one."""

import importlib.util
import pathlib

import pytest

import leavitt.cli

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "replay_catalog.py"
SPEC = importlib.util.spec_from_file_location("replay_catalog", TOOL)
replay_catalog = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(replay_catalog)


@pytest.mark.parametrize("workload", replay_catalog.workloads.WORKLOADS)
def test_the_first_entries_of_each_workload_replay(workload):
    assert replay_catalog.replay(workload, 20) == (20, [])


def test_a_changed_output_fails_its_entry(monkeypatch):
    # one more line of text changes every stdout digest
    build, view = leavitt.cli._HANDLERS["idempotents"]
    monkeypatch.setitem(leavitt.cli._HANDLERS, "idempotents", (build, lambda p: [*view(p), ""]))
    assert replay_catalog.replay("idempotents-fork", 3) == (
        3,
        [f"idempotents-fork/{i}: stdout digest mismatch" for i in range(3)],
    )


def test_main_names_each_failing_entry_and_exits_1(monkeypatch, capsys):
    def replay(workload):
        return 5, [f"{workload}/4: exit 1"] if workload == "cycle-powers" else []

    monkeypatch.setattr(replay_catalog, "replay", replay)
    assert replay_catalog.main([]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "cycle-powers/4: exit 1" in lines
    assert lines[-1] == "all: 20 entries, 1 failed"
    assert replay_catalog.main(["oracle-corpus"]) == 0
    assert capsys.readouterr().out.splitlines() == ["oracle-corpus: 5 entries, 0 failed", "all: 5 entries, 0 failed"]
    with pytest.raises(SystemExit) as info:
        replay_catalog.main(["no-such-workload"])
    assert info.value.code == 2
    assert "unknown workload 'no-such-workload'" in capsys.readouterr().err
