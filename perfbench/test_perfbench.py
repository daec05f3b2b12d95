"""Tests of the benchmark itself: determinism and output schema.

    python3 -m pytest perfbench
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

_INPUTS_CODE = """
import hashlib, sys
sys.path.insert(0, sys.argv[1])
import workloads
h = hashlib.sha256()
for w in workloads.WORKLOADS:
    strata, _ = workloads.load_catalog(w)
    ops = [workloads.catalog_op(w, i) for i in workloads.op_order(strata, 7)[:40]]
    for op in ops + workloads.probe_ops(w, 7):
        h.update(repr((op.name, op.text, op.args)).encode())
print(h.hexdigest())
"""


@pytest.fixture
def scratch():
    """A directory inside the checkout's ignored work area."""
    path = run.WORK / f"test-{os.getpid()}"
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _python(args, hash_seed, program=(sys.executable,)):
    env = {**os.environ, "PYTHONHASHSEED": str(hash_seed)}
    return subprocess.run(
        [*program, *args], env=env, cwd=ROOT, capture_output=True, text=True,
        timeout=300, check=True,
    )


def test_one_seed_gives_identical_inputs_twice():
    first = _python(["-c", _INPUTS_CODE, str(HERE)], 1).stdout
    second = _python(["-c", _INPUTS_CODE, str(HERE)], 2).stdout
    assert first == second


def test_no_two_catalog_entries_share_a_graph():
    for w in workloads.WORKLOADS:
        size = min(workloads.CATALOG_SIZE[w], 200)
        texts = {workloads.catalog_op(w, i).text for i in range(size)}
        assert len(texts) == size


def test_op_order_keeps_every_prefix_balanced():
    strata, _ = workloads.load_catalog("oracle-corpus")
    for seed in (1, 2):
        order = workloads.op_order(strata, seed)
        assert sorted(order) == list(range(len(strata)))
        first_round = {strata[i] for i in order[: workloads.STRATA]}
        assert first_round == set(range(workloads.STRATA))
    assert workloads.op_order(strata, 1) != workloads.op_order(strata, 2)


def _traced_calls(scratch, workload, tag):
    out = scratch / f"{workload}-{tag}.json"
    _python(
        [str(HERE / "worker.py"), "--workload", workload, "--seed", "3", "--mode", "fixed",
         "--count", "4", "--spans", str(scratch / f"spans-{tag}.json"),
         "--workdir", str(scratch / f"work-{tag}"), "--out", str(out)],
        3,
    )
    result = json.loads(out.read_text())
    assert result["failures"] == []  # exit codes and stdout digests all match
    return {k: v for k, v in result["layers"].items() if k.endswith(".calls")}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_calls_and_digests_repeat(scratch, workload):
    first = _traced_calls(scratch, workload, "a")
    assert first == _traced_calls(scratch, workload, "b")
    assert first["cli.main.calls"] == 4


def test_benchmark_json_matches_the_metrics_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracer.metric_names()


def _last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
def test_output_schema(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = _python(
        ["--workload", "cycle-powers", "--seed", "5", "--seconds", "1", "--trace", trace],
        0, program=spec["command"],
    )
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = spec["end_to_end"] if trace == "0" else spec["per_layer"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())
        assert "fail_rate" in proc.stdout
        for op in workloads.probe_ops("cycle-powers", 5):
            assert op.name in proc.stdout


def test_fails_without_the_program(scratch):
    shutil.copytree(HERE, scratch / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", scratch)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "oracle-corpus", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=scratch, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
