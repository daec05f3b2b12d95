"""End-to-end benchmark of the leavitt CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py            # every workload, untraced and traced

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src``.  Four workloads (see ``workloads.WHY``) each run real CLI
operations -- ``leavitt.cli.main(argv)`` on generated graph files, stdout
captured -- in a closed loop with one client, in a fresh child process.  No
two operations of a run share an input file.  Every output is checked: exit
code 0, ``all degrees OK`` for ``verify``, and the sha256 of stdout recorded in
``catalog/`` (``record.py``).

``--trace 0`` measures for ``--seconds`` of loop time and reports the
end-to-end metrics: ops_per_s, p50_ms, p90_ms (a failed operation ranks
slower than every completed one), setup_s (median import time of
``leavitt.cli`` in fresh interpreters started between batches, warm bytecode
cache) and peak_rss_mb
(peak resident memory of the workload's child process).  ``--trace 1`` runs a
fixed list of five operations per second of ``--seconds`` twice, untraced and
then traced in another fresh process, and reports per-layer self time and
call counts, ``trace.overhead`` (traced over untraced loop time) and
``trace.coverage`` (share of the traced loop time inside traced layers).

The report goes to stdout; its last line is one JSON object with the keys
correct, attempted, failed and metrics.  fail_rate is printed in the report
only: it counts the deep-feeder probes of ``cycle-powers``, which are kept out
of the latency samples and of the JSON attempted/failed counts.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
TRACE_OPS_PER_SECOND = 5
DEADLINE_S = 170  # a run must end within 180 s


class Runner:
    """Starts the child processes of one benchmark invocation."""

    def __init__(self, seed: int):
        self.seed = seed
        # set iteration order can change what the program does (the deep-feeder
        # probes overflow the recursion limit for some orders only), so the
        # hash seed is part of the inputs a seed fixes
        self.env = {**os.environ, "PYTHONHASHSEED": str(seed % 2**32)}
        self.deadline = time.monotonic() + DEADLINE_S
        self.children = 0

    def _run(self, argv: list[str]) -> subprocess.CompletedProcess:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError("benchmark ran out of time")
        return subprocess.run(
            argv, env=self.env, cwd=ROOT, timeout=remaining, check=True,
            stdout=subprocess.PIPE, text=True,
        )

    def worker(self, workload: str, *args: str) -> dict:
        self.children += 1
        tag = f"{os.getpid()}-{self.children}"
        out = WORK / f"result-{tag}.json"
        argv = [
            sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(self.seed), "--workdir", str(WORK / f"work-{tag}"),
            "--out", str(out), *args,
        ]
        try:
            self._run(argv)
            return json.loads(out.read_text(encoding="utf-8"))
        finally:
            out.unlink(missing_ok=True)


def _quantile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def measure(runner: Runner, workload: str, seconds: float) -> tuple[dict, dict]:
    """The untraced run: (result summary, end-to-end metrics)."""
    res = runner.worker(workload, "--mode", "timed", "--seconds", str(seconds))
    done = res["samples_s"]
    failed = len(res["failures"])
    # a failed operation ranks slower than every completed one
    latencies = [s * 1000 for s in done] + [res["loop_s"] * 1000 + 1] * failed
    p90 = _quantile(latencies, 90)
    res["beyond_p90"] = sum(x > p90 for x in latencies)
    metrics = {
        "ops_per_s": len(done) / res["loop_s"],
        "p50_ms": _quantile(latencies, 50),
        "p90_ms": p90,
        "setup_s": statistics.median(res["imports_s"]),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    return res, metrics


def trace(runner: Runner, workload: str, seconds: float) -> tuple[dict, dict, dict]:
    """The fixed-list run, untraced and traced: (untraced, traced, metrics)."""
    count = str(max(1, int(TRACE_OPS_PER_SECOND * seconds)))
    plain = runner.worker(workload, "--mode", "fixed", "--count", count)
    spans = WORK / f"trace-{workload}-seed{runner.seed}.json"
    traced = runner.worker(
        workload, "--mode", "fixed", "--count", count, "--spans", str(spans)
    )
    metrics = dict(traced["layers"])
    metrics["trace.overhead"] = traced["loop_s"] / plain["loop_s"]
    covered = sum(metrics[f"{layer}.self_s"] for layer in tracer.TRACED)
    metrics["trace.coverage"] = covered / traced["loop_s"]
    traced["spans"] = str(spans.relative_to(ROOT))
    return plain, traced, metrics


def _fmt(value) -> str:
    return f"{value:.4g}" if isinstance(value, float) else str(value)


def report_measure(workload: str, seed: int, res: dict, m: dict) -> None:
    done = len(res["samples_s"])
    failed = len(res["failures"])
    attempted = done + failed
    probes = res["probes"]
    probe_failed = [p for p in probes if p["error"]]
    print(f"workload {workload} (seed {seed}): {workloads.WHY[workload]}")
    print(
        f"  ops_per_s    {_fmt(m['ops_per_s'])} 1/s  "
        f"({done} completed in {res['loop_s']:.2f} s of loop time)"
    )
    print(f"  p50_ms       {_fmt(m['p50_ms'])} ms  ({attempted} samples)")
    print(f"  p90_ms       {_fmt(m['p90_ms'])} ms  ({attempted} samples, {res['beyond_p90']} beyond it)")
    fail_rate = (failed + len(probe_failed)) / (attempted + len(probes))
    print(
        f"  fail_rate    {_fmt(fail_rate)}  ({failed + len(probe_failed)} of "
        f"{attempted + len(probes)} attempted, {len(probes)} of them deep-feeder probes)"
    )
    print(
        f"  setup_s      {_fmt(m['setup_s'])} s  (median of {len(res['imports_s'])} imports of "
        "leavitt.cli in fresh interpreters between batches, warm bytecode cache)"
    )
    print(f"  peak_rss_mb  {_fmt(m['peak_rss_mb'])} MB  (workload child process, before the probes)")
    for failure in res["failures"]:
        print(f"  FAILED {failure}")
    for p in probes:
        outcome = f"FAILED {p['error']}" if p["error"] else "ok"
        print(f"  {p['name']}: {outcome} after {p['seconds']:.3f} s (not timed)")


def report_trace(workload: str, plain: dict, traced: dict, m: dict) -> None:
    print(
        f"traced run of {workload}: {traced['attempted']} operations, untraced "
        f"{plain['loop_s']:.2f} s, traced {traced['loop_s']:.2f} s, trace.overhead "
        f"{_fmt(m['trace.overhead'])}, trace.coverage {_fmt(m['trace.coverage'])}; spans in {traced['spans']}"
    )
    for layer, names in tracer.TRACED.items():
        print(f"  {layer + '.self_s':40} {m[layer + '.self_s']:10.4f} s")
        rows = sorted(names, key=lambda n: -m[f"{layer}.{n}.self_s"])
        for name in rows:
            key = f"{layer}.{name}"
            if m[key + ".calls"]:
                print(f"    {key:38} {m[key + '.self_s']:10.4f} s {m[key + '.calls']:10} calls")
    for failure in plain["failures"] + traced["failures"]:
        print(f"  FAILED {failure}")
    if traced["missing"]:
        print(f"  not found in the program: {', '.join(traced['missing'])}")


def _summary(results: list[dict], metrics: dict) -> str:
    return json.dumps(
        {
            "correct": all(r["incorrect"] == 0 for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(len(r["failures"]) for r in results),
            "metrics": metrics,
        }
    )


def _units() -> dict[str, str]:
    units = dict(END_TO_END)
    units.update((name, unit) for name, unit, _ in tracer.metric_names())
    return units


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark the leavitt CLI.")
    parser.add_argument("--workload", default="all", choices=("all", *workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0, help="loop time of a run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in (SRC / "leavitt" / "cli.py", workloads.CATALOG_DIR) if not p.exists()]
    if missing:
        print(f"error: not a leavitt checkout, missing {', '.join(map(str, missing))}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    runner = Runner(args.seed)
    units = _units()
    if args.workload != "all":
        if args.trace:
            plain, traced, m = trace(runner, args.workload, args.seconds)
            report_trace(args.workload, plain, traced, m)
            results = [plain, traced]
        else:
            res, m = measure(runner, args.workload, args.seconds)
            report_measure(args.workload, args.seed, res, m)
            results = [res]
        metrics = {k: {"value": v, "unit": units[k]} for k, v in m.items()}
        print(_summary(results, metrics))
        return 0

    results, metrics = [], {}
    for workload in workloads.WORKLOADS:
        runner.deadline = time.monotonic() + DEADLINE_S
        res, m = measure(runner, workload, args.seconds)
        report_measure(workload, args.seed, res, m)
        plain, traced, tm = trace(runner, workload, args.seconds)
        report_trace(workload, plain, traced, tm)
        results += [res, plain, traced]
        for k, v in {**m, **tm}.items():
            metrics[f"{workload}.{k}"] = {"value": v, "unit": units[k]}
    print(_summary(results, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
