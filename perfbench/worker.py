"""Benchmark child process: runs one workload's operations in-process.

Started by ``run.py``, one fresh process per workload and mode, so that
peak memory and every cache belong to that workload alone.  Operations call
``leavitt.cli.main(argv)`` back to back with stdout captured; interpreter
start-up is measured separately by ``run.py`` as ``setup_s``.

Modes:
  timed   run catalog operations until ``--seconds`` of loop time have passed,
          then the deep-feeder probes; reports per-operation latencies and,
          sampled between batches, the import time of ``leavitt.cli`` in a
          fresh interpreter with a warm bytecode cache
  fixed   run exactly ``--count`` operations (the traced run and its untraced
          twin), so call counts repeat for a seed; ``--spans`` records spans

The result is written as JSON to ``--out``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(HERE)]

import workloads  # noqa: E402
from tracer import SpanRecorder  # noqa: E402

BATCH = 20  # operations whose input files are written between timed stretches
IMPORTS = 11  # set-up samples per run, spread evenly over the loop time

_IMPORT_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import leavitt.cli; print(time.perf_counter() - t)"
)


def import_seconds() -> float:
    """Time to import leavitt.cli in a fresh interpreter: the fixed cost of
    every CLI invocation."""
    argv = [sys.executable, "-c", _IMPORT_CODE, str(SRC)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True, timeout=60)
    return float(done.stdout)


def load_cli():
    """The checkout's ``leavitt.cli`` module; its ``main`` is looked up per
    call, so the traced run sees the wrapped one."""
    import leavitt.cli

    if not Path(leavitt.cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"leavitt imported from {leavitt.cli.__file__}, not from {SRC}")
    return leavitt.cli


def run_op(cli, op: workloads.Op, path: str):
    """Call the CLI once.  Returns (seconds, exit code or exception name, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(op.argv(path))
        except Exception as exc:  # the program failed; the run goes on
            code = type(exc).__name__
    return time.perf_counter() - start, code, out.getvalue()


def check(op: workloads.Op, code, stdout: str, digest: str | None) -> str | None:
    """Why the operation failed, or None when its output is correct."""
    if code != 0:
        return f"exit {code}" if isinstance(code, int) else str(code)
    if op.args[0] == "verify" and not stdout.endswith("all degrees OK\n"):
        return "verify did not print 'all degrees OK'"
    if op.expected_dim is not None:
        lines = stdout.splitlines()
        header = f"(predicted dimension {op.expected_dim}):"
        if len(lines) != op.expected_dim + 2 or not lines[1].endswith(header):
            return f"expected {op.expected_dim} basis elements"
    if digest is not None and hashlib.sha256(stdout.encode()).hexdigest() != digest:
        return "stdout digest mismatch"
    return None


def _write(workdir: Path, index: int, op: workloads.Op) -> str:
    path = workdir / f"op{index}.lpa"
    path.write_text(op.text, encoding="utf-8")
    return str(path)


def timed(cli, workload: str, seed: int, seconds: float, workdir: Path) -> dict:
    strata, digests = workloads.load_catalog(workload)
    order = workloads.op_order(strata, seed)
    samples, failures = [], []
    incorrect = 0
    loop_s = 0.0
    pos = 0
    import_seconds()  # warms the bytecode cache
    # set-up is sampled between batches, so it sees the same machine as the loop
    imports: list[float] = []
    while loop_s < seconds and pos < len(order):
        batch = [(i, workloads.catalog_op(workload, i)) for i in order[pos : pos + BATCH]]
        paths = [_write(workdir, i, op) for i, op in batch]
        start = time.perf_counter()
        for (i, op), path in zip(batch, paths):
            pos += 1
            elapsed, code, stdout = run_op(cli, op, path)
            why = check(op, code, stdout, digests[i])
            if why is None:
                samples.append(elapsed)
            else:
                failures.append(f"{op.name}: {why}")
                incorrect += code == 0
            if loop_s + time.perf_counter() - start >= seconds:
                break
        loop_s += time.perf_counter() - start
        for path in paths:
            os.remove(path)
        if loop_s >= len(imports) * seconds / IMPORTS:
            imports.append(import_seconds())
    while len(imports) < IMPORTS:
        imports.append(import_seconds())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    probes = []
    for k, op in enumerate(workloads.probe_ops(workload, seed)):
        path = _write(workdir, -k - 1, op)
        elapsed, code, stdout = run_op(cli, op, path)
        probes.append({"name": op.name, "seconds": elapsed, "error": check(op, code, stdout, None)})
        os.remove(path)
    return {
        "attempted": pos,
        "samples_s": samples,
        "failures": failures,
        "incorrect": incorrect,
        "loop_s": loop_s,
        "imports_s": imports,
        "peak_rss_mb": peak_rss_mb,
        "probes": probes,
    }


def fixed(cli, workload: str, seed: int, count: int, workdir: Path, recorder) -> dict:
    strata, digests = workloads.load_catalog(workload)
    indexes = workloads.op_order(strata, seed)[:count]
    ops = [(i, workloads.catalog_op(workload, i)) for i in indexes]
    paths = [_write(workdir, i, op) for i, op in ops]
    if recorder is not None:
        recorder.install()
    failures = []
    incorrect = 0
    clock = time.perf_counter_ns
    loop_start = clock()
    for (i, op), path in zip(ops, paths):
        start = clock()
        _, code, stdout = run_op(cli, op, path)
        if recorder is not None:
            recorder.root(op.name, start - loop_start, clock() - loop_start)
        why = check(op, code, stdout, digests[i])
        if why is not None:
            failures.append(f"{op.name}: {why}")
            incorrect += code == 0
    loop_s = (clock() - loop_start) / 1e9
    result = {"attempted": len(ops), "failures": failures, "incorrect": incorrect, "loop_s": loop_s}
    if recorder is not None:
        result["layers"] = recorder.layer_metrics()
        result["missing"] = recorder.missing
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("timed", "fixed"))
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--count", type=int, default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", help="trace the run and write its spans here")
    args = parser.parse_args(argv)

    cli = load_cli()
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    # objects alive now outlast every operation; keep them out of collections
    gc.collect()
    gc.freeze()
    try:
        if args.mode == "timed":
            result = timed(cli, args.workload, args.seed, args.seconds, workdir)
        else:
            recorder = SpanRecorder() if args.spans else None
            result = fixed(cli, args.workload, args.seed, args.count, workdir, recorder)
            if recorder is not None:
                recorder.dump(args.spans)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
