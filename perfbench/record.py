"""Record the expected output of every catalog entry.

Runs each catalog operation of the named workloads once through
``leavitt.cli.main`` and writes ``catalog/<workload>.txt``: one line per entry,
``<cost stratum> <sha256 of stdout>``.  An entry whose operation fails is an
error, not something to record.  The strata rank entries by the shorter of
two timings taken in separate passes, so that ``workloads.op_order`` can give
every run the same cost mix; they need not be exact.

    python3 perfbench/record.py [workload ...]

Run it only when the program's output is meant to change; the digests are the
benchmark's output check.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile

import worker
import workloads


def _pass(cli, workload: str, path: str) -> tuple[list[float], list[str]]:
    times, digests = [], []
    for i in range(workloads.CATALOG_SIZE[workload]):
        op = workloads.catalog_op(workload, i)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(op.text)
        elapsed, code, stdout = worker.run_op(cli, op, path)
        why = worker.check(op, code, stdout, None)
        if why is not None:
            raise SystemExit(f"{op.name}: {why}")
        times.append(elapsed)
        digests.append(hashlib.sha256(stdout.encode()).hexdigest())
    return times, digests


def record(cli, workload: str) -> None:
    size = workloads.CATALOG_SIZE[workload]
    work = worker.ROOT / ".perfbench"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        first, digests = _pass(cli, workload, f"{tmp}/op.lpa")
        second, again = _pass(cli, workload, f"{tmp}/op.lpa")
    if again != digests:
        raise SystemExit(f"{workload}: output differs between two passes")
    times = [min(a, b) for a, b in zip(first, second)]
    strata = [0] * size
    for rank, i in enumerate(sorted(range(size), key=times.__getitem__)):
        strata[i] = rank * workloads.STRATA // size
    workloads.CATALOG_DIR.mkdir(exist_ok=True)
    with open(workloads.CATALOG_DIR / f"{workload}.txt", "w", encoding="ascii") as fh:
        fh.writelines(f"{s} {d}\n" for s, d in zip(strata, digests))
    print(f"{workload}: {size} entries, {sum(times):.1f} s", flush=True)


if __name__ == "__main__":
    cli = worker.load_cli()
    for name in sys.argv[1:] or workloads.WORKLOADS:
        record(cli, name)
