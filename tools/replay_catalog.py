"""Replay every entry of the benchmark catalog and check its output.

Each entry of the four ``perfbench`` workloads runs once, in this process,
through ``leavitt.cli.main``, and is checked as the benchmark checks it
(``perfbench/worker.py``'s ``check``): exit code 0, the structural check of
its operation, and the stdout sha256 recorded in ``perfbench/catalog``.  Each
entry's graph is written to a file of its own in a temporary directory.
Prints each failing entry by name, then a count per workload and in all, and
exits 1 if any entry failed.  Nothing under ``perfbench`` is written.

    python3 tools/replay_catalog.py [workload ...]
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import tempfile

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import worker  # noqa: E402  (it puts the checkout's src first on the path)
import workloads  # noqa: E402


def replay(workload: str, count: int | None = None) -> tuple[int, list[str]]:
    """Replay the first ``count`` entries of ``workload`` (all of them by
    default).  Returns how many ran and why each failing one failed."""
    cli = worker.load_cli()
    _, digests = workloads.load_catalog(workload)
    indexes = range(len(digests))[:count]
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        for i in indexes:
            op = workloads.catalog_op(workload, i)
            path = pathlib.Path(tmp, f"op{i}.lpa")
            path.write_text(op.text, encoding="utf-8")
            _, code, stdout = worker.run_op(cli, op, str(path))
            why = worker.check(op, code, stdout, digests[i])
            if why is not None:
                failures.append(f"{op.name}: {why}")
    return len(indexes), failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", nargs="*", help=f"any of {', '.join(workloads.WORKLOADS)} (default: all)")
    args = parser.parse_args(argv)
    unknown = sorted(set(args.workload) - set(workloads.WORKLOADS))
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}")
    total = failed = 0
    for workload in args.workload or workloads.WORKLOADS:
        count, failures = replay(workload)
        for line in failures:
            print(line)
        print(f"{workload}: {count} entries, {len(failures)} failed", flush=True)
        total += count
        failed += len(failures)
    print(f"all: {total} entries, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
