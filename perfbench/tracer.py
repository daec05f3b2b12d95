"""Span recorder for the traced benchmark run.

The program is not instrumented; instead ``SpanRecorder.install`` wraps the
public functions listed in ``TRACED`` from outside.  Each call becomes a span.
Spans are aggregated in memory per function: call count, total time, and self
time (the span minus the time covered by its child spans).  Per operation the
recorder also keeps one root span (operation name, start, end); ``dump``
writes everything out when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# Layer (module) -> public functions wrapped in that module.  ``Class.method``
# names are patched on the class; plain names are patched in every leavitt
# module namespace that holds them, because ``cli`` and ``center`` import by
# name.  A name the program no longer has reports zero calls.
TRACED = {
    "graph": ("parse_graph", "canonical_specialization", "cycle_exits"),
    "hereditary": (
        "perp",
        "is_finitary",
        "arrival_paths",
        "minimal_hereditary_sets",
        "equivalence_classes",
        "finitary_boolean_subalgebra",
        "center_structure",
    ),
    "center": (
        "idempotent",
        "cycle_generator",
        "embed",
        "center_basis",
        "center_dimension_predicted",
        "oracle_bound",
        "brute_force_center",
        "span_dimension",
        "spans_equal",
    ),
    "algebra": (
        "Element.__add__",
        "Element.__sub__",
        "Element.__neg__",
        "Element.__mul__",
        "Element.__pow__",
        "Element.__eq__",
        "Element.__str__",
        "Element.star",
        "LeavittAlgebra.__eq__",
        "LeavittAlgebra.element",
        "LeavittAlgebra.one",
    ),
    "cli": ("main",),
}


def metric_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for layer, names in TRACED.items():
        out.append((f"{layer}.self_s", "s", "lower"))
        for name in names:
            out.append((f"{layer}.{name}.self_s", "s", "lower"))
            out.append((f"{layer}.{name}.calls", "count", "lower"))
    out.append(("trace.overhead", "ratio", "lower"))
    out.append(("trace.coverage", "ratio", "higher"))
    return out


class SpanRecorder:
    def __init__(self):
        self._open: list[int] = []  # child time (ns) accumulated by each open span
        self.stats: dict[str, list[int]] = {}  # name -> [calls, self ns, total ns]
        self.roots: list[tuple[str, int, int]] = []
        self.missing: list[str] = []

    def _wrap(self, name: str, fn):
        stats = self.stats[name]
        open_spans = self._open
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def span(*args, **kwargs):
            open_spans.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = open_spans.pop()
                stats[0] += 1
                stats[1] += elapsed - child
                stats[2] += elapsed
                if open_spans:
                    open_spans[-1] += elapsed

        return span

    def install(self, package: str = "leavitt") -> None:
        """Wrap every function in ``TRACED``; the package must be imported."""
        modules = [m for n, m in sys.modules.items() if n == package or n.startswith(package + ".")]
        for layer, names in TRACED.items():
            module = sys.modules[f"{package}.{layer}"]
            for name in names:
                key = f"{layer}.{name}"
                self.stats[key] = [0, 0, 0]
                owner_name, _, attr = name.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = vars(owner).get(attr)
                if original is None:
                    self.missing.append(key)
                    continue
                wrapped = self._wrap(key, original)
                if owner_name:
                    setattr(owner, attr, wrapped)
                    continue
                for mod in modules:
                    for k, v in list(vars(mod).items()):
                        if v is original:
                            setattr(mod, k, wrapped)

    def root(self, name: str, start_ns: int, end_ns: int) -> None:
        self.roots.append((name, start_ns, end_ns))

    def layer_metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for layer, names in TRACED.items():
            total = 0
            for name in names:
                calls, self_ns, _ = self.stats.get(f"{layer}.{name}", (0, 0, 0))
                out[f"{layer}.{name}.self_s"] = self_ns / 1e9
                out[f"{layer}.{name}.calls"] = calls
                total += self_ns
            out[f"{layer}.self_s"] = total / 1e9
        return out

    def dump(self, path) -> None:
        record = {
            "functions": {
                k: {"calls": c, "self_s": s / 1e9, "total_s": t / 1e9}
                for k, (c, s, t) in self.stats.items()
            },
            "missing": self.missing,
            "operations": [
                {"name": n, "start_s": s / 1e9, "end_s": e / 1e9} for n, s, e in self.roots
            ],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
