"""Traced in-process run of the msolv CLI, recording one span per call.

Run as ``python3 perfbench/spans.py SPANS_FILE ARG...`` with ``src`` on
PYTHONPATH: it patches wrappers over the public functions of every msolv
module, runs ``msolv.cli.main(ARG...)`` in this process, keeps the spans in
memory and writes them to SPANS_FILE when the CLI returns.  The report still
goes to stdout, byte for byte as in an untraced run.

A span is (id, parent id, name, thread id, wall start, wall end, thread CPU
start, thread CPU end, count), times in nanoseconds.  Wrappers replace the
function in its own module and every binding other modules made with
``from .x import f``.  Per-layer times are thread CPU time, so that instance
threads interleaved by the GIL are not counted twice.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import sys
import threading
import time

LAYERS = ("cli", "models", "fingroup", "crowell", "foxcalc", "grpring", "zmodlin", "constructions")

# Methods are not wrapped: the hot primitives (FiniteGroup.mul,
# MagnusMatrix.__mul__, QuotientContext.left_mult_perm, ...) are methods run
# hundreds of thousands of times, and primitives.py times them on fixed
# inputs instead.  RMatrix.mul, called a few hundred times, is the one
# public method wrapped, on its class.
METHODS = (("zmodlin", "RMatrix", "mul"),)

# Span counts taken from a function's result.
COUNTS = {"fingroup.closure": lambda group: group.order}

FIELDS = ("id", "parent", "name", "thread", "wall0", "wall1", "cpu0", "cpu1", "count")


class Tracer:
    """Collects spans in memory; ``install`` patches the wrappers in."""

    def __init__(self):
        self.spans: list = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, name: str, func, count=None):
        spans, ids, local = self.spans, self._ids, self._local
        wall, cpu = time.perf_counter_ns, time.thread_time_ns

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            n = None
            w0, c0 = wall(), cpu()
            try:
                result = func(*args, **kwargs)
                if count is not None:
                    n = count(result)
                return result
            finally:
                c1, w1 = cpu(), wall()
                stack.pop()
                spans.append((sid, parent, name, threading.get_ident(), w0, w1, c0, c1, n))

        return traced

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"msolv.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[obj] = self.wrap(name, obj, COUNTS.get(name))
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
        for layer, cls, meth in METHODS:
            klass = getattr(modules[layer], cls)
            setattr(klass, meth, self.wrap(f"{layer}.{cls}.{meth}", getattr(klass, meth)))

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": FIELDS, "spans": self.spans}, fh)


# metric -> span name; the metric is the thread CPU time of the outermost
# spans of that name (a span nested in one of the same name is not added).
TOTALS = {
    "cli.emit_report_s": "cli.emit_report",
    "constructions.counterexample_group_s": "constructions.counterexample_group",
    "crowell.build_complex_s": "crowell.build_complex",
    "fingroup.closure_s": "fingroup.closure",
    "fingroup.derived_series_s": "fingroup.derived_series",
    "fingroup.normal_subgroups_s": "fingroup.normal_subgroups",
    "grpring.right_mult_matrix_s": "grpring.right_mult_matrix",
    "models.build_solv_model_s": "models.build_solv_model",
    "models.centerfree_scan_s": "models.centerfree_scan",
    "models.kcap_tower_s": "models.kcap_tower",
    "zmodlin.howell_form_s": "zmodlin.howell_form",
    "zmodlin.kernel_basis_s": "zmodlin.kernel_basis",
    "zmodlin.rmatrix_mul_s": "zmodlin.RMatrix.mul",
}
# metric -> span name; self time: the span's own time minus its children's.
SELF = {
    "models.centralizer_experiment.self_s": "models.centralizer_experiment",
    "models.centralizer_probe_capped.self_s": "models.centralizer_probe_capped",
}
CALLS = {
    "fingroup.subgroup_closure.calls": "fingroup.subgroup_closure",
    "zmodlin.howell_form.calls": "zmodlin.howell_form",
}
INSTANCE = "cli.run_experiment"


def layer_metrics(rows: list) -> dict:
    """Per-layer metrics from the spans of one traced run."""
    spans = {row[0]: dict(zip(FIELDS, row)) for row in rows}
    for s in spans.values():
        s["cpu"] = (s["cpu1"] - s["cpu0"]) / 1e9
        s["self"] = s["cpu"]
    for s in spans.values():
        if s["parent"] is not None:
            spans[s["parent"]]["self"] -= s["cpu"]

    def outermost(s) -> bool:
        p = s["parent"]
        while p is not None:
            if spans[p]["name"] == s["name"]:
                return False
            p = spans[p]["parent"]
        return True

    def named(name):
        return [s for s in spans.values() if s["name"] == name]

    out = {f"layer.{layer}.self_s": 0.0 for layer in LAYERS}
    for s in spans.values():
        out[f"layer.{s['name'].split('.')[0]}.self_s"] += s["self"]
    for metric, name in TOTALS.items():
        out[metric] = sum(s["cpu"] for s in named(name) if outermost(s))
    for metric, name in SELF.items():
        out[metric] = sum(s["self"] for s in named(name))
    for metric, name in CALLS.items():
        out[metric] = len(named(name))
    closures = named("fingroup.closure")
    closure_s = sum(s["cpu"] for s in closures)
    out["fingroup.closure.elements_per_s"] = (
        sum(s["count"] or 0 for s in closures) / closure_s if closure_s else 0.0
    )
    # instance thread CPU over the wall time from the first instance start to
    # the last instance end: about 1.0 when the GIL serialises the workers
    instances = named(INSTANCE)
    dispatch_s = (max(s["wall1"] for s in instances) - min(s["wall0"] for s in instances)) / 1e9
    out["cli.parallel_ratio"] = sum(s["cpu"] for s in instances) / dispatch_s
    return out


def main(argv: list) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    import msolv.cli

    try:
        return msolv.cli.main(cli_args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
