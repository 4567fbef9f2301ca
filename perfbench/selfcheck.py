"""Self-check of the benchmark harness on tiny inputs.

    python3 perfbench/selfcheck.py

Runs the harness in both trace modes on a W(2,2,2) centralizer and a
2-group corpus scan, and exits non-zero unless every metric named in
BENCHMARK.json is emitted, metric_map.json covers exactly the per-layer
metrics, every tiny run passes its gate, the traced runs see the layers
they call, and a corrupted report, a failed verdict, a traceback and a
non-zero exit each trip the gate.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import run
from workloads import Workload

# Per-layer metrics each tiny traced run must see above zero: they are reached
# only through bindings made with ``from .x import f``, so they show that the
# wrappers replaced those bindings too.
NONZERO = {
    "tiny-centralizer": ("fingroup.closure_s", "models.centralizer_experiment.self_s", "zmodlin.howell_form.calls"),
    "tiny-corpus": ("fingroup.normal_subgroups_s", "fingroup.subgroup_closure.calls", "models.centerfree_scan_s"),
}

TINY = (
    Workload(
        "tiny-centralizer",
        "centralizer",
        lambda rng, jobs: (["--r", "2", "--e", "2", "--m", "2"], None),
        lambda doc: None,
    ),
    Workload(
        "tiny-corpus",
        "centerfree-scan",
        lambda rng, jobs: ([], {"groups": "builtin S_3;builtin Q8", "instances": [{"m": 1}, {"m": 2}]}),
        lambda doc: None,
    ),
)


def check_result(result: dict, wanted: list) -> list:
    problems = [f"{result['workload']}: {f}" for f in result["failures"]]
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"] or not math.isfinite(got["value"]):
            problems.append(f"{result['workload']}: metric {m['name']} missing or not finite: {got}")
    if result["trace"]:
        for name in NONZERO[result["workload"]]:
            if not result["metrics"][name]["value"] > 0:
                problems.append(f"{result['workload']}: traced run saw no {name}")
    return problems


def check_gate(workload: Workload) -> list:
    args = run.cli_args(workload, 0, 1, run.OUT)
    good = run.spawn(run.CLI + args)
    pinned = hashlib.sha256(good.stdout).hexdigest()
    # still valid JSON with every verdict passed, so only the hash can catch it
    flipped = good.stdout.replace(b'"index":0', b'"index":7', 1)
    failed = good.stdout.replace(b'"passed":true', b'"passed":false')
    cases = (
        ("pinned report", good, pinned, None),
        ("corrupted report", replace(good, stdout=flipped), pinned, "sha256"),
        ("failed verdict", replace(good, stdout=failed), hashlib.sha256(failed).hexdigest(), "verdict"),
        ("non-zero exit", replace(good, code=1), pinned, "exit code"),
        ("traceback", replace(good, stderr="Traceback (most recent call last):"), pinned, "traceback"),
    )
    problems = []
    for label, sample, reference, expect in cases:
        why = run.Gate(workload, reference).fault(sample)
        if (why is None) != (expect is None) or (expect and expect not in why):
            problems.append(f"gate on {label}: got {why!r}, expected {expect!r}")
    # without a pin the first report is the reference, so a later flip fails
    gate = run.Gate(workload, None)
    if gate.fault(good) is not None or gate.fault(replace(good, stdout=flipped)) is None:
        problems.append("unpinned gate did not hold the first report as reference")
    return problems


def main() -> int:
    spec = json.loads(run.SPEC.read_text())
    run.OUT.mkdir(exist_ok=True)
    problems = []
    with open(Path(__file__).with_name("metric_map.json"), encoding="utf-8") as fh:
        mapped = set(json.load(fh)["metrics"])
    named = {m["name"] for m in spec["per_layer"]}
    if mapped != named:
        problems.append(f"metric_map.json and per_layer differ: {sorted(mapped ^ named)}")
    for workload in TINY:
        for traced, key in ((False, "end_to_end"), (True, "per_layer")):
            result = run.run_workload(workload, 0, 1, traced, spec)
            problems += check_result(result, spec[key])
    problems += check_gate(TINY[0])
    for p in problems:
        print(f"selfcheck: FAIL {p}")
    print("selfcheck: ok" if not problems else f"selfcheck: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
