"""The four benchmark workloads: CLI inputs generated from a seed.

Why each workload was chosen is recorded in BENCHMARK.json, and which
per-layer metric should move which end-to-end metric on which workload in
metric_map.json.

Each workload is a family of inputs of equal work.  The seed picks one
member through ``random.Random(f"{name}:{seed}")``; the CLI only ever sees
the generated argv and config file.  ``PINNED`` holds the sha256 of each
workload's report at ``DEFAULT_SEED``; ``check`` holds invariants of every
report of the family, so a run that answers a different question fails even
at seeds without a pin.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

DEFAULT_SEED = 0

CORPUS = (
    "builtin S_3",
    "builtin S_4",
    "builtin S_5",
    "builtin D_8",
    "builtin D_24",
    "builtin D_48",
    "builtin Q8",
    "builtin C_12",
    "builtin paper_counterexample",
    "semidirect(builtin C_12, builtin C_6, action=[[[5]]])",
)

KCAP_TOWER = (4, 5, 7, 8, 9, 11, 13)


@dataclass(frozen=True)
class Workload:
    name: str
    experiment: str
    # (rng, jobs) -> (CLI flags after the experiment name, config or None)
    inputs: Callable
    # parsed report -> None, or why the report is wrong
    check: Callable[[dict], Optional[str]]


def _w232_inputs(rng, jobs):
    i, n = rng.choice((1, 2)), rng.choice((1, 2, 4, 5, 7, 8))
    return ["--r", "2", "--e", "3", "--m", "2", "--i", str(i), "--n", str(n)], None


def _w232_check(doc):
    orders = {x["report"]["group_order"] for x in doc["experiments"]}
    return None if orders == {531441} else f"group orders {sorted(orders)}, expected 531441"


def _probe_inputs(rng, jobs):
    pairs = rng.sample([(i, n) for i in (1, 2) for n in (1, 3, 5, 7)], 4)
    flags = ["--capped", "--r", "2", "--e", "2", "--m", "3", "--cap", "20000", "--jobs", str(jobs)]
    return flags, {"instances": [{"i": i, "n": n} for i, n in pairs]}


def _probe_check(doc):
    seen = [x["report"]["enumerated"] for x in doc["experiments"]]
    return None if seen == [20000] * 4 else f"enumerated {seen}, expected 4 x 20000"


def _kcap_inputs(rng, jobs):
    # i stays 1: under cProfile, i = 2 spends about 10% more in the Howell
    # row operations than i = 1, while n in {1, 2, 3} costs the same
    n = rng.choice((1, 2, 3))
    tower = ",".join(map(str, KCAP_TOWER))
    return ["--r", "2", "--m", "2", "--tower", tower, "--i", "1", "--n", str(n)], None


def _kcap_check(doc):
    rows = doc["experiments"][0]["report"]["tower"]
    if tuple(r["e"] for r in rows) != KCAP_TOWER:
        return "tower exponents differ from the request"
    if any(r["verified_brute"] for r in rows):
        return "a tower row was brute-verified; the workload is meant to be linear-only"
    return None


def _corpus_inputs(rng, jobs):
    order = list(CORPUS)
    rng.shuffle(order)
    return [], {"groups": ";".join(order), "instances": [{"m": 1}, {"m": 2}, {"m": 3}]}


def _corpus_check(doc):
    counts = [len(x["report"]["entries"]) for x in doc["experiments"]]
    return None if counts == [len(CORPUS)] * 3 else f"entry counts {counts}"


WORKLOADS = {
    w.name: w
    for w in (
        Workload("w232-full", "centralizer", _w232_inputs, _w232_check),
        Workload("probe-sweep", "centralizer", _probe_inputs, _probe_check),
        Workload("kcap-linear", "solv-model", _kcap_inputs, _kcap_check),
        Workload("corpus-scan", "centerfree-scan", _corpus_inputs, _corpus_check),
    )
}

# sha256 of the report bytes at DEFAULT_SEED, from the CLI at the commit that
# defined this benchmark.  A change that alters a report must not pass.
PINNED = {
    "w232-full": "eb4b1d7ebb97c6c179a02007fbec7f47c97934d3a248dfa156f12f80a601de14",
    "probe-sweep": "8143c2f72838e6069ac08655b01564b36ef4161d3e46a840d9980c732886ea15",
    "kcap-linear": "9fdec7ef0ef7291cfd5dbb2bce0028e856eeda35a1d9cdd2e713be5e244b7d78",
    "corpus-scan": "fd8e148c3323dde48a9c636c5eca8ef76f5d5003df985bbd0ebef574f0f6543a",
}


def cli_args(workload: Workload, seed: int, jobs: int, workdir: Path) -> list:
    """The argv after ``msolv`` for this seed; writes the config file if any."""
    flags, config = workload.inputs(random.Random(f"{workload.name}:{seed}"), jobs)
    args = [workload.experiment, *flags]
    if config is not None:
        path = workdir / f"{workload.name}.config.json"
        path.write_text(json.dumps(config, sort_keys=True))
        args += ["--config", str(path)]
    return args
