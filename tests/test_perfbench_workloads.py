"""The benchmark's seed-0 inputs, run in-process: pinned bytes and shared work.

`perfbench/workloads.py` is loaded read-only by path, as
`test_perfbench_spans.py` loads `spans.py`.  Its corpus-scan and
probe-sweep inputs go through `msolv.cli.main` with the config written to
a temporary directory, and each report's sha256 must equal the pinned one.
Both inputs repeat work across their instances (one corpus at m = 1, 2, 3;
four probes on one prefix of W(2, 2, 3)), which one run does once.
"""

import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

from msolv import cli, fingroup, models

WORKLOADS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks the module up there
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


def _run_seed0(name, tmp_path, capsys):
    args = workloads.cli_args(workloads.WORKLOADS[name], workloads.DEFAULT_SEED, 2, tmp_path)
    rc = cli.main(args)
    out = capsys.readouterr().out
    assert rc == 0, out
    return out


@pytest.mark.parametrize("name", ["corpus-scan", "probe-sweep"])
def test_seed0_report_matches_its_pin(name, tmp_path, capsys):
    out = _run_seed0(name, tmp_path, capsys)
    assert hashlib.sha256(out.encode()).hexdigest() == workloads.PINNED[name]


def test_corpus_scan_builds_each_lattice_once(tmp_path, capsys, monkeypatch):
    # 10 groups at m = 1, 2, 3: one lattice per group, and one normal
    # closure per nontrivial conjugacy class (96 over the corpus) inside it
    counts = {"normal_subgroups": 0, "normal_closure": 0}
    inside = []
    true_subgroups, true_closure = fingroup.normal_subgroups, fingroup.normal_closure

    def normal_subgroups(G):
        counts["normal_subgroups"] += 1
        inside.append(True)
        try:
            return true_subgroups(G)
        finally:
            inside.pop()

    def normal_closure(*args, **kwargs):
        counts["normal_closure"] += bool(inside)
        return true_closure(*args, **kwargs)

    for mod in (fingroup, models, cli):
        monkeypatch.setattr(mod, "normal_subgroups", normal_subgroups)
    monkeypatch.setattr(fingroup, "normal_closure", normal_closure)
    _run_seed0("corpus-scan", tmp_path, capsys)
    assert len(workloads.CORPUS) == 10
    assert counts == {"normal_subgroups": 10, "normal_closure": 96}


def test_probe_sweep_enumerates_its_prefix_once(tmp_path, capsys, monkeypatch):
    # four probes of W(2, 2, 3) at cap 20000: one prefix BFS, then one BFS
    # from x^n per instance
    starts = []
    true_bfs = models._bfs

    def bfs(gens, identity, law, cap):
        starts.append(identity)
        return true_bfs(gens, identity, law, cap)

    monkeypatch.setattr(models, "_bfs", bfs)
    _run_seed0("probe-sweep", tmp_path, capsys)
    assert len(starts) == 5
    assert starts[0] == 0 and all(s != 0 for s in starts[1:])
