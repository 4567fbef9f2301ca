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

from msolv import cli, exp_groups, fingroup, models

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

    for mod in (fingroup, models, exp_groups):
        monkeypatch.setattr(mod, "normal_subgroups", normal_subgroups)
    monkeypatch.setattr(fingroup, "normal_closure", normal_closure)
    _run_seed0("corpus-scan", tmp_path, capsys)
    assert len(workloads.CORPUS) == 10
    assert counts == {"normal_subgroups": 10, "normal_closure": 96}


def test_corpus_scan_takes_each_quotient_once(tmp_path, capsys, monkeypatch):
    # 30 group scans at m = 1, 2, 3 read 20 distinct derived terms, one
    # quotient with a projection each; the faithfulness verdicts take their
    # quotients without one, so the only other Homomorphism.build is the
    # one `semidirect_product` makes from its action's generator images
    counts = {"quotient_by": 0, "build": 0}
    true_quotient, true_build = fingroup.quotient_by, fingroup.Homomorphism.build

    def quotient_by(G, N):
        counts["quotient_by"] += 1
        return true_quotient(G, N)

    def build(source, target, images):
        counts["build"] += 1
        return true_build(source, target, images)

    for mod in (fingroup, models):
        monkeypatch.setattr(mod, "quotient_by", quotient_by)
    monkeypatch.setattr(fingroup.Homomorphism, "build", staticmethod(build))
    _run_seed0("corpus-scan", tmp_path, capsys)
    assert counts == {"quotient_by": 20, "build": 21}


def test_probe_sweep_enumerates_its_prefix_once(tmp_path, capsys, monkeypatch):
    # four probes of W(2, 2, 3) at cap 20000: one prefix BFS, and no BFS
    # from x^n, whose products are taken along the prefix's tree
    starts = []
    true_bfs = models._bfs

    def bfs(gens, identity, law, cap):
        starts.append(identity)
        return true_bfs(gens, identity, law, cap)

    monkeypatch.setattr(models, "_bfs", bfs)
    _run_seed0("probe-sweep", tmp_path, capsys)
    assert starts == [0]
