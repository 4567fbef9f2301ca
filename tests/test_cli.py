"""Tests for the command-line interface.

The DSL parser is checked by round-tripping canonical prints, the JSON
emitter by its canonicalization rules (sorted keys, big integers as
decimal strings, floats rejected, trailing newline), determinism by
byte-comparing runs with different worker counts, and the exit-code
contract by driving main() in-process.  Model reports must be the same
bytes under python -O, which strips asserts.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import msolv
from msolv import cli
from msolv.cli import (
    build_group,
    emit_report,
    main,
    parse_element,
    parse_group_dsl,
    parse_word,
    print_group_spec,
    run_experiment,
    word_text,
)
from msolv.errors import MsolvError, ParseError, VerdictFailed
from msolv.fingroup import PermElem, center, iso_test_small


# ------------------------------------------------------------- DSL parser


ROUND_TRIP_SPECS = [
    "perm 3 : (0 1 2), (0 1)",
    "perm 4 : (0 1 2 3), (1 3)",
    "perm 9 : (0 3 6)(1 4 7)(2 5 8)",
    "mat 5 : [[2, 0], [0, 3]], [[1, 1], [0, 1]]",
    "mat 3 : [[2]]",
    "builtin S_4",
    "builtin C_12",
    "builtin D_8",
    "builtin Q8",
    "builtin paper_counterexample",
    "semidirect(perm 3 : (0 1 2), perm 2 : (0 1), action=[[[2]]])",
]


@pytest.mark.parametrize("text", ROUND_TRIP_SPECS)
def test_round_trip_parse_print(text):
    spec = parse_group_dsl(text)
    canon = print_group_spec(spec)
    again = parse_group_dsl(canon)
    assert print_group_spec(again) == canon
    # both builds give isomorphic groups of equal order
    G1, G2 = build_group(spec), build_group(again)
    assert G1.order == G2.order


def test_bare_builtin_names_accepted():
    for name in ("S_3", "Q8", "paper_counterexample"):
        spec = parse_group_dsl(name)
        assert print_group_spec(spec) == f"builtin {name}"


def test_builtin_orders():
    for name, order in [
        ("S_4", 24),
        ("C_7", 7),
        ("D_8", 8),
        ("D_12", 12),
        ("Q8", 8),
        ("paper_counterexample", 72),
    ]:
        G = build_group(parse_group_dsl(f"builtin {name}"))
        assert G.order == order, name


def test_builtin_q8_is_quaternion():
    G = build_group(parse_group_dsl("builtin Q8"))
    assert G.order == 8
    assert center(G).order == 2
    # exactly one element of order 2 distinguishes Q8 from D8
    assert sum(1 for i in range(8) if G.element_order(i) == 2) == 1


def test_semidirect_comma_disambiguation():
    # generator list continues across commas; the argument separator follows
    text = "semidirect(perm 3 : (0 1 2), (0 1), perm 2 : (0 1), action=[[[1, 0], [0, 1]]])"
    spec = parse_group_dsl(text)
    assert len(spec.normal.gens) == 2  # the comma stayed inside the perm spec
    G = build_group(spec)
    assert G.order == 12  # S3 x C2 under the identity action


def test_semidirect_builds_s3():
    text = "semidirect(perm 3 : (0 1 2), perm 2 : (0 1), action=[[[2]]])"
    G = build_group(parse_group_dsl(text))
    assert G.order == 6
    assert center(G).order == 1


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as ei:
        parse_group_dsl("perm 3 : (0 1 4)")
    assert ei.value.line == 1
    assert ei.value.col > 1
    with pytest.raises(ParseError):
        parse_group_dsl("perm 3 : (0 1 2) trailing")
    with pytest.raises(ParseError):
        parse_group_dsl("mat 4 : [[1, 2], [3]]")  # ragged rows


def test_parse_element_forms():
    G = build_group(parse_group_dsl("builtin S_3"))
    a = parse_element(G, "(0 1 2)")
    assert G.element_order(a) == 3
    b = parse_element(G, "g1*g2")
    assert 0 <= b < 6
    assert parse_element(G, "1") == 0
    with pytest.raises(MsolvError):
        parse_element(G, "(0 1 2 3)")  # wrong degree: not in the group


def test_parse_element_matrix_form():
    G = build_group(parse_group_dsl("mat 5 : [[2, 0], [0, 3]], [[1, 1], [0, 1]]"))
    e = parse_element(G, "[[2, 0], [0, 3]]")
    assert 0 <= e < G.order
    with pytest.raises(MsolvError):
        parse_element(G, "[[0, 0], [0, 0]]")  # singular: not in the group


def test_word_round_trip():
    w = parse_word("x1^2*x2^-1*x1", 2)
    assert word_text(w) == "x1^2*x2^-1*x1"
    assert word_text(parse_word("1", 2)) == "1"
    with pytest.raises(ParseError):
        parse_word("x3", 2)


# ------------------------------------------------------- JSON canonical form


def test_emit_sorted_compact_with_newline():
    data = [{"b": 1, "a": [2, 1]}]
    out = emit_report(data)
    assert out == b'{"experiments":[{"a":[2,1],"b":1}]}\n'


def test_emit_big_ints_as_strings():
    big = 2**129
    out = emit_report([{"v": big, "small": 2**53 - 1}])
    doc = json.loads(out)
    assert doc["experiments"][0]["v"] == str(big)
    assert doc["experiments"][0]["small"] == 2**53 - 1


def test_emit_rejects_floats():
    with pytest.raises(MsolvError):
        emit_report([{"x": 1.5}])


def test_emit_sorts_sets():
    out = emit_report([{"s": {3, 1, 2}}])
    assert json.loads(out)["experiments"][0]["s"] == [1, 2, 3]


def test_emit_is_deterministic_bytes():
    data = [{"kind": "counterexample", "index": 0, "nested": {"z": 1, "a": 2}}]
    assert emit_report(data) == emit_report(list(data))


# ------------------------------------------------------------ run plumbing


def test_run_experiment_seeds_are_per_instance():
    r1 = cli.random.Random("7:0").random()
    r2 = cli.random.Random("7:1").random()
    assert r1 != r2


def test_run_experiment_packages_assertion_as_failure(monkeypatch):
    def boom(params, rng):
        raise AssertionError("witness text")

    monkeypatch.setitem(cli.EXPERIMENTS, "boom", boom)
    res = run_experiment("boom", {}, seed=0, index=0)
    assert res["passed"] is False
    assert res["report"]["witness"] == "witness text"


def test_run_experiment_packages_verdict_failed_as_failure(monkeypatch):
    def boom(params, rng):
        raise VerdictFailed("witness text")

    monkeypatch.setitem(cli.EXPERIMENTS, "boom", boom)
    res = run_experiment("boom", {}, seed=0, index=0)
    assert res["passed"] is False
    assert res["report"]["witness"] == "witness text"


@pytest.mark.parametrize("experiment", ["centralizer", "solv-model"])
def test_verdicts_survive_optimized_mode(experiment):
    # python -O strips asserts; the reports must not depend on them
    env = dict(os.environ, PYTHONPATH=str(Path(msolv.__file__).parent.parent))
    argv = ["-m", "msolv.cli", experiment, "--r", "2", "--e", "2", "--m", "2"]
    runs = [
        subprocess.run(
            [sys.executable, *flags, *argv], capture_output=True, env=env, timeout=120
        )
        for flags in ([], ["-O"])
    ]
    for proc in runs:
        assert proc.returncode == 0, proc.stderr.decode()
    assert runs[0].stdout == runs[1].stdout
    assert json.loads(runs[1].stdout)["experiments"][0]["passed"] is True


def test_main_exit_codes(monkeypatch, capsys):
    # exit 0: a fast passing experiment
    rc = main(["surface", "--genus", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    doc = json.loads(out)
    assert doc["experiments"][0]["passed"] is True

    # exit 2: malformed group DSL
    rc = main(["derived-series", "--group", "perm 3 : (0 9)"])
    capsys.readouterr()
    assert rc == 2

    # exit 2: missing required parameter
    rc = main(["derived-series"])
    capsys.readouterr()
    assert rc == 2

    # exit 1: an experiment whose verdict fails
    def fail_exp(params, rng):
        return {"detail": "no"}, False

    monkeypatch.setitem(cli.EXPERIMENTS, "surface", fail_exp)
    rc = main(["surface", "--genus", "2"])
    capsys.readouterr()
    assert rc == 1


def test_main_unknown_kind_exits_2(capsys):
    rc = main(["not-an-experiment"])  # argparse rejects the subcommand
    capsys.readouterr()
    assert rc == 2


def test_jobs_determinism(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "instances": [
                    {"umax": 1, "random": 60},
                    {"umax": 1, "random": 40, "lset": "2"},
                    {"umax": 2, "random": 20},
                ],
                "seed": 11,
            }
        )
    )
    outs = []
    for jobs in ("1", "3"):
        rc = main(["reduction-lemma", "--config", str(cfg), "--jobs", jobs])
        captured = capsys.readouterr()
        assert rc == 0
        outs.append(captured.out)
    assert outs[0] == outs[1]
    doc = json.loads(outs[0])
    assert [e["index"] for e in doc["experiments"]] == [0, 1, 2]


def test_same_seed_same_bytes_across_runs(capsys):
    args = ["reduction-lemma", "--umax", "1", "--random", "50", "--seed", "9"]
    rc = main(args)
    a = capsys.readouterr().out
    rc2 = main(args)
    b = capsys.readouterr().out
    assert rc == rc2 == 0
    assert a == b


def test_out_flag_writes_same_bytes(tmp_path, capsys):
    path = tmp_path / "report.json"
    rc = main(["counterexample", "--out", str(path)])
    captured = capsys.readouterr()
    assert rc == 0
    assert path.read_bytes() == captured.out.encode()


def test_config_instance_overrides_default(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"instances": [{"genus": 3}]}))
    rc = main(["surface", "--config", str(cfg)])
    out = capsys.readouterr().out
    assert rc == 0
    doc = json.loads(out)
    assert doc["experiments"][0]["params"]["genus"] == 3


def test_cli_flag_beats_config(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"instances": [{"genus": 3}]}))
    rc = main(["surface", "--config", str(cfg), "--genus", "4"])
    out = capsys.readouterr().out
    assert rc == 0
    assert json.loads(out)["experiments"][0]["params"]["genus"] == 4


# ------------------------------------------------ experiment smoke (fast)


def run_ok(argv, capsys):
    rc = main(argv)
    out = capsys.readouterr().out
    assert rc == 0, out
    return json.loads(out)["experiments"]


def test_counterexample_experiment(capsys):
    (e,) = run_ok(["counterexample"], capsys)
    rep = e["report"]
    assert rep["group"]["order"] == 72
    assert rep["group"]["center_order"] == 1
    assert rep["quotient"]["order"] == 8
    assert rep["quotient"]["center_order"] == 2
    assert rep["derived_orders"] == [72, 18, 9, 1]


def test_derived_series_experiment(capsys):
    (e,) = run_ok(["derived-series", "--group", "builtin S_4"], capsys)
    assert e["report"]["orders"] == [24, 12, 4, 1]
    assert e["report"]["solvable"] is True


def test_msolv_quotient_experiment(capsys):
    (e,) = run_ok(
        ["msolv-quotient", "--group", "builtin paper_counterexample", "--m", "2"],
        capsys,
    )
    assert e["report"]["quotient_center_order"] == 2
    assert e["report"]["kernel_order"] == 9


def test_gtilde_experiment_cli(capsys):
    (e,) = run_ok(
        ["gtilde", "--group", "builtin S_3", "--x", "(0 1 2)", "--n", "1"],
        capsys,
    )
    assert e["report"]["diagonal_exact"] is True
    assert e["passed"] is True


def test_quotient_iso_experiment_cli(capsys):
    (e,) = run_ok(["quotient-iso", "--group", "builtin S_3"], capsys)
    assert e["passed"] is True


def test_centerfree_scan_cli(capsys):
    (e,) = run_ok(["centerfree-scan"], capsys)
    rows = e["report"]["entries"]
    flagged = [r["group"] for r in rows if r["flagged"]]
    assert flagged == ["builtin paper_counterexample"]
