"""Tests for the command-line interface.

The DSL parser is checked by round-tripping canonical prints, the JSON
emitter by its canonicalization rules (sorted keys, big integers as
decimal strings, floats rejected, trailing newline), determinism by
byte-comparing runs with different `--jobs` values (accepted, but the
instances always run in one loop on the main thread), and the exit-code
contract by driving main() in-process.  Model reports must be the same
bytes under python -O, which strips asserts.  Every value of every
declared experiment parameter is validated: a bad type, a value below its
bound or an unknown key exits 2 with a message and no traceback.
"""

import ast
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import random
import resource
import subprocess
import sys
import tempfile
import threading
import time
import types
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import msolv
from msolv import cli, crowell, dsl, exp_groups, exp_magnus, fingroup, models, zmodlin
from msolv.cli import INT_LIST, PARAMS, emit_report, main, run_experiment
from msolv.dsl import (
    build_group,
    parse_element,
    parse_group_dsl,
    parse_word,
    print_group_spec,
    word_text,
)
from msolv.errors import MsolvError, ParseError, VerdictFailed, WordTooLong
from msolv.fingroup import PermElem, center, iso_test_small
from msolv.foxcalc import MAX_WORD_LENGTH, empty_word, generator_word
from msolv.models import centerfree_scan


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
    # the DSL's matrix grammar: integers only, no trailing commas
    for bad in ("[[1.5, 0], [0, 1]]", "[[True, 0], [0, 1]]", "[[1, 0], [0, 1],]", "[[2, 0], [0, 3]] x"):
        with pytest.raises(ParseError):
            parse_element(G, bad)


def test_word_round_trip():
    w = parse_word("x1^2*x2^-1*x1", 2)
    assert word_text(w) == "x1^2*x2^-1*x1"
    assert word_text(parse_word("1", 2)) == "1"
    with pytest.raises(ParseError):
        parse_word("x3", 2)


def test_word_exponents_are_letter_products():
    # x_i^e is parsed as one run of |e| letters; it must equal the product
    # of those letters one by one, with free cancellation across tokens
    rng = random.Random(17)
    for _ in range(200):
        tokens = [(rng.randint(1, 3), rng.randint(-4, 4)) for _ in range(rng.randint(1, 6))]
        w = empty_word(3)
        for i, e in tokens:
            for _ in range(abs(e)):
                w = w * generator_word(3, i, 1 if e > 0 else -1)
        assert parse_word("*".join(f"x{i}^{e}" for i, e in tokens), 3) == w, tokens


def test_parse_word_refuses_where_the_token_product_does():
    # the one-stack reduction against the token-by-token FreeWord product,
    # on seeded runs near MAX_WORD_LENGTH: the same word, or WordTooLong at
    # the same token
    rng = random.Random(31)
    big = MAX_WORD_LENGTH // 3
    refused = 0
    for _ in range(300):
        tokens = [
            (rng.randint(1, 2), rng.choice([-1, 1]) * rng.choice([1, 2, big, big + 7]))
            for _ in range(rng.randint(1, 8))
        ]
        w = empty_word(2)
        expect = None
        for k, (i, e) in enumerate(tokens):
            try:
                w = w * generator_word(2, i, e)
            except WordTooLong:
                expect = k
                break
        text = " ".join(f"x{i}^{e}" for i, e in tokens[: len(tokens) if expect is None else expect + 1])
        if expect is None:
            assert parse_word(text, 2) == w, tokens
            continue
        refused += 1
        with pytest.raises(WordTooLong):
            parse_word(text, 2)
        # one token fewer parses, to the product so far
        assert parse_word(" ".join(text.split()[:-1]) or "1", 2) == w, tokens
    assert 30 < refused < 270


def test_parse_word_is_linear_in_its_tokens():
    # 5,000 single-letter tokens took 7.5 s when each was multiplied onto
    # the word so far by a full reduce_word
    text = " ".join(["x1", "x2", "x1^-1", "x2"] * 1250)
    start = time.perf_counter()
    w = parse_word(text, 2)
    assert time.perf_counter() - start < 0.5
    assert len(w) == 5000


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


def test_internal_assert_exits_3_not_as_a_failed_verdict(monkeypatch, capsys):
    # exit 1 means a failed verdict only; a broken internal invariant is a bug
    def boom(params, rng):
        raise AssertionError("invariant text")

    monkeypatch.setattr(exp_groups, "_exp_counterexample", boom)
    assert main(["counterexample"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "msolv: internal error" in captured.err


def test_run_experiment_packages_verdict_failed_as_failure(monkeypatch):
    def boom(params, rng):
        raise VerdictFailed("witness text")

    monkeypatch.setattr(exp_groups, "_exp_boom", boom, raising=False)
    monkeypatch.setitem(cli.EXPERIMENTS, "boom", "exp_groups:_exp_boom")
    res = run_experiment("boom", {}, seed=0, index=0)
    assert res["passed"] is False
    assert res["report"]["witness"] == "witness text"


OPTIMIZED_MODE_ARGV = {
    "centralizer": ["centralizer", "--r", "2", "--e", "2", "--m", "2"],
    "centralizer-capped": ["centralizer", "--capped", "--r", "2", "--e", "2", "--m", "3"]
    + ["--cap", "1500"],
    "solv-model": ["solv-model", "--r", "2", "--e", "2", "--m", "2"],
    "counterexample": ["counterexample"],
    "magnus": ["magnus", "--group", "builtin S_3", "--images", "g1,g2"]
    + ["--word", "x1*x2^-1*x1"],
    "centerfree-scan": ["centerfree-scan"],
    "aliased-coordinate": ["solv-model", "--r", "2", "--e", "2", "--m", "2"],
    "flipped-inverse": ["centralizer", "--capped", "--r", "2", "--e", "2", "--m", "3"]
    + ["--cap", "1500"],
    "dropped-f-entry": ["crowell", "--group", "builtin S_3", "--images", "g1,g2"]
    + ["--relators", "x1^3,x2^2,x1*x2*x1*x2"],
    "bumped-projection": ["kernel-projection", "--modulus", "4", "--levels", "1,2"],
    "dropped-derived-term": ["derived-series", "--group", "builtin S_4"],
}

# runs with a fault put in before the CLI starts, and the report fields
# their failed verdict must carry: with the top co-tree digit dropped from
# every packed law's coordinate, x_2 = 2 lands on the identity's coordinate
# at level 1; with digit position 0 of every packed inverse bumped mod e,
# the probe's cofactors fail while its linear prediction, which takes no
# inverse, still holds; with the identity's entry dropped from f's first
# row, the basis element q_1 lies in im f but not in ker s, and x1^3's
# Fox row, whose identity entry is 1, no longer lies in ker f; with 1 added
# to coefficient 0 of every tower projection, the kernel row 1 + x of level
# 2 over Z/4 projects to 3, outside 2·A[C_1]; with A_4 dropped from S_4's
# derived series, S_4/V_4 is the first layer, and it is not abelian
OPTIMIZED_MODE_FAULTS = {
    "aliased-coordinate": (
        "import sys\n"
        "from msolv import cli, crowell\n"
        "init = crowell._PackedMagnusLaw.__init__\n"
        "def dropped(self, ctx):\n"
        "    init(self, ctx)\n"
        "    self.coord_size //= self.e\n"
        "crowell._PackedMagnusLaw.__init__ = dropped\n"
        "sys.exit(cli.main(sys.argv[1:]))\n",
        {"witness": "packed elements 0 and 2 share co-tree coordinate 0"},
    ),
    "flipped-inverse": (
        "import sys\n"
        "from msolv import cli, crowell\n"
        "inv = crowell._PackedMagnusLaw.inv\n"
        "def flipped(self, a):\n"
        "    x = inv(self, a)\n"
        "    d0 = x // self.base % self.e\n"
        "    return x + ((d0 + 1) % self.e - d0) * self.base\n"
        "crowell._PackedMagnusLaw.inv = flipped\n"
        "sys.exit(cli.main(sys.argv[1:]))\n",
        {"oracle_equal_pointwise": True, "decomposition_holds_pointwise": False},
    ),
    "dropped-f-entry": (
        "import sys\n"
        "from msolv import cli, crowell\n"
        "build = crowell.build_complex\n"
        "def dropped(ctx):\n"
        "    c = build(ctx)\n"
        "    del c.f_rows[0][0]\n"
        "    return c\n"
        "crowell.build_complex = dropped\n"
        "sys.exit(cli.main(sys.argv[1:]))\n",
        {"exact_at_middle": False, "relators_in_kernel": False},
    ),
    "bumped-projection": (
        "import sys\n"
        "from msolv import cli, grpring\n"
        "project = grpring.CyclicTower.tower_project\n"
        "def bumped(self, kM, M, y):\n"
        "    z = project(self, kM, M, y)\n"
        "    return z.owner.from_coeffs((z.coeffs[0] + 1,) + z.coeffs[1:])\n"
        "grpring.CyclicTower.tower_project = bumped\n"
        "sys.exit(cli.main(sys.argv[1:]))\n",
        {
            "checked": [
                {
                    "M": 1,
                    "k": 2,
                    "kM": 2,
                    "kernel_rank": 1,
                    "passed": False,
                    "witness": {"kernel_row": [1, 1], "projection": [3]},
                }
            ]
        },
    ),
    "dropped-derived-term": (
        "import sys\n"
        "from msolv import cli, exp_groups\n"
        "series = exp_groups.derived_series\n"
        "exp_groups.derived_series = lambda G: [s for k, s in enumerate(series(G)) if k != 1]\n"
        "sys.exit(cli.main(sys.argv[1:]))\n",
        {"orders": [24, 4, 1], "layers_abelian": [False, True]},
    ),
}


@pytest.mark.parametrize("case", list(OPTIMIZED_MODE_ARGV))
def test_verdicts_survive_optimized_mode(case):
    # python -O strips asserts; the reports must not depend on them
    env = dict(os.environ, PYTHONPATH=str(Path(msolv.__file__).parent.parent))
    fault, fields = OPTIMIZED_MODE_FAULTS.get(case, (None, {}))
    entry = ["-c", fault] if fault else ["-m", "msolv.cli"]
    argv = [*entry, *OPTIMIZED_MODE_ARGV[case]]
    runs = [
        subprocess.run(
            [sys.executable, *flags, *argv], capture_output=True, env=env, timeout=120
        )
        for flags in ([], ["-O"])
    ]
    for proc in runs:
        assert proc.returncode == (1 if fault else 0), proc.stderr.decode()
        assert b"Traceback" not in proc.stderr
    assert runs[0].stdout == runs[1].stdout
    result = json.loads(runs[1].stdout)["experiments"][0]
    assert result["passed"] is not fault
    for name, value in fields.items():
        assert result["report"][name] == value


def _limit_address_space():
    # a refusal that regressed would enumerate until memory runs out; at
    # 1 GB of address space it fails with MemoryError (exit 3) instead
    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


def test_refusals_survive_optimized_mode():
    # python -O strips asserts; the refusal of a centralizer question, of
    # a builtin past the closure cap or of a probe cap past COORD_LIMIT
    # must not depend on them
    env = dict(os.environ, PYTHONPATH=str(Path(msolv.__file__).parent.parent))
    for refused in (
        UNANSWERABLE_CENTRALIZER_ARGV[0],
        HUGE_GROUP_ARGV[0],
        HUGE_EXPONENT_ARGV[2],
        HUGE_CAP_ARGV[2],
    ):
        argv = ["-m", "msolv.cli", *refused]
        runs = [
            subprocess.run(
                [sys.executable, *flags, *argv],
                capture_output=True,
                env=env,
                timeout=120,
                preexec_fn=_limit_address_space,
            )
            for flags in ([], ["-O"])
        ]
        for proc in runs:
            assert proc.returncode == 2, proc.stderr.decode()
            assert proc.stdout == b""
            (line,) = proc.stderr.decode().splitlines()
            assert line.startswith("msolv: error: ")
        assert runs[0].stderr == runs[1].stderr


# no assert is left under src/msolv: python -O strips asserts, so a verdict
# or an internal invariant resting on a new one would vanish under -O
KNOWN_ASSERT_SITES = []


def _assert_sites(tree, module):
    # (module, innermost enclosing function) of every assert statement
    sites = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Assert):
                sites.append((module, func))
            inner = func
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child.name
            visit(child, inner)

    visit(tree, None)
    return sites


def test_asserts_under_src_are_the_known_invariants():
    # the walker itself: nested functions, methods and module level
    probe = "\n".join(
        [
            "assert a",
            "class C:",
            "    def f(self):",
            "        def g():",
            "            assert b",
            "        assert c",
        ]
    )
    assert _assert_sites(ast.parse(probe), "m.py") == [
        ("m.py", None),
        ("m.py", "g"),
        ("m.py", "f"),
    ]
    src = Path(msolv.__file__).parent
    sites = []
    for path in sorted(src.glob("*.py")):
        sites += _assert_sites(ast.parse(path.read_text(encoding="utf-8")), path.name)
    assert sorted(sites) == KNOWN_ASSERT_SITES


# the invariants the last asserts guarded, each broken on purpose, and what
# the script prints once the check that replaced the assert trips: a
# kernel of an image table that is no homomorphism, a tower level of the
# wrong order, and a surface relator of the wrong length, which the surface
# verdict itself checks (the report shows the failure, exit code 1)
INVARIANT_FAULTS = {
    "kernel": (
        "from msolv.errors import NotHomomorphism\n"
        "from msolv.dsl import build_group, parse_group_dsl\n"
        "from msolv.fingroup import Homomorphism\n"
        "G, C = (build_group(parse_group_dsl(t)) for t in ('builtin S_3', 'builtin C_2'))\n"
        "three = next(i for i in range(G.order) if G.element_order(i) == 3)\n"
        "images = tuple(int(i not in (0, three)) for i in range(G.order))\n"
        "try:\n"
        "    Homomorphism(G, C, images).kernel()\n"
        "    print('no error')\n"
        "except NotHomomorphism as e:\n"
        "    print(type(e).__name__)\n",
        "NotHomomorphism",
    ),
    "tower-level": (
        "from msolv import grpring\n"
        "from msolv.dsl import build_group, parse_group_dsl\n"
        "from msolv.errors import LevelMismatch\n"
        "grpring._pad_perm = lambda p, hdeg, extra: grpring.PermElem.identity(hdeg + extra)\n"
        "tower = grpring.CyclicTower(3, [1, 2], base=build_group(parse_group_dsl('builtin S_3')))\n"
        "try:\n"
        "    tower.level_ring(2)\n"
        "    print('no error')\n"
        "except LevelMismatch as e:\n"
        "    print(type(e).__name__)\n",
        "LevelMismatch",
    ),
    "surface-relator": (
        "import contextlib, io, json\n"
        "from msolv import cli, foxcalc\n"
        "real = foxcalc.commutator\n"
        "foxcalc.commutator = lambda a, b: real(a, b) * real(a, b)\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        "    rc = cli.main(['surface', '--genus', '2'])\n"
        "(e,) = json.loads(out.getvalue())['experiments']\n"
        "print(rc, e['passed'], e['report']['relator_length'])\n",
        "1 False 16",
    ),
}


@pytest.mark.parametrize("case", list(INVARIANT_FAULTS))
def test_broken_invariants_trip_under_optimized_mode(case):
    script, expected = INVARIANT_FAULTS[case]
    env = dict(os.environ, PYTHONPATH=str(Path(msolv.__file__).parent.parent))
    for flags in ([], ["-O"]):
        proc = subprocess.run(
            [sys.executable, *flags, "-c", script], capture_output=True, env=env, timeout=60
        )
        assert proc.returncode == 0, proc.stderr.decode()
        assert proc.stdout.decode().splitlines()[-1] == expected, flags


def test_invalid_permutation_exits_2(capsys):
    # the group DSL still validates permutations, which products no longer do
    rc = main(["derived-series", "--group", "perm 3 : (0 5)"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("msolv: error:") and "Traceback" not in err


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

    monkeypatch.setattr(exp_magnus, "_exp_surface", fail_exp)
    rc = main(["surface", "--genus", "2"])
    capsys.readouterr()
    assert rc == 1


def test_magnus_reports_fox_mismatch_as_failure(monkeypatch):
    # a wrong Fox row must fail the verdict, not pass or crash
    def wrong_rows(ctx, w):
        return [types.SimpleNamespace(coeffs=()) for _ in range(ctx.rank)]

    monkeypatch.setattr("msolv.crowell.fox_row", wrong_rows)
    params = {"group": "builtin S_3", "images": "g1,g2", "word": "x1*x2", "n": 2}
    res = run_experiment("magnus", params, seed=0, index=0)
    assert res["passed"] is False
    assert res["report"]["fox_consistent"] is False


def test_broken_prediction_fails_the_probe(monkeypatch, capsys):
    # swap slots d and d + 1 of every _left_sources tuple: the first two
    # slots of the second block, past the slots where most elements already
    # fail the prediction, so stopping at an element's first miss must not
    # hide the fault
    real = models._left_sources

    def swapped(ctx, q):
        src = list(real(ctx, q))
        d = ctx.ring.dimension
        src[d], src[d + 1] = src[d + 1], src[d]
        return tuple(src)

    monkeypatch.setattr(models, "_left_sources", swapped)
    assert not models.centralizer_probe_capped(2, 2, 3, 1500, 2, 3).oracle_equal_pointwise
    rc = main(
        ["centralizer", "--capped", "--r", "2", "--e", "2", "--m", "3"]
        + ["--cap", "1500", "--i", "2", "--n", "3"]
    )
    doc = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert doc["experiments"][0]["passed"] is False
    assert doc["experiments"][0]["report"]["oracle_equal_pointwise"] is False


@pytest.mark.parametrize(
    "flags",
    [
        ["--r", "2", "--e", "2", "--m", "2"],
        ["--capped", "--r", "2", "--e", "2", "--m", "3", "--cap", "1501"],
    ],
    ids=["full", "capped"],
)
def test_broken_tree_fails_the_centralizer(flags, monkeypatch, capsys):
    # swap the tree edges into elements 1 and 2, the generators x_1 and x_2:
    # x^n el is then wrong for x_1 and below, and x_1 commutes with
    # mu(x_1)^n, so the brute centralizer loses it and the verdict fails
    real = models._tree_edges

    def swapped(table):
        edges = list(real(table))
        edges[0], edges[1] = edges[1], edges[0]
        return iter(edges)

    monkeypatch.setattr(models, "_tree_edges", swapped)
    rc = main(["centralizer", *flags])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert doc["experiments"][0]["passed"] is False


@pytest.mark.parametrize(
    "flags",
    [
        ["--capped", "--r", "2", "--e", "2", "--m", "3", "--cap", "1500"],
        ["--r", "2", "--e", "2", "--m", "2"],
    ],
    ids=["capped", "full"],
)
def test_huge_n_costs_what_its_residue_costs(flags, capsys):
    # x_1^8 = 1 in W(2, 2, 3) (x_1 has order 4 one level below) and
    # x_1^4 = 1 in W(2, 2, 2); n = 10^9 + 3 is 3 mod 8, so both runs must
    # report what n = 3 reports apart from n, without 10^9 steps
    reports = []
    for n in (10**9 + 3, 3):
        start = time.perf_counter()
        assert main(["centralizer", *flags, "--i", "1", "--n", str(n)]) == 0
        assert time.perf_counter() - start < 2
        (e,) = json.loads(capsys.readouterr().out)["experiments"]
        reports.append(e["report"])
    huge, small = reports
    assert huge.pop("n") == 10**9 + 3 and small.pop("n") == 3
    assert huge == small


def test_internal_error_exits_3(monkeypatch, capsys):
    # exit 1 is reserved for failed verdicts; a bug gets its own code
    def broken(params, rng):
        raise RuntimeError("not a verdict")

    monkeypatch.setattr(exp_magnus, "_exp_surface", broken)
    rc = main(["surface", "--genus", "1"])
    err = capsys.readouterr().err
    assert rc == 3
    assert "Traceback" in err and "RuntimeError: not a verdict" in err
    assert err.rstrip().endswith("msolv: internal error")


# centralizer questions with no answer: e = 3 divides n, generator index 3
# of rank 2, rank 1, and a tower whose last exponent, 4, divides n
UNANSWERABLE_CENTRALIZER_ARGV = [
    ["centralizer", "--r", "2", "--e", "3", "--m", "2", "--n", "3"],
    ["centralizer", "--r", "2", "--e", "3", "--m", "2", "--i", "3"],
    ["centralizer", "--r", "1", "--e", "3", "--m", "2"],
    ["solv-model", "--r", "2", "--m", "2", "--tower", "11,13,4", "--i", "1", "--n", "4"],
]

# groups refused up front: a builtin whose known order passes the closure
# cap, and a permutation degree past it, both refused before any cycle of
# that many points is built
HUGE_GROUP_ARGV = [
    ["derived-series", "--group", "builtin C_99999999999"],
    ["derived-series", "--group", "perm 99999999999 : (0 1)"],
]

# a coefficient exponent past the closure cap, the prime 2^61 - 1: refused
# before any trial division up to its square root, at every m and in a tower
E61 = str(2**61 - 1)
HUGE_EXPONENT_ARGV = [
    ["solv-model", "--r", "2", "--e", E61, "--m", "0"],
    ["solv-model", "--r", "2", "--e", E61, "--m", "1"],
    ["centralizer", "--r", "2", "--e", E61, "--m", "2"],
    ["centralizer", "--capped", "--r", "2", "--e", E61, "--m", "3"],
    ["solv-model", "--r", "2", "--m", "2", "--tower", E61],
]

# models of order 16 * 4^17, under a cap that admits them but past the
# most elements a level can be indexed by (fingroup.COORD_LIMIT), and a
# capped probe whose cap passes that limit (its table and tree edges are
# array('i') values): refused before any closure
HUGE_CAP_ARGV = [
    ["centralizer", "--r", "2", "--e", "4", "--m", "2", "--cap", "1000000000000"],
    ["solv-model", "--r", "2", "--e", "4", "--m", "2", "--cap", "1000000000000"],
    ["centralizer", "--capped", "--r", "2", "--e", "2", "--m", "3", "--cap", "1000000000000"],
]

# words past foxcalc.MAX_WORD_LENGTH letters: refused before a run of
# letters is expanded, at once
LONG_WORD_ARGV = [
    ["fox", "--group", "builtin S_3", "--images", "g1,g2", "--word", "x1^10001"],
    ["crowell", "--group", "builtin S_3", "--images", "g1,g2", "--relators", "x1^99999999999"],
]

# integers longer than int() reads from a string (4300 digits by default)
LONG_INTEGER_ARGV = [
    ["derived-series", "--group", "perm 3 : (0 " + "9" * 5000 + ")"],
    ["derived-series", "--group", "builtin C_" + "9" * 5000],
]


@pytest.mark.parametrize(
    "argv, config",
    [
        (["msolv-quotient", "--group", "builtin S_3"], {"m": "x"}),
        (["msolv-quotient", "--group", "builtin S_3"], {"m": -1}),
        (["solv-model", "--r", "2"], None),
        (["fox", "--group", "builtin S_3", "--images", "g1,g2", "--word", "x1", "--n", "0"], None),
        (["kernel-projection", "--modulus", "0"], None),
        (["crowell", "--group", "builtin S_3", "--images", "g1,g2", "--rank", "0"], None),
        # a tower needs a permutation base; matrix groups are refused
        (["kernel-projection", "--modulus", "3", "--levels", "1,2", "--base-group", "builtin Q8"], None),
        (["kernel-projection", "--modulus", "3", "--levels", "1,2", "--base-group", "mat 5 : [[2,0],[0,3]]"], None),
        # a groups value that names no group is not the default corpus
        (["centerfree-scan", "--m", "1", "--groups", ";"], None),
        (["centerfree-scan"], {"instances": [{"m": 2}, {"groups": " ; "}]}),
        *((argv, None) for argv in UNANSWERABLE_CENTRALIZER_ARGV),
        *((argv, None) for argv in HUGE_GROUP_ARGV),
        *((argv, None) for argv in LONG_INTEGER_ARGV),
        *((argv, None) for argv in HUGE_EXPONENT_ARGV),
        *((argv, None) for argv in HUGE_CAP_ARGV),
        *((argv, None) for argv in LONG_WORD_ARGV),
    ],
)
def test_bad_input_exits_2(argv, config, tmp_path, capsys, monkeypatch):
    if argv in HUGE_EXPONENT_ARGV:

        def no_trial_division(e):
            raise AssertionError("a huge exponent reached the prime-power check")

        monkeypatch.setattr(models, "_is_prime_power", no_trial_division)
    if argv in HUGE_CAP_ARGV:

        def no_closure(*args, **kwargs):
            raise AssertionError("a model or cap past COORD_LIMIT reached the closure")

        monkeypatch.setattr(models, "closure", no_closure)
        monkeypatch.setattr(models, "_bfs", no_closure)
    if config is not None:
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        argv = [*argv, "--config", str(path)]
    t0 = time.perf_counter()
    rc = main(argv)
    elapsed = time.perf_counter() - t0
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("msolv: error: ")
    assert "Traceback" not in captured.err
    assert captured.out == ""
    if argv in LONG_WORD_ARGV:
        assert elapsed < 1, elapsed


def test_tower_row_past_the_index_limit_is_linear_only(capsys, monkeypatch):
    # level 2 of W(2, 4, 2) fits under a cap of 10^12 but not under
    # COORD_LIMIT, so its row is the linear-only row of the default cap,
    # and no closure is handed a law that large
    real = models.closure

    def bounded(gens, cap=fingroup.DEFAULT_CAP, identity=None, law=None):
        if law is not None and law.coord_size > fingroup.COORD_LIMIT:
            raise AssertionError("a level past COORD_LIMIT reached the closure")
        return real(gens, cap=cap, identity=identity, law=law)

    monkeypatch.setattr(models, "closure", bounded)
    argv = ["solv-model", "--r", "2", "--m", "2", "--tower", "4"]
    reports = []
    for cap in ([], ["--cap", "1000000000000"]):
        start = time.perf_counter()
        assert main([*argv, *cap]) == 0
        assert time.perf_counter() - start < 1
        (e,) = json.loads(capsys.readouterr().out)["experiments"]
        reports.append(e["report"])
    default, huge = reports
    assert huge == default
    assert [row["verified_brute"] for row in default["tower"]] == [False]


@pytest.mark.parametrize(
    "argv, position",
    [
        (LONG_INTEGER_ARGV[0], "(line 1, column 13)"),
        (LONG_INTEGER_ARGV[1], "(line 1, column 11)"),
        (["derived-series", "--group", "mat 5 :\n[[1, " + "7" * 1001 + "], [0, 1]]"], "(line 2, column 6)"),
        (["fox", "--group", "builtin S_3", "--images", "g1,g2", "--word", "x1^" + "1" * 5000], "(line 1, column 4)"),
        (["fox", "--group", "builtin S_3", "--images", "g1,g2", "--word", "x1 x" + "1" * 5000], "(line 1, column 5)"),
    ],
)
def test_long_integers_exit_2_at_their_position(argv, position, capsys):
    # the integer reader counts digits before int() sees the token
    assert main(argv) == 2
    err = capsys.readouterr().err
    (line,) = err.splitlines()[:1]
    assert line.startswith("msolv: error: integer of ")
    assert line.endswith(position)
    assert "Traceback" not in err


NINES = "9" * 5000


@pytest.mark.parametrize(
    "argv, config",
    [
        (["solv-model", "--r", "2", "--m", "2", "--e", NINES], None),
        (["solv-model", "--r", "2", "--m", "2", "--tower", NINES], None),
        (["centralizer", "--r", "2", "--e", "3", "--m", "2", "--n", NINES], None),
        # 2000 nines is 0 mod 3, so x_1^n dies mod e; and a negative level
        (["centralizer", "--r", "2", "--e", "3", "--m", "2"], {"n": int(NINES[:2000])}),
        (["solv-model", "--r", "2", "--e", "3"], {"m": -int(NINES[:2000])}),
    ],
    ids=["e", "tower", "n", "config-n", "config-m"],
)
def test_long_values_are_echoed_in_brief(argv, config, tmp_path, capsys):
    # a rejected value of thousands of digits exits 2 without being echoed
    if config is not None:
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        argv = [*argv, "--config", str(path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert len(err) < 1024
    assert max(map(len, err.splitlines())) <= 200


def test_integers_up_to_the_digit_limit_are_read(capsys):
    # 1000 digits is the limit; the entry reduces mod 5 like any other
    one = "1" + "0" * 999  # 10^999 = 0 mod 5
    rc = main(["derived-series", "--group", f"mat 5 : [[{one}0, 1], [1, {one}]]"])
    assert rc == 2 and "integer of 1001 digits" in capsys.readouterr().err
    assert main(["derived-series", "--group", f"mat 5 : [[{one}, 1], [1, {one}]]"]) == 0


@pytest.mark.parametrize("name", ["C_100000", "C_2000000", "D_1000000"])
def test_builtins_past_the_work_bound_build_nothing(name, monkeypatch, capsys):
    # order x degree is known for a builtin, so one past the bound is
    # refused before any cycle or closure is built, even under the cap
    def no_build(*args, **kwargs):
        raise AssertionError("a group was built before its work was bounded")

    monkeypatch.setattr(fingroup.PermElem, "from_cycles", staticmethod(no_build))
    monkeypatch.setattr(dsl, "closure", no_build)
    assert main(["derived-series", "--group", f"builtin {name}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"msolv: error: {name} has ")
    assert f"the bound is {dsl.BUILTIN_WORK_BOUND}" in err


def test_s9_is_within_the_work_bound(monkeypatch):
    # S_9 has 9! x 9 = 3,265,920 points: its closure is reached
    class Reached(Exception):
        pass

    def reached(*args, **kwargs):
        raise Reached

    monkeypatch.setattr(dsl, "closure", reached)
    with pytest.raises(Reached):
        dsl._builtin_group("S_9")


@pytest.mark.parametrize("name", ["C_99999999999", "D_99999999998", "S_10", "S_99999999999"])
def test_builtins_past_the_cap_build_nothing(name, monkeypatch, capsys):
    # C_k and D_k have order k and S_k has k!; past the closure cap the
    # builtin is refused before a cycle or a closure is built
    def no_build(*args, **kwargs):
        raise AssertionError("a group was built before its order was checked")

    monkeypatch.setattr(fingroup.PermElem, "from_cycles", staticmethod(no_build))
    monkeypatch.setattr(dsl, "closure", no_build)
    assert main(["derived-series", "--group", f"builtin {name}"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("msolv: error: ")
    assert "cap 2000000" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv", UNANSWERABLE_CENTRALIZER_ARGV)
def test_unanswerable_centralizer_questions_build_nothing(argv, monkeypatch, capsys):
    # the question is checked before any model or kernel is built: with
    # both made to raise, a late refusal would exit 3, not 2
    def no_build(*args, **kwargs):
        raise AssertionError("a model was built before the question was checked")

    monkeypatch.setattr(exp_magnus, "build_solv_model", no_build)
    monkeypatch.setattr(models, "build_solv_model", no_build)
    monkeypatch.setattr(models, "_ker_f", no_build)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("msolv: error: ")
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["centralizer", "--capped", "--r", "1", "--e", "3", "--m", "2", "--cap", "100"],
        ["solv-model", "--r", "1", "--m", "2", "--tower", "2003", "--i", "1", "--n", "1"],
    ],
)
def test_rank_1_probe_and_tower_exit_2_up_front(argv, capsys):
    # at rank 1 the model is C_e at every m, so there is no level >= 2 to
    # probe or to stack a tower on; the refusal comes before any build
    t0 = time.perf_counter()
    rc = main(argv)
    elapsed = time.perf_counter() - t0
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("msolv: error: ") and "rank >= 2" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert elapsed < 1.0


@pytest.mark.parametrize(
    "argv",
    [
        ["reduction-lemma", "--lset", "1"],
        ["gtilde", "--group", "builtin S_3", "--x", "g1", "--l", "0"],
        ["gtilde", "--group", "builtin S_3", "--x", "g1", "--l", "1"],
    ],
)
def test_valuation_base_below_2_exits_2_promptly(argv):
    # a base below 2 once sent valuation() into an endless loop
    env = dict(os.environ, PYTHONPATH=str(Path(msolv.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, "-m", "msolv.cli", *argv], capture_output=True, env=env, timeout=10
    )
    assert proc.returncode == 2, proc.stderr.decode()
    assert b"Traceback" not in proc.stderr


# valid values for every required parameter, so that a config fails only
# because of the one value a test corrupts
VALID_REQUIRED = {
    "group": "builtin S_3",
    "images": "g1,g2",
    "word": "x1",
    "x": "g1",
    "r": 2,
    "e": 2,
    "modulus": 2,
    "genus": 1,
}

_JSON_SCALARS = st.one_of(
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=8),
)
_JSON_VALUES = st.one_of(
    _JSON_SCALARS,
    st.lists(_JSON_SCALARS, max_size=3),
    st.dictionaries(st.text(max_size=3), _JSON_SCALARS, max_size=2),
)


def _is_int_list_text(t: str) -> bool:
    try:
        return bool(cli._int_list(t))
    except ValueError:
        return False


def _wrong_type(p):
    """JSON values (never null, which means absent) outside p's type."""
    if p.type is int:
        return _JSON_VALUES.filter(lambda v: type(v) is not int)
    if p.type is str:
        return _JSON_VALUES.filter(lambda v: not isinstance(v, str))
    if p.type is bool:
        return _JSON_VALUES.filter(lambda v: not isinstance(v, bool))
    assert p.type is INT_LIST
    return _JSON_VALUES.filter(
        lambda v: not (
            (isinstance(v, list) and v and all(type(x) is int for x in v))
            or (isinstance(v, str) and _is_int_list_text(v))
        )
    )


def _below_min(p):
    low = st.integers(max_value=p.min - 1)
    if p.type is int:
        return low
    return st.one_of(
        st.lists(low, min_size=1, max_size=3),
        low.map(lambda v: f"{p.min},{v}"),
    )


def _run_config(kind: str, config: dict):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "c.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = main([kind, "--config", path])
    return rc, err.getvalue()


PARAM_CASES = [(kind, p.name) for kind, ps in PARAMS.items() for p in ps]


@pytest.mark.parametrize("kind, name", PARAM_CASES)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_bad_param_value_exits_2(kind, name, data):
    p = next(q for q in PARAMS[kind] if q.name == name)
    corrupt = [_wrong_type(p)] + ([_below_min(p)] if p.min is not None else [])
    value = data.draw(st.one_of(corrupt), label="value")
    base = {q.name: VALID_REQUIRED[q.name] for q in PARAMS[kind] if q.required}
    if data.draw(st.booleans(), label="in instance"):
        config = {**base, "instances": [{name: value}]}
    else:
        config = {**base, name: value}
    rc, err = _run_config(kind, config)
    assert rc == 2, err
    assert "Traceback" not in err
    assert p.flag in err


@pytest.mark.parametrize("kind", list(PARAMS))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_unknown_param_exits_2(kind, data):
    names = {p.name for p in PARAMS[kind]} | {"instances", "seed", "jobs"}
    key = data.draw(st.text(min_size=1, max_size=8).filter(lambda k: k not in names))
    value = data.draw(_JSON_VALUES)
    base = {q.name: VALID_REQUIRED[q.name] for q in PARAMS[kind] if q.required}
    if data.draw(st.booleans(), label="in instance"):
        config = {**base, "instances": [{key: value}]}
    else:
        config = {**base, key: value}
    rc, err = _run_config(kind, config)
    assert rc == 2, err
    assert "Traceback" not in err
    assert repr(key) in err


@pytest.mark.parametrize(
    "key, value",
    [
        ("seed", True),
        ("seed", 1.5),
        ("seed", "7"),
        ("jobs", False),
        ("jobs", 2.0),
        ("jobs", "2"),
        ("jobs", 0),
    ],
)
def test_bad_seed_or_jobs_in_config_exits_2(key, value):
    # only JSON ints that are not bools, and jobs >= 1; "7" is rejected too
    rc, err = _run_config("surface", {"genus": 1, key: value})
    assert rc == 2, err
    assert "Traceback" not in err
    assert f"--{key}" in err


def test_seed_flag_overrides_config_seed(tmp_path, capsys):
    args = ["reduction-lemma", "--umax", "1", "--random", "20", "--seed", "5"]
    rc = main(args)
    expected = capsys.readouterr().out
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 4, "jobs": 1}))
    rc2 = main(args + ["--config", str(cfg)])
    assert rc == rc2 == 0
    assert capsys.readouterr().out == expected


def test_jobs_flag_below_one_exits_2(capsys):
    rc = main(["surface", "--genus", "1", "--jobs", "0"])
    assert rc == 2
    assert "--jobs must be >= 1" in capsys.readouterr().err


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


def test_instances_run_on_main_thread_in_index_order(monkeypatch, tmp_path, capsys):
    # --jobs is accepted and checked, but every instance runs in one loop
    calls = []
    real = cli.run_experiment

    def recording(kind, params, seed, index):
        calls.append((threading.get_ident(), index))
        return real(kind, params, seed, index)

    monkeypatch.setattr(cli, "run_experiment", recording)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"instances": [{"genus": 1}, {"genus": 2}, {"genus": 3}]}))
    rc = main(["surface", "--config", str(cfg), "--jobs", "3"])
    capsys.readouterr()
    assert rc == 0
    assert calls == [(threading.main_thread().ident, idx) for idx in range(3)]


def test_reduction_lemma_first_failure_is_the_witness(monkeypatch, capsys):
    # a planted failure on some non-vacuous cases: the report must count
    # every case and keep the first failing one, in the order of the
    # exhaustive sweep, the identity probes and then the random cases
    # (all figures from the three-loop tally this replaced)
    real = exp_groups.reduction_lemma_check

    def planted(E, ntilde, ell, sigma):
        rep = real(E, ntilde, ell, sigma)
        if sum(E) % 5 == 3 and not rep.vacuous:
            return dataclasses.replace(rep, passed=False)
        return rep

    monkeypatch.setattr(exp_groups, "reduction_lemma_check", planted)
    rc = main(["reduction-lemma", "--umax", "2", "--random", "40", "--seed", "4"])
    (e,) = json.loads(capsys.readouterr().out)["experiments"]
    assert rc == 1 and e["passed"] is False
    assert e["report"] == {
        "all_passed": False,
        "cases": 15696,
        "random_cases": 40,
        "vacuous": 84,
        "witness": {"ell": 2, "entries": [2, 2, 2, 2], "ntilde": -10, "sigma": 2},
    }


def test_capped_probe_past_packed_limit_exits_2():
    # W(2,3,3) would need a packed law over 1,062,882 digits, whose tables
    # run to hundreds of GB; it must be refused, not attempted
    env = dict(os.environ, PYTHONPATH=str(Path(msolv.__file__).parent.parent))
    argv = ["centralizer", "--capped", "--r", "2", "--e", "3", "--m", "3", "--cap", "100"]
    proc = subprocess.run(
        [sys.executable, "-m", "msolv.cli", *argv], capture_output=True, env=env, timeout=120
    )
    err = proc.stderr.decode()
    assert proc.returncode == 2, err
    assert proc.stdout == b""
    assert "Traceback" not in err
    assert err.startswith("msolv: error: packed Magnus law")


def test_over_cap_model_refusal_says_nothing_was_enumerated(capsys):
    # |W(2,4,2)| = 16 * 4^17 is predicted before any closure, so the message
    # names the predicted order, not a closure that never ran
    rc = main(["centralizer", "--r", "2", "--e", "4", "--m", "2"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == (
        f"msolv: error: predicted order {16 * 4**17} exceeds cap 2000000; "
        "nothing was enumerated\n"
    )


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


def test_unwritable_out_exits_2(tmp_path, capsys):
    rc = main(["counterexample", "--out", str(tmp_path / "missing" / "report.json")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("msolv: error: ") and "Traceback" not in err


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


def test_derived_series_s8_bytes_are_pinned(capsys):
    # stdout sha256 taken from the closures that restarted on every pass
    rc = main(["derived-series", "--group", "builtin S_8"])
    out = capsys.readouterr().out
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "e1bb6b7703529a3ca004de0ea5f9e4668da6e0e3d0b4182a5ec834ddb9004e51"
    )


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ["kernel-projection", "--modulus", "4"],
            "657ee70b293d0bb765447c32c9f6b484f6d1a0ff3f1c1f49afd895f71b772cb6",
        ),
        (
            ["kernel-projection", "--modulus", "3", "--base-group", "builtin S_3"]
            + ["--levels", "1,2,3,6"],
            "a3d20bddcc13a9aec0b84cd6ef9c8decb19af3a89e6ae41b634cc3d7c1b9fb19",
        ),
        (
            ["reduction-lemma"],
            "8c8038d04287d01625640826f33812fc0c0edb99dba2aa5a2c144f8b1b71a80c",
        ),
        (
            ["reduction-lemma", "--random", "200"],
            "02db907632437e795cff24f92f353b1b6401c31b51422a61a8cd5d21c21c443e",
        ),
        (
            ["msolv-quotient", "--group", "builtin Q8", "--m", "1"],
            "37bfc41f3cd793d49c9ad3b937652d84861a15cf2a4561fda517eee3c167f225",
        ),
        (
            ["derived-series", "--group", "mat 5 : [[2,0],[0,3]], [[1,1],[0,1]]"],
            "551a9cfcd91fa65aca28325639bf90fdecb5a27851c41e9c9e78f1093fffc947",
        ),
    ],
)
def test_dense_matrix_caller_bytes_are_pinned(argv, digest, capsys):
    # stdout sha256 taken when the kernel projection, the reduction lemma
    # and matrix-group inversion went through dense RMatrix values, and the
    # derived-series layers were checked on quotients of copied terms
    rc = main(argv)
    out = capsys.readouterr().out
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ["transfer", "--group", "builtin paper_counterexample"],
            "d6856ebd3505e8fd8ecb9422b2b44b1a22b2b6a00506df421e67e08b7eaf9fb9",
        ),
        (
            ["quotient-iso", "--group", "builtin paper_counterexample", "--m", "2"],
            "5f7846ed871089648aed8762803ea0830a32704cf26dbf02ce6dc214439f0fcd",
        ),
        (
            ["centerfree-scan", "--m", "2"],
            "8b0b78c2cc6825d13076089f28408091b7410ce3d6576e434755ed25429d4f23",
        ),
    ],
)
def test_lattice_experiment_bytes_are_pinned(argv, digest, capsys):
    # stdout sha256 taken from the lattices that closed every join from the
    # identity and the derived terms that computed the whole series
    rc = main(argv)
    out = capsys.readouterr().out
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ["solv-model", "--r", "1", "--e", "3", "--m", "3"],
            "05aa44b792348d5f4aec08edb9fee58debf9f987a5a4fe0360ed662cddd7e3d1",
        ),
        (
            ["solv-model", "--r", "3", "--e", "2", "--m", "1"],
            "667cba26049658a94aad0eb771a28a340b375ce8fdd59de29f652563ad39e4f8",
        ),
        (
            ["solv-model", "--r", "2", "--e", "2", "--m", "0"],
            "9fc1e2c142789a90cb6a145f42778a05d39b57d41972da545fb87dcabdc718b3",
        ),
        (
            ["solv-model", "--r", "3", "--e", "9", "--m", "1"],
            "dc4a53b94fbb8f0b49c77c4a0eb1a14911e1033acc70f9d41047c4817a11c5f4",
        ),
        (
            ["solv-model", "--r", "2", "--m", "2", "--tower", "23", "--i", "1", "--n", "1"],
            "b030663e7d12d7928b1e34dad98c6f4c56990e3d2cbaddd908b84b8d387e53cc",
        ),
    ],
)
def test_level_one_report_bytes_are_pinned(argv, digest, capsys):
    # stdout sha256 taken when level 1 was a permutation group of e-cycles:
    # the packed level over the trivial group reports the same bytes, on
    # the degenerate paths, above the Cayley limit (order 729) and under
    # a tower row over level 1 of order 529
    rc = main(argv)
    out = capsys.readouterr().out
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ["--group", "builtin S_3", "--images", "g1,g2"]
            + ["--relators", "x1^3,x2^2,x1*x2*x1*x2"],
            "3c03d824059343fe58310c80c5864deba4e7b395bf47ff190a607e29ee58a1e4",
        ),
        (
            ["--group", "builtin S_4", "--images", "g1,g2", "--n", "3"],
            "f177f0f76879322c6ee18bddc8b9bbbea491e409deac350b87d92eb7fde9c4a3",
        ),
        (
            ["--group", "builtin S_4", "--images", "g1,g2", "--n", "4"],
            "2e930b1444fd1190bdba29dbc427c3a73929de616568c65527b59c11d16becab",
        ),
    ],
)
def test_crowell_report_bytes_are_pinned(argv, digest, capsys):
    # stdout sha256 taken when exactness_check and relation_module_report
    # made a Howell form of every matrix they compared or counted
    rc = main(["crowell", *argv])
    out = capsys.readouterr().out
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_a_crowell_instance_makes_one_complex(monkeypatch, capsys):
    # the exactness check and both relator checks read one complex, and
    # make 3 Howell forms: of [f | I], which the exactness check and the
    # relation module share, of [s | I] for exactness, and of the relator
    # translates for the relation module
    calls = {"complex": 0, "howell": 0}

    def counted(key, func):
        def wrapper(*args):
            calls[key] += 1
            return func(*args)

        return wrapper

    complex_counter = counted("complex", crowell.build_complex)
    monkeypatch.setattr(crowell, "build_complex", complex_counter)
    monkeypatch.setattr(exp_magnus, "build_complex", complex_counter)
    howell_counter = counted("howell", zmodlin._howell_rows)
    monkeypatch.setattr(zmodlin, "_howell_rows", howell_counter)
    monkeypatch.setattr(crowell, "_howell_rows", howell_counter)
    argv = ["crowell", "--group", "builtin S_4", "--images", "g1,g2", "--n", "4"]
    assert main([*argv, "--relators", "x1^4,x2^2"]) == 0
    capsys.readouterr()
    assert calls == {"complex": 1, "howell": 3}


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


@pytest.mark.parametrize("n", [1, 2])
def test_gtilde_d8_feasible_pairs(n, capsys):
    # pinned from the code that solved one linear system per (a, k) pair
    (e,) = run_ok(["gtilde", "--group", "builtin D_8", "--x", "g1", "--n", str(n)], capsys)
    assert e["report"]["pairs_tested"] == 32
    assert e["report"]["feasible_pairs"] == [[0, 0], [1, 1], [3, 2], [6, 3]]
    assert e["passed"] is True


def test_quotient_iso_experiment_cli(capsys):
    (e,) = run_ok(["quotient-iso", "--group", "builtin S_3"], capsys)
    assert e["passed"] is True


def test_centerfree_scan_cli(capsys):
    (e,) = run_ok(["centerfree-scan"], capsys)
    rows = e["report"]["entries"]
    flagged = [r["group"] for r in rows if r["flagged"]]
    assert flagged == ["builtin paper_counterexample"]
    # an empty groups value keeps the default corpus
    (empty,) = run_ok(["centerfree-scan", "--groups", ""], capsys)
    assert empty["report"] == e["report"]


@pytest.mark.parametrize(
    "argv, instances",
    [
        (
            ["centerfree-scan"],
            [
                {"groups": "builtin S_4;builtin paper_counterexample", "m": 1},
                {"groups": "builtin D_8;builtin S_3", "m": 2},
                {"groups": "builtin S_4;builtin paper_counterexample", "m": 3},
            ],
        ),
        (
            ["centralizer", "--capped", "--r", "2", "--e", "2", "--m", "3"],
            [{"cap": 300, "i": 1, "n": 1}, {"cap": 400, "i": 2, "n": 3}, {"cap": 300, "i": 2, "n": 1}],
        ),
    ],
)
def test_instances_that_alternate_inputs_match_single_runs(argv, instances, tmp_path, capsys):
    # the run memos hold one corpus and one prefix, so A, B, A misses them
    # every time; each instance still reports what a run of its own does
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"instances": instances}))
    batched = run_ok([*argv, "--config", str(path)], capsys)
    assert len(batched) == len(instances)
    for got, inst in zip(batched, instances):
        flags = [a for k, v in inst.items() for a in (f"--{k}", str(v))]
        (alone,) = run_ok([*argv, *flags], capsys)
        for key in ("params", "report", "passed"):
            assert got[key] == alone[key], (inst, key)


def test_no_run_memo_outlives_main(monkeypatch, capsys):
    argv = ["centerfree-scan", "--groups", "builtin S_4", "--m", "2"]
    (first,) = run_ok(argv, capsys)
    assert not any(models._RUN_MEMOS)
    run_ok(["centralizer", "--capped", "--r", "2", "--e", "2", "--m", "3", "--cap", "300"], capsys)
    assert not any(models._RUN_MEMOS)
    # the lattice is read only when a group's profile is built: a second
    # run that reused the first run's profile would not see this one
    monkeypatch.setattr(models, "normal_subgroups", lambda G: [G.full_subgroup()])
    (second,) = run_ok(argv, capsys)
    assert second["report"]["entries"][0]["ab_faithful"] == [[24, True]]
    assert second["report"] != first["report"]


# ------------------------------------------ normal subgroups and N^ab


# the ten groups of the benchmark's corpus-scan workload
SCAN_CORPUS = (
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


def _count_calls(monkeypatch):
    """Count abelianization and Subgroup.as_group calls, however bound."""
    counts = {"abelianization": 0, "as_group": 0}
    true_ab, true_as_group = fingroup.abelianization, fingroup.Subgroup.as_group

    def abelianization(G):
        counts["abelianization"] += 1
        return true_ab(G)

    def as_group(self):
        counts["as_group"] += 1
        return true_as_group(self)

    for mod in (fingroup, exp_groups):
        monkeypatch.setattr(mod, "abelianization", abelianization)
    monkeypatch.setattr(fingroup.Subgroup, "as_group", as_group)
    return counts


def test_transfer_builds_each_abelianization_once(monkeypatch, capsys):
    # one G^ab, and one N^ab per normal subgroup (7 of them) shared by both
    # transfers of N
    counts = _count_calls(monkeypatch)
    (e,) = run_ok(["transfer", "--group", "builtin paper_counterexample"], capsys)
    assert len(e["report"]["normals"]) == 7
    assert counts == {"abelianization": 8, "as_group": 7}


def test_conj_action_faithful_matches_the_action_on_labelled_ab():
    # reference: the kernel read off the permutations of abelianization(N)
    for text in SCAN_CORPUS:
        G = build_group(parse_group_dsl(text))
        for N in fingroup.normal_subgroups(G):
            faithful, kernel = fingroup.conj_action_faithful(G, N)
            Q, _ = fingroup.quotient_by(G, N)
            trivial = tuple(range(len(fingroup.conj_action_on_ab(G, N, 0))))
            expected = tuple(
                q for q in range(Q.order)
                if fingroup.conj_action_on_ab(G, N, G.index[Q.elements[q]]) == trivial
            )
            assert kernel.parent.elements == Q.elements, (text, N.order)
            assert kernel.indices == expected, (text, N.order)
            assert faithful == (expected == (0,)), (text, N.order)


def test_centerfree_scan_builds_no_subgroup_copy(monkeypatch):
    counts = _count_calls(monkeypatch)
    corpus = [(t, build_group(parse_group_dsl(t))) for t in SCAN_CORPUS]
    for m in (1, 2, 3):
        assert len(centerfree_scan(corpus, m)) == len(SCAN_CORPUS)
    assert counts["as_group"] == 0
