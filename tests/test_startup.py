"""What a run loads, and the CLI text its parser prints.

A run imports only the modules its experiment uses (see the `msolv.cli`
docstring): each import-graph case runs `main` in a fresh interpreter and
lists the msolv modules it loaded, and no case loads `dataclasses`.  The
parser is built for the requested experiment alone, so every help and
argparse error text is pinned: the sha256 of stdout and stderr, and the
exit code, as the parser of every experiment printed them, and checked
against that parser in process too.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import msolv
from msolv import cli
from msolv.cli import main

ENV = dict(os.environ, PYTHONPATH=str(Path(msolv.__file__).parent.parent))

# prints the sorted names of every module loaded, last
BARE = "import json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
# runs `main` on argv first
LOADED = "import sys\nfrom msolv.cli import main\nmain(sys.argv[1:])\n" + BARE

BASE = ["msolv", "msolv.cli", "msolv.errors"]
FINITE = ["msolv.fingroup", "msolv.models"]
MAGNUS_STACK = ["msolv.crowell", "msolv.exp_magnus", "msolv.foxcalc", "msolv.grpring"]
LINEAR = ["msolv.zmodlin"]

IMPORT_GRAPH = {
    "scan": (
        ["centerfree-scan", "--groups", "builtin S_3", "--m", "1"],
        BASE + FINITE + ["msolv.constructions", "msolv.dsl", "msolv.exp_groups"],
    ),
    "derived-series": (
        ["derived-series", "--group", "builtin S_4"],
        BASE + FINITE + ["msolv.constructions", "msolv.dsl", "msolv.exp_groups"],
    ),
    # its quotient is matched to D_8 through abelian invariants, a Smith
    # normal form, so the counterexample row-reduces
    "counterexample": (
        ["counterexample"],
        BASE + FINITE + LINEAR + ["msolv.constructions", "msolv.dsl", "msolv.exp_groups"],
    ),
    "scan-help": (["centerfree-scan", "--help"], BASE),
    "centralizer": (
        ["centralizer", "--r", "2", "--e", "2", "--m", "2"],
        BASE + FINITE + MAGNUS_STACK + LINEAR,
    ),
    # the Magnus runs that eliminate nothing load no linear algebra
    "tower": (
        ["solv-model", "--r", "2", "--m", "2", "--tower", "4,5", "--i", "1", "--n", "1"],
        BASE + FINITE + MAGNUS_STACK,
    ),
    "capped-probe": (
        ["centralizer", "--capped", "--r", "2", "--e", "2", "--m", "3", "--cap", "300"],
        BASE + FINITE + MAGNUS_STACK,
    ),
    "crowell": (
        ["crowell", "--group", "builtin S_3", "--images", "g1,g2"]
        + ["--relators", "x1^3,x2^2,x1*x2*x1*x2"],
        BASE + FINITE + MAGNUS_STACK + LINEAR + ["msolv.dsl"],
    ),
}


def _loaded(script: str, argv=()) -> list:
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv], capture_output=True, env=ENV, timeout=60
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return json.loads(proc.stdout.decode().splitlines()[-1])


@pytest.mark.parametrize("case", list(IMPORT_GRAPH))
def test_a_run_loads_only_what_its_experiment_uses(case):
    argv, expected = IMPORT_GRAPH[case]
    loaded = _loaded(LOADED, argv)
    assert [m for m in loaded if m.startswith("msolv")] == sorted(expected)


@pytest.mark.parametrize("case", list(IMPORT_GRAPH))
def test_a_run_loads_no_dataclasses(case):
    # a host's site hooks may load it before any msolv code runs
    at_start = "dataclasses" in _loaded(BARE)
    assert ("dataclasses" in _loaded(LOADED, IMPORT_GRAPH[case][0])) <= at_start


# (argv, exit code, sha256 of stdout + NUL + stderr) at COLUMNS=80, from
# the parser that added every experiment's subcommand, under Python 3.11;
# argparse words its help differently in other versions
CLI_TEXT = [
    (("--help",), 0, "1874309f3dc24db6640476f9c295c6b69dd715728684116a619f12b1ea19a6f1"),
    ((), 2, "b9115f5c32847fbfcabe601ad8297f013eee32d914b9d36d2224356f6c1d8130"),
    (("bogus",), 2, "f9a5becdc1eeac271021f4ebe18cb6671a7460334d31fb728f87244af2316ce1"),
    (("counterexample", "--help"), 0, "f3138c11efed081b8bb907d4f43d51ab77b88e468301fb42a28e515734b75745"),
    (("derived-series", "--help"), 0, "c1020f7aab1c98ecb63e0d4d060dc04a4aed233b0803db53e939c9568a5009a5"),
    (("msolv-quotient", "--help"), 0, "6409447caefb9dcb00ed89ce427ae353af5e50bed478747c0c792ef052b7a8c8"),
    (("centralizer", "--help"), 0, "676eebd829ea716eaa759e1f31f46bc04212fc0a55d20b23c830aceac8d6bff6"),
    (("fox", "--help"), 0, "59744c4a60f272e6375b1cf7f6bddd0e6e8bc351ddc71ac64601931fa626cb94"),
    (("magnus", "--help"), 0, "7e7039900e289229a9a43a30d3291e01dcf81b3187bb38eac1183944841550e2"),
    (("crowell", "--help"), 0, "33c131772d551995751c4f3eca3429ccf8b30f66b33a054f9c859dfddb5d6b9e"),
    (("gtilde", "--help"), 0, "176e787ab40008de6cdef90b83187f9c7194250d8b82674cc1d47c1969f12231"),
    (("reduction-lemma", "--help"), 0, "a9daafb820c740005ba93468989935c15f054d77f64e07f45b4bf4348c8b3734"),
    (("kernel-projection", "--help"), 0, "0c968291deec3db4ae33a306004a6fa1b8fdbff5761474c182f96c80528b7743"),
    (("transfer", "--help"), 0, "7c8a594a7c3ca9c2ef7fea685fd2ce66f319dd51cab80c24edad6dd5d060ee9f"),
    (("quotient-iso", "--help"), 0, "855f0de5ded604e917356e9666b6ee8197616ddbb753129ff372b8d1f030713f"),
    (("solv-model", "--help"), 0, "47769a49cff586091ee43c1fc37e78e7c77d06ec027929f35d102a0cfd432551"),
    (("centerfree-scan", "--help"), 0, "be9c53c7b1a619e6eda4abd4c0e78ef58a3d4f6603433db22ea2bcd3b869ed81"),
    (("surface", "--help"), 0, "6652969ba9d69569c42b59757c9199f251d62d68d761ecd2ea7138195d4df86c"),
    (("centerfree-scan", "--bogus"), 2, "8d1cef2aa32702e310b7bad29bab5ecdc0dea1ac8594d614dc1ade02b1aa86a2"),
    (("centralizer", "--r", "x"), 2, "a70f5a93b087b223aedea4aa6b2ce4c36ee6936f3a953b28498123247ecb0248"),
]


def test_cli_text_covers_every_experiment():
    assert {argv[0] for argv, _, _ in CLI_TEXT if argv[1:] == ("--help",)} == set(cli.PARAMS)


@pytest.mark.parametrize("argv, code, digest", CLI_TEXT, ids=[" ".join(a) for a, _, _ in CLI_TEXT])
def test_cli_text_is_the_all_experiments_parsers(argv, code, digest, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    assert main(list(argv)) == code
    got = capsys.readouterr()
    with pytest.raises(SystemExit):
        cli._build_arg_parser(None).parse_args(list(argv))
    assert capsys.readouterr() == got
    if sys.version_info[:2] == (3, 11):
        assert hashlib.sha256(f"{got.out}\0{got.err}".encode()).hexdigest() == digest
