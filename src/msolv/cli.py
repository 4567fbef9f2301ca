"""Command-line front door: flags and config files in, experiment
dispatch, deterministic JSON reports out.

Reports are canonical JSON: keys sorted, arrays in index order, exact
integers only (values beyond 2^53 - 1 in magnitude are rendered as decimal
strings), one trailing newline.  Identical configs with identical seeds
produce byte-identical reports; wall-clock time goes to stderr only, never
into the report bytes.

Each experiment's inputs are declared once, in `PARAMS`: that table makes
the subcommand flags, supplies the defaults, names the required keys, and
validates every value from the command line, a config file or an instance
(type, lower bound, no unknown keys).

A run imports only what its experiment uses.  Without a bytecode cache
(PYTHONDONTWRITEBYTECODE, a read-only install) every module a run imports
is compiled on every run, and for a small experiment that compiling is
most of its wall time.  So this module imports no msolv module but
`errors` when it is loaded:
- `EXPERIMENTS` names each experiment's function as "module:function",
  and `run_experiment` imports the module on the first instance that runs
  it: `exp_groups` for the finite-group experiments, `exp_magnus` for
  those that need the Magnus/Fox stack.  Those modules import the library
  modules they call, and `exp_groups` the group DSL (`dsl`);
  `exp_magnus` imports it only in the experiments that parse or print a
  word or a group;
- the parser is built for the requested experiment alone.  Its subcommand
  metavar lists every experiment, as argparse's default would, so its
  usage and error text are those of the parser of every experiment, which
  a missing or unknown experiment gets;
- `traceback` is imported only to report an internal error;
- the library modules define plain classes with explicit `__init__`
  methods, not dataclasses.  Importing `dataclasses` (with `inspect`) costs
  about 7 ms, and each `@dataclass` execs its generated methods when its
  module loads, about 0.4 ms a class, with or without a bytecode cache;
- the runs that eliminate nothing (a K_cap tower, a capped probe,
  `solv-model`, the derived series or corpus scan of permutation groups)
  do not load `zmodlin`: `fingroup`, `grpring`, `models`, `crowell`,
  `constructions` and `exp_groups` import it inside the functions that
  row-reduce, and `fingroup._flat_mul`, the matrix-group product, lives
  beside `MatElem`.  A matrix group still loads it to invert its
  generators, and `counterexample` for the Smith normal form of
  `fingroup.abelian_invariants`.
No module may import `msolv.cli`: under `python -m msolv.cli` this file
runs as `__main__`, and that import would compile it a second time.

The instances of one run share its run memos (`models.run_memo`): a
corpus scanned at several m is parsed and profiled once, and capped probes
on one (r, e, m, cap) enumerate one prefix.  `main` empties the memos when
a run starts and when it ends.

Exit codes: 0 all verdicts pass, 1 at least one verdict failed (the report
carries the witness), 2 for configuration, parse, or precondition errors,
3 for an internal error (the traceback goes to stderr).
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import random
import sys
import time
from typing import Dict, Optional, Sequence, Tuple

from .errors import DEFAULT_CAP, MAX_INT_DIGITS, MsolvError, VerdictFailed, _int_list, brief

# -------------------------------------------------------------- reporting


_INT_LIMIT = 2**53 - 1


def _jsonify(x):
    if isinstance(x, bool):
        return x
    if isinstance(x, int):
        return x if -_INT_LIMIT <= x <= _INT_LIMIT else str(x)
    if isinstance(x, float):
        raise MsolvError("floating point values are forbidden in reports")
    if isinstance(x, str) or x is None:
        return x
    if isinstance(x, dict):
        out = {}
        for k, v in x.items():
            if not isinstance(k, str):
                raise MsolvError("report keys must be strings")
            out[k] = _jsonify(v)
        return out
    if isinstance(x, (list, tuple)):
        return [_jsonify(v) for v in x]
    if isinstance(x, (set, frozenset)):
        return [_jsonify(v) for v in sorted(x)]
    raise MsolvError(f"cannot serialize {type(x).__name__} into a report")


def emit_report(results: list) -> bytes:
    """Canonical JSON bytes: sorted keys, exact ints, one trailing newline."""
    payload = _jsonify({"experiments": list(results)})
    return (json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n").encode()



# ------------------------------------------------------------ experiments
#
# Each experiment takes (params, rng) and returns (report_dict, passed).
# Its function is named "module:function", the module under msolv; it is
# imported when an instance of the experiment first runs.

EXPERIMENTS: Dict[str, str] = {
    "counterexample": "exp_groups:_exp_counterexample",
    "derived-series": "exp_groups:_exp_derived_series",
    "msolv-quotient": "exp_groups:_exp_msolv_quotient",
    "centralizer": "exp_magnus:_exp_centralizer",
    "fox": "exp_magnus:_exp_fox",
    "magnus": "exp_magnus:_exp_magnus",
    "crowell": "exp_magnus:_exp_crowell",
    "gtilde": "exp_groups:_exp_gtilde",
    "reduction-lemma": "exp_groups:_exp_reduction_lemma",
    "kernel-projection": "exp_magnus:_exp_kernel_projection",
    "transfer": "exp_groups:_exp_transfer",
    "quotient-iso": "exp_groups:_exp_quotient_iso",
    "solv-model": "exp_magnus:_exp_solv_model",
    "centerfree-scan": "exp_groups:_exp_centerfree_scan",
    "surface": "exp_magnus:_exp_surface",
}

# ------------------------------------------------------------ parameters

INT_LIST = "int list"  # a JSON list of ints, or a comma-separated string


class Param:
    """One experiment input: its name, type, default and lower bound.

    `type` is int, str, bool or INT_LIST; `min` bounds an int, or each entry
    of an int list.  A param with no default stays out of the merged params
    (and so out of the report's params echo) unless it is given.
    """

    __slots__ = ("name", "type", "default", "required", "min")

    def __init__(self, name: str, type: object, default: object = None,
                 required: bool = False, min: Optional[int] = None):
        self.name = name
        self.type = type
        self.default = default
        self.required = required
        self.min = min

    def _key(self) -> tuple:
        return self.name, self.type, self.default, self.required, self.min

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    @property
    def flag(self) -> str:
        return "--" + self.name.replace("_", "-")


_GROUP = Param("group", str, required=True)
_M = Param("m", int, 2, min=0)
_I = Param("i", int, 1, min=1)
_N = Param("n", int, 1, min=1)
_CAP = Param("cap", int, DEFAULT_CAP, min=1)
_IMAGES = Param("images", str, required=True)
_WORD = Param("word", str, required=True)
_MODULUS_N = Param("n", int, 2, min=2)  # coefficient modulus of (Z/n)[Q]
_RANK = Param("rank", int, min=1)

# The one declaration of each experiment's inputs, in flag order.  Defaults
# are applied at merge time, so config files can override them while
# explicit command-line flags still win.
PARAMS: Dict[str, Tuple[Param, ...]] = {
    "counterexample": (),
    "derived-series": (_GROUP,),
    "msolv-quotient": (_GROUP, _M),
    "centralizer": (
        Param("r", int, required=True, min=1),
        Param("e", int, required=True, min=2),
        _M,
        _I,
        _N,
        _CAP,
        Param("capped", bool, False),
    ),
    "fox": (_GROUP, _IMAGES, _WORD, _MODULUS_N, _RANK),
    "magnus": (_GROUP, _IMAGES, _WORD, _MODULUS_N, _RANK),
    "crowell": (_GROUP, _IMAGES, _MODULUS_N, _RANK, Param("relators", str)),
    "gtilde": (
        _GROUP,
        Param("x", str, required=True),
        _N,
        Param("l", int, 3, min=2),
        Param("sigma", int, 2, min=1),
    ),
    "reduction-lemma": (
        Param("umax", int, 2, min=1),
        Param("lset", INT_LIST, "2,3", min=2),
        Param("sigmamax", int, 3, min=1),
        Param("ntildemax", int, 12, min=1),
        Param("random", int, 0, min=0),
        Param("random_umax", int, 6, min=1),
    ),
    "kernel-projection": (
        Param("modulus", int, required=True, min=2),
        Param("levels", INT_LIST, "1,2,3,4,6,9,12,18,27", min=1),
        Param("n", int, 1),
        Param("base_group", str),
        Param("sigma_set", INT_LIST, "2,3", min=2),
    ),
    "transfer": (_GROUP,),
    "quotient-iso": (_GROUP, _M, Param("n", int, 2, min=0)),
    "solv-model": (
        Param("r", int, required=True, min=1),
        Param("e", int, min=2),
        _M,
        _CAP,
        Param("tower", INT_LIST, min=2),
        _I,
        _N,
    ),
    "centerfree-scan": (_M, Param("groups", str)),
    "surface": (
        Param("genus", int, required=True, min=0),
        Param("punctures", int, 0, min=0),
    ),
}


# Settings of a run rather than of an experiment: each comes from its flag
# or from the config's top level, and is checked like a param.  `jobs` is
# checked and then ignored: instances always run in one loop, in index order
_SEED = Param("seed", int, 0)
_JOBS = Param("jobs", int, 1, min=1)


_TYPE_NAMES = {
    int: "an integer",
    str: "a string",
    bool: "true or false",
    INT_LIST: "a nonempty list of ints or an 'a,b' string",
}


def _ints_of(p: Param, value) -> Optional[list]:
    """The ints that `value` carries for p's bound, or None if it has the
    wrong type (bool is not an int here, though Python says it is)."""
    if p.type is INT_LIST:
        if isinstance(value, str):
            try:
                value = _int_list(value)
            except ValueError:
                return None
        ok = isinstance(value, list) and value and all(type(v) is int for v in value)
        return value if ok else None
    if p.type is int:
        return [value] if type(value) is int else None
    return [] if isinstance(value, p.type) else None


def _check_param(kind: str, p: Param, value) -> None:
    """Raise MsolvError unless `value` has p's type and lower bound."""
    ints = _ints_of(p, value)
    if ints is None:
        raise MsolvError(f"{kind} {p.flag} must be {_TYPE_NAMES[p.type]}, got {brief(value)}")
    if p.min is not None and any(v < p.min for v in ints):
        raise MsolvError(f"{kind} {p.flag} must be >= {p.min}, got {brief(value)}")


def _int_arg(text: str) -> int:
    """argparse type of an int flag: like `dsl._read_int`, it refuses more than
    MAX_INT_DIGITS digits before int() reads them, and it echoes a rejected
    value only in brief."""
    if sum(c.isdigit() for c in text) <= MAX_INT_DIGITS:
        try:
            return int(text)
        except ValueError:
            pass
    raise argparse.ArgumentTypeError(
        f"not an integer of at most {MAX_INT_DIGITS} digits: {brief(text)}"
    )


@functools.cache
def _build_arg_parser(kind: Optional[str] = None) -> argparse.ArgumentParser:
    """The msolv parser, built once per process and `kind`: parsing never
    mutates it.

    With a `kind`, only that experiment's subcommand is added, and the
    subcommand metavar spells what argparse makes of every experiment's
    name, so the usage and error text equal the parser's with no `kind`,
    which adds them all.  That metavar is left out there: argparse would
    name the subcommand by it in "invalid choice" and "required" errors.
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file (defaults + instances)")
    common.add_argument("--out", help="also write the report bytes to this file")
    common.add_argument("--seed", type=_int_arg, help="random seed (default 0)")
    common.add_argument(
        "--jobs",
        type=_int_arg,
        help="accepted and checked (>= 1) but ignored: instances run one after another",
    )

    top = argparse.ArgumentParser(
        prog="msolv",
        description="exact-arithmetic experiments on finite solvable quotients",
    )
    every = "{" + ",".join(PARAMS) + "}"
    sub = top.add_subparsers(dest="experiment", required=True, metavar=every if kind else None)
    for name in [kind] if kind else PARAMS:
        sp = sub.add_parser(name, parents=[common])
        for p in PARAMS[name]:
            if p.type is bool:
                sp.add_argument(p.flag, action="store_true", default=None)
            else:
                sp.add_argument(p.flag, type=_int_arg if p.type is int else str, default=None)
    return top


def _merge_params(kind: str, cli: dict, config: dict, instance: dict) -> dict:
    """Defaults, then config, instance and CLI values, each one checked."""
    spec = {p.name: p for p in PARAMS[kind]}
    params = {p.name: p.default for p in spec.values() if p.default is not None}
    for layer in (config, instance, cli):
        for k, v in layer.items():
            if k not in spec:
                raise MsolvError(f"{kind} has no parameter {brief(k)}")
            if v is not None:
                _check_param(kind, spec[k], v)
                params[k] = v
    for p in spec.values():
        if p.required and params.get(p.name) in (None, ""):
            raise MsolvError(f"{kind} requires {p.flag}")
    return params


def _run_setting(kind: str, p: Param, flag_value, config: dict):
    """A run setting: the flag's value if given, else the config's; the
    config key is consumed either way, and every value present is checked."""
    value = config.pop(p.name, p.default)
    _check_param(kind, p, value)
    if flag_value is not None:
        _check_param(kind, p, flag_value)
        value = flag_value
    return value


def run_experiment(kind: str, params: dict, seed: int, index: int) -> dict:
    """Run one experiment instance; exceptions are the caller's concern."""
    rng = random.Random(f"{seed}:{index}")
    module, name = EXPERIMENTS[kind].split(":")
    func = getattr(importlib.import_module(f"msolv.{module}"), name)
    try:
        report, passed = func(params, rng)
    except VerdictFailed as e:
        report, passed = {"witness": str(e)}, False
    echo = {k: v for k, v in sorted(params.items())}
    return {
        "kind": kind,
        "index": index,
        "params": echo,
        "report": report,
        "passed": passed,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    t0 = time.monotonic()
    args = sys.argv[1:] if argv is None else list(argv)
    try:
        ns = _build_arg_parser(args[0] if args and args[0] in PARAMS else None).parse_args(args)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    kind = ns.experiment
    cli_params = {
        k: v
        for k, v in vars(ns).items()
        if k not in ("experiment", "config", "out", "seed", "jobs")
    }

    try:
        config: dict = {}
        if ns.config:
            with open(ns.config, "r", encoding="utf-8") as fh:
                config = json.load(fh)
            if not isinstance(config, dict):
                raise MsolvError("config must be a JSON object")
        instances = config.pop("instances", [{}])
        if not isinstance(instances, list) or not all(
            isinstance(x, dict) for x in instances
        ):
            raise MsolvError("config 'instances' must be a list of objects")
        seed = _run_setting(kind, _SEED, ns.seed, config)
        _run_setting(kind, _JOBS, ns.jobs, config)  # checked, then unused
        merged = [
            _merge_params(kind, cli_params, config, inst) for inst in instances
        ]
    except (MsolvError, OSError, ValueError, TypeError) as e:
        print(f"msolv: error: {e}", file=sys.stderr)
        return 2

    from .models import clear_run_memos

    # the instances of a run share its run memos, and nothing else does
    clear_run_memos()
    try:
        results = [run_experiment(kind, p, seed, idx) for idx, p in enumerate(merged)]
        blob = emit_report(results)
    except MsolvError as e:
        print(f"msolv: error: {e}", file=sys.stderr)
        return 2
    except Exception:
        # exit 1 means a failed verdict only; anything else here is a bug
        import traceback

        traceback.print_exc()
        print("msolv: internal error", file=sys.stderr)
        return 3
    finally:
        clear_run_memos()
    sys.stdout.write(blob.decode())
    if ns.out:
        try:
            with open(ns.out, "wb") as fh:
                fh.write(blob)
        except OSError as e:
            print(f"msolv: error: {e}", file=sys.stderr)
            return 2
    wall_ms = int((time.monotonic() - t0) * 1000)
    print(f"msolv: wall_time_ms={wall_ms}", file=sys.stderr)
    return 0 if all(r["passed"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
