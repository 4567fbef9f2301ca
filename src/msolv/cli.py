"""Command-line harness: group-description DSL, experiment dispatch, and
deterministic JSON reports.

The DSL has four production kinds plus named builtins:

    perm <degree> : (0 1 2)(3 4), (0 1), ...
    mat <modulus> : [[0,2],[1,0]], [[1,0],[0,2]], ...
    semidirect(<spec>, <spec>, action=[[[0,2],[1,0]], ...])
    builtin S_4 | D_8 | C_6 | Q8 | paper_counterexample

Inside `semidirect`, commas separate both generators and arguments; the
parser disambiguates by one token of lookahead (a permutation generator
continues with `(`, a matrix generator with `[`, while the next argument
starts with a name).  The semidirect action lists one matrix per acting
generator; row i sends the i-th normal generator to the product of normal
generators raised to the row's exponents.

Reports are canonical JSON: keys sorted, arrays in index order, exact
integers only (values beyond 2^53 - 1 in magnitude are rendered as decimal
strings), one trailing newline.  Identical configs with identical seeds
produce byte-identical reports; wall-clock time goes to stderr only, never
into the report bytes.

Each experiment's inputs are declared once, in `PARAMS`: that table makes
the subcommand flags, supplies the defaults, names the required keys, and
validates every value from the command line, a config file or an instance
(type, lower bound, no unknown keys).

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
import itertools
import json
import math
import random
import re
import sys
import time
import traceback
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .errors import CapExceeded, MsolvError, ParseError, PreconditionViolated, TooLarge, VerdictFailed, brief
from .fingroup import (
    DEFAULT_CAP,
    FiniteGroup,
    MatElem,
    PermElem,
    abelianization,
    all_subgroups,
    center,
    closure,
    derived_series,
    m_step_quotient,
    normal_subgroups,
    quotient_iso_check,
    semidirect_product,
    trivial_group,
    _ab_action,
    _left_cosets,
    _transfer,
)
from .foxcalc import FreeWord, QuotientContext, empty_word, expansion_check, fox_row, generator_word
from .crowell import build_complex, exactness_check, magnus_image, relation_module_report, relator_kernel_check
from .grpring import CyclicTower, kernel_projection_check
from .constructions import (
    GTildeInstance,
    build_counterexample,
    counterexample_group,
    gtilde_experiment,
    reduction_lemma_check,
)
from .models import (
    MODEL_NOTE,
    ScanProfile,
    build_solv_model,
    centerfree_scan,
    centralizer_experiment,
    centralizer_probe_capped,
    check_centralizer_question,
    clear_run_memos,
    euler_char,
    kcap_tower,
    presentation_abelianization,
    run_memo,
    surface_presentation,
)
from .zmodlin import RMatrix, scalar_kernel, valuation

DEFAULT_SIGMA_SET = (2, 3)


def _int_list(value) -> list:
    """Accept either a JSON list of ints or a comma-separated string."""
    if isinstance(value, (list, tuple)):
        return [int(v) for v in value]
    return [int(s) for s in str(value).split(",") if s.strip()]


# ----------------------------------------------------------------- DSL AST


@dataclass(frozen=True)
class PermSpec:
    degree: int
    gens: tuple  # of PermElem


@dataclass(frozen=True)
class MatSpec:
    modulus: int
    mats: tuple  # of row-tuples-of-tuples, entries reduced mod modulus


@dataclass(frozen=True)
class SemidirectSpec:
    normal: object
    acting: object
    action: tuple  # one exponent matrix (tuple of row tuples) per acting gen


@dataclass(frozen=True)
class BuiltinSpec:
    name: str


BUILTIN_PATTERN = re.compile(r"^(S|C|D)_(\d+)$|^Q8$|^paper_counterexample$")

# most digits an integer of the group DSL or of a word may have: int()
# refuses past sys.get_int_max_str_digits() (4300 by default) with a
# ValueError, so a longer token is refused first, with its position
MAX_INT_DIGITS = 1000

# most points (elements x degree) a builtin's closure may write: S_9 has
# 9! x 9 = 3,265,920, while C_100000 has 10^10
BUILTIN_WORK_BOUND = 4_000_000


def _read_int(text: str, line: int, col: int) -> int:
    """The integer `text` spells (optional '-', then digits), or ParseError
    at (line, col) when it has more than MAX_INT_DIGITS digits."""
    digits = len(text) - text.startswith("-")
    if digits > MAX_INT_DIGITS:
        raise ParseError(
            f"integer of {digits} digits; at most {MAX_INT_DIGITS} are read", line, col
        )
    return int(text)


# ------------------------------------------------------------- tokenizer

_TOKEN_RE = re.compile(r"-?\d+|[A-Za-z_][A-Za-z0-9_]*|[()\[\]:,=]")


@dataclass(frozen=True)
class _Tok:
    text: str
    line: int
    col: int


def _tokenize(text: str) -> List[_Tok]:
    toks = []
    line = 1
    col = 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        m = _TOKEN_RE.match(text, i)
        if not m:
            raise ParseError(f"unexpected character {ch!r}", line, col)
        toks.append(_Tok(m.group(), line, col))
        col += m.end() - i
        i = m.end()
    return toks


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.pos = 0
        last_line = text.count("\n") + 1
        self._eof = _Tok("", last_line, len(text.rsplit("\n", 1)[-1]) + 1)

    def peek(self, ahead: int = 0) -> _Tok:
        i = self.pos + ahead
        return self.toks[i] if i < len(self.toks) else self._eof

    def next(self) -> _Tok:
        t = self.peek()
        self.pos += 1
        return t

    def fail(self, expected: str) -> None:
        t = self.peek()
        got = repr(t.text) if t.text else "end of input"
        raise ParseError(f"expected {expected}, got {got}", t.line, t.col)

    def expect(self, text: str) -> _Tok:
        t = self.peek()
        if t.text != text:
            self.fail(repr(text))
        return self.next()

    def expect_int(self) -> int:
        t = self.peek()
        if not re.fullmatch(r"-?\d+", t.text):
            self.fail("an integer")
        self.next()
        return _read_int(t.text, t.line, t.col)

    # ---- grammar

    def parse_spec(self):
        t = self.peek()
        if t.text == "perm":
            return self._perm()
        if t.text == "mat":
            return self._mat()
        if t.text == "semidirect":
            return self._semidirect()
        if t.text == "builtin":
            self.next()
            return self._builtin()
        if BUILTIN_PATTERN.match(t.text):
            return self._builtin()
        self.fail("'perm', 'mat', 'semidirect' or a builtin name")

    def _builtin(self) -> BuiltinSpec:
        t = self.peek()
        m = BUILTIN_PATTERN.match(t.text)
        if not m:
            self.fail("a builtin name (S_k, D_2k, C_k, Q8, paper_counterexample)")
        if m.group(2):
            _read_int(m.group(2), t.line, t.col + 2)
        self.next()
        return BuiltinSpec(t.text)

    def _perm(self) -> PermSpec:
        self.expect("perm")
        deg_tok = self.peek()
        degree = self.expect_int()
        if degree < 1:
            raise ParseError("degree must be >= 1", deg_tok.line, deg_tok.col)
        if degree > DEFAULT_CAP:
            raise ParseError(f"degree must be <= {DEFAULT_CAP}", deg_tok.line, deg_tok.col)
        self.expect(":")
        gens = [self._perm_gen(degree)]
        while self.peek().text == "," and self.peek(1).text == "(":
            self.next()
            gens.append(self._perm_gen(degree))
        return PermSpec(degree, tuple(gens))

    def _perm_gen(self, degree: int) -> PermElem:
        cycles = []
        start = self.peek()
        if start.text != "(":
            self.fail("'('")
        while self.peek().text == "(":
            self.next()
            pts = []
            while self.peek().text != ")":
                t = self.peek()
                p = self.expect_int()
                if not 0 <= p < degree:
                    raise ParseError(
                        f"point {p} outside 0..{degree - 1}", t.line, t.col
                    )
                pts.append(p)
            self.expect(")")
            if pts:
                cycles.append(tuple(pts))
        try:
            return PermElem.from_cycles(degree, cycles)
        except ValueError as e:
            raise ParseError(str(e), start.line, start.col) from None

    def _mat(self) -> MatSpec:
        self.expect("mat")
        mod_tok = self.peek()
        modulus = self.expect_int()
        if modulus < 2:
            raise ParseError("modulus must be >= 2", mod_tok.line, mod_tok.col)
        self.expect(":")
        mats = [self._matrix(modulus)]
        while self.peek().text == "," and self.peek(1).text == "[":
            self.next()
            mats.append(self._matrix(modulus))
        return MatSpec(modulus, tuple(mats))

    def _matrix(self, modulus: Optional[int]) -> tuple:
        start = self.expect("[")
        rows = [self._row(modulus)]
        while self.peek().text == ",":
            self.next()
            rows.append(self._row(modulus))
        self.expect("]")
        if any(len(r) != len(rows) for r in rows):
            raise ParseError("matrix must be square", start.line, start.col)
        return tuple(rows)

    def _row(self, modulus: Optional[int]) -> tuple:
        self.expect("[")
        vals = [self.expect_int()]
        while self.peek().text == ",":
            self.next()
            vals.append(self.expect_int())
        self.expect("]")
        if modulus is not None:
            vals = [v % modulus for v in vals]
        return tuple(vals)

    def _semidirect(self) -> SemidirectSpec:
        self.expect("semidirect")
        self.expect("(")
        normal = self.parse_spec()
        self.expect(",")
        acting = self.parse_spec()
        self.expect(",")
        self.expect("action")
        self.expect("=")
        self.expect("[")
        action = [self._matrix(None)]
        while self.peek().text == ",":
            self.next()
            action.append(self._matrix(None))
        self.expect("]")
        self.expect(")")
        return SemidirectSpec(normal, acting, tuple(action))


def parse_group_dsl(text: str):
    """Parse a group spec; raises ParseError with line/column on failure."""
    p = _Parser(text)
    spec = p.parse_spec()
    if p.pos != len(p.toks):
        p.fail("end of input")
    return spec


def _matrix_text(m: tuple) -> str:
    return "[" + ",".join("[" + ",".join(str(v) for v in r) + "]" for r in m) + "]"


def print_group_spec(spec) -> str:
    """Canonical text form; parse(print(spec)) == spec."""
    if isinstance(spec, PermSpec):
        return f"perm {spec.degree} : " + ", ".join(g.cycle_string() for g in spec.gens)
    if isinstance(spec, MatSpec):
        return f"mat {spec.modulus} : " + ", ".join(_matrix_text(m) for m in spec.mats)
    if isinstance(spec, SemidirectSpec):
        return (
            f"semidirect({print_group_spec(spec.normal)}, "
            f"{print_group_spec(spec.acting)}, "
            f"action=[{', '.join(_matrix_text(m) for m in spec.action)}])"
        )
    if isinstance(spec, BuiltinSpec):
        return f"builtin {spec.name}"
    raise MsolvError(f"unknown spec {spec!r}")


# ---------------------------------------------------------- group building


def _builtin_group(name: str) -> FiniteGroup:
    m = re.fullmatch(r"(S|C|D)_(\d+)", name)
    if m:
        kind, k = m.group(1), int(m.group(2))
        # a known order past the closure cap is refused before any cycle is
        # built: k for C_k and D_k (named by its order), k! for S_k, which
        # passes the cap from k = 10 on and is not multiplied out past k = 20
        if kind == "S" and k > 20:
            raise TooLarge(f"S_{k} has order {k}!, past the cap {DEFAULT_CAP}")
        order = math.factorial(k) if kind == "S" else k
        if order > DEFAULT_CAP:
            raise CapExceeded(DEFAULT_CAP, order, predicted=True)
        degree = k // 2 if kind == "D" else k  # D_2k acts on k points
        if order * degree > BUILTIN_WORK_BOUND:
            raise TooLarge(
                f"{name} has {order} elements of degree {degree}, {order * degree} "
                f"points in all; the bound is {BUILTIN_WORK_BOUND}"
            )
        if kind == "S":
            if k < 1:
                raise MsolvError("S_k needs k >= 1")
            if k == 1:
                return trivial_group()
            gens = [PermElem.from_cycles(k, [tuple(range(k))])]
            if k > 2:
                gens.append(PermElem.from_cycles(k, [(0, 1)]))
            return closure(gens)
        if kind == "C":
            if k < 1:
                raise MsolvError("C_k needs k >= 1")
            if k == 1:
                return trivial_group()
            return closure([PermElem.from_cycles(k, [tuple(range(k))])])
        # dihedral of order k (named by order, so k must be even)
        if k < 2 or k % 2:
            raise MsolvError("D_n needs an even order n >= 2")
        half = k // 2
        if half == 1:
            return closure([PermElem.from_cycles(2, [(0, 1)])])
        if half == 2:
            return closure(
                [PermElem.from_cycles(4, [(0, 1)]), PermElem.from_cycles(4, [(2, 3)])]
            )
        rot = PermElem.from_cycles(half, [tuple(range(half))])
        refl = PermElem(tuple((half - i) % half for i in range(half)))
        return closure([rot, refl])
    if name == "Q8":
        i = MatElem(3, (0, 2, 1, 0))
        j = MatElem(3, (1, 1, 1, 2))
        return closure([i, j])
    if name == "paper_counterexample":
        return counterexample_group()
    raise MsolvError(f"unknown builtin {name!r}")


def build_group(spec) -> FiniteGroup:
    """Materialize a parsed GroupSpec as a FiniteGroup."""
    if isinstance(spec, PermSpec):
        return closure(list(spec.gens))
    if isinstance(spec, MatSpec):
        try:
            gens = [
                MatElem(spec.modulus, [v for r in m for v in r]) for m in spec.mats
            ]
        except ValueError as e:
            raise MsolvError(f"matrix generator is not invertible: {e}") from None
        return closure(gens)
    if isinstance(spec, SemidirectSpec):
        N = build_group(spec.normal)
        H = build_group(spec.acting)
        if len(spec.action) != len(H.gen_indices):
            raise MsolvError(
                f"action lists {len(spec.action)} matrices for "
                f"{len(H.gen_indices)} acting generators"
            )
        images_per_gen = []
        for mat in spec.action:
            if len(mat) != len(N.gen_indices):
                raise MsolvError(
                    f"action matrix has {len(mat)} rows for "
                    f"{len(N.gen_indices)} normal generators"
                )
            imgs = []
            for row in mat:
                acc = 0
                for k, exp in enumerate(row):
                    acc = N.mul(acc, N.power(N.gen_indices[k], exp))
                imgs.append(acc)
            images_per_gen.append(imgs)
        try:
            return semidirect_product(N, H, images_per_gen)
        except ValueError as e:
            raise MsolvError(str(e)) from None
    if isinstance(spec, BuiltinSpec):
        return _builtin_group(spec.name)
    raise MsolvError(f"unknown spec {spec!r}")


def _group_from_text(text: str) -> Tuple[FiniteGroup, str]:
    spec = parse_group_dsl(text)
    return build_group(spec), print_group_spec(spec)


# ----------------------------------------------------- element expressions


_WORD_TOKEN = re.compile(r"([A-Za-z]+)(\d+)(?:\^(-?\d+))?$")


def parse_word(text: str, rank: int, letter: str = "x") -> FreeWord:
    """Words like `x1*x2^-1` or `x1 x2^-1 x1^2` in generators 1..rank.

    `1` denotes the empty word, matching the canonical rendering.
    """
    if text.strip() == "1":
        return empty_word(rank)
    w = empty_word(rank)
    col = 1
    for raw in text.replace("*", " ").split():
        m = _WORD_TOKEN.match(raw)
        if not m or m.group(1) != letter:
            raise ParseError(f"expected a {letter}<i>[^e] letter, got {raw!r}", 1, col)
        i = _read_int(m.group(2), 1, col + len(m.group(1)))
        if not 1 <= i <= rank:
            raise ParseError(f"generator index {i} outside 1..{rank}", 1, col)
        e = _read_int(m.group(3), 1, col + m.start(3)) if m.group(3) else 1
        w = w * generator_word(rank, i).power(e)
        col += len(raw) + 1
    return w


def word_text(w: FreeWord, letter: str = "x") -> str:
    """Canonical rendering with merged exponent runs; identity is `1`."""
    if not w.letters:
        return "1"
    parts = []
    cur_i, cur_e = w.letters[0]
    for i, e in w.letters[1:]:
        if i == cur_i and (e > 0) == (cur_e > 0):
            cur_e += e
            continue
        parts.append(f"{letter}{cur_i}" + (f"^{cur_e}" if cur_e != 1 else ""))
        cur_i, cur_e = i, e
    parts.append(f"{letter}{cur_i}" + (f"^{cur_e}" if cur_e != 1 else ""))
    return "*".join(parts)


def _eval_gen_word(G: FiniteGroup, text: str) -> int:
    """Evaluate a g-word (g1*g2^-1 ...) to an element index of G."""
    rank = len(G.gen_indices)
    if rank == 0:
        return 0
    w = parse_word(text, rank, letter="g")
    acc = 0
    for i, e in w.letters:
        acc = G.mul(acc, G.power(G.gen_indices[i - 1], e))
    return acc


def parse_element(G: FiniteGroup, text: str) -> int:
    """Element of G from cycle notation, a matrix literal, or a g-word."""
    t = text.strip()
    ident = G.elements[0]
    if t.startswith("("):
        if not isinstance(ident, PermElem):
            raise MsolvError("cycle notation needs a permutation group")
        sub = _Parser(t)
        el = sub._perm_gen(len(ident.images))
    elif t.startswith("["):
        if not isinstance(ident, MatElem):
            raise MsolvError("matrix literal needs a matrix group")
        sub = _Parser(t)
        rows = sub._matrix(ident.modulus)
        try:
            el = MatElem(ident.modulus, [v for r in rows for v in r])
        except ValueError as e:
            raise MsolvError(f"matrix {t!r} is not invertible: {e}") from None
    else:
        return _eval_gen_word(G, t)
    if sub.pos != len(sub.toks):
        sub.fail("end of input")
    idx = G.index.get(el)
    if idx is None:
        raise MsolvError(f"element {text!r} does not lie in the group")
    return idx


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


def _exp_counterexample(p: dict, rng) -> Tuple[dict, bool]:
    b = build_counterexample()
    series = derived_series(b.group)
    report = {
        "group": {"order": b.group.order, "center_order": b.center_order},
        "quotient": {
            "order": b.quotient.order,
            "center_order": b.quotient_center_order,
            "dihedral": b.dihedral_witness is not None,
        },
        "derived_orders": [s.order for s in series],
    }
    ok = (
        b.group.order == 72
        and b.center_order == 1
        and b.quotient.order == 8
        and b.quotient_center_order == 2
        and b.dihedral_witness is not None
    )
    return report, ok


def _exp_derived_series(p: dict, rng) -> Tuple[dict, bool]:
    G, label = _group_from_text(p["group"])
    series = derived_series(G)
    layers_abelian = []
    for top, bottom in zip(series, series[1:]):
        # the first term is G itself, already enumerated
        Q, _ = m_step_quotient(G if top is series[0] else top.as_group(), 1)
        layers_abelian.append(Q.order * bottom.order == top.order)
    report = {
        "group": label,
        "orders": [s.order for s in series],
        "layers_abelian": layers_abelian,
        "solvable": series[-1].order == 1,
    }
    return report, all(layers_abelian)


def _exp_msolv_quotient(p: dict, rng) -> Tuple[dict, bool]:
    G, label = _group_from_text(p["group"])
    m = p["m"]
    Q, proj = m_step_quotient(G, m)
    qseries = derived_series(Q)
    report = {
        "group": label,
        "m": m,
        "group_order": G.order,
        "quotient_order": Q.order,
        "kernel_order": G.order // Q.order,
        "quotient_center_order": center(Q).order,
        "quotient_derived_orders": [s.order for s in qseries],
        "quotient_solvable_length": len(qseries) - 1,
    }
    return report, len(qseries) - 1 <= m


def _exp_centralizer(p: dict, rng) -> Tuple[dict, bool]:
    r, e, m, i, n = p["r"], p["e"], p["m"], p["i"], p["n"]
    if p["capped"]:
        rep = centralizer_probe_capped(r, e, m, p["cap"], i, n)
        report = {"mode": "capped", **asdict(rep)}
        return report, rep.oracle_equal_pointwise and rep.decomposition_holds_pointwise
    check_centralizer_question(r, e, m, i, n)
    model = build_solv_model(r, e, m, cap=p["cap"])
    rep = centralizer_experiment(model, i, n)
    report = {"mode": "full", **asdict(rep)}
    report["k_cap"] = report.pop("k_cap_brute")
    return report, rep.oracle_equal and rep.decomposition_holds


def _context_from_params(p: dict) -> Tuple[QuotientContext, str, FreeWord]:
    G, label = _group_from_text(p["group"])
    image_words = [s for s in p["images"].split(",") if s.strip()]
    images = [_eval_gen_word(G, s) for s in image_words]
    rank = p.get("rank") or len(images)
    if len(images) != rank:
        raise MsolvError(f"{len(images)} images given for rank {rank}")
    ctx = QuotientContext(rank, G, images, p["n"])
    word = parse_word(p["word"], rank) if p.get("word") else empty_word(rank)
    return ctx, label, word


def _exp_fox(p: dict, rng) -> Tuple[dict, bool]:
    ctx, label, word = _context_from_params(p)
    rep = expansion_check(ctx, word)
    rows = fox_row(ctx, word)
    report = {
        "group": label,
        "modulus": ctx.ring.modulus,
        "word": word_text(word),
        "expansion_holds": rep.passed,
        "lhs": list(rep.lhs.coeffs),
        "rhs": list(rep.rhs.coeffs),
        "fox_rows": [list(d.coeffs) for d in rows],
    }
    return report, rep.passed


def _exp_magnus(p: dict, rng) -> Tuple[dict, bool]:
    ctx, label, word = _context_from_params(p)
    try:
        mm = magnus_image(ctx, word)
        consistent = True
        q, vec = mm.q, list(mm.vec)
    except VerdictFailed:  # Fox/Magnus mismatch: report as failure
        consistent = False
        q, vec = -1, []
    report = {
        "group": label,
        "modulus": ctx.ring.modulus,
        "word": word_text(word),
        "q_index": q,
        "vector": vec,
        "fox_consistent": consistent,
    }
    return report, consistent


def _exp_crowell(p: dict, rng) -> Tuple[dict, bool]:
    ctx, label, _ = _context_from_params(p)
    comp = build_complex(ctx)
    rep = exactness_check(comp)
    report = {
        "group": label,
        "modulus": ctx.ring.modulus,
        "rank": ctx.rank,
        "exact_at_middle": rep.im_f_equals_ker_s,
        "s_surjective": rep.s_surjective,
        "im_f_size": rep.im_f_size,
        "ker_s_size": rep.ker_s_size,
        "ker_f_size": rep.ker_f_size,
    }
    ok = rep.passed
    if p.get("relators"):
        rank = ctx.rank
        rels = [parse_word(s, rank) for s in p["relators"].split(",") if s.strip()]
        in_kernel = relator_kernel_check(ctx, rels)
        mod_rep = relation_module_report(ctx, rels)
        report["relators"] = [word_text(w) for w in rels]
        report["relators_in_kernel"] = in_kernel
        report["relation_span_size"] = mod_rep.relation_span_size
        report["relation_spans_kernel"] = mod_rep.spans_equal
        ok = ok and in_kernel
    return report, ok


def _exp_gtilde(p: dict, rng) -> Tuple[dict, bool]:
    G, label = _group_from_text(p["group"])
    x_idx = parse_element(G, p["x"])
    inst = GTildeInstance(G, x_idx, p["n"], p["l"], p["sigma"])
    rep = gtilde_experiment(inst)
    report = {"group": label, "x": p["x"], **asdict(rep)}
    return report, rep.containment_holds


def _reduction_lemma_cases(p: dict, rng):
    """(E, ntilde, ell, sigma) for every case, in report order: the
    exhaustive sweep with one identity probe per unit ntilde, then the
    random cases."""
    umax = p["umax"]
    ells = _int_list(p["lset"])
    sigmamax = p["sigmamax"]
    ntildemax = p["ntildemax"]
    for ell in ells:
        for sigma in range(1, sigmamax + 1):
            mod = ell**sigma
            for ntilde in range(-ntildemax, ntildemax + 1):
                if ntilde == 0 or sigma <= valuation(ntilde, ell):
                    continue
                t = scalar_kernel(ntilde, ell, sigma)
                mults = list(range(0, mod, t)) if t else [0]
                for u in range(1, umax + 1):
                    for combo in itertools.product(mults, repeat=u * u):
                        yield RMatrix(mod, u, u, combo), ntilde, ell, sigma
                # one vacuous probe: E = I is outside the hypothesis
                # whenever ntilde is a unit at this modulus
                if ntilde % ell:
                    yield RMatrix.identity(mod, umax), ntilde, ell, sigma
    for _ in range(p["random"]):
        ell = ells[rng.randrange(len(ells))]
        sigma = rng.randint(1, sigmamax)
        while True:
            ntilde = rng.randint(-ntildemax, ntildemax)
            if ntilde and valuation(ntilde, ell) < sigma:
                break
        mod = ell**sigma
        t = scalar_kernel(ntilde, ell, sigma)
        u = rng.randint(1, p["random_umax"])
        step = t or mod
        entries = tuple(step * rng.randrange(mod // step) % mod for _ in range(u * u))
        yield RMatrix(mod, u, u, entries), ntilde, ell, sigma


def _exp_reduction_lemma(p: dict, rng) -> Tuple[dict, bool]:
    cases = vacuous = 0
    witness = None
    for E, ntilde, ell, sigma in _reduction_lemma_cases(p, rng):
        rep = reduction_lemma_check(E, ntilde, ell, sigma)
        cases += 1
        vacuous += rep.vacuous
        if not rep.passed and witness is None:
            witness = {
                "ntilde": ntilde,
                "ell": ell,
                "sigma": sigma,
                "entries": list(E.entries),
            }
    report = {
        "cases": cases,
        "vacuous": vacuous,
        "random_cases": p["random"],
        "all_passed": witness is None,
    }
    if witness:
        report["witness"] = witness
    return report, witness is None


def _exp_kernel_projection(p: dict, rng) -> Tuple[dict, bool]:
    levels = sorted(set(_int_list(p["levels"])))
    sigma = frozenset(_int_list(p["sigma_set"]))
    base = None
    base_label = None
    if p.get("base_group"):
        base, base_label = _group_from_text(p["base_group"])
    tower = CyclicTower(p["modulus"], levels, base=base, sigma=sigma)
    n = p["n"]
    checked = []
    skipped = []
    all_ok = True
    for M in levels:
        for kM in levels:
            if kM <= M or kM % M:
                continue
            try:
                rep = kernel_projection_check(tower, n, kM, M)
            except PreconditionViolated as e:
                skipped.append({"kM": kM, "M": M, "reason": str(e)})
                continue
            checked.append(
                {
                    "kM": kM,
                    "M": M,
                    "k": rep.k,
                    "kernel_rank": rep.kernel_rank,
                    "passed": rep.passed,
                }
            )
            all_ok = all_ok and rep.passed
    report = {
        "modulus": p["modulus"],
        "base_group": base_label,
        "levels": levels,
        "n": n,
        "sigma_set": sorted(sigma),
        "checked": checked,
        "skipped": skipped,
    }
    return report, all_ok


def _exp_transfer(p: dict, rng) -> Tuple[dict, bool]:
    G, label = _group_from_text(p["group"])
    if G.order > 200:
        raise PreconditionViolated("transfer sweep is bounded at order 200")
    Gab, projG = abelianization(G)
    entries = []
    all_ok = True
    for N in normal_subgroups(G):
        # N^ab, the cosets of N and G^ab are built once for both transfers
        ab = _ab_action(G, N)
        Nab, ab_class, action = ab
        cosets = _left_cosets(G, N)
        T = sorted(set(cosets.values()))
        tr = _transfer(G, N, cosets, T, Gab, ab)
        # an alternative transversal: shift each non-identity representative
        # by a nontrivial subgroup element
        alt = list(T)
        if N.order > 1:
            nz = next(i for i in N.indices if i != 0)
            alt = [T[0]] + [G.mul(a, nz) for a in T[1:]]
        tr2 = _transfer(G, N, cosets, alt, Gab, ab)
        independent = all(tr(i) == tr2(i) for i in range(Gab.order))
        identity_ok = True
        scaling_ok = True
        index = G.order // N.order
        actions = [action(g) for g in G.gen_indices]
        for n_idx in N.indices:
            acc = 0
            for a in T:
                c = G.mul(G.mul(G.inv(a), n_idx), a)
                acc = Nab.mul(acc, ab_class[c])
            cls = ab_class[n_idx]
            if tr(projG(n_idx)) != acc:
                identity_ok = False
            if all(act[cls] == cls for act in actions):
                if tr(projG(n_idx)) != Nab.power(cls, index):
                    scaling_ok = False
        ok = independent and identity_ok and scaling_ok
        all_ok = all_ok and ok
        entries.append(
            {
                "normal_order": N.order,
                "index": index,
                "transversal_independent": independent,
                "conjugate_product_identity": identity_ok,
                "invariant_scaling": scaling_ok,
            }
        )
    return {"group": label, "normals": entries}, all_ok


def _exp_quotient_iso(p: dict, rng) -> Tuple[dict, bool]:
    G, label = _group_from_text(p["group"])
    m, n = p["m"], p["n"]
    Q, proj = m_step_quotient(G, m)
    entries = []
    all_ok = True
    for H in all_subgroups(Q):
        res = quotient_iso_check(proj, H, n)
        implication = (not res.hypothesis_holds) or res.bijective
        all_ok = all_ok and implication
        entries.append(
            {
                "subgroup_order": H.order,
                "hypothesis_holds": res.hypothesis_holds,
                "bijective": res.bijective,
                "upstairs_order": res.upstairs_order,
                "downstairs_order": res.downstairs_order,
            }
        )
    report = {"group": label, "m": m, "n": n, "subgroups": entries}
    return report, all_ok


def _exp_solv_model(p: dict, rng) -> Tuple[dict, bool]:
    r, m = p["r"], p["m"]
    if p.get("tower"):
        exps = _int_list(p["tower"])
        entries = kcap_tower(r, m, exps, p["i"], p["n"], cap=p["cap"])
        rows = [asdict(entry) for entry in entries]
        ok = all(entry.brute_matches for entry in entries)
        report = {
            "rank": r,
            "m": m,
            "generator": p["i"],
            "n": p["n"],
            "tower": rows,
            "note": MODEL_NOTE,
        }
        return report, ok
    if "e" not in p:
        raise MsolvError("solv-model requires --e (or --tower)")
    model = build_solv_model(r, p["e"], m, cap=p["cap"])
    series = model.series
    report = {
        "rank": r,
        "exponent": p["e"],
        "m": m,
        "group_order": model.group.order,
        "level_orders": [L.order for L in model.levels],
        "derived_orders": [s.order for s in series],
        "degenerate": model.degenerate,
        "note": model.note,
    }
    return report, len(series) - 1 <= m


DEFAULT_SCAN_GROUPS = (
    "builtin S_3",
    "builtin S_4",
    "builtin D_8",
    "builtin Q8",
    "builtin C_12",
    "builtin paper_counterexample",
)


@run_memo
def _scan_corpus(texts: tuple) -> list:
    """(label, ScanProfile) per group text: the instances of one run that
    scan the same groups parse and profile them once."""
    groups = [_group_from_text(t) for t in texts]
    return [(label, ScanProfile(G)) for G, label in groups]


def _exp_centerfree_scan(p: dict, rng) -> Tuple[dict, bool]:
    groups = p.get("groups")
    texts = tuple(s for s in groups.split(";") if s.strip()) if groups else DEFAULT_SCAN_GROUPS
    if not texts:
        raise MsolvError(f"centerfree-scan --groups names no group: {groups!r}")
    corpus = _scan_corpus(texts)
    entries = centerfree_scan(corpus, p["m"])
    rows = []
    consistent = True
    for e in entries:
        if e.flagged != (e.center_order == 1 and e.quotient_center_order > 1):
            consistent = False
        row = asdict(e)
        row["group"] = row.pop("label")
        rows.append(row)
    report = {"m": p["m"], "entries": rows}
    return report, consistent


def _exp_surface(p: dict, rng) -> Tuple[dict, bool]:
    g, r = p["genus"], p["punctures"]
    chi, hyp = euler_char(g, r)
    report = {"genus": g, "punctures": r, "euler_characteristic": chi, "hyperbolic": hyp}
    ok = True
    if g >= 1 and r == 0:
        pres = surface_presentation(g)
        ab = presentation_abelianization(pres)
        report["relator"] = word_text(pres.relators[0])
        report["relator_length"] = len(pres.relators[0])
        report["exponent_matrix"] = [list(row) for row in pres.exponent_matrix]
        report["abelianization"] = {
            "invariant_factors": list(ab.invariant_factors),
            "free_rank": ab.free_rank,
            "torsion_free": ab.torsion_free,
        }
        ok = (
            len(pres.relators[0]) == 4 * g
            and ab.free_rank == 2 * g
            and ab.torsion_free
        )
    return report, ok


EXPERIMENTS: Dict[str, Callable] = {
    "counterexample": _exp_counterexample,
    "derived-series": _exp_derived_series,
    "msolv-quotient": _exp_msolv_quotient,
    "centralizer": _exp_centralizer,
    "fox": _exp_fox,
    "magnus": _exp_magnus,
    "crowell": _exp_crowell,
    "gtilde": _exp_gtilde,
    "reduction-lemma": _exp_reduction_lemma,
    "kernel-projection": _exp_kernel_projection,
    "transfer": _exp_transfer,
    "quotient-iso": _exp_quotient_iso,
    "solv-model": _exp_solv_model,
    "centerfree-scan": _exp_centerfree_scan,
    "surface": _exp_surface,
}

# ------------------------------------------------------------ parameters

INT_LIST = "int list"  # a JSON list of ints, or a comma-separated string


@dataclass(frozen=True)
class Param:
    """One experiment input: its name, type, default and lower bound.

    `type` is int, str, bool or INT_LIST; `min` bounds an int, or each entry
    of an int list.  A param with no default stays out of the merged params
    (and so out of the report's params echo) unless it is given.
    """

    name: str
    type: object
    default: object = None
    required: bool = False
    min: Optional[int] = None

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
    """argparse type of an int flag: like `_read_int`, it refuses more than
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
def _build_arg_parser() -> argparse.ArgumentParser:
    """The msolv parser, built once per process: parsing never mutates it."""
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
    sub = top.add_subparsers(dest="experiment", required=True)
    for kind, params in PARAMS.items():
        sp = sub.add_parser(kind, parents=[common])
        for p in params:
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
    func = EXPERIMENTS[kind]
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
    try:
        ns = _build_arg_parser().parse_args(argv)
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
