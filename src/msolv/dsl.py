"""The group-description DSL, free-group words and element expressions.

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

Words (`x1*x2^-1`) are free-group words of `foxcalc`, and `g1*g2^-1`
words name elements of a parsed group.  `foxcalc` and `constructions`
are imported by the two functions that need them, `parse_word` and the
`paper_counterexample` builtin, so parsing and building a permutation or
matrix group loads only `fingroup`.
"""

from __future__ import annotations

import math
import re
from typing import List, Optional, Tuple

from .errors import DEFAULT_CAP, MAX_INT_DIGITS, CapExceeded, MsolvError, ParseError, TooLarge
from .fingroup import FiniteGroup, MatElem, PermElem, closure, semidirect_product, trivial_group

# ----------------------------------------------------------------- DSL AST


class PermSpec:
    __slots__ = ("degree", "gens")

    def __init__(self, degree: int, gens: tuple):
        self.degree = degree
        self.gens = gens  # of PermElem


class MatSpec:
    __slots__ = ("modulus", "mats")

    def __init__(self, modulus: int, mats: tuple):
        self.modulus = modulus
        self.mats = mats  # of row-tuples-of-tuples, entries reduced mod modulus


class SemidirectSpec:
    __slots__ = ("normal", "acting", "action")

    def __init__(self, normal: object, acting: object, action: tuple):
        self.normal = normal
        self.acting = acting
        self.action = action  # one exponent matrix (tuple of row tuples) per acting gen


class BuiltinSpec:
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name


BUILTIN_PATTERN = re.compile(r"^(S|C|D)_(\d+)$|^Q8$|^paper_counterexample$")

# most points (elements x degree) the closure of a builtin or a perm spec
# may write: S_9 has 9! x 9 = 3,265,920, while C_100000 has 10^10
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


class _Tok:
    __slots__ = ("text", "line", "col")

    def __init__(self, text: str, line: int, col: int):
        self.text = text
        self.line = line
        self.col = col


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
    """Canonical text form; print(parse(print(spec))) == print(spec)."""
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
        from .constructions import counterexample_group

        return counterexample_group()
    raise MsolvError(f"unknown builtin {name!r}")


def build_group(spec) -> FiniteGroup:
    """Materialize a parsed GroupSpec as a FiniteGroup."""
    if isinstance(spec, PermSpec):
        cap = BUILTIN_WORK_BOUND // spec.degree
        try:
            return closure(list(spec.gens), cap=cap)
        except CapExceeded:
            raise TooLarge(
                f"the perm group has more than {cap} elements of degree {spec.degree}; "
                f"the bound is {BUILTIN_WORK_BOUND} points"
            ) from None
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

    `1` denotes the empty word, matching the canonical rendering.  Tokens
    are reduced onto one stack, the reduced word so far (`_push`), which
    refuses a token exactly where the product of the tokens would.
    """
    from .foxcalc import FreeWord, _push

    stack: list = []
    col = 1
    for raw in [] if text.strip() == "1" else text.replace("*", " ").split():
        m = _WORD_TOKEN.match(raw)
        if not m or m.group(1) != letter:
            raise ParseError(f"expected a {letter}<i>[^e] letter, got {raw!r}", 1, col)
        i = _read_int(m.group(2), 1, col + len(m.group(1)))
        if not 1 <= i <= rank:
            raise ParseError(f"generator index {i} outside 1..{rank}", 1, col)
        e = _read_int(m.group(3), 1, col + m.start(3)) if m.group(3) else 1
        _push(stack, i, e)
        col += len(raw) + 1
    return FreeWord(rank, tuple(stack))


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

