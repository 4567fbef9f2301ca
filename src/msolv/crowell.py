"""Magnus embedding over finite group rings and the Crowell complex.

A MagnusMatrix is the formal block matrix [[q, v], [0, 1]] with q a group
element of the finite quotient Q (a unit of R = (Z/n)[Q]) and v a row
vector in R^r.  The assignment  w  |->  [[pi(w), (pi d_i w)_i], [0, 1]]
is a group homomorphism from the free group, and its vector part lands in
ker f where f: R^r -> R sends (lambda_i) to sum lambda_i (pi(x_i) - 1).

f and the augmentation s are {col: residue} dict rows over the Z/n basis
of R (row-vector convention, matching zmodlin), read off Q's table by
`build_complex`, the one place that makes them: the exactness checks here
read those rows, and images, kernels and exactness at R are decided by
Howell forms of them, [f | I]'s once per complex (`f_form`).  A vector
times f is a sum of f's rows.  The injectivity leg of the exact sequence
is a profinite statement with no single-level counterpart; what can be
checked at one level is im f = ker s, plus agreement of ker f with the
span of relator rows when a presentation is supplied.
"""

from __future__ import annotations

import functools
from typing import Sequence

from .errors import MixedVariant, RelatorNotInKernel, TooLarge, VerdictFailed, brief
from .fingroup import _bfs, _tree_edges
from .foxcalc import FreeWord, QuotientContext, fox_row


class MagnusMatrix:
    """[[q, v], [0, 1]] with q in Q and v a row vector in R^r (flattened)."""

    __slots__ = ("ctx", "q", "vec")

    def __init__(self, ctx: QuotientContext, q: int, vec: tuple):
        self.ctx = ctx
        self.q = q
        self.vec = vec

    @staticmethod
    def identity(ctx: QuotientContext) -> "MagnusMatrix":
        return MagnusMatrix(ctx, 0, (0,) * (ctx.rank * ctx.ring.dimension))

    @staticmethod
    def generator(ctx: QuotientContext, i: int) -> "MagnusMatrix":
        """The image of x_i: [[pi(x_i), e_i], [0, 1]]."""
        d = ctx.ring.dimension
        vec = [0] * (ctx.rank * d)
        vec[(i - 1) * d] = 1  # e_i = 1 * identity basis element in slot i
        return MagnusMatrix(ctx, ctx.images[i - 1], tuple(vec))

    def components(self) -> tuple:
        """The vector part as r RingElems."""
        d = self.ctx.ring.dimension
        return tuple(
            self.ctx.ring.from_coeffs(self.vec[b * d : (b + 1) * d])
            for b in range(self.ctx.rank)
        )

    def __mul__(self, other: "MagnusMatrix") -> "MagnusMatrix":
        if other.ctx is not self.ctx:
            raise MixedVariant("Magnus matrices from different contexts")
        ctx = self.ctx
        perm = ctx.left_mult_perm(self.q)
        n = ctx.ring.modulus
        d = ctx.ring.dimension
        vec = list(self.vec)
        ov = other.vec
        for b in range(ctx.rank):
            base = b * d
            for i in range(d):
                c = ov[base + i]
                if c:
                    t = base + perm[i]
                    vec[t] = (vec[t] + c) % n
        return MagnusMatrix(ctx, perm[other.q], tuple(vec))

    def inverse(self) -> "MagnusMatrix":
        ctx = self.ctx
        qi = ctx.group.inv(self.q)
        perm = ctx.left_mult_perm(qi)
        n = ctx.ring.modulus
        d = ctx.ring.dimension
        vec = [0] * (ctx.rank * d)
        for b in range(ctx.rank):
            base = b * d
            for i in range(d):
                c = self.vec[base + i]
                if c:
                    vec[base + perm[i]] = -c % n
        return MagnusMatrix(ctx, qi, tuple(vec))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MagnusMatrix)
            and other.ctx is self.ctx
            and other.q == self.q
            and other.vec == self.vec
        )

    def __hash__(self) -> int:
        return hash((self.q, self.vec))

    def __repr__(self) -> str:
        return f"MagnusMatrix(q={self.q}, vec={self.vec})"


# Most vector digits r*|Q| a packed law may have.  Its tables hold four ints
# per digit (weight and three step values), the int for digit k about
# k*log2(e) bits, so they take about 2*(r*|Q|)^2*log2(e) bits: at 2048
# digits that is 1 MiB per bit of e, at most 11 MiB for a model level
# (e <= |Q| <= 2048).  The W(2,2,3) probe needs 256 digits; W(2,3,3) would
# need 1,062,882, and hundreds of GB.
PACKED_DIGIT_LIMIT = 2048


class _PackedMagnusLaw:
    """Group law of MagnusMatrix values packed into single ints.

    [[q, v]] is stored as q + |Q| * code with code the base-e number whose
    digit at position pos(k) is v[k], so the vector part sits in base-e
    digits above the quotient index: weight[k] = |Q| * e^pos(k) is the
    packed value of a 1 in slot k.  A right product by a generator
    [[q_i, e_i]] maps q to q * q_i and adds 1 to the single slot
    (i-1)*d + q: one table lookup and one digit bump, which `step_rows`
    tabulates for the callers that run it inline.  `mul` and `inv` are the
    general product and inverse on packed ints, visiting only the nonzero
    digits of the right operand.  `pack` makes [[q, v]] from v's
    {slot: residue} entries and `vector` reads v back in slot order;
    `encode` / `decode` bridge them to MagnusMatrix, the dense reference
    that `magnus_image` and the tests multiply.  The models read the law
    through `generators`, `mul`, `inv`, `q`, `pack`, `vector` and
    `weight` / `base` / `e` (digit k of a is a // weight[k] % e) alone;
    `step_rows`, `coord_size` and `end` serve this dense layout only.

    The digit order makes a co-tree coordinate a remainder.  Slot (i-1)*d + j
    is the edge j -> j q_i of Q's Cayley graph, so the vector part of a
    product of generators counts, mod e, the edges its path crosses: v is a
    flow mod e from 1 to q, and Fox's formula f(v) = q - 1 says the
    same.  The BFS tree of Q's enumeration by the images (`fingroup._bfs`,
    read by `_tree_edges`) is a spanning tree of that graph, with the law's
    own steps q -> q * q_i; its d - 1 edges are tree slots and the other
    C = r*d - (d - 1) are co-tree slots.  Co-tree slots take digit positions
    0..C-1 in increasing slot order, and the tree slots the top positions.
    A flow is fixed by its boundary and its co-tree digits (push the boundary
    in from the leaves), so the co-tree coordinate x % coord_size, q plus
    the co-tree digits, is one-to-one on W, and its range,
    range(d * e^C) = range(|W|), has exactly |W| points.  The map reads the
    packed int and Q's generator steps only, no kernel basis.

    `fingroup._bfs` runs one packed loop over `step_rows` with one kind of
    index, slots keyed by a remainder of the packed int.  A whole level,
    whose coordinate space fits under the cap and `fingroup.COORD_LIMIT`
    (|W| < 2^31, for an `array('i')`), takes the remainder mod coord_size
    into one flat array and keeps its elements in one flat array; a
    capped prefix of a larger level takes it mod `end`, past every packed
    value, which is the element itself, into a dict, and keeps a list.
    8 bytes hold a whole level's values: end = d * e^(r*d) is
    coord_size * e^(d-1), and e^(d-1) < e^C <= coord_size when r >= 2, so
    end < coord_size^2 < 2^62; the models build rank-1 laws over d = 1
    only, where end = coord_size.  4 bytes hold them on every level the
    models can build: the largest end there is W(2,3,2)'s 9 * 3^18 < 2^32,
    so the elements are one unsigned 4-byte array('I') (see `_bfs`).
    The loop does not trust the flow argument: every hit
    is checked against the element already in that slot, and two
    different elements on one coordinate fail the enumeration as a
    VerdictFailed, so what is enumerated is exact either way.
    """

    @staticmethod
    def check_size(rank: int, q_order: int) -> None:
        """TooLarge unless a law over |Q| = q_order at this rank fits the limit."""
        if rank * q_order > PACKED_DIGIT_LIMIT:
            raise TooLarge(
                f"packed Magnus law over |Q| = {brief(q_order)} at rank {brief(rank)} "
                f"needs {brief(rank * q_order)} digits; the limit is {PACKED_DIGIT_LIMIT}"
            )

    def __init__(self, ctx: QuotientContext):
        self.ctx = ctx
        d = ctx.ring.dimension
        e = ctx.ring.modulus
        self.check_size(ctx.rank, d)
        self.base = d  # |Q|
        self.e = e
        # the tree slots: slot i*d + q for each BFS-tree edge q -> q * q_(i+1)
        # of Q's enumeration by the images
        qs, _, table, _ = _bfs(ctx.images, 0, ctx.group, d)
        r = ctx.rank
        tree = {pos % r * d + qs[pos // r] for pos in _tree_edges(table)}
        slots = range(r * d)
        # _slots[pos]: the slot whose digit sits at position pos, and
        # _positions[k]: the position of slot k's digit
        self._slots = [k for k in slots if k not in tree] + sorted(tree)
        self._positions = sorted(slots, key=self._slots.__getitem__)
        self.coord_size = d * e ** (len(slots) - len(tree))  # d * e^C = |W|
        self.end = d * e ** len(slots)  # the first int past every packed value
        # weight[k]: the packed value of a 1 in slot k of the vector part
        self.weight = tuple(d * e**p for p in self._positions)
        self._weights_cache: dict = {}
        self.generators = [self.pack(ctx.images[i], {i * d: 1}) for i in range(ctx.rank)]
        # step_rows[q][i] = (delta, e*w, (e-1)*w): the right product of an
        # element with quotient index q by generator i+1.  w is the weight of
        # slot i*d + q, and delta = q*q_(i+1) - q + w bumps that digit; it
        # wraps (subtract e*w) when the digit already is e-1, i.e. when
        # a % (e*w) >= (e-1)*w.  fingroup._bfs runs this step inline.
        rows = []
        for q in range(d):
            row = []
            for i in range(ctx.rank):
                w = self.weight[i * d + q]
                row.append((ctx.group.mul(q, ctx.images[i]) - q + w, e * w, (e - 1) * w))
            rows.append(tuple(row))
        self.step_rows = tuple(rows)

    def pack(self, q: int, row: dict) -> int:
        """The packed [[q, v]] for v given by its {slot: residue} entries;
        ValueError on an entry not reduced mod e."""
        e, weight = self.e, self.weight
        x = q
        for k, c in row.items():
            if not 0 <= c < e:
                raise ValueError(f"vector entry {c} not reduced mod {e}")
            x += c * weight[k]
        return x

    def encode(self, m: MagnusMatrix) -> int:
        return self.pack(m.q, dict(enumerate(m.vec)))

    def q(self, x: int) -> int:
        """The quotient index q of a packed [[q, v]], without decoding v."""
        return x % self.base

    def _digits(self, code: int) -> list:
        """The base-e digits of a vector code, low position first, as many
        as there are slots."""
        size = len(self.weight)
        chunk, digits = _chunks(self.e)
        vec = []
        while len(vec) < size:
            code, c = divmod(code, chunk)
            vec.extend(digits[c])
        del vec[size:]
        return vec

    def vector(self, x: int) -> tuple:
        """The vector part of packed x, its digits in slot order."""
        digits = self._digits(x // self.base)
        return tuple(map(digits.__getitem__, self._positions))

    def decode(self, x: int) -> MagnusMatrix:
        return MagnusMatrix(self.ctx, self.q(x), self.vector(x))

    def _weights(self, q: int) -> tuple:
        """The weight of each digit position after left multiplication by q
        (slot b*d+j -> b*d+q*j)."""
        t = self._weights_cache.get(q)
        if t is None:
            perm = self.ctx.left_mult_perm(q)
            d, w = self.base, self.weight
            t = tuple(w[k - k % d + perm[k % d]] for k in self._slots)
            self._weights_cache[q] = t
        return t

    def mul(self, a: int, b: int) -> int:
        e = self.e
        cb, qb = divmod(b, self.base)
        qa = a % self.base
        out = a - qa + self.ctx.left_mult_perm(qa)[qb]
        weights = self._weights(qa)
        k = 0
        while cb:
            cb, c = divmod(cb, e)
            if c:
                w = weights[k]
                old = out // w % e
                new = old + c
                if new >= e:
                    new -= e
                out += (new - old) * w
            k += 1
        return out

    def inv(self, a: int) -> int:
        e = self.e
        ca, qa = divmod(a, self.base)
        qi = self.ctx.group.inv(qa)
        weights = self._weights(qi)
        out = qi
        k = 0
        while ca:
            ca, c = divmod(ca, e)
            if c:
                out += (e - c) * weights[k]
            k += 1
        return out


@functools.lru_cache(maxsize=1)
def _chunks(e: int) -> tuple:
    """(e^k, the digits of every k-digit chunk, low digit first): a packed
    law splits a vector code k digits at a time, k as large as keeps 1024
    chunks.  One table per e, shared by every level of a model."""
    k = 1
    while e ** (k + 1) <= 1024:
        k += 1
    return e**k, tuple(tuple(c // e**j % e for j in range(k)) for c in range(e**k))


def magnus_image(ctx: QuotientContext, w: FreeWord) -> MagnusMatrix:
    """Fold generator matrices over the word; checks Fox consistency.

    The vector part is checked against fox_row(ctx, w) — the finite-level
    Magnus/Fox consistency theorem — on every call; VerdictFailed carries
    the disagreement.
    """
    m = MagnusMatrix.identity(ctx)
    gens = {}
    for j, e in w.letters:
        key = (j, e)
        g = gens.get(key)
        if g is None:
            g = MagnusMatrix.generator(ctx, j)
            if e < 0:
                g = g.inverse()
            gens[key] = g
        m = m * g
    if m.q != ctx.eval_word(w):
        raise VerdictFailed("Magnus matrix top-left entry disagrees with the word's image")
    row = fox_row(ctx, w)
    if any(a.coeffs != b.coeffs for a, b in zip(m.components(), row)):
        raise VerdictFailed("Magnus vector part disagrees with Fox row")
    return m


class CrowellComplex:
    """f: R^r -> R and s: R -> Z/n as {col: residue} rows over the Z/n
    basis of R, one row per basis element of the source."""

    def __init__(self, ctx: QuotientContext, f_rows: list, s_rows: list):
        self.ctx = ctx
        self.f_rows = f_rows  # r|Q| rows over |Q| columns
        self.s_rows = s_rows  # |Q| rows over 1 column

    @functools.cached_property
    def f_form(self) -> tuple:
        """(image, kernel) of the Howell form of [f | I] (`_augmented_howell`)."""
        from .zmodlin import _augmented_howell

        return _augmented_howell(self.ctx.ring.modulus, self.f_rows, self.ctx.ring.dimension)


def build_complex(ctx: QuotientContext) -> CrowellComplex:
    """The complex read off Q's table: row j of block i of f is
    e_(j q_i) - e_j, the coefficients of g_j (pi(x_i) - 1), and empty when
    q_i = 1; every row of s is the augmentation's 1."""
    G = ctx.group
    n = ctx.ring.modulus
    f = []
    for qi in ctx.images:
        for j in range(G.order):
            k = G.mul(j, qi)
            f.append({k: 1, j: n - 1} if k != j else {})
    return CrowellComplex(ctx, f, [{0: 1} for _ in range(G.order)])


def _size(n: int, form) -> int:
    """The number of vectors in the span of a Howell form's (pivot col,
    row) pairs."""
    from .zmodlin import _pivot_product

    return _pivot_product(n, (row[col] for col, row in form))


class ExactnessReport:
    def __init__(self, passed: bool, im_f_equals_ker_s: bool, s_surjective: bool,
                 im_f_size: int, ker_s_size: int, ker_f_size: int):
        self.passed = passed
        self.im_f_equals_ker_s = im_f_equals_ker_s
        self.s_surjective = s_surjective
        self.im_f_size = im_f_size
        self.ker_s_size = ker_s_size
        self.ker_f_size = ker_f_size


def exactness_check(c: CrowellComplex) -> ExactnessReport:
    """Exactness at R: im f = ker s, with s onto; plus |ker f|.

    The Howell form of [f | I] (`f_form`) gives im f, its leading rows'
    f-parts, and ker f; one of [s | I] gives s's image and ker s.
    The forms are canonical, so im f = ker s is equality of rows."""
    from .zmodlin import _augmented_howell

    n, d = c.ctx.ring.modulus, c.ctx.ring.dimension
    im_f, ker_f = c.f_form
    im_s, ker_s = _augmented_howell(n, c.s_rows, 1)
    im_f_rows = [{j: a for j, a in row.items() if j < d} for _, row in im_f]
    middle = im_f_rows == [row for _, row in ker_s]
    # s is onto iff its row span is all of Z/n; s(1) = 1 makes this automatic
    s_onto = _size(n, im_s) == n
    return ExactnessReport(
        passed=middle and s_onto,
        im_f_equals_ker_s=middle,
        s_surjective=s_onto,
        im_f_size=_size(n, im_f),
        ker_s_size=_size(n, ker_s),
        ker_f_size=_size(n, ker_f),
    )


def _fox_dict(ctx: QuotientContext, w: FreeWord) -> dict:
    """The Fox row of a relator as one {col: residue} row over R^r;
    RelatorNotInKernel unless pi(w) = 1."""
    if ctx.eval_word(w) != 0:
        raise RelatorNotInKernel(f"pi({w!r}) != 1")
    d = ctx.ring.dimension
    comps = fox_row(ctx, w)
    return {b * d + i: a for b, comp in enumerate(comps) for i, a in enumerate(comp.coeffs) if a}


def relator_kernel_check(c: CrowellComplex, relators: Sequence[FreeWord]) -> bool:
    """Each relator's Fox row v must be annihilated by f: v * f is the sum
    of a times row k of f over v's nonzero entries a at k."""
    from .zmodlin import _axpy

    n = c.ctx.ring.modulus
    for w in relators:
        image: dict = {}
        for k, a in _fox_dict(c.ctx, w).items():
            _axpy(n, image, a, c.f_rows[k])
        if image:
            return False
    return True


class RelationModuleReport:
    def __init__(self, ker_f_size: int, relation_span_size: int, spans_equal: bool,
                 discrepancy_index: int):
        self.ker_f_size = ker_f_size
        self.relation_span_size = relation_span_size
        self.spans_equal = spans_equal
        self.discrepancy_index = discrepancy_index  # |ker f| / |relation span|


def relation_module_report(c: CrowellComplex, relators: Sequence[FreeWord]) -> RelationModuleReport:
    """Compare ker f with the R-span of the relator Fox rows.

    The R-module generated by the rows is realized over Z/n by also taking
    every group translate q * row.  When the relators normally generate the
    kernel of pi the two spans agree at this level; the report quantifies
    any discrepancy instead of asserting it away.  The span's Howell form
    is compared with ker f's, from the complex's `f_form`, and counted.
    """
    from .zmodlin import _howell_rows

    ctx = c.ctx
    n, d = ctx.ring.modulus, ctx.ring.dimension
    rows = []
    for w in relators:
        v = _fox_dict(ctx, w)
        for q in range(d):
            perm = ctx.left_mult_perm(q)
            rows.append({k - k % d + perm[k % d]: a for k, a in v.items()})
    span, ker_f = _howell_rows(n, rows), c.f_form[1]
    ker_size, span_size = _size(n, ker_f), _size(n, span)
    return RelationModuleReport(
        ker_f_size=ker_size,
        relation_span_size=span_size,
        spans_equal=span == ker_f,
        discrepancy_index=ker_size // span_size,
    )
