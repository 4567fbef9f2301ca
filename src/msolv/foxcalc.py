"""Reduced free-group words and Fox free differentials.

Words live in a free group of fixed rank; letters are (generator index,
sign) pairs with indices starting at 1.  Derivatives are never formed in
the free group ring: they are evaluated through a QuotientContext, i.e.
directly in a finite group ring (Z/n)[Q], which is the only form the
Crowell complex and the solvable models consume.

The inverse-letter rule used by the evaluator follows from the product
rule once: 0 = d_i(x_j x_j^-1) = delta_ij + pi(x_j) d_i(x_j^-1), hence
d_i(x_j^-1) = -pi(x_j)^-1 delta_ij, and the general recursion is
d_i(u v) = d_i(u) + pi(u) d_i(v) applied letter by letter.
"""

from __future__ import annotations

from typing import Sequence

from .errors import BadGeneratorIndex, IndexOutOfRange, NotSurjective, WordTooLong
from .fingroup import FiniteGroup, subgroup_closure
from .grpring import GroupRing, RingElem

MAX_WORD_LENGTH = 10**4


class FreeWord:
    """A freely reduced word; letters are (generator 1..rank, +1 or -1)."""

    __slots__ = ("rank", "letters")

    def __init__(self, rank: int, letters: tuple):
        self.rank = rank
        self.letters = letters

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.rank == other.rank and self.letters == other.letters

    def __hash__(self) -> int:
        return hash((self.rank, self.letters))

    def __len__(self) -> int:
        return len(self.letters)

    def __mul__(self, other: "FreeWord") -> "FreeWord":
        if other.rank != self.rank:
            raise BadGeneratorIndex("ranks differ")
        return reduce_word(list(self.letters) + list(other.letters), self.rank)

    def inverse(self) -> "FreeWord":
        return FreeWord(self.rank, tuple((i, -e) for i, e in reversed(self.letters)))

    def power(self, k: int) -> "FreeWord":
        w = empty_word(self.rank)
        base = self if k >= 0 else self.inverse()
        for _ in range(abs(k)):
            w = w * base
        return w

    def __repr__(self) -> str:
        if not self.letters:
            return "FreeWord(1)"
        bits = []
        for i, e in self.letters:
            bits.append(f"x{i}" if e > 0 else f"x{i}^-1")
        return "FreeWord(" + " ".join(bits) + ")"


def empty_word(rank: int) -> FreeWord:
    return FreeWord(rank, ())


def generator_word(rank: int, i: int, exponent: int = 1) -> FreeWord:
    return reduce_word([(i, exponent)], rank)


def commutator(u: FreeWord, v: FreeWord) -> FreeWord:
    return u * v * u.inverse() * v.inverse()


def reduce_word(raw: Sequence, rank: int) -> FreeWord:
    """Freely reduce a raw letter list; exponents may be any nonzero int.

    WordTooLong once the letters spelled out pass MAX_WORD_LENGTH, before
    the run that passes it is pushed."""
    stack: list = []
    spelled = 0
    for i, e in raw:
        if not 1 <= i <= rank:
            raise BadGeneratorIndex(f"generator x{i} outside 1..{rank}")
        spelled += abs(e)
        if spelled > MAX_WORD_LENGTH:
            raise WordTooLong(f"word exceeds {MAX_WORD_LENGTH} letters")
        _push(stack, i, e)
    return FreeWord(rank, tuple(stack))


def _push(stack: list, i: int, e: int) -> None:
    """Multiply the freely reduced letters `stack` by x_i^e, in place;
    WordTooLong, as their product would be, past MAX_WORD_LENGTH letters."""
    if len(stack) + abs(e) > MAX_WORD_LENGTH:
        raise WordTooLong(f"word exceeds {MAX_WORD_LENGTH} letters")
    k, sign = abs(e), (1 if e > 0 else -1)
    while k and stack and stack[-1] == (i, -sign):
        stack.pop()
        k -= 1
    stack.extend([(i, sign)] * k)


class QuotientContext:
    """Evaluation data: pi: F_r -> Q plus the ring (Z/n)[Q]."""

    def __init__(self, rank: int, group: FiniteGroup, images: Sequence[int], modulus: int):
        if len(images) != rank:
            raise BadGeneratorIndex(f"need {rank} generator images, got {len(images)}")
        for i in images:
            if not 0 <= i < group.order:
                raise IndexOutOfRange(f"image index {i}")
        if subgroup_closure(group, images).order != group.order:
            raise NotSurjective("generator images do not generate the target group")
        self.rank = rank
        self.group = group
        self.images = tuple(images)
        self.ring = GroupRing(modulus, group)
        self._inv_images = tuple(group.inv(i) for i in images)
        self._perm_cache: dict = {}

    def left_mult_perm(self, q: int) -> tuple:
        """Permutation i -> index(q * q_i); cached, heavily used downstream."""
        t = self._perm_cache.get(q)
        if t is None:
            G = self.group
            t = tuple(G.mul(q, i) for i in range(G.order))
            self._perm_cache[q] = t
        return t

    def eval_word(self, w: FreeWord) -> int:
        """Index of pi(w) in the target group."""
        g = 0
        G = self.group
        for i, e in w.letters:
            g = G.mul(g, self.images[i - 1] if e > 0 else self._inv_images[i - 1])
        return g


def fox_derivative(ctx: QuotientContext, w: FreeWord, i: int) -> RingElem:
    """pi applied to the Fox derivative d_i(w), valued in ctx's group ring."""
    if not 1 <= i <= ctx.rank:
        raise IndexOutOfRange(f"derivative index {i} outside 1..{ctx.rank}")
    G = ctx.group
    n = ctx.ring.modulus
    coeffs = [0] * ctx.ring.dimension
    prefix = 0
    for j, e in w.letters:
        if e > 0:
            if j == i:
                coeffs[prefix] += 1
            prefix = G.mul(prefix, ctx.images[j - 1])
        else:
            prefix = G.mul(prefix, ctx._inv_images[j - 1])
            if j == i:
                coeffs[prefix] -= 1
    return ctx.ring.from_coeffs([c % n for c in coeffs])


def fox_row(ctx: QuotientContext, w: FreeWord) -> tuple:
    """(pi d_1(w), ..., pi d_r(w)) — one evaluation pass per component."""
    return tuple(fox_derivative(ctx, w, i) for i in range(1, ctx.rank + 1))


class ExpansionReport:
    def __init__(self, passed: bool, lhs: RingElem, rhs: RingElem):
        self.passed = passed
        self.lhs = lhs
        self.rhs = rhs

    def __bool__(self) -> bool:
        return self.passed


def expansion_check(ctx: QuotientContext, w: FreeWord) -> ExpansionReport:
    """The fundamental expansion: pi(w) = 1 + sum_i (pi d_i w)(pi(x_i) - 1)."""
    R = ctx.ring
    lhs = R.embed(ctx.eval_word(w))
    rhs = R.one()
    for i in range(1, ctx.rank + 1):
        d = fox_derivative(ctx, w, i)
        if d.is_zero():
            continue
        xi = ctx.images[i - 1]
        rhs = rhs + (d.mul_group_right(xi) - d)
    return ExpansionReport(lhs == rhs, lhs, rhs)
