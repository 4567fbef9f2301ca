"""Tests for free words and Fox derivatives over finite quotients.

The product-rule expansion  pi(w) - 1 = sum_i d_i(w) (pi(x_i) - 1)  is the
central identity: it is checked exhaustively on every reduced word of
length <= 6 in rank 2 over two small quotients, then on long random words
into random solvable quotients.  Derivative axioms (product rule, inverse
rule, generator values) are checked independently of the expansion.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msolv.errors import BadGeneratorIndex, WordTooLong
from msolv.fingroup import (
    FiniteGroup,
    PermElem,
    closure,
    derived_series,
    subgroup_closure,
)
from msolv.foxcalc import (
    FreeWord,
    QuotientContext,
    commutator,
    empty_word,
    expansion_check,
    fox_derivative,
    fox_row,
    MAX_WORD_LENGTH,
    generator_word,
    reduce_word,
)
from msolv.grpring import GroupRing


def cyclic_group(k):
    return closure([PermElem(tuple((i + 1) % k for i in range(k)))])


def s3():
    return closure([PermElem((1, 2, 0)), PermElem((1, 0, 2))])


def klein():
    return closure([PermElem((1, 0, 2, 3)), PermElem((0, 1, 3, 2))])


# ------------------------------------------------------------ word algebra


def test_reduce_word_cancels():
    w = reduce_word([(1, 1), (2, 1), (2, -1), (1, 1)], rank=2)
    assert w.letters == ((1, 1), (1, 1))


def test_reduce_word_expands_exponents():
    w = reduce_word([(1, 2), (1, 3), (2, -2)], rank=2)
    assert w.letters == ((1, 1),) * 5 + ((2, -1),) * 2
    assert reduce_word([(1, 2), (1, -2)], rank=1).letters == ()


def test_reduce_word_refuses_a_run_before_spelling_it_out():
    # the cap counts letters before free reduction, as they are spelled
    # out; a run that would pass it is refused before it is expanded
    assert len(generator_word(2, 1, MAX_WORD_LENGTH)) == MAX_WORD_LENGTH
    for raw in ([(1, MAX_WORD_LENGTH + 1)], [(2, -(10**18))], [(1, 1), (1, MAX_WORD_LENGTH)]):
        with pytest.raises(WordTooLong):
            reduce_word(raw, rank=2)
    with pytest.raises(WordTooLong):
        generator_word(2, 1, 6000) * generator_word(2, 1, -6000)


def test_reduce_word_rejects_bad_index():
    with pytest.raises(BadGeneratorIndex):
        reduce_word([(3, 1)], rank=2)
    with pytest.raises(BadGeneratorIndex):
        generator_word(2, 0)


def test_inverse_and_power():
    w = reduce_word([(1, 1), (2, -2)], rank=2)
    assert (w * w.inverse()).letters == ()
    assert w.power(0).letters == ()
    assert w.power(3) == w * w * w
    assert w.power(-2) == (w.inverse()) * (w.inverse())


def test_commutator_reduces_to_identity_when_arguments_commute():
    x = generator_word(2, 1)
    assert commutator(x, x.power(4)).letters == ()


# ------------------------------------------------- derivative axioms


def ctx_for(G, images, n):
    return QuotientContext(len(images), G, images, n)


def s3_ctx(n=2):
    G = s3()
    return ctx_for(G, list(G.gen_indices), n)


def test_generator_derivatives():
    ctx = s3_ctx()
    x1 = generator_word(2, 1)
    d11 = fox_derivative(ctx, x1, 1)
    assert d11 == ctx.ring.one()
    assert fox_derivative(ctx, x1, 2) == ctx.ring.zero()


def test_inverse_rule():
    ctx = s3_ctx(n=9)
    w = generator_word(2, 1, -1)
    # d(x^-1) = -pi(x)^-1
    g = ctx.group.inv(ctx.images[0])
    assert fox_derivative(ctx, w, 1) == ctx.ring.embed(g).scale(-1)


def test_product_rule_random():
    rng = random.Random(41)
    ctx = s3_ctx(n=8)
    for _ in range(60):
        u = random_word(rng, 2, 6)
        v = random_word(rng, 2, 6)
        for i in (1, 2):
            lhs = fox_derivative(ctx, u * v, i)
            rhs = fox_derivative(ctx, u, i) + ctx.ring.embed(
                ctx.eval_word(u)
            ) * fox_derivative(ctx, v, i)
            assert lhs == rhs


def random_word(rng, rank, max_len):
    raw = [
        (rng.randrange(1, rank + 1), rng.choice((1, -1)))
        for _ in range(rng.randrange(max_len + 1))
    ]
    return reduce_word(raw, rank)


raw_letters = st.lists(
    st.tuples(st.integers(1, 2), st.sampled_from((1, -1))), max_size=30
)


@settings(max_examples=80, deadline=None)
@given(raw=raw_letters)
def test_reduction_is_idempotent_and_invertible(raw):
    w = reduce_word(raw, 2)
    assert reduce_word(list(w.letters), 2) == w
    assert (w * w.inverse()).letters == ()
    # no adjacent cancelling pair survives reduction
    for (i1, e1), (i2, e2) in zip(w.letters, w.letters[1:]):
        assert not (i1 == i2 and e1 == -e2)


@settings(max_examples=60, deadline=None)
@given(raw_u=raw_letters, raw_v=raw_letters)
def test_expansion_property_random_words(raw_u, raw_v):
    ctx = s3_ctx(n=6)
    u, v = reduce_word(raw_u, 2), reduce_word(raw_v, 2)
    assert expansion_check(ctx, u * v).passed
    assert expansion_check(ctx, u.inverse()).passed


# ------------------------------------- expansion identity (exhaustive)


def all_reduced_words(rank, max_len):
    """Every freely reduced word of length <= max_len (single-letter steps)."""
    alphabet = [(i, s) for i in range(1, rank + 1) for s in (1, -1)]
    out = [empty_word(rank)]
    frontier = [[]]
    for _ in range(max_len):
        nxt = []
        for seq in frontier:
            for let in alphabet:
                if seq and seq[-1] == (let[0], -let[1]):
                    continue
                cand = seq + [let]
                nxt.append(cand)
                out.append(reduce_word(cand, rank))
        frontier = nxt
    return out


@pytest.mark.parametrize(
    "make_group,n", [(klein, 2), (s3, 2), (klein, 9), (s3, 9)]
)
def test_expansion_exhaustive_rank2_len6(make_group, n):
    G = make_group()
    ctx = ctx_for(G, list(G.gen_indices), n)
    words = all_reduced_words(2, 6)
    assert len(words) > 1000
    for w in words:
        rep = expansion_check(ctx, w)
        assert rep.passed, w


def random_solvable_quotient(rng):
    """A random solvable group of order <= 72 with two chosen generators."""
    choices = [
        cyclic_group(rng.randrange(2, 13)),
        s3(),
        klein(),
        closure(
            [
                PermElem((1, 2, 3, 0)),
                PermElem((3, 2, 1, 0)),
            ]
        ),  # D8
        closure(
            [
                PermElem((1, 2, 0, 3, 4, 5)),
                PermElem((0, 1, 2, 4, 5, 3)),
            ]
        ),  # C3 x C3 as perms on 6 points
    ]
    G = rng.choice(choices)
    idxs = list(range(G.order))
    while True:
        images = [rng.choice(idxs), rng.choice(idxs)]
        if subgroup_closure(G, images).order == G.order:
            return G, images


def test_expansion_random_long_words():
    rng = random.Random(1009)
    count = 0
    while count < 1000:
        G, images = random_solvable_quotient(rng)
        assert derived_series(G)[-1].order == 1  # corpus is solvable
        ctx = ctx_for(G, images, rng.choice((2, 3, 4, 9)))
        w = random_word(rng, 2, 40)
        rep = expansion_check(ctx, w)
        assert rep.passed, (G.order, images, w)
        count += 1


def test_fox_row_matches_derivatives():
    ctx = s3_ctx()
    w = random_word(random.Random(5), 2, 12)
    rows = fox_row(ctx, w)
    assert len(rows) == 2
    for i in (1, 2):
        assert rows[i - 1] == fox_derivative(ctx, w, i)


def test_eval_word_is_homomorphism():
    rng = random.Random(6)
    ctx = s3_ctx()
    G = ctx.group
    for _ in range(50):
        u, v = random_word(rng, 2, 8), random_word(rng, 2, 8)
        assert ctx.eval_word(u * v) == G.mul(ctx.eval_word(u), ctx.eval_word(v))


def test_left_mult_perm_is_left_translation_of_embedding():
    ctx = s3_ctx(n=4)
    G = ctx.group
    for q in range(G.order):
        perm = ctx.left_mult_perm(q)
        for idx in range(G.order):
            assert perm[idx] == G.mul(q, idx)


def test_context_requires_modulus_at_least_two():
    G = s3()
    with pytest.raises(ValueError):
        QuotientContext(2, G, list(G.gen_indices), 1)


def test_context_requires_generating_images():
    from msolv.errors import NotSurjective

    G = s3()
    with pytest.raises(NotSurjective):
        QuotientContext(2, G, [0, 0], 4)
