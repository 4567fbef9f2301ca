"""Tests for the Magnus embedding and the two-step resolution complex.

Exactness (im f = ker s, s o f = 0) is swept over quotients of rank <= 3
free groups onto solvable groups of order <= 24 for several coefficient
moduli; relator rows are checked to land in ker f; the Magnus matrix
representation is compared against Fox rows exhaustively on short words
and on random (word, quotient) pairs.  The packed-int law of the Magnus
models is checked against MagnusMatrix arithmetic on random words, and the
BFS that runs its generator step inline against the generic loop of one
`mul` call per edge.
"""

import functools
import hashlib
import random
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msolv import crowell, models
from msolv.crowell import (
    CrowellComplex,
    MagnusMatrix,
    _PackedMagnusLaw,
    build_complex,
    exactness_check,
    magnus_image,
    relation_module_report,
    relator_kernel_check,
)
from msolv.errors import MixedVariant, RelatorNotInKernel, TooLarge, VerdictFailed
from msolv.fingroup import (
    COORD_LIMIT,
    MatElem,
    PermElem,
    _bfs,
    _CoordinateIndex,
    _tree_edges,
    closure,
    derived_series,
    subgroup_closure,
    trivial_group,
)
from msolv.foxcalc import (
    QuotientContext,
    commutator,
    empty_word,
    fox_row,
    generator_word,
    reduce_word,
)
from msolv.models import _context_above, build_solv_model


def cyclic_group(k):
    return closure([PermElem(tuple((i + 1) % k for i in range(k)))])


def s3():
    return closure([PermElem((1, 2, 0)), PermElem((1, 0, 2))])


def d8():
    return closure([PermElem((1, 2, 3, 0)), PermElem((3, 2, 1, 0))])


def a4():
    return closure([PermElem((1, 2, 0, 3)), PermElem((0, 2, 3, 1))])


def s4():
    return closure([PermElem((1, 2, 3, 0)), PermElem((1, 0, 2, 3))])


def klein():
    return closure([PermElem((1, 0, 2, 3)), PermElem((0, 1, 3, 2))])


def random_word(rng, rank, max_len):
    raw = [
        (rng.randrange(1, rank + 1), rng.choice((1, -1)))
        for _ in range(rng.randrange(max_len + 1))
    ]
    return reduce_word(raw, rank)


# --------------------------------------------------------- magnus matrices


def test_magnus_generator_shape():
    G = s3()
    ctx = QuotientContext(2, G, list(G.gen_indices), 2)
    m1 = MagnusMatrix.generator(ctx, 1)
    assert m1.q == ctx.images[0]
    vec = list(m1.vec)
    # derivative block of x_1 is the basis row e_1 (one block per generator)
    d = G.order
    assert vec[:d] == [1] + [0] * (d - 1)
    assert all(c == 0 for c in vec[d:])


def test_magnus_identity_and_inverse():
    G = d8()
    ctx = QuotientContext(2, G, list(G.gen_indices), 4)
    rng = random.Random(3)
    for _ in range(30):
        w = random_word(rng, 2, 10)
        mm = magnus_image(ctx, w)
        assert mm * mm.inverse() == MagnusMatrix.identity(ctx)
        assert mm.inverse() * mm == MagnusMatrix.identity(ctx)


def test_magnus_is_multiplicative():
    G = s3()
    ctx = QuotientContext(2, G, list(G.gen_indices), 9)
    rng = random.Random(7)
    for _ in range(40):
        u, v = random_word(rng, 2, 8), random_word(rng, 2, 8)
        assert magnus_image(ctx, u * v) == magnus_image(ctx, u) * magnus_image(ctx, v)


def all_reduced_words(rank, max_len):
    alphabet = [(i, s) for i in range(1, rank + 1) for s in (1, -1)]
    out = [empty_word(rank)]
    frontier = [[]]
    for _ in range(max_len):
        nxt = []
        for seq in frontier:
            for let in alphabet:
                if seq and seq[-1] == (let[0], -let[1]):
                    continue
                nxt.append(seq + [let])
                out.append(reduce_word(seq + [let], rank))
        frontier = nxt
    return out


def test_magnus_fox_consistency_exhaustive_len6():
    """Magnus vector blocks agree with Fox rows for every word of length <= 6."""
    G = s3()
    ctx = QuotientContext(2, G, list(G.gen_indices), 2)
    d = G.order
    for w in all_reduced_words(2, 6):
        mm = magnus_image(ctx, w)
        rows = fox_row(ctx, w)
        assert mm.q == ctx.eval_word(w)
        for i, elem in enumerate(rows):
            assert mm.vec[i * d : (i + 1) * d] == elem.coeffs


def test_magnus_fox_consistency_random_pairs():
    """500 random (quotient, word) pairs keep Magnus == (pi, Fox rows)."""
    rng = random.Random(31337)
    groups = [cyclic_group(5), s3(), d8(), klein(), a4()]
    done = 0
    while done < 500:
        G = rng.choice(groups)
        images = [rng.randrange(G.order) for _ in range(2)]
        if subgroup_closure(G, images).order != G.order:
            continue
        ctx = QuotientContext(2, G, images, rng.choice((2, 3, 4, 9)))
        w = random_word(rng, 2, 14)
        mm = magnus_image(ctx, w)
        rows = fox_row(ctx, w)
        d = G.order
        assert mm.q == ctx.eval_word(w)
        for i, elem in enumerate(rows):
            assert mm.vec[i * d : (i + 1) * d] == elem.coeffs
        done += 1


# ------------------------------------------------------ packed Magnus law


@functools.lru_cache(maxsize=None)
def packed_law(label):
    """The law of W(2,2,2), of W(2,3,2), or of the d = 128 level-3 context.

    "W232-r3" is a rank-3 context over W(2,3,2)'s level 1 with images
    (1, q_2, q_1), not Q's generators in order, so its spanning tree, and
    with it the order of its digit positions, differs from W(2,3,2)'s."""
    e, level = {"W222": (2, 1), "W232": (3, 1), "d128": (2, 2), "W232-r3": (3, 1)}[label]
    G = build_solv_model(2, e, level).group
    images = list(G.gen_indices)
    if label == "W232-r3":
        return _PackedMagnusLaw(QuotientContext(3, G, [0, *reversed(images)], e))
    return _PackedMagnusLaw(QuotientContext(2, G, images, e))


def magnus_fold(ctx, letters):
    m = MagnusMatrix.identity(ctx)
    for i, sign in letters:
        g = MagnusMatrix.generator(ctx, i)
        m = m * (g if sign > 0 else g.inverse())
    return m


letter_lists = st.lists(
    st.tuples(st.integers(1, 2), st.sampled_from((1, -1))), max_size=25
)


@settings(max_examples=60, deadline=None)
@given(
    label=st.sampled_from(("W222", "W232", "d128", "W232-r3")),
    raw_a=letter_lists,
    raw_b=letter_lists,
)
def test_packed_law_matches_magnus_matrix(label, raw_a, raw_b):
    law = packed_law(label)
    ctx = law.ctx
    a, b = magnus_fold(ctx, raw_a), magnus_fold(ctx, raw_b)
    pa, pb = law.encode(a), law.encode(b)
    assert law.decode(pa) == a
    assert law.vector(pa) == a.vec and law.q(pa) == a.q
    assert law.pack(a.q, {k: c for k, c in enumerate(a.vec) if c}) == pa
    assert law.mul(pa, pb) == law.encode(a * b)  # general path
    assert law.inv(pa) == law.encode(a.inverse())
    for i, g in enumerate(law.generators, start=1):  # products by a generator
        assert law.mul(pa, g) == law.encode(a * MagnusMatrix.generator(ctx, i))
    # folding the word over packed ints, as the closure does
    acc = 0
    for i, sign in raw_a:
        g = law.generators[i - 1]
        acc = law.mul(acc, g if sign > 0 else law.inv(g))
    assert acc == pa


@pytest.mark.parametrize("label", ["W222", "W232", "d128"])
def test_packed_generator_step_wraps_digit(label):
    # every digit at e - 1: each generator step must wrap its digit to 0
    law = packed_law(label)
    ctx = law.ctx
    e = ctx.ring.modulus
    full = (e - 1,) * (ctx.rank * ctx.ring.dimension)
    for q in range(ctx.ring.dimension):
        m = MagnusMatrix(ctx, q, full)
        for i, g in enumerate(law.generators, start=1):
            prod = m * MagnusMatrix.generator(ctx, i)
            assert prod.vec[(i - 1) * ctx.ring.dimension + q] == 0
            assert law.mul(law.encode(m), g) == law.encode(prod)


@pytest.mark.parametrize("label", ["W222", "W232", "d128", "W232-r3"])
def test_packed_step_rows_match_general_product(label):
    # each step_rows triple, applied by the inline formula that _bfs and
    # the probe run, is the general packed product by its generator
    law = packed_law(label)
    d, e = law.base, law.e
    rng = random.Random(5)
    for _ in range(200):
        a = rng.randrange(d) + d * rng.randrange(e ** len(law.weight))
        for (delta, ew, top), g in zip(law.step_rows[a % d], law.generators):
            step = a + delta - ew if a % ew >= top else a + delta
            assert step == law.mul(a, g)


class _MulInvOnly:
    """The packed law seen through mul and inv alone: _bfs runs its generic
    loop over it, one general packed product per edge, which reads no
    step_rows."""

    def __init__(self, law):
        self.mul, self.inv = law.mul, law.inv


def _inline_and_generic_bfs(law, cap, monkeypatch, start=0):
    def no_mul(a, b):
        raise AssertionError("the inline generator step called law.mul")

    generic = _bfs(law.generators, start, _MulInvOnly(law), cap)
    with monkeypatch.context() as m:
        m.setattr(law, "mul", no_mul)
        inline = _bfs(law.generators, start, law, cap)
    return inline, generic


def _assert_same_bfs(inline, generic):
    (el_a, idx_a, tab_a, done_a), (el_b, idx_b, tab_b, done_b) = inline, generic
    # a whole packed level's elements are a flat array, the generic loop's a list
    assert list(el_a) == el_b
    # a whole packed level's index is a coordinate lookup, not a dict
    assert all(idx_a[x] == idx_b[x] == k for k, x in enumerate(el_a))
    assert tab_a.tobytes() == tab_b.tobytes()
    assert done_a == done_b


# sha256 of W(2,3,2)'s BFS: its elements as 8-byte array('q') bytes, and its
# gen_table bytes, taken while the elements were still a list of ints.  A
# change that reorders the enumeration, or the packing, must not pass.
W232_SHA256 = {
    "elements": "3026a1805c08602f57bfa6e15ca33ca4cb2e01763b1cc2998c7c85c4eae2d71b",
    "gen_table": "ab6d4d48d60fa9ca755df1c42c334ab476e67ef89ffe75015ae1f76157e07ee1",
}


@pytest.mark.parametrize("label, order", [("W222", 128), ("W232", 531441)])
def test_inline_bfs_matches_generic_loop_on_whole_models(label, order, monkeypatch):
    inline, generic = _inline_and_generic_bfs(packed_law(label), 2_000_000, monkeypatch)
    _assert_same_bfs(inline, generic)
    assert len(inline[0]) == order and inline[3]
    if label == "W232":
        elements, _, table, _ = inline
        digest = {
            "elements": hashlib.sha256(array("q", elements).tobytes()).hexdigest(),
            "gen_table": hashlib.sha256(table.tobytes()).hexdigest(),
        }
        assert digest == W232_SHA256


def _first_positions(table):
    """first[k]: the first flat table position that holds element k."""
    first = {}
    for pos, k in enumerate(table):
        first.setdefault(k, pos)
    return first


def _first_edges(law):
    """(first, mid_row) for the BFS of W(2,2,3): first[k] is the flat table
    position of the edge that first reaches element k, and mid_row a cap
    whose cut ends inside a row.

    A cap c cuts the BFS at the edge that first reaches element c, and
    keeps every edge before it; the cut ends mid-row when that edge is
    not the first of its row.
    """
    ng = len(law.generators)
    _, _, table, _ = _bfs(law.generators, 0, law, 21000)
    first = _first_positions(table)
    mid_row = next(c for c in range(4, 20000) if first[c] % ng and first[c] >= ng)
    return first, mid_row


def test_inline_bfs_matches_generic_loop_on_capped_prefixes(monkeypatch):
    law = packed_law("d128")  # the law of W(2,2,3)
    first, mid_row = _first_edges(law)
    for cap in (2, 3, mid_row, 1500, 1501, 20000):
        inline, generic = _inline_and_generic_bfs(law, cap, monkeypatch)
        _assert_same_bfs(inline, generic)
        elements, _, table, complete = inline
        assert len(elements) == cap and not complete
        assert len(table) == first[cap]


def test_tree_edges_are_the_first_positions():
    # on capped prefixes, whose last row may be partial, and on whole groups
    law = packed_law("d128")
    first, mid_row = _first_edges(law)
    for cap in (2, 3, mid_row, 1500, 1501, 20000):
        _, _, table, _ = _bfs(law.generators, 0, law, cap)
        assert list(_tree_edges(table)) == [first[k] for k in range(1, cap)]
    q8 = closure([MatElem.from_rows(3, [[0, -1], [1, 0]]), MatElem.from_rows(3, [[1, 1], [1, -1]])])
    for G in (s4(), q8, build_solv_model(2, 2, 2).group):
        first = _first_positions(G.gen_table)
        assert list(_tree_edges(G.gen_table)) == [first[k] for k in range(1, G.order)]


@pytest.mark.parametrize("i, n", [(1, 1), (2, 3)])
def test_inline_bfs_from_a_power_matches_generic_loop_at_mid_row_cap(i, n, monkeypatch):
    # the capped probe reads x^n el_k as element k of the BFS started at
    # x^n: left multiplication by x^n is injective and commutes with right
    # products, so that BFS meets the elements in the same order
    law = packed_law("d128")
    ng = len(law.generators)
    first, mid_row = _first_edges(law)
    xn = 0
    for _ in range(n):
        xn = law.mul(xn, law.generators[i - 1])
    for cap in (mid_row, 1501):
        assert first[cap] % ng  # the cut ends inside a row
        inline, generic = _inline_and_generic_bfs(law, cap, monkeypatch, start=xn)
        _assert_same_bfs(inline, generic)
        elements, _, _, complete = _bfs(law.generators, 0, law, cap)
        assert len(elements) == cap and not complete
        assert inline[0] == [law.mul(xn, a) for a in elements]


# ------------------------------------------------ co-tree coordinates


# (r, e, m): W(2,2,2), W(2,3,2), level-1 models at e = 4 and 9 and at rank
# 3, and a rank-1 model, which is C_5 at every m
COORDINATE_MODELS = [(2, 2, 2), (2, 3, 2), (2, 4, 1), (2, 9, 1), (3, 3, 1), (1, 5, 2)]


@pytest.mark.parametrize("r, e, m", COORDINATE_MODELS)
def test_coordinates_number_each_level(r, e, m):
    # the elements' coordinates are exactly range(|W|), each the packed
    # int's remainder mod |W|, and the index finds every element at its BFS
    # position
    for level in build_solv_model(r, e, m).levels:
        law = level.law
        size = law.coord_size
        assert size == level.order
        assert sorted(x % size for x in level.elements) == list(range(level.order))
        # the d - 1 tree slots weigh at least |W|; the co-tree slots are
        # the low digits, d * e^j for j = 0, 1, ...
        low = sorted(w for w in law.weight if w < size)
        assert len(law.weight) - len(low) == law.base - 1
        assert low == [law.base * law.e**j for j in range(len(low))]
        index = level.index
        assert isinstance(index, _CoordinateIndex)
        # a whole level: one flat array of 4-byte values, as end <= 2^32
        assert law.end <= 2**32 and level.elements.typecode == "I"
        assert all(index[x] == k for k, x in enumerate(level.elements))
        assert all(index.get(x) == k and x in index for k, x in enumerate(level.elements[:200]))


def _bump_tree_digit(law, x):
    """x with the digit of its lowest tree slot raised by 1 mod e: same q
    and same co-tree digits, so the same coordinate."""
    k = min(k for k, w in enumerate(law.weight) if w >= law.coord_size)
    w, e = law.weight[k], law.e
    digit = x // w % e
    return x + ((digit + 1) % e - digit) * w


@pytest.mark.parametrize("r, e, m", [(2, 2, 2), (2, 3, 2), (1, 5, 2)])
def test_non_members_are_absent_from_the_coordinate_index(r, e, m):
    W = build_solv_model(r, e, m).group
    law = W.law
    past = law.base * law.e ** len(law.weight)  # the first int past every packed value
    strangers = [past, -1, None, MagnusMatrix.identity(law.ctx), "0"]
    if max(law.weight) >= law.coord_size:  # a rank-1 level has no tree slot
        x = W.elements[-1]
        bumped = _bump_tree_digit(law, x)
        assert bumped % law.coord_size == x % law.coord_size and bumped != x
        strangers.append(bumped)
    for x in strangers:
        assert W.index.get(x) is None
        assert W.index.get(x, -7) == -7
        assert x not in W.index
        with pytest.raises(KeyError):
            W.index[x]


def _drop_top_cotree_digit(monkeypatch):
    """Drop the top co-tree digit from every packed law's coordinate, so
    that two elements share each coordinate it no longer tells apart."""
    init = _PackedMagnusLaw.__init__

    def dropped(self, ctx):
        init(self, ctx)
        self.coord_size //= self.e

    monkeypatch.setattr(_PackedMagnusLaw, "__init__", dropped)


def test_aliased_coordinates_fail_the_build(monkeypatch):
    # at level 1 of W(2,2,2) the dropped digit is x_2's: x_2 = 2 lands on
    # the identity's coordinate
    _drop_top_cotree_digit(monkeypatch)
    with pytest.raises(VerdictFailed, match="^packed elements 0 and 2 share co-tree coordinate 0$"):
        build_solv_model(2, 2, 2)


def test_coordinate_lookups_decode_no_digit(monkeypatch):
    # a coordinate is a remainder of the packed int: neither the BFS nor an
    # index lookup reads the vector part
    def no_vector(self, x):
        raise AssertionError("a coordinate lookup decoded the digits")

    monkeypatch.setattr(_PackedMagnusLaw, "vector", no_vector)
    W = build_solv_model(2, 3, 2).group
    assert all(W.index[x] == k for k, x in enumerate(W.elements[:2000]))
    assert W.index.get(W.elements[-1]) == W.order - 1
    k = W.mul(5, W.order - 1)  # by element product and index lookup
    assert W.mul(k, W.inv(k)) == 0


def test_capped_prefix_is_indexed_by_its_elements():
    # W(2,2,3) has about 2^136 coordinates, far past any cap, so its
    # prefix's slots are a dict keyed by the packed ints themselves
    law = packed_law("d128")
    assert law.coord_size > 2**100
    elements, index, _, complete = _bfs(law.generators, 0, law, 1500)
    assert isinstance(index, _CoordinateIndex) and not complete
    assert type(elements) is list  # ints of up to 256 base-2 digits
    assert all(index[x] == k for k, x in enumerate(elements))
    # the keys are the element objects, not new ints equal to them
    assert len(index.slots) == len(elements)
    assert all(x is elements[k] for x, k in index.slots.items())
    bumped = _bump_tree_digit(law, elements[-1])
    assert bumped not in set(elements) and 0 <= bumped < law.end
    for x in (bumped, law.end, law.end + elements[-1], None):
        assert index.get(x) is None and x not in index
        with pytest.raises(KeyError):
            index[x]
    assert len(index.slots) == len(elements)  # a lookup stores nothing


@pytest.mark.parametrize("cap", [2, 3, 64, 127])
def test_both_slot_stores_enumerate_alike(cap):
    # W(2,2,2)'s level-2 law has 128 coordinates: a cap below that takes
    # the dict store, and must cut the array store's whole run
    law = packed_law("W222")
    assert law.coord_size == 128
    whole, whole_index, whole_table, done = _bfs(law.generators, 0, law, 128)
    assert done and isinstance(whole_index.slots, array) and whole.typecode == "I"
    first = _first_positions(whole_table)
    elements, index, table, complete = _bfs(law.generators, 0, law, cap)
    assert type(index.slots) is not array and not complete
    assert type(elements) is list
    assert elements == list(whole[:cap])
    assert table.tobytes() == whole_table[: first[cap]].tobytes()
    assert all(index[x] == whole_index[x] == k for k, x in enumerate(elements))
    assert all(x not in index for x in whole[cap:])


def test_coordinate_index_counts_multiples_of_the_quotient_order():
    # the module part of W(2,2,2) is its elements with x % |Q| == 0, read
    # from the slots 0, |Q|, 2|Q|, ...; a modulus that does not divide the
    # coordinate space has no such column
    law = packed_law("W222")
    elements, index, _, complete = _bfs(law.generators, 0, law, 128)
    assert complete and isinstance(index.slots, array)
    for modulus in (1, law.base, 2 * law.base, 128):
        expected = sum(x % modulus == 0 for x in elements)
        assert index.count_multiples(modulus) == expected
    assert index.count_multiples(law.base) == 128 // law.base
    with pytest.raises(ValueError):
        index.count_multiples(3)


def test_whole_rank_3_level_is_one_flat_array():
    # W(3,2,2)'s top level, 2^20 elements: 4 bytes each in one array('I'),
    # its packed ints below law.end = 8 * 2^24
    law = _PackedMagnusLaw(_context_above(3, 2, build_solv_model(3, 2, 1).group))
    elements, index, _, complete = _bfs(law.generators, 0, law, 2**20)
    assert complete and len(elements) == 2**20 == law.coord_size
    assert elements.typecode == "I" and isinstance(index.slots, array)
    assert max(elements) < law.end == 8 * 2**24


def test_packed_values_of_every_indexable_level_fit_in_4_bytes():
    # a whole level's elements are one flat array when its coordinate space
    # fits under COORD_LIMIT, 4 bytes each when every packed value there,
    # below end = d * e^(r*d) with d the order of the level below, is
    # below 2^32: so it is at every such level
    assert packed_law("W232").end == 9 * 3**18
    prime_powers = [e for e in range(2, 3000) if models._is_prime_power(e)]
    ends = []
    for r in range(1, 8):
        for e in prime_powers:
            for m in range(1, 5):
                try:
                    orders = models._predicted_orders(r, e, m)
                except TooLarge:
                    break
                if orders[-1] > COORD_LIMIT:
                    break
                d = orders[-2] if len(orders) > 1 else 1
                ends.append(d * e ** (r * d))
    assert ends and max(ends) == 9 * 3**18 < 2**32  # W(2,3,2)'s


def test_packed_encode_rejects_unreduced_entries():
    law = packed_law("W232")
    bad = MagnusMatrix(law.ctx, 0, (3,) + (0,) * (len(law.weight) - 1))
    with pytest.raises(ValueError):
        law.encode(bad)
    for row in ({0: 3}, {1: -1}):
        with pytest.raises(ValueError):
            law.pack(0, row)


def test_packed_law_refuses_more_digits_than_the_limit(monkeypatch):
    # W(2,2,1) has |Q| = 4, so its level-2 law has r*|Q| = 8 digits
    G = build_solv_model(2, 2, 1).group
    ctx = QuotientContext(2, G, list(G.gen_indices), 2)
    monkeypatch.setattr(crowell, "PACKED_DIGIT_LIMIT", 8)
    assert len(_PackedMagnusLaw(ctx).weight) == 8
    monkeypatch.setattr(crowell, "PACKED_DIGIT_LIMIT", 7)
    with pytest.raises(TooLarge):
        _PackedMagnusLaw(ctx)


def test_magnus_rejects_mixed_contexts():
    G = s3()
    c1 = QuotientContext(2, G, list(G.gen_indices), 2)
    c2 = QuotientContext(2, G, list(G.gen_indices), 3)
    a = MagnusMatrix.generator(c1, 1)
    b = MagnusMatrix.generator(c2, 1)
    with pytest.raises(MixedVariant):
        a * b


# ------------------------------------------------------- exactness sweep


def solvable_corpus_24():
    """(group, n generating images drawn from gen_indices) up to order 24."""
    return [
        cyclic_group(2),
        cyclic_group(6),
        klein(),
        s3(),
        d8(),
        cyclic_group(12),
        a4(),
        s4(),
    ]


@pytest.mark.parametrize("n", [2, 3, 4, 9])
def test_exactness_sweep(n):
    for G in solvable_corpus_24():
        assert derived_series(G)[-1].order == 1
        gens = list(G.gen_indices)
        for rank in range(len(gens), 4):
            images = gens + [0] * (rank - len(gens))
            ctx = QuotientContext(rank, G, images, n)
            comp = build_complex(ctx)
            rep = exactness_check(comp)
            assert rep.passed, (G.order, rank, n)
            assert rep.im_f_equals_ker_s
            assert rep.s_surjective
            assert rep.im_f_size == rep.ker_s_size


def test_a_broken_s_fails_exactness():
    # s = 2 * augmentation over Z/4 is not onto, and its kernel outgrows im f
    G = s3()
    ctx = QuotientContext(2, G, list(G.gen_indices), 4)
    comp = CrowellComplex(ctx, build_complex(ctx).f_rows, [{0: 2}] * G.order)
    rep = exactness_check(comp)
    assert not rep.s_surjective and not rep.im_f_equals_ker_s and not rep.passed
    assert rep.ker_s_size == 2 * rep.im_f_size


def test_complex_sizes_are_consistent():
    G = s3()
    ctx = QuotientContext(2, G, list(G.gen_indices), 4)
    comp = build_complex(ctx)
    rep = exactness_check(comp)
    # |im f| * |ker f| = |ring|^rank  (first-isomorphism bookkeeping)
    ring_size = ctx.ring.modulus ** ctx.ring.dimension
    assert rep.im_f_size * rep.ker_f_size == ring_size**ctx.rank


# ----------------------------------------------------- relator directions


def s3_presentation_ctx(n=2):
    G = s3()
    ctx = QuotientContext(2, G, list(G.gen_indices), n)
    x1, x2 = generator_word(2, 1), generator_word(2, 2)
    rels = [x1.power(3), x2.power(2), (x1 * x2).power(2)]
    return ctx, rels


@pytest.mark.parametrize("n", [2, 3, 4, 9])
def test_relator_rows_in_kernel(n):
    # d_1 of x1^3 (x1 x2)^2 is 1 + x1 + x1^2 + x1^3 (1 + x1 x2), with
    # x1^3 = 1 in S_3: an entry 2, so v * f must weigh f's rows by v
    ctx, rels = s3_presentation_ctx(n)
    assert relator_kernel_check(build_complex(ctx), [*rels, rels[0] * rels[2]])


def test_relator_rows_in_kernel_d8():
    G = d8()
    ctx = QuotientContext(2, G, list(G.gen_indices), 2)
    x1, x2 = generator_word(2, 1), generator_word(2, 2)
    rels = [x1.power(4), x2.power(2), (x1 * x2).power(2)]
    assert relator_kernel_check(build_complex(ctx), rels)


def test_relator_check_rejects_non_relation():
    ctx, _ = s3_presentation_ctx()
    with pytest.raises(RelatorNotInKernel):
        relator_kernel_check(build_complex(ctx), [generator_word(2, 1)])


def test_full_presentation_spans_kernel():
    ctx, rels = s3_presentation_ctx()
    rep = relation_module_report(build_complex(ctx), rels)
    assert rep.spans_equal
    assert rep.relation_span_size == rep.ker_f_size
    assert rep.discrepancy_index == 1


def test_partial_presentation_does_not_span():
    # x1^3 and x2^2 alone present C3 * C2, not S3: the span must be smaller
    ctx, rels = s3_presentation_ctx()
    rep = relation_module_report(build_complex(ctx), rels[:2])
    assert not rep.spans_equal
    assert rep.relation_span_size < rep.ker_f_size
    assert rep.discrepancy_index > 1


def test_a_span_short_in_its_last_row_does_not_span():
    # over the trivial group at n = 4, ker f is all of Z/4 and x1^2's Fox
    # row spans 2 Z/4: the two Howell forms differ only in their last row
    ctx = QuotientContext(1, trivial_group(), [0], 4)
    rep = relation_module_report(build_complex(ctx), [generator_word(1, 1, 2)])
    assert (rep.ker_f_size, rep.relation_span_size) == (4, 2)
    assert not rep.spans_equal and rep.discrepancy_index == 2


def test_conjugated_relators_stay_in_kernel():
    rng = random.Random(11)
    ctx, rels = s3_presentation_ctx(n=9)
    for _ in range(25):
        g = random_word(rng, 2, 6)
        conj = [g * r * g.inverse() for r in rels]
        assert relator_kernel_check(build_complex(ctx), conj)
