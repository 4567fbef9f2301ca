"""Tests for the finite Magnus-matrix models and the geometric helpers.

The two-generator models at exponents 2 and 3 are small enough to
enumerate outright, so every structural claim (group order, module part,
centralizer decomposition) is checked against brute force there; the
exponent-3 run is the main oracle-equivalence case.  At m = 3 the model
has order >= 2^129 and only a deterministic finite prefix is checked,
pointwise, against the same oracle.  Tower growth of the commuting
kernel is cross-checked by brute force wherever the group is small
enough to build.  The Cayley-table centralizer scan is checked against
honest MagnusMatrix products, and the BFS element orders of W(2,3,2) and
of the capped W(2,2,3) prefix against hashes frozen before elements were
packed into ints; so are the capped probe's products with x^n.
"""

import functools
import hashlib
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import howell_reference
from msolv import crowell, fingroup, models, zmodlin
from msolv.crowell import MagnusMatrix, build_complex
from msolv.errors import CapExceeded, PreconditionViolated, TooLarge, VerdictFailed
from msolv.fingroup import (
    CAYLEY_LIMIT,
    FiniteGroup,
    PermElem,
    center,
    closure,
    derived_series,
)
from msolv.models import (
    MODEL_NOTE,
    _power_products,
    build_solv_model,
    centerfree_scan,
    centralizer_experiment,
    centralizer_probe_capped,
    euler_char,
    kcap_tower,
    module_part_basis,
    presentation,
    presentation_abelianization,
    surface_presentation,
)
from msolv.foxcalc import QuotientContext
from msolv.grpring import right_mult_matrix
from msolv.zmodlin import RMatrix, _rows_of, kernel_basis, span_equal


def cyclic_group(k):
    return closure([PermElem(tuple((i + 1) % k for i in range(k)))])


def s3():
    return closure([PermElem((1, 2, 0)), PermElem((1, 0, 2))])


def s4():
    return closure([PermElem((1, 2, 3, 0)), PermElem((1, 0, 2, 3))])


# ------------------------------------------------------------ model shapes


def test_degenerate_models():
    assert build_solv_model(2, 2, 0).group.order == 1
    m_r1 = build_solv_model(1, 3, 2)
    assert m_r1.degenerate and m_r1.group.order == 3
    m_ab = build_solv_model(3, 2, 1)
    assert m_ab.degenerate and m_ab.group.order == 8


def elementary_abelian(r, e):
    """(Z/e)^r as e-cycles on r disjoint blocks of points: level 1 built as
    a permutation group, independently of the packed Magnus step."""
    gens = [
        PermElem.from_cycles(r * e, [tuple(range(b * e, (b + 1) * e))])
        for b in range(r)
    ]
    return closure(gens, cap=e**r + 1)


@pytest.mark.parametrize("r, e", [(1, 3), (2, 2), (2, 3), (3, 2), (2, 23), (3, 9)])
def test_level_one_matches_the_permutation_construction(r, e):
    # the packed step over the trivial group enumerates the same labelled
    # Cayley graph of (Z/e)^r as the e-cycles: same indices, same tables,
    # and so the same context for level 2
    packed = build_solv_model(r, e, 1).group
    perm = elementary_abelian(r, e)
    assert packed.gen_table.tobytes() == perm.gen_table.tobytes()
    assert packed.gen_indices == perm.gen_indices
    n = perm.order
    if n <= CAYLEY_LIMIT:
        pairs = [(a, b) for a in range(n) for b in range(n)]
        qs = range(n)
    else:
        # above the Cayley limit every product is an element product: a
        # seeded sample keeps the test fast
        rng = random.Random(f"{r}:{e}")
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(2000)]
        qs = [rng.randrange(n) for _ in range(4)]
    assert all(packed.mul(a, b) == perm.mul(a, b) for a, b in pairs)
    assert [packed.inv(a) for a in range(n)] == [perm.inv(a) for a in range(n)]
    above_packed = models._context_above(r, e, packed)
    above_perm = QuotientContext(r, perm, list(perm.gen_indices), e)
    for q in qs:
        assert above_packed.left_mult_perm(q) == above_perm.left_mult_perm(q)


def test_model_preconditions():
    with pytest.raises(PreconditionViolated):
        build_solv_model(2, 6, 2)  # exponent must be a prime power
    with pytest.raises(PreconditionViolated):
        build_solv_model(0, 2, 2)
    with pytest.raises(PreconditionViolated):
        build_solv_model(2, 2, -1)


def test_model_order_128():
    model = build_solv_model(2, 2, 2)
    assert model.group.order == 128
    assert not model.degenerate
    assert model.note == MODEL_NOTE
    # the model lies in the 2-step solvable variety
    series = derived_series(model.group)
    assert len(series) <= 3 and series[-1].order == 1


def test_model_order_3_12():
    model = build_solv_model(2, 3, 2)
    assert model.group.order == 3**12 == 531441
    series = derived_series(model.group)
    assert series[-1].order == 1 and len(series) <= 3


def test_module_part_is_kernel_of_f():
    model = build_solv_model(2, 2, 2)
    K, module_count = module_part_basis(model)
    assert module_count == 32
    # |W| = |Q| * |ker f|: the model is module-by-quotient
    assert model.group.order == module_count * model.levels[0].order


def test_module_part_mismatch_is_a_verdict(monkeypatch):
    model = build_solv_model(2, 2, 2)
    # a _ker_f that counts the kernel of f = 0, all of R^r, cannot match
    # the 32-element module part
    real = models._ker_f

    def zero_f(ctx, rows=True):
        return real(ctx, rows)[0], ctx.ring.modulus ** (ctx.rank * ctx.ring.dimension)

    monkeypatch.setattr(models, "_ker_f", zero_f)
    with pytest.raises(VerdictFailed, match="module part has 32 elements"):
        module_part_basis(model)


def test_predicted_orders():
    assert models._predicted_orders(2, 2, 0) == [1]
    assert models._predicted_orders(1, 3, 4) == [3]
    assert models._predicted_orders(2, 2, 2) == [4, 128]
    assert models._predicted_orders(2, 3, 2) == [9, 3**12]
    assert models._predicted_orders(3, 2, 2) == [8, 2**20]
    assert models._predicted_orders(2, 2, 3) == [4, 128, 2**136]


def test_level_order_off_its_prediction_is_a_verdict(monkeypatch):
    monkeypatch.setattr(models, "_predicted_orders", lambda r, e, m: [4, 127])
    with pytest.raises(VerdictFailed, match="level 2 has 128 elements, predicted 127"):
        build_solv_model(2, 2, 2)


def test_oversized_law_refused_before_any_closure(monkeypatch):
    # W(2,3,3) needs a law over the 531441 elements of W(2,3,2); the size
    # check must fire before W(2,3,2), or anything else, is enumerated
    def no_enumeration(*args, **kwargs):
        raise AssertionError("an enumeration ran before the size check")

    monkeypatch.setattr(models, "_bfs", no_enumeration)
    monkeypatch.setattr(models, "closure", no_enumeration)
    with pytest.raises(TooLarge, match="needs 1062882 digits"):
        build_solv_model(2, 3, 3)
    with pytest.raises(TooLarge, match="needs 1062882 digits"):
        centralizer_probe_capped(2, 3, 3, 100, 1, 1)


def test_over_cap_model_refused_before_any_closure(monkeypatch):
    # |W(2,4,2)| = 16 * 4^17 is predicted before anything is enumerated, so
    # a model past the cap is refused without a closure
    def no_enumeration(*args, **kwargs):
        raise AssertionError("an enumeration ran before the cap check")

    monkeypatch.setattr(models, "_bfs", no_enumeration)
    monkeypatch.setattr(models, "closure", no_enumeration)
    with pytest.raises(CapExceeded) as info:
        build_solv_model(2, 4, 2)
    assert (info.value.cap, info.value.reached) == (2_000_000, 16 * 4**17)
    with pytest.raises(CapExceeded):
        build_solv_model(2, 3, 2, cap=531440)


def test_left_sources_is_left_multiplication():
    # over the nonabelian S_3 at e = 3, slot k of q v reads slot src[k] of v
    Q = s3()
    ctx = QuotientContext(2, Q, list(Q.gen_indices), 3)
    rng = random.Random(11)
    zero = (0,) * 12
    for q in range(Q.order):
        v = tuple(rng.randrange(3) for _ in range(12))
        qv = MagnusMatrix(ctx, q, zero) * MagnusMatrix(ctx, 0, v)
        assert qv.vec == tuple(v[s] for s in models._left_sources(ctx, q))


@pytest.fixture(scope="module")
def w232():
    return build_solv_model(2, 3, 2)


def test_w232_bfs_order_is_frozen(w232):
    # sha256 over repr((q, vec)) of the first 2000 elements, taken from the
    # MagnusMatrix closure before elements were packed: index k is unchanged
    h = hashlib.sha256()
    for x in w232.group.elements[:2000]:
        m = w232.group.law.decode(x)
        h.update(repr((m.q, m.vec)).encode())
    assert h.hexdigest() == (
        "aa36ed08043bfbb715a56df1b0bc8e7fd7523af1f0a610a5638884451f0f40b4"
    )


def test_w232_series_holds_no_index_tuple(w232):
    # the whole group is the first term of the derived series; its index set
    # is a range, not 531,441 boxed ints
    whole = w232.series[0]
    assert isinstance(whole.indices, range)
    assert whole == w232.group.full_subgroup() and whole.order == 531441


def magnus_power(law, i, n):
    g = MagnusMatrix.generator(law.ctx, i)
    m = MagnusMatrix.identity(law.ctx)
    for _ in range(n):
        m = m * g
    return m


@pytest.mark.parametrize("i", [1, 2])
@pytest.mark.parametrize("n", range(1, 9))
def test_table_scan_matches_honest_products(i, n):
    W = build_solv_model(2, 2, 2).group
    law = W.law
    mu_n = magnus_power(law, i, n)
    R, L, powers = _power_products(W, i, n)
    x = W.gen_indices[i - 1]
    assert powers == [W.power(x, t) for t in range(W.element_order(x))]
    table = {k for k in range(W.order) if R[k] == L[k]}
    honest = set()
    for k, x in enumerate(W.elements):
        el = law.decode(x)
        if el * mu_n == mu_n * el:
            honest.add(k)
    assert table == honest


def test_table_products_sampled_on_w232(w232):
    W = w232.group
    law = W.law
    i, n = 2, 5
    mu_n = magnus_power(law, i, n)
    R, L, _ = _power_products(W, i, n)
    for k in random.Random(232).sample(range(W.order), 2000):
        el = law.decode(W.elements[k])
        assert R[k] == W.index[law.encode(el * mu_n)]
        assert L[k] == W.index[law.encode(mu_n * el)]


@pytest.mark.parametrize("n, arrays", [(1, 1), (8, 2)])
def test_power_products_read_the_column_in_place(w232, n, arrays):
    # the generator column is a view of gen_table, not a copy: at n = 1 it
    # is R itself, and the call allocates L (and R at n > 1), one 4-byte
    # int per element each, and little else
    W = w232.group
    tracemalloc.start()
    try:
        R, L, powers = _power_products(W, 1, n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert isinstance(R, memoryview) == (n == 1)
    if n == 1:
        assert R.obj is W.gen_table
    assert len(R) == len(L) == W.order and L.itemsize == 4
    assert peak <= arrays * 4 * W.order + 64 * 1024


def test_w232_derived_series_grows_its_closures(w232, monkeypatch):
    # restarting the subgroup closure on every normal-closure pass made
    # 114,848 products here; growing it one coset at a time makes ~7,500
    W = w232.group
    calls = [0]
    mul = FiniteGroup.mul

    def counting(G, i, j):
        calls[0] += 1
        return mul(G, i, j)

    monkeypatch.setattr(FiniteGroup, "mul", counting)
    series = derived_series(W)
    assert [s.order for s in series] == [531441, 6561, 1]
    assert calls[0] <= 15_000


# -------------------------------------------- centralizer oracle (m = 2)


def test_centralizer_e2_oracle_and_decomposition():
    model = build_solv_model(2, 2, 2)
    rep = centralizer_experiment(model, 1, 1)
    assert rep.group_order == 128
    assert rep.centralizer_order == 16
    assert rep.x_order == 4
    assert rep.k_cap_brute == rep.k_cap_linear == 8
    assert rep.oracle_equal
    assert rep.decomposition_holds
    # |C| = x_order * |K| / |<x> intersect K|
    assert rep.centralizer_order * 2 == rep.x_order * rep.k_cap_brute


def test_oracle_equal_is_false_for_a_wrong_span(monkeypatch):
    # a K_cap basis of the right size but the wrong span must fail the oracle
    true_k_cap = models._k_cap
    wrong = [{k: 1} for k in range(3)]

    def wrong_k_cap(ctx, xn_q, rows=True):
        basis, size = true_k_cap(ctx, xn_q, rows)
        dense = RMatrix.from_dict_rows
        assert size == 8 and not span_equal(dense(2, basis, 8), dense(2, wrong, 8))
        return wrong, size

    monkeypatch.setattr(models, "_k_cap", wrong_k_cap)
    rep = centralizer_experiment(build_solv_model(2, 2, 2), 1, 1)
    assert rep.k_cap_brute == rep.k_cap_linear == 8
    assert not rep.oracle_equal


@pytest.mark.parametrize("i,n", [(1, 1), (2, 2)])
def test_centralizer_e3_oracle_and_decomposition(i, n):
    model = build_solv_model(2, 3, 2)
    rep = centralizer_experiment(model, i, n)
    assert rep.group_order == 531441
    assert rep.centralizer_order == 243
    assert rep.x_order == 9
    assert rep.k_cap_brute == rep.k_cap_linear == 81
    assert rep.oracle_equal
    assert rep.decomposition_holds


def test_centralizer_preconditions():
    model = build_solv_model(2, 2, 2)
    with pytest.raises(PreconditionViolated):
        centralizer_experiment(model, 3, 1)  # generator index out of range
    with pytest.raises(PreconditionViolated):
        centralizer_experiment(model, 1, 2)  # e | n kills the abelianized letter
    with pytest.raises(PreconditionViolated):
        centralizer_experiment(build_solv_model(1, 2, 2), 1, 1)  # degenerate


# ---------------------------------------------- capped probe at m = 3


def test_capped_probe_m3():
    rep = centralizer_probe_capped(2, 2, 3, 20000, 1, 1)
    assert rep.enumerated == 20000
    assert not rep.complete  # the full model has order >= 2^129
    assert rep.oracle_equal_pointwise
    assert rep.decomposition_holds_pointwise
    assert rep.centralizer_seen >= 1  # the identity at minimum
    assert rep.note == MODEL_NOTE


@pytest.mark.parametrize(
    "r, e, m, cap, i, n", [(2, 2, 3, 1500, 1, 1), (2, 2, 3, 20000, 2, 3), (2, 3, 2, 5000, 1, 2)]
)
def test_a_wrong_packed_inverse_fails_only_the_decomposition(monkeypatch, r, e, m, cap, i, n):
    # the cofactor of each centralizer element is taken by law.inv and
    # law.mul; the linear prediction reads neither
    honest = centralizer_probe_capped(r, e, m, cap, i, n)
    assert honest.oracle_equal_pointwise and honest.decomposition_holds_pointwise
    models.clear_run_memos()
    inv = crowell._PackedMagnusLaw.inv

    def flipped(self, a):  # digit position 0, of weight |Q|, bumped mod e
        x = inv(self, a)
        d0 = x // self.base % self.e
        return x + ((d0 + 1) % self.e - d0) * self.base

    monkeypatch.setattr(crowell._PackedMagnusLaw, "inv", flipped)
    rep = centralizer_probe_capped(r, e, m, cap, i, n)
    assert rep.oracle_equal_pointwise
    assert not rep.decomposition_holds_pointwise


def test_model_paths_make_no_dense_element(monkeypatch):
    # the full centralizer, the probe and the module part build and read
    # elements through the packed law alone
    def runs():
        model = build_solv_model(2, 2, 2)
        return (
            [centralizer_experiment(model, i, n) for i, n in ((1, 1), (2, 3))],
            centralizer_probe_capped(2, 2, 3, 1500, 1, 1),
            module_part_basis(model),
        )

    honest = runs()
    models.clear_run_memos()

    def dense(*args, **kwargs):
        raise AssertionError("a model path made or read a dense Magnus element")

    monkeypatch.setattr(MagnusMatrix, "__init__", dense)
    monkeypatch.setattr(crowell._PackedMagnusLaw, "encode", dense)
    monkeypatch.setattr(crowell._PackedMagnusLaw, "decode", dense)
    assert runs() == honest


def test_w223_probe_prefix_is_frozen():
    # sha256 over repr((q, vec)) of the probe's first 2000 elements of
    # W(2, 2, 3), taken from the MagnusMatrix BFS before the probe enumerated
    # packed ints: index k is unchanged
    law, elements, _, complete = models._bfs_prefix(2, 2, 3, 2000)
    assert len(elements) == 2000 and not complete
    h = hashlib.sha256()
    for x in elements:
        m = law.decode(x)
        h.update(repr((m.q, m.vec)).encode())
    assert h.hexdigest() == (
        "998a52e888e41238cebc84413fe8d1830db214984fdfecf7ffe6f196124fa312"
    )


@pytest.mark.parametrize(
    "e, m, cap, i, n",
    [(2, 3, 1500, i, n) for i in (1, 2) for n in (1, 3)]
    + [(2, 3, 1501, 2, 3), (3, 2, 2000, 1, 2), (3, 2, 2001, 2, 1)]
    + [(2, 2, 128, 1, 3), (2, 2, 500, 2, 1), (2, 3, 1500, 1, 7)]
    + [(3, 2, 2001, 1, 4), (2, 3, 1501, 2, 9)],
)
def test_probe_products_match_honest_products(e, m, cap, i, n):
    # the probe's packed x^n el and folded el x^n against MagnusMatrix
    # products, element by element, its commuting elements and counts
    # against commutation decided by those products; at caps 1501 and 2001
    # the last element is a child of the BFS row that the cap cut short,
    # and at caps 128 and 500 the prefix is all of W(2, 2, 2).  x_1 has
    # order 3 one level below W(2, 3, 2), so n = 4 bumps one slot twice;
    # x_2 has order 4 below W(2, 2, 3), so n = 9 passes o e = 8
    law, elements, edges, _ = models._bfs_prefix(2, e, m, cap)
    left, cz = models._prefix_power_products(law, elements, edges, i, n)
    folded = models._folded_steps(law, i, n)
    mu_n = magnus_power(law, i, n)
    d = law.ctx.ring.dimension
    honest = []
    module = kcap = 0
    wraps = False
    for k, x in enumerate(elements):
        el = law.decode(x)
        right = el * mu_n
        shift, steps = folded[el.q]
        assert (el.q + shift) % law.base == right.q
        assert x + shift - sum(ew for ew, top in steps if x % ew >= top) == law.encode(right)
        assert left[k] == law.encode(mu_n * el)
        commutes = right == mu_n * el
        if commutes:
            honest.append(x)
        module += el.q == 0
        kcap += commutes and el.q == 0
        # a step by x_i from el bumps digit (i-1)*d + q, wrapping at e - 1
        wraps = wraps or el.vec[(i - 1) * d + el.q] == e - 1
    assert wraps
    assert cz == honest
    rep = centralizer_probe_capped(2, e, m, cap, i, n)
    assert (rep.enumerated, rep.centralizer_seen, rep.module_seen, rep.k_cap_seen) == (
        len(elements),
        len(honest),
        module,
        kcap,
    )
    assert rep.oracle_equal_pointwise and rep.decomposition_holds_pointwise


@pytest.mark.parametrize("e, m, cap", [(2, 2, 128), (2, 3, 1500), (2, 3, 1501), (3, 2, 2001)])
def test_prefix_tree_walk_reproduces_the_prefix(e, m, cap):
    # from the identity, one MagnusMatrix generator product along each tree
    # edge gives element k; the edges are the first ones into each element,
    # so their table positions rise, and each starts at an earlier element
    law, elements, edges, _ = models._bfs_prefix(2, e, m, cap)
    ng = len(law.generators)
    assert len(edges) == len(elements) - 1
    assert all(a < b for a, b in zip(edges, edges[1:]))
    walked = [0]
    for k, pos in enumerate(edges, 1):
        row, g = divmod(pos, ng)
        assert row < k
        step = law.decode(walked[row]) * MagnusMatrix.generator(law.ctx, g + 1)
        walked.append(law.encode(step))
    assert walked == list(elements)


def test_probe_products_read_no_linear_side(monkeypatch):
    # the brute side is generator steps alone: with every piece of the
    # linear prediction and of the K_cap oracle made to raise, the products
    # still come out, equal to those taken without the patches
    law, elements, edges, _ = models._bfs_prefix(2, 2, 3, 1501)
    expected = models._prefix_power_products(law, elements, edges, 2, 9)

    def linear_side(*args, **kwargs):
        raise AssertionError("the products read the linear side")

    for name in ("_left_sources", "_cycle_space", "_ker_f", "_k_cap"):
        monkeypatch.setattr(models, name, linear_side)
    monkeypatch.setattr(zmodlin, "span_equal", linear_side)
    monkeypatch.setattr(QuotientContext, "left_mult_perm", linear_side)
    assert models._prefix_power_products(law, elements, edges, 2, 9) == expected


@pytest.mark.parametrize("m, cap, whole", [(2, 128, True), (2, 127, False), (3, 1501, False)])
def test_probe_products_come_in_the_elements_container(m, cap, whole):
    # a prefix that is all of W(2, 2, 2) is a 4-byte array('I'), its end
    # 4 * 2^8 being below 2^32, and so are its products x^n el; a cut
    # prefix and its products are lists of ints
    law, elements, edges, _ = models._bfs_prefix(2, 2, m, cap)
    left, _ = models._prefix_power_products(law, elements, edges, 1, 3)
    for values in (elements, left):
        assert len(values) == len(elements)
        if whole:
            assert values.typecode == "I"
        else:
            assert type(values) is list


def test_capped_probe_complete_on_small_model():
    # cap far above 128: the BFS exhausts W(2, 2, 2) and the counts match
    # the full experiment
    rep = centralizer_probe_capped(2, 2, 2, 10**6, 1, 1)
    assert rep.complete
    assert rep.enumerated == 128
    assert rep.centralizer_seen == 16
    assert rep.k_cap_seen == 8
    assert rep.oracle_equal_pointwise and rep.decomposition_holds_pointwise


@pytest.mark.parametrize(
    "m, cap, enumerated, complete",
    [(2, 127, 127, False), (2, 128, 128, True), (2, 129, 128, True), (3, 1001, 1001, False)],
)
def test_capped_probe_prefix_is_exactly_cap(m, cap, enumerated, complete):
    # the prefix holds min(cap, |W|) elements, and complete means all of W
    # (|W(2, 2, 2)| = 128; W(2, 2, 3) is far larger)
    rep = centralizer_probe_capped(2, 2, m, cap, 1, 1)
    assert (rep.enumerated, rep.complete) == (enumerated, complete)


# ----------------------------------------------------- kernel growth tower


def test_kcap_tower_exponent_2():
    rows = kcap_tower(2, 2, [2, 4], 1, 1, cap=2_000_000)
    assert [r.e for r in rows] == [2, 4]
    assert rows[0].k_cap == 8
    assert rows[0].verified_brute and rows[0].brute_matches
    assert rows[1].k_cap == 1024
    assert rows[1].group_order == 16 * 4**17  # far beyond any materialization
    assert not rows[1].verified_brute and rows[1].brute_matches


def test_tower_report_digits_decided_at_the_boundary(monkeypatch):
    # |W(2, 49, 2)| = 49^2404: a limit of exactly its digit count admits
    # the row, one digit fewer refuses it, before any model is built
    digits = len(str(49**2404))
    assert digits == 4064
    monkeypatch.setattr(models, "REPORT_INT_DIGITS", digits)
    models._check_row_digits(2, 49, 2)
    monkeypatch.setattr(models, "REPORT_INT_DIGITS", digits - 1)

    def no_build(*args, **kwargs):
        raise AssertionError("a refused tower built a model")

    monkeypatch.setattr(models, "build_solv_model", no_build)
    with pytest.raises(TooLarge, match=f"more than {digits - 1} decimal digits"):
        kcap_tower(2, 2, [5, 49], 1, 1)


def test_kcap_tower_needs_level_2():
    # below level 2 there is no module part; at e = 1427 the level-1 row
    # would pass the cap and skip the brute check that refuses it at small e
    for m in (0, 1):
        with pytest.raises(PreconditionViolated, match="needs level >= 2"):
            kcap_tower(2, m, [1427], 1, 1)


# (r, e, m, i, n, message) of centralizer questions with no answer: a
# rank-1 model is C_e at every m, below level 2 there is no module part,
# and x_i^n must survive the abelianization
BAD_CENTRALIZER_QUESTIONS = [
    (1, 3, 2, 1, 1, "rank >= 2"),
    (1, 2003, 2, 1, 1, "rank >= 2"),
    (2, 3, 1, 1, 1, "needs level >= 2"),
    (2, 3, 0, 1, 1, "needs level >= 2"),
    (2, 3, 2, 0, 1, "generator index 0 outside 1..2"),
    (2, 3, 2, 3, 1, "generator index 3 outside 1..2"),
    (2, 3, 2, 1, 0, "need n >= 1"),
    (2, 3, 2, 1, 3, "nontrivial mod e = 3"),
    (2, 4, 2, 2, 4, "nontrivial mod e = 4"),
    (2, 6, 2, 1, 1, "not a prime power"),
]


def test_rank_1_probe_and_tower_refused_before_any_build(monkeypatch):
    # every entry point refuses every bad question before anything is
    # built: the full experiment on a model that holds no group, the probe,
    # and a tower whose first exponent, 5, is a valid row
    def no_build(*args, **kwargs):
        raise AssertionError("a model was built before the question was checked")

    for name in ("build_solv_model", "_bfs", "closure", "_ker_f"):
        monkeypatch.setattr(models, name, no_build)
    for r, e, m, i, n, message in BAD_CENTRALIZER_QUESTIONS:
        hollow = models.SolvModel(r, e, m, None, [], [], m <= 1 or r == 1)
        with pytest.raises(PreconditionViolated, match=message):
            centralizer_experiment(hollow, i, n)
        with pytest.raises(PreconditionViolated, match=message):
            centralizer_probe_capped(r, e, m, 100, i, n)
        with pytest.raises(PreconditionViolated, match=message):
            kcap_tower(r, m, [5, e], i, n)


def test_kcap_tower_exponent_3():
    rows = kcap_tower(2, 2, [3, 9], 2, 2, cap=2_000_000)
    assert rows[0].k_cap == 81
    assert rows[0].verified_brute and rows[0].brute_matches
    assert rows[1].k_cap > rows[0].k_cap  # kernel grows with the level


@pytest.mark.parametrize("e", [4, 5, 7, 8, 9, 11, 13])
def test_k_cap_sparse_products_equal_dense(e):
    # the Howell reference at the benchmark's tower exponents at r = 2,
    # m = 2, and its n: the basis summed from the nonzero kernel
    # coefficients is the dense product coefficients * K
    prev = build_solv_model(2, e, 1).group
    ctx = QuotientContext(2, prev, list(prev.gen_indices), e)
    K, _ = howell_reference.ker_f(ctx)
    Kd = howell_reference.dense(ctx, K)
    for i in (1, 2):
        for n in (1, 2, 3):
            xn_q = prev.power(ctx.images[i - 1], n)
            src = models._left_sources(ctx, xn_q)
            rows = [[row[s] - a for s, a in zip(src, row)] for row in map(Kd.row, range(Kd.rows))]
            dense = kernel_basis(RMatrix.from_rows(e, rows, cols=Kd.cols)).mul(Kd)
            basis, size = howell_reference.k_cap(ctx, K, xn_q)
            assert howell_reference.dense(ctx, basis) == dense
            assert size == howell_reference.row_span_size(e, _rows_of(dense))


@pytest.mark.parametrize("e, below", [(e, 1) for e in (4, 5, 7, 8, 9, 11, 13)] + [(2, 2)])
def test_f_rows_are_the_complex_f_matrix(e, below):
    # f's rows read off Q's table by build_complex are the dense right
    # multiplications by q_i - 1, stacked: over level 1 at every exponent
    # of the benchmark's tower, and over W(2, 2, 2)
    ctx = models._context_above(2, e, build_solv_model(2, e, below).group)
    R = ctx.ring
    f = functools.reduce(
        RMatrix.vstack, [right_mult_matrix(R.embed(q) - R.one()) for q in ctx.images]
    )
    assert RMatrix.from_dict_rows(e, build_complex(ctx).f_rows, f.cols) == f


def test_a_dropped_kernel_row_fails_the_oracle(monkeypatch):
    # a _k_cap that loses the last of its lifted cycles, and keeps its
    # size, leaves the basis of K_cap short: the full centralizer's oracle
    # fails, and so the brute-verified tower row no longer matches
    true_k_cap = models._k_cap

    def dropped(ctx, xn_q, rows=True):
        basis, size = true_k_cap(ctx, xn_q, rows)
        return basis[:-1], size

    monkeypatch.setattr(models, "_k_cap", dropped)
    rows = kcap_tower(2, 2, [3], 1, 1)
    assert rows[0].verified_brute and not rows[0].brute_matches
    rep = centralizer_experiment(build_solv_model(2, 2, 2), 1, 1)
    assert rep.k_cap_linear == rep.k_cap_brute and not rep.oracle_equal


@pytest.mark.parametrize("n", [1, 2])
def test_kcap_tower_linear_rows_at_generator_2(n):
    # linear-only rows at i = 2; the values were computed when K_cap still
    # multiplied K by a dense matrix of q - 1
    rows = kcap_tower(2, 2, [5, 7], 2, n)
    assert [(r.e, r.q_order, r.kernel_span, r.k_cap, r.group_order) for r in rows] == (
        GENERATOR_2_ROWS
    )
    assert all(not r.verified_brute and r.brute_matches for r in rows)


GENERATOR_2_ROWS = [
    (5, 25, 1490116119384765625, 15625, 37252902984619140625),
    (
        7,
        49,
        1798465042647412146620280340569649349251249,
        5764801,
        88124787089723195184393736687912818113311201,
    ),
]


def test_kcap_tower_rows_past_exponent_13():
    # e = 16: a 2-power modulus, where Howell pivots need not be units;
    # e = 17: a 289-dimensional ring.  Values from the dense Howell loop
    rows = kcap_tower(2, 2, [16, 17], 1, 1)
    assert [(r.e, r.q_order, r.kernel_span, r.k_cap, r.group_order) for r in rows] == [
        (16, 256, 16**257, 2**68, 256 * 16**257),
        (17, 289, 17**290, 17**18, 289 * 17**290),
    ]
    assert all(not r.verified_brute and r.brute_matches for r in rows)


# ------------------------------------------ the K_cap oracle's cycle space

# the contexts of the graph oracle's sweep: above level 1 at r = 2 and 3,
# and above the non-abelian W(2, 2, 2), where left and right
# multiplication differ
ORACLE_CONTEXTS = [(2, e, 1) for e in (2, 3, 4, 5, 7, 9, 13)] + [
    (3, 2, 1),
    (3, 3, 1),
    (3, 4, 1),
    (3, 5, 1),
    (2, 2, 2),
]


def oracle_context(r, e, below):
    return models._context_above(r, e, build_solv_model(r, e, below).group)


@pytest.mark.parametrize("r, e, below", ORACLE_CONTEXTS)
def test_cycle_space_oracle_equals_the_howell_reference(r, e, below):
    # ker f and K_cap at every i and n = 1..9 (e not dividing n): the
    # fundamental cycles span what the Howell reference spans, both ways,
    # and the counts, with or without rows, are the reference's
    ctx = oracle_context(r, e, below)
    ref_K, ref_size = howell_reference.ker_f(ctx)
    K, size = models._ker_f(ctx)
    assert size == ref_size == models._ker_f(ctx, rows=False)[1]
    assert models._ker_f(ctx, rows=False)[0] == []
    assert howell_reference.spans_equal(ctx.ring.modulus, K, ref_K)
    cases = 0
    for i in range(1, r + 1):
        for n in range(1, 10):
            if n % e == 0:
                continue
            xn_q = ctx.group.power(ctx.images[i - 1], n)
            ref_basis, ref_k_cap = howell_reference.k_cap(ctx, ref_K, xn_q)
            basis, k_cap = models._k_cap(ctx, xn_q)
            assert k_cap == ref_k_cap == models._k_cap(ctx, xn_q, rows=False)[1], (i, n)
            assert howell_reference.spans_equal(ctx.ring.modulus, basis, ref_basis), (i, n)
            cases += 1
    assert cases == r * (9 - 9 // e)


def test_a_tree_that_misses_a_vertex_is_a_failed_verdict():
    # images that generate only <x_1> split Q's Cayley graph into its 3
    # cosets, so no spanning tree reaches all 9 vertices; the orbit graph
    # under x_1 has 3 vertices and each edge stays at its own.  Both must
    # fail as verdicts, which python -O keeps
    ctx = oracle_context(2, 3, 1)
    ctx.images = (ctx.images[0], ctx.images[0])
    with pytest.raises(VerdictFailed, match="reaches 3 of 9 vertices"):
        models._ker_f(ctx, rows=False)
    with pytest.raises(VerdictFailed, match="reaches 1 of 3 vertices"):
        models._k_cap(ctx, ctx.images[0])
    code = (
        "from msolv import errors, models\n"
        "ctx = models._context_above(2, 3, models.build_solv_model(2, 3, 1).group)\n"
        "ctx.images = (ctx.images[0], ctx.images[0])\n"
        "try:\n"
        "    models._ker_f(ctx)\n"
        "except errors.VerdictFailed as exc:\n"
        "    print(exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(models.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, env=env, timeout=60
    )
    assert proc.stdout == b"the spanning tree reaches 3 of 9 vertices\n", proc.stderr


def test_orbits_by_right_multiplication_fail_the_span_check(monkeypatch):
    # over the non-abelian W(2, 2, 2), orbits of x^n taken by right
    # multiplication are not orbits of a graph automorphism: each case must
    # fail, by the spanning-tree verdict or by the span check (the tree
    # verdict catches all four today: the orbit graph falls apart)
    ctx = oracle_context(2, 2, 2)
    ref_K, _ = howell_reference.ker_f(ctx)
    cases = [
        (xn_q, howell_reference.k_cap(ctx, ref_K, xn_q)[0])
        for xn_q in (ctx.group.power(q, n) for q in ctx.images for n in (1, 3))
    ]

    def right_mult_perm(self, q):
        return tuple(self.group.mul(j, q) for j in range(self.group.order))

    monkeypatch.setattr(QuotientContext, "left_mult_perm", right_mult_perm)
    for xn_q, ref_basis in cases:
        try:
            basis, _ = models._k_cap(ctx, xn_q)
        except VerdictFailed:
            continue
        assert not howell_reference.spans_equal(ctx.ring.modulus, basis, ref_basis), xn_q


# |K_cap| of the kcap-linear tower, kcap_tower(2, 2, [4, 5, 7, 8, 9, 11, 13],
# 1, n), as the Howell route gave it; |ker f| is e^(e^2 + 1) on every row
KCAP_LINEAR_K_CAP = {
    1: [4**5, 5**6, 7**8, 8**9, 9**10, 11**12, 13**14],
    2: [4**9, 5**6, 7**8, 8**17, 9**10, 11**12, 13**14],
}


@pytest.mark.parametrize("n", [1, 2])
def test_tower_rows_need_no_elimination(monkeypatch, n):
    # with every binding of the Howell loop and of kernel_rows made to
    # raise, the linear-only rows keep their pinned values
    def eliminated(*args, **kwargs):
        raise AssertionError("the K_cap oracle ran a Howell elimination")

    for module in (models, crowell, zmodlin):
        for name in ("kernel_rows", "_howell_rows", "_augmented_howell"):
            monkeypatch.setattr(module, name, eliminated, raising=False)
    exponents = [4, 5, 7, 8, 9, 11, 13]
    rows = kcap_tower(2, 2, exponents, 1, n)
    assert [(r.kernel_span, r.k_cap) for r in rows] == [
        (e ** (e * e + 1), k) for e, k in zip(exponents, KCAP_LINEAR_K_CAP[n])
    ]
    rows = kcap_tower(2, 2, [5, 7], 2, n)
    assert [(r.e, r.q_order, r.kernel_span, r.k_cap, r.group_order) for r in rows] == (
        GENERATOR_2_ROWS
    )


def test_the_oracle_reads_no_brute_side(monkeypatch):
    # on prebuilt contexts, with the brute side's BFS and tree edges made to
    # raise, ker f and K_cap come out as before
    contexts = [oracle_context(2, 3, 1), oracle_context(3, 2, 1), oracle_context(2, 2, 2)]
    honest = [
        (models._ker_f(ctx), models._k_cap(ctx, ctx.group.power(ctx.images[-1], 3)))
        for ctx in contexts
    ]

    def brute(*args, **kwargs):
        raise AssertionError("the K_cap oracle read the brute side")

    for module in (fingroup, models):
        for name in ("_tree_edges", "_bfs"):
            monkeypatch.setattr(module, name, brute)
    assert [
        (models._ker_f(ctx), models._k_cap(ctx, ctx.group.power(ctx.images[-1], 3)))
        for ctx in contexts
    ] == honest


# --------------------------------------------------------------- surfaces


def test_euler_characteristic():
    assert euler_char(0, 0) == (2, False)  # sphere
    assert euler_char(1, 0) == (0, False)  # torus
    assert euler_char(0, 3) == (-1, True)  # thrice-punctured sphere
    assert euler_char(2, 0) == (-2, True)
    assert euler_char(1, 1) == (-1, True)


def test_surface_presentation_genus_2():
    pres = surface_presentation(2)
    assert pres.rank == 4
    assert len(pres.relators) == 1
    assert len(pres.relators[0]) == 8  # product of 2 commutators
    assert all(all(v == 0 for v in row) for row in pres.exponent_matrix)
    rep = presentation_abelianization(pres)
    assert rep.free_rank == 4
    assert rep.invariant_factors == ()
    assert rep.torsion_free


def test_surface_presentation_all_small_genus():
    for g in range(1, 5):
        pres = surface_presentation(g)
        assert len(pres.relators[0]) == 4 * g
        rep = presentation_abelianization(pres)
        assert rep.free_rank == 2 * g and rep.torsion_free


def test_presentation_abelianization_with_torsion():
    from msolv.foxcalc import generator_word

    pres = presentation(1, [generator_word(1, 1).power(2)])  # < x | x^2 >
    rep = presentation_abelianization(pres)
    assert rep.invariant_factors == (2,)
    assert rep.free_rank == 0
    assert not rep.torsion_free


# -------------------------------------------------------- center-free scan


def test_centerfree_scan_flags_only_the_counterexample():
    from msolv.constructions import counterexample_group

    corpus = [("s3", s3()), ("s4", s4()), ("g72", counterexample_group()), ("c6", cyclic_group(6))]
    rows = {r.label: r for r in centerfree_scan(corpus, 2)}
    assert rows["g72"].flagged
    assert not rows["s3"].flagged
    assert not rows["s4"].flagged
    assert not rows["c6"].flagged  # abelian: Z(G) = G is not trivial
    assert rows["g72"].center_in_derived_image
    assert rows["g72"].ab_faithful[0] == (18, False)
    assert all(ok for _, ok in rows["s4"].ab_faithful)


def test_centerfree_scan_quotient_orders():
    corpus = [("s4", s4())]
    (row,) = centerfree_scan(corpus, 2)
    assert row.order == 24
    assert row.quotient_order == 6  # S4 / V4
    assert row.quotient_center_order == 1
