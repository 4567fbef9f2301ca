"""Tests for the finite group engine.

Structural operations (derived subgroups, centers, transfers) are checked
against exhaustive all-pairs oracles on a corpus of small groups whose
structure is known by hand; quotient and isomorphism machinery is checked
both on frozen known answers and via theorem-level properties.
"""

import random
from array import array
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msolv import zmodlin
from msolv.constructions import counterexample_group
from msolv.errors import (
    CapExceeded,
    MixedVariant,
    NotHomomorphism,
    NotNormal,
    NotSurjective,
    TooLarge,
)
from msolv.fingroup import (
    CAYLEY_LIMIT,
    FiniteGroup,
    _bfs,
    _DirectLaw,
    _invert_entries,
    Homomorphism,
    MatElem,
    PermElem,
    Subgroup,
    abelian_invariants,
    abelianization,
    all_subgroups,
    center,
    centralizer,
    closure,
    conj_action_faithful,
    derived_series,
    derived_subgroup,
    derived_term,
    find_isomorphism,
    iso_test_small,
    left_transversal,
    m_step_quotient,
    natural_ab_map,
    normal_closure,
    normal_subgroups,
    quotient_by,
    quotient_iso_check,
    semidirect_product,
    subgroup_closure,
    transfer_map,
    trivial_group,
)
from msolv.models import build_solv_model

# ------------------------------------------------------------ small corpus


def cyc(degree, *cycles):
    return PermElem.from_cycles(degree, cycles)


def make_s3():
    return closure([cyc(3, (0, 1, 2)), cyc(3, (0, 1))])


def make_d8():
    return closure([cyc(4, (0, 1, 2, 3)), cyc(4, (1, 3))])


def make_q8():
    i = MatElem.from_rows(3, [[0, -1], [1, 0]])
    j = MatElem.from_rows(3, [[1, 1], [1, -1]])
    return closure([i, j])


def make_a4():
    return closure([cyc(4, (0, 1, 2)), cyc(4, (0, 1), (2, 3))])


def make_s4():
    return closure([cyc(4, (0, 1, 2, 3)), cyc(4, (0, 1))])


def make_c12():
    return closure([cyc(7, (0, 1, 2, 3)), cyc(7, (4, 5, 6))])


def make_counterexample72():
    """(C3 x C3) x| D8 with r acting as a rotation and s as a reflection."""
    t1 = cyc(6, (0, 1, 2))
    t2 = cyc(6, (3, 4, 5))
    N = closure([t1, t2])
    H = make_d8()
    i1, i2 = N.gen_indices
    return semidirect_product(
        N, H, [[i2, N.power(i1, 2)], [i1, N.power(i2, 2)]]
    )


CORPUS = {
    "S3": make_s3,
    "D8": make_d8,
    "Q8": make_q8,
    "A4": make_a4,
    "S4": make_s4,
    "C12": make_c12,
}


# ------------------------------------------------------- element variants


def test_perm_composition_convention():
    p = cyc(3, (0, 1))
    q = cyc(3, (1, 2))
    # (p*q)(x) = p(q(x)): 1 -> q -> 2 -> p -> 2
    assert (p * q)(1) == 2
    assert (q * p)(1) == 0


def test_perm_inverse_and_cycles():
    p = cyc(5, (0, 1, 2, 3, 4))
    assert p * p.inverse() == PermElem.identity(5)
    assert p.inverse()(0) == 4
    with pytest.raises(ValueError):
        PermElem((0, 0, 1))
    with pytest.raises(ValueError):
        PermElem.from_cycles(3, [(0, 1), (1, 2)])


def test_perm_bijection_check():
    for images in [(0, 0), (1, 2), (0, 2, 2), (-1, 0)]:
        with pytest.raises(ValueError):
            PermElem(images)
    with pytest.raises(ValueError):
        PermElem.from_cycles(4, [(0, 1, 2), (2, 3)])  # overlapping
    for cycle in [(0, 5), (-1, 0)]:
        with pytest.raises(ValueError):
            PermElem.from_cycles(3, [cycle])


@given(
    st.integers(1, 9).flatmap(
        lambda d: st.tuples(st.permutations(range(d)), st.permutations(range(d)))
    )
)
@settings(max_examples=100, deadline=None)
def test_unchecked_products_equal_validated(pair):
    # products and inverses skip the bijection check; they must still be
    # the permutations the validating constructor builds from scratch
    a, b = (PermElem(p) for p in pair)
    d = a.degree
    prod, inv = a * b, a.inverse()
    assert prod == PermElem([a(b(x)) for x in range(d)])
    assert inv == PermElem([a.images.index(y) for y in range(d)])
    assert hash(prod) == hash(PermElem(prod.images))


def test_mat_inverse_witness():
    m = MatElem.from_rows(9, [[1, 3], [0, 1]])
    assert m * m.inverse() == MatElem.identity(9, 2)
    prod = m * m
    assert prod * prod.inverse() == MatElem.identity(9, 2)
    with pytest.raises(ValueError):
        MatElem.from_rows(9, [[3, 0], [0, 1]])


def _det(rows):
    """Integer determinant by cofactor expansion along the first row."""
    if len(rows) == 1:
        return rows[0][0]
    return sum(
        (-1) ** j * a * _det([r[:j] + r[j + 1 :] for r in rows[1:]])
        for j, a in enumerate(rows[0])
    )


def test_mat_inverse_through_augmented_form_random(monkeypatch):
    # seeded k x k matrices, k <= 4: inversion through [M | I] succeeds iff
    # gcd(det M, n) = 1, with M^-1 M = M M^-1 = I, and raises otherwise;
    # both outcomes occur at every modulus, and the moduli with two primes
    # run the 2x2 combine
    combines = {}
    real = zmodlin._lin

    def counted(*args):
        combines[args[0]] = combines.get(args[0], 0) + 1
        return real(*args)

    monkeypatch.setattr(zmodlin, "_lin", counted)
    rng = random.Random(33)
    moduli = (2, 4, 6, 8, 9, 12, 27)
    outcomes = set()
    for case in range(840):
        n, k = moduli[case % len(moduli)], case // len(moduli) % 4 + 1
        entries = tuple(rng.randrange(n) for _ in range(k * k))
        unit = gcd(_det([list(entries[i * k : (i + 1) * k]) for i in range(k)]), n) == 1
        outcomes.add((n, unit))
        if unit:
            inv = _invert_entries(n, k, entries)
            eye = tuple(int(i == j) for i in range(k) for j in range(k))
            assert zmodlin._flat_mul(n, k, k, k, entries, inv) == eye, (n, entries)
            assert zmodlin._flat_mul(n, k, k, k, inv, entries) == eye, (n, entries)
        else:
            with pytest.raises(ValueError):
                _invert_entries(n, k, entries)
    assert outcomes == {(n, unit) for n in moduli for unit in (False, True)}
    assert combines.get(6) and combines.get(12)


def test_mixed_variants_rejected():
    with pytest.raises(MixedVariant):
        closure([cyc(3, (0, 1)), MatElem.identity(4, 2)])
    with pytest.raises(MixedVariant):
        cyc(3, (0, 1)) * cyc(4, (0, 1))


def test_closure_cap():
    with pytest.raises(CapExceeded):
        closure([cyc(5, (0, 1, 2, 3, 4)), cyc(5, (0, 1))], cap=10)


def test_bfs_prefix_stops_exactly_at_cap():
    # the capped BFS is closure's enumeration cut after `cap` elements, and
    # its flat table holds every edge taken before the one that reaches
    # element `cap`: caps 2, 7 and 23 cut a row short, which stays partial
    gens = [cyc(4, (0, 1, 2, 3)), cyc(4, (0, 1))]
    ng = len(gens)
    full = closure(gens)
    first = list(full.gen_table).index
    law = _DirectLaw()
    assert [first(cap) % ng for cap in (2, 7, 23)] == [1, 1, 1]
    for cap in (1, 2, 7, 23, 24, 25):
        elements, index, table, complete = _bfs(gens, full.elements[0], law, cap)
        assert elements == full.elements[:cap]
        assert len(index) == len(elements)
        assert complete == (cap >= 24)
        assert isinstance(table, array) and table.typecode == "i"
        assert len(table) == (24 * ng if complete else first(cap))
        for pos, k in enumerate(table):
            i, g = divmod(pos, ng)
            assert k == index[law.mul(elements[i], gens[g])]


def test_closure_table_is_flat_and_complete():
    # one int per (element, generator) edge, row-major
    for G in (make_s4(), make_q8(), closure([cyc(5, (0, 1, 2, 3, 4)), cyc(5, (0, 1)), cyc(5, (1, 2))])):
        ng = len(G.generators)
        assert isinstance(G.gen_table, array)
        assert len(G.gen_table) == G.order * ng
        for i, a in enumerate(G.elements):
            for g, x in enumerate(G.generators):
                assert G.gen_table[i * ng + g] == G.index[a * x]
    assert len(trivial_group().gen_table) == 0


def test_trivial_group():
    T = trivial_group()
    assert T.order == 1 and T.mul(0, 0) == 0


# --------------------------------------------------------- group structure


KNOWN_ORDERS = {"S3": 6, "D8": 8, "Q8": 8, "A4": 12, "S4": 24, "C12": 12}
KNOWN_CENTERS = {"S3": 1, "D8": 2, "Q8": 2, "A4": 1, "S4": 1, "C12": 12}
KNOWN_DERIVED = {
    "S3": [6, 3, 1],
    "D8": [8, 2, 1],
    "Q8": [8, 2, 1],
    "A4": [12, 4, 1],
    "S4": [24, 12, 4, 1],
    "C12": [12, 1],
}
KNOWN_AB = {
    "S3": (2,),
    "D8": (2, 2),
    "Q8": (2, 2),
    "A4": (3,),
    "S4": (2,),
    "C12": (12,),
}


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_known_structure(name):
    G = CORPUS[name]()
    assert G.order == KNOWN_ORDERS[name]
    assert center(G).order == KNOWN_CENTERS[name]
    assert [s.order for s in derived_series(G)] == KNOWN_DERIVED[name]
    assert abelian_invariants(G) == KNOWN_AB[name]


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_derived_subgroup_vs_all_pairs_oracle(name):
    G = CORPUS[name]()
    # oracle: subgroup generated by every commutator of every element pair
    comms = set()
    for a in range(G.order):
        for b in range(G.order):
            comms.add(G.mul(G.mul(a, b), G.mul(G.inv(a), G.inv(b))))
    oracle = subgroup_closure(G, sorted(comms))
    assert derived_subgroup(G).element_set == oracle.element_set


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_center_vs_all_pairs_oracle(name):
    G = CORPUS[name]()
    oracle = {
        a for a in range(G.order) if all(G.mul(a, b) == G.mul(b, a) for b in range(G.order))
    }
    Z = center(G)
    assert Z.element_set == oracle
    assert subgroup_closure(G, Z.gen_indices).element_set == oracle


def test_derived_terms_normal():
    for name in CORPUS:
        G = CORPUS[name]()
        for term in derived_series(G):
            assert term.is_normal


def test_element_orders():
    G = make_d8()
    profile = G.element_order_profile()
    assert profile == (1, 2, 2, 2, 2, 2, 4, 4)
    assert make_q8().element_order_profile() == (1, 2, 4, 4, 4, 4, 4, 4)


def test_centralizer_of_rotation_in_d8():
    G = make_d8()
    r = G.gen_indices[0]
    C = centralizer(G, [r])
    assert C.order == 4
    assert all(G.mul(i, r) == G.mul(r, i) for i in C.indices)


def test_normal_closure_smallest():
    G = make_s4()
    # normal closure of a double transposition is the Klein four group
    dbl = G.index[cyc(4, (0, 1), (2, 3))]
    V = normal_closure(G, [dbl])
    assert V.order == 4 and V.is_normal


# ------------------------------------------------------------- quotients


def test_quotient_lagrange_and_projection():
    G = make_s4()
    for N in normal_subgroups(G):
        Q, proj = quotient_by(G, N)
        assert Q.order * N.order == G.order
        assert proj.is_surjective()
        assert proj.kernel().element_set == N.element_set


def test_quotient_requires_normal():
    G = make_s3()
    H = subgroup_closure(G, [G.index[cyc(3, (0, 1))]])
    with pytest.raises(NotNormal):
        quotient_by(G, H)


def test_m_step_quotient_tower():
    for name in ("S3", "S4", "D8"):
        G = CORPUS[name]()
        prev = None
        for m in range(4):
            Q, proj = m_step_quotient(G, m)
            if prev is not None:
                # the tower maps: Q_{m} surjects onto Q_{m-1}
                prev_Q, prev_proj = prev
                table = tuple(
                    prev_proj(G.index[Q.elements[i]]) for i in range(Q.order)
                )
                step = Homomorphism.build(Q, prev_Q, table)
                assert step.is_surjective()
            prev = (Q, proj)
    Q2, _ = m_step_quotient(make_s3(), 2)
    assert Q2.order == 6


def test_m_step_quotient_orders():
    G = make_s4()
    assert m_step_quotient(G, 0)[0].order == 1
    assert m_step_quotient(G, 1)[0].order == 2
    assert m_step_quotient(G, 2)[0].order == 6
    assert m_step_quotient(G, 3)[0].order == 24
    assert m_step_quotient(G, 9)[0].order == 24


# ---------------------------------------------------------- homomorphisms


def test_hom_from_gen_images():
    G = make_s3()
    sgn = closure([cyc(2, (0, 1))])
    h = Homomorphism.from_gen_images(G, sgn, [0, sgn.gen_indices[0]])
    assert h.is_surjective() and h.kernel().order == 3
    with pytest.raises(NotHomomorphism):
        Homomorphism.from_gen_images(G, sgn, [sgn.gen_indices[0], 0])


def test_hom_compose():
    G = make_s4()
    Q1, p1 = m_step_quotient(G, 2)
    Q2, p2 = m_step_quotient(Q1, 1)
    comp = p2.compose(p1)
    assert comp.is_surjective() and comp.target.order == 2


# --------------------------------------------------------------- transfer


def test_transfer_c4_to_c2():
    # G = <c> of order 4, N = <c^2>: the transfer sends c to c^2
    G = closure([cyc(4, (0, 1, 2, 3))])
    N = subgroup_closure(G, [G.power(G.gen_indices[0], 2)])
    tr = transfer_map(G, N)
    assert tr.source.order == 4 and tr.target.order == 2
    assert tr.images == (0, 1, 0, 1)


def test_transfer_s3_to_a3_is_zero():
    G = make_s3()
    N = derived_term(G, 1)
    tr = transfer_map(G, N)
    assert set(tr.images) == {0}


def test_transfer_transversal_independence():
    rng = random.Random(12)
    for name in ("S4", "D8", "A4"):
        G = CORPUS[name]()
        for N in normal_subgroups(G):
            if N.order in (1, G.order):
                continue
            base = transfer_map(G, N)
            cosets = []
            seen = set()
            for i in range(G.order):
                if i not in seen:
                    c = sorted(G.mul(i, n) for n in N.indices)
                    cosets.append(c)
                    seen.update(c)
            for _ in range(4):
                transversal = [rng.choice(c) for c in cosets]
                assert transfer_map(G, N, transversal).images == base.images


def test_transfer_formula_on_subgroup_elements():
    # for n in N the transfer of n equals the product of its transversal
    # conjugates, all inside N^ab
    for name in ("S4", "D8", "S3"):
        G = CORPUS[name]()
        for N in normal_subgroups(G):
            if N.order in (1,):
                continue
            NG = N.as_group()
            Nab, projN = abelianization(NG)
            Gab, projG = abelianization(G)
            tr = transfer_map(G, N)
            T = left_transversal(G, N)
            for n in N.indices:
                acc = 0
                for a in T:
                    conj = G.mul(G.mul(G.inv(a), n), a)
                    acc = Nab.mul(acc, projN(NG.index[G.elements[conj]]))
                assert tr(projG(n)) == acc


def test_natural_ab_map_transfer_composite():
    # transfer o R_N acts on the invariants of N^ab as raising to [G:N]
    G = make_d8()
    N = subgroup_closure(G, [G.gen_indices[0]])  # C4, index 2
    assert N.is_normal
    tr = transfer_map(G, N)
    R = natural_ab_map(G, N)
    NG = N.as_group()
    Nab, projN = abelianization(NG)
    idx = G.order // N.order
    for q in range(Nab.order):
        # invariance under conjugation by every generator of G
        invariant = True
        for g in G.gen_indices:
            u = NG.elements[[i for i in range(NG.order) if projN(i) == q][0]]
            cu = G.elements[G.conj(G.index[u], g)]
            if projN(NG.index[cu]) != q:
                invariant = False
        if invariant:
            assert tr(R(q)) == Nab.power(q, idx)


def test_transfer_rejects_non_normal():
    G = make_s3()
    H = subgroup_closure(G, [G.index[cyc(3, (0, 1))]])
    with pytest.raises(NotNormal):
        transfer_map(G, H)


# ------------------------------------------------------------ conjugation


def test_conj_action_faithful_s3_on_a3():
    G = make_s3()
    N = derived_term(G, 1)
    faithful, kernel = conj_action_faithful(G, N)
    assert faithful and kernel.order == 1


def test_conj_action_trivial_on_central_subgroup():
    G = make_d8()
    Z = center(G)
    faithful, kernel = conj_action_faithful(G, Z)
    assert not faithful
    assert kernel.order == G.order // Z.order


# ------------------------------------------------------- quotient iso map


def test_quotient_iso_identity_map():
    G = make_s3()
    f = Homomorphism.build(G, G, tuple(range(G.order)))
    N = derived_term(G, 1)
    res = quotient_iso_check(f, Subgroup(G, N.indices, N.gen_indices), 1)
    assert res.hypothesis_holds and res.bijective


def test_quotient_iso_projection_fails_hypothesis():
    # G = S3 x S3 -> S3 first projection, H = A3: the kernel does not sit
    # inside the derived series of the preimage, and the induced map on
    # 1-step quotients is not injective
    a, b = cyc(6, (0, 1, 2)), cyc(6, (0, 1))
    c, d = cyc(6, (3, 4, 5)), cyc(6, (3, 4))
    GG = closure([a, b, c, d])
    S3 = make_s3()
    f = Homomorphism.from_gen_images(GG, S3, [S3.gen_indices[0], S3.gen_indices[1], 0, 0])
    A3 = derived_term(S3, 1)
    res = quotient_iso_check(f, Subgroup(S3, A3.indices, A3.gen_indices), 1)
    assert not res.hypothesis_holds and not res.bijective
    assert res.upstairs_order == 6 and res.downstairs_order == 3


def test_quotient_iso_hypothesis_implies_bijective():
    # theorem-level property over a corpus of surjections and subgroups
    G = make_s4()
    for N in normal_subgroups(G):
        Q, proj = quotient_by(G, N)
        if Q.order > 24:
            continue
        for H in all_subgroups(Q):
            for n in (1, 2):
                res = quotient_iso_check(proj, H, n)
                if res.hypothesis_holds:
                    assert res.bijective


def test_quotient_iso_requires_surjective():
    G = make_s3()
    GG = closure([cyc(6, (0, 1, 2)), cyc(6, (0, 1)), cyc(6, (3, 4, 5)), cyc(6, (3, 4))])
    f = Homomorphism.from_gen_images(G, GG, [GG.gen_indices[0], GG.gen_indices[1]])
    with pytest.raises(NotSurjective):
        quotient_iso_check(f, GG.full_subgroup(), 1)


# ------------------------------------------------------------ isomorphism


def test_iso_rejects_d8_q8():
    assert not iso_test_small(make_d8(), make_q8())


def test_iso_accepts_d8_realizations():
    other = closure([cyc(4, (0, 1, 2, 3)), cyc(4, (0, 1), (2, 3))])
    assert iso_test_small(make_d8(), other)


def test_iso_c6_two_ways():
    one = closure([cyc(6, (0, 1, 2, 3, 4, 5))])
    two = closure([cyc(5, (0, 1)), cyc(5, (2, 3, 4))])
    assert iso_test_small(one, two)
    wit = find_isomorphism(one, two)
    assert wit is not None and wit.is_bijective()


def test_iso_cross_variant_s3_gl22():
    # GL(2, F2) is S3 in matrix clothing
    gl = closure([MatElem.from_rows(2, [[0, 1], [1, 0]]), MatElem.from_rows(2, [[1, 1], [0, 1]])])
    assert gl.order == 6
    assert iso_test_small(gl, make_s3())


def test_iso_distinguishes_c4_klein():
    c4 = closure([cyc(4, (0, 1, 2, 3))])
    v4 = closure([cyc(4, (0, 1), (2, 3)), cyc(4, (0, 2), (1, 3))])
    assert not iso_test_small(c4, v4)


def test_iso_size_guard():
    G = make_counterexample72()
    with pytest.raises(TooLarge):
        iso_test_small(G, G)


# ------------------------------------------------------------ Cayley table


def assert_table_matches_element_products(G):
    for i in range(G.order):
        a = G.elements[i]
        assert G.inv(i) == G.index[G.law.inv(a)]
        for j in range(G.order):
            assert G.mul(i, j) == G.index[G.law.mul(a, G.elements[j])]


def cayley_corpus():
    """The corpus of acceptance criterion 11, whose all-pairs definitions
    multiply through G.mul, plus a quotient whose law is _CosetLaw."""
    S4 = make_s4()
    V4 = next(N for N in normal_subgroups(S4) if N.order == 4)
    return [
        closure([cyc(2, (0, 1))]),
        closure([cyc(12, tuple(range(12)))]),
        closure([cyc(4, (0, 1)), cyc(4, (2, 3))]),
        make_s3(),
        make_d8(),
        make_q8(),
        closure([cyc(6, (0, 1, 2, 3, 4, 5)), cyc(6, (0, 5), (1, 4), (2, 3))]),
        make_a4(),
        S4,
        counterexample_group(),
        build_solv_model(2, 2, 2).group,
        quotient_by(S4, V4)[0],
    ]


def test_cayley_table_matches_element_products():
    corpus = cayley_corpus()
    assert [G.order for G in corpus] == [2, 12, 4, 6, 8, 8, 12, 12, 24, 72, 128, 6]
    for G in corpus:
        assert_table_matches_element_products(G)
        assert G._cols is not None


def test_corrupted_table_entry_fails_the_product_check():
    G = make_s4()
    assert_table_matches_element_products(G)
    col = list(G._cols[5])
    col[7] = col[8]
    G._cols[5] = tuple(col)
    with pytest.raises(AssertionError):
        assert_table_matches_element_products(G)


def test_cayley_table_only_at_or_below_limit(monkeypatch):
    built = []
    build = FiniteGroup._build_cayley

    def counting(G):
        built.append(G.order)
        return build(G)

    monkeypatch.setattr(FiniteGroup, "_build_cayley", counting)
    S6 = closure([cyc(6, (0, 1, 2, 3, 4, 5)), cyc(6, (0, 1))])
    assert S6.order == 720 > CAYLEY_LIMIT
    for i, j in [(1, 2), (700, 719), (5, 0)]:
        assert S6.mul(i, j) == S6.index[S6.elements[i] * S6.elements[j]]
        assert S6.inv(i) == S6.index[S6.elements[i].inverse()]
    assert S6.element_order(7) > 1
    assert S6._cols is None and S6._invs is None and built == []

    S4 = make_s4()
    for _ in range(3):
        derived_series(S4)
        S4.inv(3)
    assert built == [24]

    # the limit itself is inclusive
    for k in (CAYLEY_LIMIT, CAYLEY_LIMIT + 1):
        C = closure([cyc(k, tuple(range(k)))])
        assert C.power(C.gen_indices[0], k) == 0 and C.inv(1) == k - 1
    assert built == [24, CAYLEY_LIMIT]


# ------------------------------------------------------ Dimino closures
#
# The restart closures below are the previous subgroup_closure and
# normal_closure, kept verbatim as reference oracles: one BFS over all the
# generators collected so far, rebuilt from scratch on every pass.


def restart_subgroup_closure_reference(G, gen_idxs):
    """Subgroup of G generated by the given element indices."""
    gen_idxs = [i for i in gen_idxs if i != 0]
    seen = {0}
    order_list = [0]
    i = 0
    while i < len(order_list):
        a = order_list[i]
        for g in gen_idxs:
            b = G.mul(a, g)
            if b not in seen:
                seen.add(b)
                order_list.append(b)
        i += 1
    return Subgroup(G, tuple(sorted(seen)), tuple(gen_idxs) or (0,))


def restart_normal_closure_reference(G, seed_idxs, conjugators=None):
    """Smallest subgroup containing the seeds and stable under conjugation.

    Conjugators default to G's generators (normal closure in G); passing a
    subgroup's generators computes the normal closure within that subgroup.
    """
    if conjugators is None:
        conjugators = G.gen_indices
    gens = [i for i in dict.fromkeys(seed_idxs) if i != 0]
    sub = restart_subgroup_closure_reference(G, gens)
    while True:
        new = []
        for h in sub.gen_indices:
            for c in conjugators:
                t = G.conj(h, c)
                if t not in sub.element_set:
                    new.append(t)
        if not new:
            return sub
        gens.extend(dict.fromkeys(new))
        sub = restart_subgroup_closure_reference(G, gens)


def test_dimino_closures_match_restart_references():
    S6 = closure([cyc(6, (0, 1, 2, 3, 4, 5)), cyc(6, (0, 1))])
    assert S6.order == 720 > CAYLEY_LIMIT
    rng = random.Random(9)
    later = 0
    for G in cayley_corpus() + [S6]:
        n = G.order
        for _ in range(12):
            gens = [rng.randrange(n) for _ in range(rng.randint(0, 4))]
            if gens and rng.random() < 0.3:
                gens.append(rng.choice(gens))  # a repeated generator
            got = subgroup_closure(G, gens)
            want = restart_subgroup_closure_reference(G, gens)
            assert (got.indices, got.gen_indices) == (want.indices, want.gen_indices)
        for trial in range(12):
            seeds = [rng.randrange(n) for _ in range(rng.randint(0, 3))]
            conj = None  # G's generators
            if trial % 2:
                conj = [rng.randrange(n) for _ in range(rng.randint(1, 3))]
            got = normal_closure(G, seeds, conj)
            want = restart_normal_closure_reference(G, seeds, conj)
            assert (got.indices, got.gen_indices) == (want.indices, want.gen_indices)
            if conj is None:
                assert got.is_normal
            first = set(seeds) | {G.conj(h, c) for h in seeds for c in conj or G.gen_indices}
            later += any(h not in first for h in got.gen_indices)
    # conjugates of conjugates: some closures needed a second pass
    assert later >= 20


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_derived_subgroup_gen_indices_match_restart_reference(name):
    G = CORPUS[name]()
    sub = G.full_subgroup()
    while True:
        gi = sub.gen_indices
        comms = [
            c
            for a in gi
            for b in gi
            if (c := G.mul(G.mul(a, b), G.mul(G.inv(a), G.inv(b)))) != 0
        ]
        want = restart_normal_closure_reference(G, comms, conjugators=gi)
        got = derived_subgroup(G, sub)
        assert (got.indices, got.gen_indices) == (want.indices, want.gen_indices)
        if got.order in (1, sub.order):
            break
        sub = got


# ------------------------------------------------- subgroup enumerations


def test_normal_subgroup_lattices():
    assert sorted(N.order for N in normal_subgroups(make_s3())) == [1, 3, 6]
    assert sorted(N.order for N in normal_subgroups(make_s4())) == [1, 4, 12, 24]
    assert sorted(N.order for N in normal_subgroups(make_d8())) == [1, 2, 4, 4, 4, 8]
    assert sorted(N.order for N in normal_subgroups(make_q8())) == [1, 2, 4, 4, 4, 8]
    for N in normal_subgroups(make_s4()):
        assert N.is_normal


def every_element_normal_subgroups_reference(G):
    """The previous normal_subgroups, verbatim: one normal closure per
    nontrivial element."""
    seen = {}
    trivial = Subgroup(G, (0,), (0,))
    seen[trivial.indices] = trivial
    atoms = []
    for i in range(1, G.order):
        nc = normal_closure(G, [i])
        if nc.indices not in seen:
            seen[nc.indices] = nc
            atoms.append(nc)
    frontier = list(seen.values())
    while frontier:
        fresh = []
        for a in frontier:
            for b in atoms:
                joined_gens = list(dict.fromkeys(list(a.gen_indices) + list(b.gen_indices)))
                j = subgroup_closure(G, joined_gens)
                if j.indices not in seen:
                    sub = Subgroup(G, j.indices, j.gen_indices)
                    seen[j.indices] = sub
                    fresh.append(sub)
        frontier = fresh
    return sorted(seen.values(), key=lambda s: (s.order, s.indices))


def test_normal_subgroups_one_closure_per_class(monkeypatch):
    import msolv.fingroup as fg

    seeds = []

    def recording(G, seed_idxs, conjugators=None):
        seeds.append(list(seed_idxs))
        return normal_closure(G, seed_idxs, conjugators)

    for G in cayley_corpus():
        want = every_element_normal_subgroups_reference(G)
        seeds.clear()
        monkeypatch.setattr(fg, "normal_closure", recording)
        got = normal_subgroups(G)
        monkeypatch.undo()
        assert [(N.indices, N.gen_indices) for N in got] == [
            (N.indices, N.gen_indices) for N in want
        ]
        # one seed per nontrivial conjugacy class, its smallest index
        first_of_class = {}
        for i in range(G.order):
            first_of_class.setdefault(frozenset(G.conj(i, c) for c in range(G.order)), i)
        assert seeds == [[i] for i in sorted(first_of_class.values())[1:]]


def restart_all_subgroups_reference(G):
    """The previous all_subgroups, verbatim: every join closed from the
    identity by subgroup_closure of the joined generators."""
    if G.order > 128:
        raise TooLarge("subgroup enumeration is limited to order 128")
    trivial = Subgroup(G, (0,), (0,))
    seen = {trivial.indices: trivial}
    frontier = [trivial]
    while frontier:
        fresh = []
        for s in frontier:
            for i in range(1, G.order):
                if i in s.element_set:
                    continue
                gens = list(dict.fromkeys(list(s.gen_indices) + [i]))
                t = subgroup_closure(G, gens)
                if t.indices not in seen:
                    sub = Subgroup(G, t.indices, t.gen_indices)
                    seen[t.indices] = sub
                    fresh.append(sub)
        frontier = fresh
    return sorted(seen.values(), key=lambda s: (s.order, s.indices))


def test_lattices_grow_joins_from_members(monkeypatch):
    import msolv.fingroup as fg

    def restart(G, gen_idxs):
        raise AssertionError("a lattice join was closed from the identity")

    for G in cayley_corpus():
        want = restart_all_subgroups_reference(G)
        monkeypatch.setattr(fg, "subgroup_closure", restart)
        got = all_subgroups(G)
        normal_subgroups(G)
        monkeypatch.undo()
        assert [(H.indices, H.gen_indices) for H in got] == [
            (H.indices, H.gen_indices) for H in want
        ]


def test_derived_term_stops_at_the_asked_term(monkeypatch):
    import msolv.fingroup as fg

    calls = []

    def counting(G, sub=None):
        calls.append(sub)
        return derived_subgroup(G, sub)

    for G in cayley_corpus():
        series = derived_series(G)
        assert series[-1].order == 1  # the corpus is solvable
        for m in range(len(series) + 2):
            calls.clear()
            monkeypatch.setattr(fg, "derived_subgroup", counting)
            term = derived_term(G, m)
            monkeypatch.undo()
            assert term == series[min(m, len(series) - 1)]
            assert len(calls) == min(m, len(series) - 1)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_whole_group_subgroup_is_one_subgroup(name):
    # full_subgroup holds its indices as a range; closures reach the whole
    # group as a tuple, and the two must be the same subgroup
    G = CORPUS[name]()
    full = G.full_subgroup()
    assert isinstance(full.indices, range)
    for other in (subgroup_closure(G, G.gen_indices), normal_closure(G, G.gen_indices)):
        assert isinstance(other.indices, tuple)
        assert other == full and full == other
        assert hash(other) == hash(full)
        assert len({full, other}) == 1
    assert full != Subgroup(G, (0,), (0,))
    assert derived_term(G, 0) == full
    assert full.element_set == frozenset(range(G.order))
    assert normal_subgroups(G)[-1] == full
    Q, proj = quotient_by(G, full)
    assert Q.order == 1 and proj.images == (0,) * G.order
    T = trivial_group()
    assert T.full_subgroup() == subgroup_closure(T, [])


def test_all_subgroups_counts():
    assert len(all_subgroups(make_s3())) == 6
    assert len(all_subgroups(make_d8())) == 10
    assert len(all_subgroups(make_a4())) == 10
    assert len(all_subgroups(make_s4())) == 30
    for H in all_subgroups(make_d8()):
        # closed under multiplication
        s = H.element_set
        G = H.parent
        assert all(G.mul(a, b) in s for a in H.indices for b in H.indices)


# ------------------------------------------------------------- semidirect


def test_semidirect_s3_from_action():
    C3 = closure([cyc(3, (0, 1, 2))])
    C2 = closure([cyc(2, (0, 1))])
    inv = [C3.power(C3.gen_indices[0], 2)]
    G = semidirect_product(C3, C2, [inv])
    assert G.order == 6
    assert iso_test_small(G, make_s3())


def test_semidirect_trivial_action_is_product():
    C3 = closure([cyc(3, (0, 1, 2))])
    C2 = closure([cyc(2, (0, 1))])
    G = semidirect_product(C3, C2, [[C3.gen_indices[0]]])
    assert G.order == 6
    assert iso_test_small(G, closure([cyc(6, (0, 1, 2, 3, 4, 5))]))


def test_semidirect_rejects_non_automorphism():
    C4 = closure([cyc(4, (0, 1, 2, 3))])
    C2 = closure([cyc(2, (0, 1))])
    with pytest.raises(ValueError):
        semidirect_product(C4, C2, [[C4.power(C4.gen_indices[0], 2)]])


def test_counterexample_structure():
    G = make_counterexample72()
    assert G.order == 72
    assert center(G).order == 1
    assert [s.order for s in derived_series(G)] == [72, 18, 9, 1]
    Q, _ = m_step_quotient(G, 2)
    assert Q.order == 8 and center(Q).order == 2
    assert iso_test_small(Q, make_d8())


# ------------------------------------------------------------- properties


@st.composite
def small_perm_groups(draw):
    degree = draw(st.integers(3, 5))
    k = draw(st.integers(1, 2))
    gens = []
    for _ in range(k):
        imgs = draw(st.permutations(list(range(degree))))
        gens.append(PermElem(tuple(imgs)))
    return closure(gens, cap=200)


@given(small_perm_groups())
@settings(max_examples=40, deadline=None)
def test_random_group_invariants(G):
    series = derived_series(G)
    for a, b in zip(series, series[1:]):
        assert b.order < a.order
        assert a.order % b.order == 0
        assert b.is_normal
    inv = abelian_invariants(G)
    prod = 1
    for d in inv:
        prod *= d
    derived_order = series[1].order if len(series) > 1 else series[0].order
    assert prod == G.order // derived_order


@given(small_perm_groups())
@settings(max_examples=25, deadline=None)
def test_random_quotient_consistency(G):
    Q, proj = m_step_quotient(G, 1)
    assert Q.order == G.order // derived_term(G, 1).order
    gi = Q.gen_indices
    assert all(Q.mul(a, b) == Q.mul(b, a) for a in gi for b in gi)
    assert proj.is_surjective()
