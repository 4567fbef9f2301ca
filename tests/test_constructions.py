"""Tests for the distinguished 72-element construction and the two
arithmetic lemmas that drive it.

The 72-element group is verified against its full structural profile
(orders along the derived series, trivial center, dihedral two-step
quotient with nontrivial center, the failure of conjugation-faithfulness
at the order-18 normal subgroup).  The reduction lemma is checked by
exhausting every matrix with entries in the scalar kernel, and the
block-triangular commutation experiment is run on groups where the
feasible set is known exactly.
"""

import itertools
import random

import pytest

from msolv.constructions import (
    GTildeInstance,
    build_counterexample,
    counterexample_group,
    dihedral_group_8,
    gtilde_experiment,
    reduction_lemma_check,
)
from msolv.errors import PreconditionViolated
from msolv.fingroup import (
    PermElem,
    center,
    closure,
    conj_action_faithful,
    derived_series,
    derived_term,
    iso_test_small,
    m_step_quotient,
    normal_subgroups,
)
from msolv.zmodlin import scalar_kernel, valuation


def cyclic_group(k):
    return closure([PermElem(tuple((i + 1) % k for i in range(k)))])


def s3():
    return closure([PermElem((1, 2, 0)), PermElem((1, 0, 2))])


# ------------------------------------------------- the 72-element bundle


def test_counterexample_profile():
    b = build_counterexample()
    G = b.group
    assert G.order == 72
    assert center(G).order == 1
    orders = [s.order for s in derived_series(G)]
    assert orders == [72, 18, 9, 1]


def test_counterexample_two_step_quotient_is_dihedral():
    b = build_counterexample()
    Q = b.quotient
    assert Q.order == 8
    assert iso_test_small(Q, dihedral_group_8())
    assert center(Q).order == 2
    assert b.quotient_center_order == 2
    assert b.center_order == 1
    assert b.dihedral_witness.is_bijective()


def test_counterexample_bundle_consistency():
    b = build_counterexample()
    Q2, proj = m_step_quotient(b.group, 2)
    assert Q2.order == b.quotient.order
    assert iso_test_small(Q2, b.quotient)
    assert proj.is_surjective()
    assert b.projection.is_surjective()
    assert b.projection.kernel().order == 9


def test_counterexample_ab_faithfulness_breaks_at_18():
    """Conjugation on N^ab is unfaithful exactly at the order-18 subgroup."""
    G = counterexample_group()
    Gp = derived_term(G, 1)  # derived subgroup, order 18
    profile = []
    for N in normal_subgroups(G):
        if not all(x in N.element_set for x in Gp.element_set):
            continue
        ok, _ = conj_action_faithful(G, N)
        profile.append((N.order, ok))
    assert sorted(profile) == [(18, False), (36, True), (36, True), (36, True), (72, True)]


def test_counterexample_center_of_quotient_comes_from_derived_image():
    G = counterexample_group()
    Q, proj = m_step_quotient(G, 2)
    zq = center(Q).element_set
    first_derived_image = {proj(x) for x in derived_term(G, 1).element_set}
    assert zq <= first_derived_image


# ------------------------------------------------------- reduction lemma


def exhaustive_reduction_sweep(ell, sigma, ntilde, u):
    """Every u x u matrix over Z/ell^sigma annihilated by ntilde."""
    mod = ell**sigma
    t = scalar_kernel(ntilde, ell, sigma)
    entries = list(range(0, mod, t)) if t else [0]
    count = 0
    for combo in itertools.product(entries, repeat=u * u):
        rep = reduction_lemma_check(combo, ntilde, ell, sigma)
        assert rep.passed, (ell, sigma, ntilde, combo)
        assert not rep.vacuous
        count += 1
    return count


def test_reduction_lemma_exhaustive_small():
    total = 0
    for ell in (2, 3):
        for sigma in (1, 2, 3):
            for ntilde in range(1, 13):
                if sigma <= valuation(ntilde, ell):
                    continue
                for u in (1, 2):
                    total += exhaustive_reduction_sweep(ell, sigma, ntilde, u)
    assert total > 1000


def test_reduction_lemma_random_larger_matrices():
    rng = random.Random(97)
    done = 0
    while done < 1000:
        ell = rng.choice((2, 3))
        sigma = rng.randrange(1, 4)
        ntilde = rng.randrange(1, 13)
        if sigma <= valuation(ntilde, ell):
            continue
        u = rng.randrange(1, 7)
        mod = ell**sigma
        t = scalar_kernel(ntilde, ell, sigma)
        step = t or mod
        entries = [step * rng.randrange(mod // step) % mod for _ in range(u * u)]
        rep = reduction_lemma_check(entries, ntilde, ell, sigma)
        assert rep.passed and not rep.vacuous
        done += 1


def test_reduction_lemma_vacuous_when_not_annihilated():
    E = (1, 0, 0, 0)
    rep = reduction_lemma_check(E, 3, 3, 2)  # 3 * E != 0 mod 9
    assert rep.passed and rep.vacuous


def test_reduction_lemma_preconditions():
    E = (0,)
    with pytest.raises(PreconditionViolated):
        reduction_lemma_check(E, 0, 2, 3)
    with pytest.raises(PreconditionViolated):
        reduction_lemma_check(E, 8, 2, 3)  # sigma <= ord_2(8)


def test_scalar_kernel_generator_values():
    # unit annihilates nothing; ell^k leaves a kernel of index ell^k
    assert scalar_kernel(1, 3, 2) == 0
    assert scalar_kernel(3, 3, 2) == 3
    assert scalar_kernel(6, 3, 2) == 3  # only the 3-part matters
    assert scalar_kernel(4, 2, 3) == 2
    assert scalar_kernel(12, 2, 3) == 2


# ------------------------------------ block-triangular commutation


def test_gtilde_s3_diagonal_exact():
    G = s3()
    x = G.gen_indices[0]  # 3-cycle
    inst = GTildeInstance(G, x, 1, 3, 2)
    rep = gtilde_experiment(inst)
    assert rep.containment_holds
    assert rep.diagonal_exact
    assert rep.pairs_tested == G.order * G.element_order(x)
    # feasible pairs are exactly (x^k, k)
    s = G.element_order(x)
    expect = sorted((G.power(x, k), k) for k in range(s))
    assert sorted(map(tuple, rep.feasible_pairs)) == expect


def test_gtilde_c6_diagonal_exact():
    G = cyclic_group(6)
    x = G.gen_indices[0]
    inst = GTildeInstance(G, x, 1, 3, 2)
    rep = gtilde_experiment(inst)
    assert rep.containment_holds
    assert rep.diagonal_exact
    assert rep.u == 6 and rep.s == 6


def test_gtilde_sigma_precondition():
    G = s3()
    with pytest.raises(PreconditionViolated):
        GTildeInstance(G, G.gen_indices[0], 3, 3, 1)  # sigma <= ord_3(s*n)
    with pytest.raises(PreconditionViolated):
        GTildeInstance(G, G.gen_indices[0], 0, 3, 2)
