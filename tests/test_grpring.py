"""Tests for group rings over residue rings and the cyclic-tower projections.

Ring axioms are checked on random triples; the scalar-kernel formula is
checked against brute-force enumeration of honest kernels; the kernel
projection sweep runs the full grid of tower levels and twist exponents
for cyclic and group-ring coefficient blocks.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msolv.errors import LevelMismatch, PreconditionViolated, RingMismatch
from msolv.fingroup import FiniteGroup, PermElem, closure
from msolv.grpring import (
    DEFAULT_SIGMA,
    CyclicTower,
    GroupRing,
    RingElem,
    augmentation,
    kernel_projection_check,
    right_mult_matrix,
    sigma_split,
)
from msolv.zmodlin import scalar_kernel


def cyclic_group(k):
    images = tuple((i + 1) % k for i in range(k))
    return closure([PermElem(images)])


def s3():
    return closure([PermElem((1, 2, 0)), PermElem((1, 0, 2))])


# ------------------------------------------------------------- ring axioms


def test_ring_axioms_random_triples():
    rng = random.Random(7)
    for G, mod in [(cyclic_group(4), 9), (s3(), 8), (cyclic_group(3), 25)]:
        R = GroupRing(mod, G)
        for _ in range(70):
            a, b, c = (R.random_elem(rng) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert a + R.zero() == a
            assert a + (-a) == R.zero()
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert (a + b) * c == a * c + b * c
            assert a * R.one() == a and R.one() * a == a


def test_ring_commutative_iff_group_abelian():
    rng = random.Random(3)
    Rc = GroupRing(4, cyclic_group(6))
    for _ in range(40):
        a, b = Rc.random_elem(rng), Rc.random_elem(rng)
        assert a * b == b * a
    Rn = GroupRing(4, s3())
    found = False
    for _ in range(40):
        a, b = Rn.random_elem(rng), Rn.random_elem(rng)
        if a * b != b * a:
            found = True
            break
    assert found


def test_embed_respects_group_law():
    G = s3()
    R = GroupRing(7, G)
    for g in range(G.order):
        for h in range(G.order):
            assert R.embed(g) * R.embed(h) == R.embed(G.mul(g, h))


def test_scale_and_group_translation():
    G = cyclic_group(5)
    R = GroupRing(6, G)
    rng = random.Random(11)
    a = R.random_elem(rng)
    assert a.scale(0) == R.zero()
    assert a.scale(1) == a
    assert a.scale(2) == a + a
    for g in range(5):
        assert a.mul_group_left(g) == R.embed(g) * a
        assert a.mul_group_right(g) == a * R.embed(g)


def test_mixed_modulus_rejected():
    G = cyclic_group(3)
    a = GroupRing(4, G).one()
    b = GroupRing(9, G).one()
    with pytest.raises(RingMismatch):
        a + b


def test_augmentation_is_ring_hom_to_base():
    rng = random.Random(5)
    R = GroupRing(12, s3())
    for _ in range(50):
        a, b = R.random_elem(rng), R.random_elem(rng)
        assert augmentation(a + b) == (augmentation(a) + augmentation(b)) % 12
        assert augmentation(a * b) == (augmentation(a) * augmentation(b)) % 12
    assert augmentation(R.one()) == 1


def test_mul_group_right_rows_realize_left_multiplication():
    # the rows kernel_projection_check reduces: row i is a * q_i
    rng = random.Random(13)
    R = GroupRing(9, s3())
    for _ in range(25):
        a, v = R.random_elem(rng), R.random_elem(rng)
        rows = [a.mul_group_right(i).coeffs for i in range(6)]
        prod = a * v
        # row-vector convention: (v coefficients) . rows = coefficients of a*v
        out = [0] * 6
        for i, c in enumerate(v.coeffs):
            for j in range(6):
                out[j] = (out[j] + c * rows[i][j]) % 9
        assert tuple(out) == prod.coeffs


def test_right_mult_matrix_realizes_right_multiplication():
    rng = random.Random(17)
    R = GroupRing(8, s3())
    for _ in range(25):
        a, v = R.random_elem(rng), R.random_elem(rng)
        M = right_mult_matrix(a)
        prod = v * a
        out = [0] * 6
        for i, c in enumerate(v.coeffs):
            for j in range(6):
                out[j] = (out[j] + c * M.row(i)[j]) % 8
        assert tuple(out) == prod.coeffs


def test_support_and_is_zero():
    R = GroupRing(5, cyclic_group(4))
    z = R.zero()
    assert z.is_zero() and z.support() == ()
    e = R.from_coeffs([0, 3, 0, 1])
    assert e.support() == (1, 3)


@settings(max_examples=60, deadline=None)
@given(
    a=st.lists(st.integers(0, 11), min_size=6, max_size=6),
    b=st.lists(st.integers(0, 11), min_size=6, max_size=6),
    c=st.lists(st.integers(0, 11), min_size=6, max_size=6),
)
def test_ring_axioms_property(a, b, c):
    R = GroupRing(12, s3())
    x, y, z = R.from_coeffs(a), R.from_coeffs(b), R.from_coeffs(c)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert augmentation(x * y) == (augmentation(x) * augmentation(y)) % 12


@settings(max_examples=80, deadline=None)
@given(ntilde=st.integers(1, 200), ell=st.sampled_from((2, 3, 5)), sigma=st.integers(1, 4))
def test_scalar_kernel_property(ntilde, ell, sigma):
    mod = ell**sigma
    t = scalar_kernel(ntilde, ell, sigma)
    # t generates exactly the annihilated residues
    for a in range(mod):
        annihilated = (ntilde * a) % mod == 0
        in_span = (a % t == 0) if t else (a == 0)
        assert annihilated == in_span


# -------------------------------------------------- scalar kernels (oracle)


def brute_scalar_kernel(ntilde, mod):
    return sorted(a for a in range(mod) if (ntilde * a) % mod == 0)


@pytest.mark.parametrize("ell,sigma", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 2)])
def test_scalar_kernel_matches_enumeration(ell, sigma):
    mod = ell**sigma
    for ntilde in range(1, 3 * mod):
        t = scalar_kernel(ntilde, ell, sigma)
        expect = brute_scalar_kernel(ntilde, mod)
        got = sorted(set((t * k) % mod for k in range(mod))) if t else [0]
        assert got == expect, (ntilde, ell, sigma)


def test_sigma_split():
    assert sigma_split(1, DEFAULT_SIGMA) == (1, 1)
    assert sigma_split(12, DEFAULT_SIGMA) == (12, 1)
    assert sigma_split(20, DEFAULT_SIGMA) == (4, 5)
    assert sigma_split(35, frozenset({5})) == (5, 7)
    n_s, rest = sigma_split(360, DEFAULT_SIGMA)
    assert n_s * rest == 360 and rest % 2 and rest % 3


# ------------------------------------------------------------ cyclic tower


def test_tower_levels_and_rings():
    t = CyclicTower(4, [1, 2, 4])
    for N in (1, 2, 4):
        R = t.level_ring(N)
        assert R.group.order == N
        assert R.modulus == 4


def test_tower_projection_is_hom_and_counts_fibres():
    t = CyclicTower(9, [1, 3, 9])
    h = t.projection_hom(9, 3)
    assert h.is_surjective()
    assert h.kernel().order == 3


def test_tower_project_linear_over_base():
    t = CyclicTower(4, [1, 2, 4])
    R9 = t.level_ring(4)
    rng = random.Random(23)
    for _ in range(20):
        a, b = R9.random_elem(rng), R9.random_elem(rng)
        assert t.tower_project(4, 2, a + b) == t.tower_project(4, 2, a) + t.tower_project(4, 2, b)


def test_tower_project_multiplicative():
    t = CyclicTower(8, [1, 2, 4, 8])
    R = t.level_ring(8)
    rng = random.Random(29)
    for _ in range(20):
        a, b = R.random_elem(rng), R.random_elem(rng)
        assert t.tower_project(8, 4, a * b) == t.tower_project(8, 4, a) * t.tower_project(8, 4, b)


# --------------------------------------- kernel projection sweep (primary)


def divisor_pairs(levels):
    out = []
    for M in levels:
        for kM in levels:
            if kM % M == 0 and kM > M:
                out.append((kM, M))
    return out


@pytest.mark.parametrize("modulus", [4, 9])
def test_kernel_projection_full_sweep_cyclic(modulus):
    t = CyclicTower(modulus, [1, 2, 3, 4, 6, 9, 12, 18, 27])
    for n in (1, 2, 3, 6):
        for kM, M in divisor_pairs(t.levels):
            try:
                rep = kernel_projection_check(t, n, kM, M)
            except PreconditionViolated:
                continue
            assert rep.passed, (modulus, n, kM, M)
            assert rep.witness is None


def test_kernel_projection_group_ring_block():
    # coefficient block (Z/9)[C3]: base group C3 alongside the cycle levels
    base = cyclic_group(3)
    t = CyclicTower(9, [1, 3, 9], base=base)
    for n in (1, 2, 3, 6):
        for kM, M in divisor_pairs(t.levels):
            try:
                rep = kernel_projection_check(t, n, kM, M)
            except PreconditionViolated:
                continue
            assert rep.passed, (n, kM, M)


def test_kernel_projection_requires_divisibility():
    t = CyclicTower(4, [1, 2, 4])
    with pytest.raises(LevelMismatch):
        kernel_projection_check(t, 1, 2, 4)  # kM must be the larger level
    with pytest.raises(PreconditionViolated):
        kernel_projection_check(t, 0, 4, 2)  # n must be nonzero
