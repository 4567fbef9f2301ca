"""Oracle-backed tests for the exact linear algebra layer over Z/n.

Small shapes are checked exhaustively against brute-force enumeration of
row spans, kernels and solution sets; larger shapes get randomized and
property-based coverage.  Frozen values below were computed by hand or by
the brute-force oracles in this file.  The dense Howell loop that the
sparse-row elimination replaced is kept here as a reference oracle.
Transforms and solutions are read off one Howell form of [M | I]
(`_augmented_howell`), as `fingroup._invert_entries` reads an inverse.
"""

import itertools
import random
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from howell_reference import row_span_size
from msolv import zmodlin
from msolv.crowell import QuotientContext, build_complex
from msolv.errors import DimensionMismatch, RingMismatch, TooLarge
from msolv.fingroup import _flat_mul
from msolv.models import build_solv_model
from msolv.zmodlin import (
    RMatrix,
    ResidueRing,
    _augmented_howell,
    _howell_rows,
    _reduce,
    _rows_of,
    _xgcd,
    howell_form,
    kernel_basis,
    kernel_rows,
    scalar_kernel,
    smith_normal_form_int,
    span_equal,
    valuation,
)

# ---------------------------------------------------------------- oracles


def brute_span(M: RMatrix) -> frozenset:
    """All Z/n combinations of the rows, enumerated outright."""
    n = M.modulus
    vecs = set()
    for coeffs in itertools.product(range(n), repeat=M.rows):
        v = [0] * M.cols
        for c, i in zip(coeffs, range(M.rows)):
            if c:
                v = [(a + c * b) % n for a, b in zip(v, M.row(i))]
        vecs.add(tuple(v))
    return frozenset(vecs)


def brute_left_kernel(M: RMatrix) -> frozenset:
    n = M.modulus
    out = set()
    for x in itertools.product(range(n), repeat=M.rows):
        v = [0] * M.cols
        for c, i in zip(x, range(M.rows)):
            if c:
                v = [(a + c * b) % n for a, b in zip(v, M.row(i))]
        if not any(v):
            out.add(x)
    return frozenset(out)


def brute_solutions(M: RMatrix, b) -> frozenset:
    n = M.modulus
    out = set()
    for x in itertools.product(range(n), repeat=M.rows):
        v = [0] * M.cols
        for c, i in zip(x, range(M.rows)):
            if c:
                v = [(a + c * b2) % n for a, b2 in zip(v, M.row(i))]
        if tuple(v) == tuple(a % n for a in b):
            out.add(x)
    return frozenset(out)


def row_list(M: RMatrix) -> list:
    return [list(M.row(i)) for i in range(M.rows)]


def unit_matrix(n: int, size: int) -> RMatrix:
    return RMatrix.from_rows(n, [[int(i == j) for j in range(size)] for i in range(size)])


def split(M: RMatrix) -> tuple:
    """(form, transform, kernel) of M, read off one Howell form of [M | I]:
    the M-parts and I-parts of its image rows, and its kernel rows."""
    n, c = M.modulus, M.cols
    image, kernel = _augmented_howell(n, _rows_of(M), c)
    form = [{j: a for j, a in row.items() if j < c} for _, row in image]
    transform = [{j - c: a for j, a in row.items() if j >= c} for _, row in image]
    return (
        RMatrix.from_dict_rows(n, form, c),
        RMatrix.from_dict_rows(n, transform, M.rows),
        RMatrix.from_dict_rows(n, [row for _, row in kernel], M.rows),
    )


def solve(M: RMatrix, b) -> tuple:
    """(x with x*M = b over Z/n, or None; the kernel of M): b reduced over
    the form gives its coefficients on the form's rows, and the transform
    turns them into x."""
    n = M.modulus
    H, T, K = split(M)
    form = [(min(row), row) for row in _rows_of(H)]
    coeffs = _reduce(n, form, {j: a % n for j, a in enumerate(b) if a % n})
    if coeffs is None:
        return None, K
    return _flat_mul(n, 1, H.rows, M.rows, coeffs, T.entries), K


def small_matrix_family():
    """A deterministic mix of exhaustive and sampled small matrices."""
    fam = []
    for ents in itertools.product(range(4), repeat=2):
        fam.append(RMatrix.from_rows(4, [list(ents)]))
    for ents in itertools.product(range(4), repeat=4):
        fam.append(RMatrix.from_rows(4, [list(ents[:2]), list(ents[2:])]))
    for a in range(9):
        fam.append(RMatrix.from_rows(9, [[a]]))
    rng = random.Random(20240311)
    for _ in range(60):
        fam.append(
            RMatrix.from_rows(9, [[rng.randrange(9) for _ in range(2)] for _ in range(2)])
        )
    for _ in range(60):
        fam.append(
            RMatrix.from_rows(6, [[rng.randrange(6) for _ in range(3)] for _ in range(2)])
        )
    for _ in range(40):
        fam.append(
            RMatrix.from_rows(8, [[rng.randrange(8) for _ in range(2)] for _ in range(3)])
        )
    return fam


FAMILY = small_matrix_family()


# ----------------------------------------------------------- Howell form


def test_howell_preserves_span_exhaustive():
    for M in FAMILY:
        H = howell_form(M)
        assert brute_span(H) == brute_span(M)


def test_howell_is_canonical_under_span_preserving_changes():
    rng = random.Random(7)
    for M in FAMILY[::3]:
        H = howell_form(M)
        rows = row_list(M)
        rng.shuffle(rows)
        if len(rows) > 1:
            c = rng.randrange(M.modulus)
            rows[0] = [(a + c * b) % M.modulus for a, b in zip(rows[0], rows[1])]
        extra = rng.choice(sorted(brute_span(M)))
        rows.append(list(extra))
        M2 = RMatrix.from_rows(M.modulus, rows, cols=M.cols)
        assert howell_form(M2) == H


def test_howell_idempotent():
    for M in FAMILY[::5]:
        H = howell_form(M)
        if H.rows == 0:
            continue
        assert howell_form(H) == H


def test_howell_transform_recovers_form():
    for M in FAMILY[::2]:
        H = howell_form(M)
        if H.rows == 0:
            continue
        assert split(M)[1].mul(M) == H


def test_howell_span_size_matches_brute():
    for M in FAMILY[::4]:
        assert row_span_size(M.modulus, _rows_of(M)) == len(brute_span(M))


def test_howell_single_entry_example():
    H = howell_form(RMatrix.from_rows(4, [[2]]))
    assert row_list(H) == [[2]]


# ---------------------------------------------------------------- kernel


def test_kernel_matches_brute_exhaustive():
    for M in FAMILY[::2]:
        K = kernel_basis(M)
        assert brute_span(K) == brute_left_kernel(M)


def test_kernel_rows_annihilate():
    for M in FAMILY[::3]:
        K = kernel_basis(M)
        for i in range(K.rows):
            v = [0] * M.cols
            for c, j in zip(K.row(i), range(M.rows)):
                if c:
                    v = [(a + c * b) % M.modulus for a, b in zip(v, M.row(j))]
            assert not any(v)


def test_kernel_examples():
    K = kernel_basis(RMatrix.from_rows(9, [[3]]))
    assert row_list(K) == [[3]]
    K = kernel_basis(unit_matrix(4, 2))
    assert K.rows == 0
    K = kernel_basis(RMatrix.from_rows(4, [[2, 2]]))
    assert row_list(K) == [[2]]


# ----------------------------------------------------------------- solve


def test_solve_scalar_examples():
    x, K = solve(RMatrix.from_rows(4, [[2]]), (2,))
    assert x is not None
    sols = {(x[0] + c * K.entries[0]) % 4 for c in range(4)} if K.rows else {x[0]}
    assert sols == {1, 3}

    x, _ = solve(RMatrix.from_rows(4, [[2]]), (1,))
    assert x is None

    I = unit_matrix(6, 3)
    x, K = solve(I, (4, 5, 1))
    assert x == (4, 5, 1) and K.rows == 0


def test_solve_matches_brute_exhaustive():
    rng = random.Random(99)
    for M in FAMILY[::2]:
        n = M.modulus
        bs = list(itertools.product(range(n), repeat=M.cols))
        if len(bs) > 20:
            bs = rng.sample(bs, 20)
        for b in bs:
            sols = brute_solutions(M, b)
            x, K = solve(M, b)
            if not sols:
                assert x is None
            else:
                assert x in sols
                shifted = {
                    tuple((a + k) % n for a, k in zip(x, v)) for v in brute_span(K)
                }
                assert shifted == sols


# ------------------------------------------------------------ span_equal


def test_span_equal_matches_brute():
    rng = random.Random(5)
    by_shape = {}
    for M in FAMILY:
        by_shape.setdefault((M.modulus, M.cols), []).append(M)
    for group in by_shape.values():
        for _ in range(min(60, len(group) ** 2)):
            A, B = rng.choice(group), rng.choice(group)
            assert span_equal(A, B) == (brute_span(A) == brute_span(B))


def test_span_equal_ring_checks():
    with pytest.raises(RingMismatch):
        span_equal(unit_matrix(4, 2), unit_matrix(9, 2))
    with pytest.raises(DimensionMismatch):
        span_equal(unit_matrix(4, 2), unit_matrix(4, 3))


# ------------------------------------------------------------------- SNF


def minor_gcd(rows, k):
    """gcd of all k x k minors (0 when there are none or all vanish)."""
    nr, nc = len(rows), len(rows[0])
    g = 0
    for rsel in itertools.combinations(range(nr), k):
        for csel in itertools.combinations(range(nc), k):
            g = gcd(g, det_int([[rows[i][j] for j in csel] for i in rsel]))
    return g


def det_int(m):
    if len(m) == 1:
        return m[0][0]
    return sum(
        (-1) ** j * m[0][j] * det_int([r[:j] + r[j + 1 :] for r in m[1:]])
        for j in range(len(m))
    )


def snf_oracle(rows):
    """Invariant factors from determinantal divisors d_k = D_k / D_{k-1}."""
    out = []
    prev = 1
    for k in range(1, min(len(rows), len(rows[0])) + 1):
        dk = minor_gcd(rows, k)
        if dk == 0:
            break
        out.append(dk // prev)
        prev = dk
    return tuple(out)


def test_smith_frozen_examples():
    assert smith_normal_form_int([[2, 0], [0, 3]]) == (1, 6)
    assert smith_normal_form_int([[0, 0, 0, 0]]) == ()
    assert smith_normal_form_int([[1]]) == (1,)


def test_smith_matches_determinantal_divisors():
    rng = random.Random(31337)
    cases = [
        [[0, 0], [0, 0]],
        [[1, 0], [0, 1]],
        [[2, 4], [6, 8]],
        [[4, 0, 0], [0, 6, 0], [0, 0, 10]],
    ]
    for _ in range(80):
        r = rng.randrange(1, 4)
        c = rng.randrange(1, 4)
        cases.append([[rng.randrange(-6, 7) for _ in range(c)] for _ in range(r)])
    for rows in cases:
        got = smith_normal_form_int(rows)
        assert got == snf_oracle(rows), rows


def test_smith_divisibility_chain():
    rng = random.Random(4)
    for _ in range(40):
        rows = [[rng.randrange(-9, 10) for _ in range(3)] for _ in range(3)]
        factors = smith_normal_form_int(rows)
        for a, b in zip(factors, factors[1:]):
            assert b % a == 0


def test_smith_size_guard():
    with pytest.raises(TooLarge):
        smith_normal_form_int([[0] * 65 for _ in range(65)])


# --------------------------------------------------------- scalar kernel


def test_scalar_kernel_frozen_examples():
    assert scalar_kernel(3, 3, 2) == 3
    assert scalar_kernel(6, 2, 3) == 4
    assert scalar_kernel(5, 3, 2) == 0


def test_scalar_kernel_matches_brute():
    for ell in (2, 3, 5):
        for sigma in range(1, 5):
            mod = ell**sigma
            for ntilde in range(0, 31):
                g = scalar_kernel(ntilde, ell, sigma)
                want = {a for a in range(mod) if (a * ntilde) % mod == 0}
                got = {(a * g) % mod for a in range(mod)}
                assert got == want, (ntilde, ell, sigma)


def test_scalar_kernel_of_zero_is_everything():
    assert scalar_kernel(0, 3, 2) == 1


# ------------------------------------------------------- ring primitives


def test_stab_unit_property():
    for n in range(2, 40):
        ring = ResidueRing(n)
        for a in range(n):
            u = ring.stab_unit(a)
            assert gcd(u, n) == 1
            assert (u * a) % n == gcd(a, n) % n


def test_valuation():
    assert valuation(12, 2) == 2
    assert valuation(12, 3) == 1
    assert valuation(7, 2) == 0
    with pytest.raises(ValueError):
        valuation(0, 2)


@pytest.mark.parametrize("p", [1, 0, -2])
def test_valuation_rejects_base_below_2(p):
    # p = 1 used to divide forever
    with pytest.raises(ValueError):
        valuation(12, p)


def test_rmatrix_shape_checks():
    with pytest.raises(DimensionMismatch):
        unit_matrix(4, 2).mul(unit_matrix(4, 3).vstack(RMatrix.from_rows(4, [[0, 0, 0]])))
    with pytest.raises(RingMismatch):
        unit_matrix(4, 2).mul(unit_matrix(9, 2))


# ------------------------------------------------------------ properties


@st.composite
def rmatrices(draw, max_rows=4, max_cols=4):
    n = draw(st.sampled_from([2, 3, 4, 5, 6, 8, 9, 12]))
    r = draw(st.integers(1, max_rows))
    c = draw(st.integers(1, max_cols))
    ents = draw(st.lists(st.integers(0, n - 1), min_size=r * c, max_size=r * c))
    return RMatrix.from_rows(n, [ents[i * c : (i + 1) * c] for i in range(r)])


@given(rmatrices())
@settings(max_examples=80, deadline=None)
def test_howell_properties_random(M):
    # mutual span containment, no brute force needed: the transform puts
    # H's rows in the span of M, and each row of M reduces to zero over
    # the Howell rows of H
    n = M.modulus
    H = howell_form(M)
    if H.rows:
        assert split(M)[1].mul(M) == H
        assert howell_form(H) == H
    form = _howell_rows(n, _rows_of(H))
    for row in _rows_of(M):
        assert _reduce(n, form, row) is not None


@given(rmatrices())
@settings(max_examples=80, deadline=None)
def test_howell_split_of_augmented_form_random(M):
    # one Howell form of [M | I] carries the form of M, its transform and
    # the kernel; |row span| * |kernel| = n^rows checks that none is short
    form, T, K = split(M)
    assert form == howell_form(M)
    assert T.mul(M) == form
    assert not any(K.mul(M).entries)
    n = M.modulus
    assert row_span_size(n, _rows_of(form)) * row_span_size(n, _rows_of(K)) == n**M.rows


@given(
    st.integers(2, 12),
    st.integers(0, 4),
    st.integers(0, 4),
    st.integers(0, 4),
    st.data(),
)
@settings(max_examples=80, deadline=None)
def test_mul_matches_the_entrywise_definition(n, rows, inner, cols, data):
    # mostly-zero entries, as in the kernel coefficients the product skips
    entry = st.sampled_from([0, 0, 0, 1, n - 1, n // 2])
    a = data.draw(st.lists(st.lists(entry, min_size=inner, max_size=inner), min_size=rows, max_size=rows))
    b = data.draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=inner, max_size=inner))
    product = RMatrix.from_rows(n, a, cols=inner).mul(RMatrix.from_rows(n, b, cols=cols))
    assert (product.rows, product.cols) == (rows, cols)
    for i in range(rows):
        for k in range(cols):
            want = sum(a[i][j] * b[j][k] for j in range(inner)) % n
            assert product.entries[i * cols + k] == want


def test_mul_through_an_empty_inner_dimension():
    assert RMatrix(5, 2, 0, ()).mul(RMatrix(5, 0, 3, ())) == RMatrix(5, 2, 3, (0,) * 6)
    assert kernel_basis(RMatrix(4, 0, 2, ())) == RMatrix(4, 0, 0, ())


@given(rmatrices())
@settings(max_examples=60, deadline=None)
def test_kernel_annihilates_random(M):
    K = kernel_basis(M)
    for i in range(K.rows):
        v = [0] * M.cols
        for c, j in zip(K.row(i), range(M.rows)):
            if c:
                v = [(a + c * b) % M.modulus for a, b in zip(v, M.row(j))]
        assert not any(v)


@given(rmatrices(max_rows=3, max_cols=3), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_solve_feasibility_random(M, seed):
    rng = random.Random(seed)
    # right-hand sides built from the row span are always feasible
    coeffs = [rng.randrange(M.modulus) for _ in range(M.rows)]
    b = [0] * M.cols
    for c, i in zip(coeffs, range(M.rows)):
        if c:
            b = [(a + c * e) % M.modulus for a, e in zip(b, M.row(i))]
    x, _ = solve(M, b)
    assert x is not None
    v = [0] * M.cols
    for c, i in zip(x, range(M.rows)):
        if c:
            v = [(a + c * e) % M.modulus for a, e in zip(v, M.row(i))]
    assert v == b


# ------------------------------------------- the dense elimination as oracle


def dense_howell_reference(M: RMatrix) -> RMatrix:
    """The dense Howell loop that preceded the sparse-row elimination,
    kept verbatim (first nonzero row as pivot, a 2x2 combine for every row
    below, every row operation over the full width)."""
    n = M.modulus
    ring = ResidueRing(n)
    work = [list(M.row(i)) for i in range(M.rows)]

    def combine(i: int, k: int, col: int) -> None:
        # unimodular 2x2 transform making work[k][col] = 0
        a, b = work[i][col], work[k][col]
        if b == 0:
            return
        if a == 0:
            work[i], work[k] = work[k], work[i]
            return
        g, s, t = _xgcd(a, b)
        p, q = -(b // g), a // g
        wi, wk = work[i], work[k]
        work[i] = [(s * x + t * y) % n for x, y in zip(wi, wk)]
        work[k] = [(p * x + q * y) % n for x, y in zip(wi, wk)]

    r = 0
    for col in range(M.cols):
        if r >= len(work):
            break
        pivot_row = None
        for k in range(r, len(work)):
            if work[k][col]:
                pivot_row = k
                break
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        for k in range(r + 1, len(work)):
            combine(r, k, col)
        u = ring.stab_unit(work[r][col])
        if u != 1:
            work[r] = [(u * x) % n for x in work[r]]
        p = work[r][col]
        for k in range(r):
            q = work[k][col] // p
            if q:
                work[k] = [(x - q * y) % n for x, y in zip(work[k], work[r])]
        ann = n // p
        if ann != 1 and ann != n:
            arow = [(ann * x) % n for x in work[r]]
            if any(arow):
                work.append(arow)
        r += 1

    return RMatrix.from_rows(n, [row for row in work if any(row)], cols=M.cols)


def augmented(M: RMatrix) -> RMatrix:
    """[M | I] as a dense matrix."""
    return RMatrix.from_rows(
        M.modulus,
        [list(M.row(i)) + [int(i == j) for j in range(M.rows)] for i in range(M.rows)],
        cols=M.cols + M.rows,
    )


def random_sparse(rng: random.Random, n: int) -> RMatrix:
    """A sparse matrix up to 30 x 45 whose columns are empty, all units, all
    non-units, or a mix of both."""
    rows, cols = rng.randint(1, 30), rng.randint(1, 45)
    units = [a for a in range(1, n) if gcd(a, n) == 1]
    nonunits = [a for a in range(1, n) if gcd(a, n) != 1] or units
    density = rng.choice((0.05, 0.1, 0.25))
    ents = [[0] * cols for _ in range(rows)]
    for j in range(cols):
        pool = rng.choice(([], units, nonunits, units + nonunits, units + nonunits))
        for i in range(rows):
            if pool and rng.random() < density:
                ents[i][j] = rng.choice(pool)
    return RMatrix.from_rows(n, ents, cols=cols)


def test_sparse_howell_matches_dense_reference(monkeypatch):
    # both the one-row update and the 2x2 combine must have run
    calls = {"_axpy": 0, "_lin": 0}
    for name in calls:
        real = getattr(zmodlin, name)

        def counted(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(zmodlin, name, counted)
    rng = random.Random(8)
    moduli = (4, 6, 8, 9, 12, 13, 27)
    for case in range(504):
        M = random_sparse(rng, moduli[case % len(moduli)])
        assert howell_form(M) == dense_howell_reference(M), (case, M)
        if case % 4 == 0:
            c = M.cols
            full = row_list(dense_howell_reference(augmented(M)))
            lead = [r for r in full if any(r[:c])]
            tail = [r for r in full if not any(r[:c])]
            expect = (
                RMatrix.from_rows(M.modulus, [r[:c] for r in lead], cols=c),
                RMatrix.from_rows(M.modulus, [r[c:] for r in lead], cols=M.rows),
                RMatrix.from_rows(M.modulus, [r[c:] for r in tail], cols=M.rows),
            )
            assert split(M) == expect, case
    assert calls["_axpy"] and calls["_lin"]


def test_kernel_rows_are_the_howell_form_of_the_kernel(monkeypatch):
    # seeded random dict rows: the kernel rows are the Howell form of ker M
    # (a second Howell pass returns them unchanged), their pivot product is
    # |ker M|, which is also n^rows / |row span of M| (by row_span_size of
    # M's rows and of its dense Howell form), and they are the dense loop's
    # kernel part of [M | I]; neither helper changes M's rows; the
    # composite moduli must have run the 2x2 combine
    combines = {}
    real = zmodlin._lin

    def counted(*args):
        combines[args[0]] = combines.get(args[0], 0) + 1
        return real(*args)

    monkeypatch.setattr(zmodlin, "_lin", counted)
    rng = random.Random(28)
    moduli = (2, 4, 6, 8, 9, 12, 13, 27)
    for case in range(160):
        n = moduli[case % len(moduli)]
        M = random_sparse(rng, n)
        rows = _rows_of(M)
        kernel, size = kernel_rows(n, rows, M.cols)
        span = row_span_size(n, rows)
        assert rows == _rows_of(M), case
        K = RMatrix.from_dict_rows(n, kernel, M.rows)
        assert K == kernel_basis(M), case
        assert howell_form(K) == K, case
        assert size == row_span_size(n, kernel), case
        assert span == row_span_size(n, _rows_of(howell_form(M))), case
        assert size * span == n**M.rows, case
        if case % 4 == 0:
            c = M.cols
            full = row_list(dense_howell_reference(augmented(M)))
            tail = [r[c:] for r in full if not any(r[:c])]
            assert K == RMatrix.from_rows(n, tail, cols=M.rows), case
    assert combines.get(6) and combines.get(12)


@pytest.mark.parametrize("e", [4, 8, 9, 13])
def test_sparse_howell_matches_dense_reference_on_f_augmented(e):
    # [f | I] of the level-2 complex over W(2, e, 1): the kcap-linear input
    Q = build_solv_model(2, e, 1).group
    f_rows = build_complex(QuotientContext(2, Q, list(Q.gen_indices), e)).f_rows
    FI = augmented(RMatrix.from_dict_rows(e, f_rows, Q.order))
    assert howell_form(FI) == dense_howell_reference(FI)
