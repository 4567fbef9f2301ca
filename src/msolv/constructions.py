"""Explicit constructions: the order-72 counterexample, the matrix
reduction lemma, and the block-triangular centralizer experiment.

The counterexample is the affine group (C3 x C3) x| D8 acting on the nine
points of F_3^2, where the D8 generators act linearly by

    r -> [[0, -1], [1, 0]],    s -> [[1, 0], [0, -1]]   (mod 3).

Its center is trivial while its maximal 2-step solvable quotient is D8,
whose center is not — the motivating failure of center-freeness.

The block experiment works in the group of matrices [[A, B], [0, C]] with
A in the regular image of a finite group G, B arbitrary over Z/l^sigma and
C a power of rho(x).  The full group is astronomically large (it contains
l^(sigma*u^2) translations), so it is never enumerated: commutation with
psi(x)^n = [[X^n, nX^n], [0, X^n]] is decided pairwise in (A, C) with the
B-block existence question delegated to exact linear algebra.
"""

from __future__ import annotations

from typing import Sequence

from .errors import PreconditionViolated, VerdictFailed
from .fingroup import (
    FiniteGroup,
    Homomorphism,
    PermElem,
    center,
    closure,
    find_isomorphism,
    m_step_quotient,
)


# ----------------------------------------------------------- counterexample


class CounterexampleBundle:
    def __init__(self, group: FiniteGroup, quotient: FiniteGroup, projection: Homomorphism,
                 dihedral_witness: Homomorphism, center_order: int, quotient_center_order: int):
        self.group = group
        self.quotient = quotient
        self.projection = projection
        self.dihedral_witness = dihedral_witness
        self.center_order = center_order
        self.quotient_center_order = quotient_center_order


def _affine_perm(mat, vec) -> PermElem:
    """x -> mat.x + vec on F_3^2; points indexed 3*x0 + x1."""
    images = [0] * 9
    for x0 in range(3):
        for x1 in range(3):
            y0 = (mat[0][0] * x0 + mat[0][1] * x1 + vec[0]) % 3
            y1 = (mat[1][0] * x0 + mat[1][1] * x1 + vec[1]) % 3
            images[3 * x0 + x1] = 3 * y0 + y1
    return PermElem(images)


def counterexample_group() -> FiniteGroup:
    """(C3 x C3) x| D8 on the 9 points of F_3^2, generators t1, t2, r, s."""
    ident = [[1, 0], [0, 1]]
    t1 = _affine_perm(ident, (1, 0))
    t2 = _affine_perm(ident, (0, 1))
    r = _affine_perm([[0, -1], [1, 0]], (0, 0))
    s = _affine_perm([[1, 0], [0, -1]], (0, 0))
    return closure([t1, t2, r, s], cap=73)


def dihedral_group_8() -> FiniteGroup:
    return closure([PermElem.from_cycles(4, [(0, 1, 2, 3)]), PermElem.from_cycles(4, [(1, 3)])])


def build_counterexample() -> CounterexampleBundle:
    """Materialize the counterexample and verify its invariants outright."""
    G = counterexample_group()
    if G.order != 72:
        raise VerdictFailed(f"the counterexample group has order {G.order}, not 72")
    Z = center(G)
    if Z.order != 1:
        raise VerdictFailed("the counterexample group must be center-free")
    Q, proj = m_step_quotient(G, 2)
    ZQ = center(Q)
    if ZQ.order == 1:
        raise VerdictFailed("its 2-step quotient must fail center-freeness")
    witness = find_isomorphism(Q, dihedral_group_8())
    if witness is None:
        raise VerdictFailed("the 2-step quotient must be dihedral of order 8")
    return CounterexampleBundle(
        group=G,
        quotient=Q,
        projection=proj,
        dihedral_witness=witness,
        center_order=Z.order,
        quotient_center_order=ZQ.order,
    )


# --------------------------------------------------------- reduction lemma


class ReductionReport:
    def __init__(self, passed: bool, vacuous: bool):
        self.passed = passed
        self.vacuous = vacuous

    def __bool__(self) -> bool:
        return self.passed


def reduction_lemma_check(E: Sequence[int], ntilde: int, ell: int, sigma: int) -> ReductionReport:
    """If ntilde * E = 0 over Z/ell^sigma then E reduces to 0 mod ell.

    E is the flat sequence of a matrix's entries; neither test depends on
    the shape.  Instances with ntilde * E != 0 are outside the lemma's
    hypothesis and are reported vacuous (passed, vacuous=True).
    """
    from .zmodlin import valuation

    if ntilde == 0:
        raise PreconditionViolated("ntilde must be nonzero")
    if sigma < 1 or sigma <= valuation(ntilde, ell):
        raise PreconditionViolated(
            f"need sigma > ord_{ell}({ntilde}) = {valuation(ntilde, ell)}, got {sigma}"
        )
    mod = ell**sigma
    if any(ntilde * a % mod for a in E):
        return ReductionReport(passed=True, vacuous=True)
    return ReductionReport(passed=all(a % ell == 0 for a in E), vacuous=False)


# -------------------------------------------------------- block experiment


class GTildeInstance:
    """Parameters of the block-triangular centralizer experiment."""

    def __init__(self, group: FiniteGroup, x_index: int, n: int, ell: int, sigma: int):
        from .zmodlin import valuation

        if n < 1:
            raise PreconditionViolated("n must be a positive integer")
        s = group.element_order(x_index)
        if sigma <= valuation(s * n, ell):
            raise PreconditionViolated(f"need sigma > ord_{ell}(s*n) = {valuation(s * n, ell)}")
        self.group = group
        self.x_index = x_index
        self.n = n
        self.ell = ell
        self.sigma = sigma

    @property
    def s(self) -> int:
        return self.group.element_order(self.x_index)

    @property
    def u(self) -> int:
        return self.group.order


class GTildeReport:
    def __init__(self, u: int, s: int, n: int, ell: int, sigma: int, pairs_tested: int,
                 feasible_pairs: list, containment_holds: bool, diagonal_exact: bool):
        self.u = u
        self.s = s
        self.n = n
        self.ell = ell
        self.sigma = sigma
        self.pairs_tested = pairs_tested
        self.feasible_pairs = feasible_pairs  # (element index of A's group element, power k of x)
        self.containment_holds = containment_holds  # every feasible pair has A = C
        self.diagonal_exact = diagonal_exact  # feasible set == {(x^k, k)}


def gtilde_experiment(inst: GTildeInstance) -> GTildeReport:
    """Decide, pair by pair, which [[A, B], [0, C]] commute with psi(x)^n.

    A ranges over the regular image of G, C over powers of rho(x).  The
    commutation condition splits into (i) A X^n = X^n A and (ii) existence
    of B with B X^n - X^n B = n (X^n C - A X^n); (ii) is a linear system
    over Z/ell^sigma in the u^2 entries of B, whose matrix L is put in
    Howell form once for all pairs.
    """
    from .zmodlin import _howell_rows, _reduce

    G = inst.group
    u = G.order
    n_int = inst.n
    mod = inst.ell**inst.sigma
    x = inst.x_index
    xn = G.power(x, n_int)
    # left-translation permutations stand in for the regular matrices
    perm_xn = tuple(G.mul(xn, j) for j in range(u))

    # L, the matrix of B -> B X^n - X^n B over the flat basis (i, j) -> i*u + j,
    # as sparse rows.  X^n is the permutation matrix of perm_xn (column j has
    # its 1 in row perm_xn[j]), so E_ij X^n = E_(i, perm_xn^-1(j)) and
    # X^n E_ij = E_(perm_xn(i), j): two entries per row, which cancel when
    # they meet.
    inv_perm = [0] * u
    for j in range(u):
        inv_perm[perm_xn[j]] = j
    rows = []
    for i in range(u):
        for j in range(u):
            plus, minus = i * u + inv_perm[j], perm_xn[i] * u + j
            rows.append({plus: 1, minus: mod - 1} if plus != minus else {})
    # one Howell form of L decides every right-hand side
    form = _howell_rows(mod, rows)

    s = inst.s
    feasible = []
    tested = 0
    for a in range(u):
        if G.mul(a, xn) != G.mul(xn, a):
            # A X^n != X^n A: no B-block can repair the diagonal
            tested += s
            continue
        for k in range(s):
            tested += 1
            c = G.power(x, k)
            # n (X^n C - A X^n); the permutation matrices of g and h share
            # no entry unless g == h
            g, h = G.mul(xn, c), G.mul(a, xn)
            rhs = {}
            if g != h and n_int % mod:
                for j in range(u):
                    rhs[G.mul(g, j) * u + j] = n_int % mod
                    rhs[G.mul(h, j) * u + j] = -n_int % mod
            if _reduce(mod, form, rhs) is not None:
                feasible.append((a, k))
    diag = {(G.power(x, k), k) for k in range(s)}
    feas_set = set(feasible)
    containment = all(a == G.power(x, k) for a, k in feasible)
    return GTildeReport(
        u=u,
        s=s,
        n=n_int,
        ell=inst.ell,
        sigma=inst.sigma,
        pairs_tested=tested,
        feasible_pairs=sorted(feasible),
        containment_holds=containment,
        diagonal_exact=feas_set == diag,
    )
