"""Group rings (Z/n)[Q] and cyclic-algebra towers A[C_N].

Ring elements are dense coefficient vectors indexed by the owning group's
element indices.  Multiplication is the |Q|^2 convolution; kernels are
computed exactly by zmodlin from {col: residue} rows.  The dense
`right_mult_matrix` is kept only for the benchmark's span names.

The tower machinery materializes A[C_N] for A = (Z/n)[H] as the group ring
(Z/n)[H x C_N] and provides the level-collapsing projections used by the
kernel-projection check: at finite level the kernel of multiplication by
x^n - 1 is spanned by coset-constant vectors, and projecting a kernel
generator down a level multiplies its coefficients by the level ratio k.
That containment is the finite shadow of the nonzero-divisor property and
is what gets asserted; the profinite statement itself is false at any
single level and is never claimed.
"""

from __future__ import annotations

from math import gcd
from types import SimpleNamespace
from typing import Optional, Sequence

from .errors import LevelMismatch, PreconditionViolated, RingMismatch
from .fingroup import FiniteGroup, Homomorphism, PermElem, closure, trivial_group

DEFAULT_SIGMA = frozenset({2, 3})


class GroupRing:
    """The group ring (Z/n)[Q] for a fully enumerated finite Q."""

    def __init__(self, modulus: int, group: FiniteGroup):
        if modulus < 2:
            raise ValueError(f"modulus must be >= 2, got {modulus}")
        self.modulus = modulus
        self.group = group
        self.dimension = group.order

    def zero(self) -> "RingElem":
        return RingElem(self, (0,) * self.dimension)

    def one(self) -> "RingElem":
        return self.embed(0)

    def embed(self, element_index: int) -> "RingElem":
        coeffs = [0] * self.dimension
        coeffs[element_index] = 1
        return RingElem(self, tuple(coeffs))

    def from_coeffs(self, coeffs: Sequence[int]) -> "RingElem":
        if len(coeffs) != self.dimension:
            raise RingMismatch(
                f"coefficient vector length {len(coeffs)} != dimension {self.dimension}"
            )
        n = self.modulus
        return RingElem(self, tuple(c % n for c in coeffs))

    def random_elem(self, rng) -> "RingElem":
        return RingElem(
            self, tuple(rng.randrange(self.modulus) for _ in range(self.dimension))
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GroupRing)
            and other.modulus == self.modulus
            and other.group is self.group
        )

    def __hash__(self) -> int:
        return hash((self.modulus, id(self.group)))

    def __repr__(self) -> str:
        return f"GroupRing(Z/{self.modulus}, |Q|={self.dimension})"


class RingElem:
    __slots__ = ("owner", "coeffs")

    def __init__(self, owner: GroupRing, coeffs: tuple):
        self.owner = owner
        self.coeffs = coeffs

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.owner == other.owner and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.owner, self.coeffs))

    def _check(self, other: "RingElem") -> None:
        if other.owner != self.owner:
            raise RingMismatch("elements of different group rings")

    def __add__(self, other: "RingElem") -> "RingElem":
        self._check(other)
        n = self.owner.modulus
        return RingElem(self.owner, tuple((a + b) % n for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "RingElem") -> "RingElem":
        self._check(other)
        n = self.owner.modulus
        return RingElem(self.owner, tuple((a - b) % n for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "RingElem":
        n = self.owner.modulus
        return RingElem(self.owner, tuple(-a % n for a in self.coeffs))

    def scale(self, c: int) -> "RingElem":
        n = self.owner.modulus
        return RingElem(self.owner, tuple((c * a) % n for a in self.coeffs))

    def __mul__(self, other: "RingElem") -> "RingElem":
        self._check(other)
        G = self.owner.group
        n = self.owner.modulus
        out = [0] * self.owner.dimension
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[G.mul(i, j)] += a * b
        return RingElem(self.owner, tuple(c % n for c in out))

    def mul_group_left(self, g: int) -> "RingElem":
        """g * self: a coefficient permutation, no ring convolution."""
        G = self.owner.group
        out = [0] * self.owner.dimension
        for i, a in enumerate(self.coeffs):
            if a:
                out[G.mul(g, i)] = a
        return RingElem(self.owner, tuple(out))

    def mul_group_right(self, g: int) -> "RingElem":
        """self * g as a coefficient permutation."""
        G = self.owner.group
        out = [0] * self.owner.dimension
        for i, a in enumerate(self.coeffs):
            if a:
                out[G.mul(i, g)] = a
        return RingElem(self.owner, tuple(out))

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def support(self) -> tuple:
        return tuple(i for i, a in enumerate(self.coeffs) if a)

    def __repr__(self) -> str:
        terms = [f"{a}*q{i}" for i, a in enumerate(self.coeffs) if a]
        return "RingElem(" + (" + ".join(terms) if terms else "0") + ")"


def augmentation(elem: RingElem) -> int:
    """The coefficient sum, as a canonical residue."""
    return sum(elem.coeffs) % elem.owner.modulus


def right_mult_matrix(elem: RingElem) -> RMatrix:
    """Matrix of right multiplication: v . M = coefficients of a * elem."""
    from .zmodlin import RMatrix

    d = elem.owner.dimension
    rows = [(elem.mul_group_left(i)).coeffs for i in range(d)]
    return RMatrix.from_rows(elem.owner.modulus, rows)


class CyclicTower:
    """Levels A[C_N] for A = (Z/n)[H], with collapsing projections.

    Each level N materializes the group H x C_N (direct product of
    permutation groups) and its group ring over Z/n.  The projection from
    level kM to level M is the linear extension of the group morphism that
    fixes H and sends the C_{kM} generator to the C_M generator.  A base H
    whose elements are not permutations raises PreconditionViolated.
    """

    def __init__(self, modulus: int, levels: Sequence[int], base: Optional[FiniteGroup] = None,
                 sigma: frozenset = DEFAULT_SIGMA):
        self.modulus = modulus
        self.sigma = frozenset(sigma)
        self.base = base if base is not None else trivial_group()
        if not isinstance(self.base.elements[0], PermElem):
            raise PreconditionViolated("the tower's base group must be a permutation group")
        self.levels = sorted(set(int(N) for N in levels))
        if any(N < 1 for N in self.levels):
            raise ValueError("levels must be positive")
        self._groups: dict = {}
        self._rings: dict = {}
        self._cycle_gen: dict = {}

    def _level_group(self, N: int):
        if N not in self._groups:
            if N not in self.levels:
                raise LevelMismatch(f"level {N} not in tower")
            H = self.base
            hdeg = H.elements[0].degree
            gens = []
            for g in H.generators:
                gens.append(_pad_perm(g, hdeg, N))
            if N > 1:
                cyc = PermElem.from_cycles(hdeg + N, [tuple(range(hdeg, hdeg + N))])
            else:
                cyc = PermElem.identity(hdeg + N)
            order = H.order * N
            grp = closure([*gens, cyc] if N > 1 else (gens or [cyc]), cap=order + 1)
            if grp.order != order:
                raise LevelMismatch(f"level {N} has {grp.order} elements, not |H| * {N} = {order}")
            self._groups[N] = grp
            self._cycle_gen[N] = grp.index[cyc] if N > 1 else 0
        return self._groups[N]

    def level_ring(self, N: int) -> GroupRing:
        if N not in self._rings:
            self._rings[N] = GroupRing(self.modulus, self._level_group(N))
        return self._rings[N]

    def projection_hom(self, kM: int, M: int) -> Homomorphism:
        """Group morphism H x C_{kM} -> H x C_M behind the ring projection."""
        if kM not in self.levels or M not in self.levels:
            raise LevelMismatch(f"levels {kM} -> {M} not both present")
        if kM % M:
            raise LevelMismatch(f"{M} does not divide {kM}")
        Gk = self._level_group(kM)
        Gm = self._level_group(M)
        images = []
        for g in Gk.gen_indices:
            if g == self._cycle_gen[kM] and kM > 1:
                images.append(self._cycle_gen[M])
            else:
                # an H generator: same position in the Gm generator list
                pos = Gk.gen_indices.index(g)
                images.append(Gm.gen_indices[pos] if Gm.gen_indices else 0)
        return Homomorphism.from_gen_images(Gk, Gm, images)


    def tower_project(self, kM: int, M: int, y: RingElem) -> RingElem:
        """Collapse a level-kM element to level M by summing over fibers."""
        if y.owner != self.level_ring(kM):
            raise RingMismatch("element does not live at the source level")
        hom = self.projection_hom(kM, M)
        Rm = self.level_ring(M)
        out = [0] * Rm.dimension
        for i, a in enumerate(y.coeffs):
            if a:
                out[hom(i)] += a
        return Rm.from_coeffs(out)


def _pad_perm(p: PermElem, hdeg: int, extra: int) -> PermElem:
    imgs = list(p.images) + [hdeg + i for i in range(extra)]
    if len(p.images) != hdeg:
        raise ValueError("degree mismatch while padding")
    return PermElem(imgs)


def sigma_split(n: int, sigma: frozenset) -> tuple:
    """n = n_sigma * n_sigma' with n_sigma the sigma-primes part."""
    n_s = 1
    rest = abs(n)
    for p in sorted(sigma):
        while rest % p == 0:
            rest //= p
            n_s *= p
    return n_s, rest


def kernel_projection_check(t: CyclicTower, n: int, kM: int, M: int) -> SimpleNamespace:
    """Project the kernel of (x̄^n - 1)· from level kM down to level M.

    Every kernel generator must land inside k·A[C_M] (k = kM/M): kernel
    vectors are constant on cosets of the subgroup generated by x̄^n, and
    the projection sums k coefficients per fiber.  Preconditions mirror the
    sigma-arithmetic that makes the constancy argument apply.
    """
    from .zmodlin import kernel_rows

    if n == 0:
        raise PreconditionViolated("n must be a nonzero integer")
    if kM % M:
        raise LevelMismatch(f"{M} does not divide {kM}")
    k = kM // M
    n_s, _ = sigma_split(n, t.sigma)
    if M % n_s:
        raise PreconditionViolated(f"n_sigma = {n_s} must divide M = {M}")
    for level, label in ((kM, "kM"), (M, "M")):
        rest = level
        for p in sorted(t.sigma):
            while rest % p == 0:
                rest //= p
        if rest != 1:
            raise PreconditionViolated(f"level {label} = {level} is not a sigma-number")
    Rk = t.level_ring(kM)
    Gk = Rk.group
    x_idx = t._cycle_gen[kM]
    xn = Rk.embed(Gk.power(x_idx, n % kM))
    lam = xn - Rk.one()
    # row i is lam * q_i, so v . rows is the coefficient vector of lam * v
    d = Rk.dimension
    rows = [{j: a for j, a in enumerate(lam.mul_group_right(i).coeffs) if a} for i in range(d)]
    kernel, _ = kernel_rows(Rk.modulus, rows, d)
    g = gcd(k, t.modulus)
    witness = None
    passed = True
    for row in kernel:
        coeffs = [0] * d
        for j, a in row.items():
            coeffs[j] = a
        z = t.tower_project(kM, M, Rk.from_coeffs(coeffs))
        if any(c % g for c in z.coeffs):
            passed = False
            witness = {"kernel_row": coeffs, "projection": list(z.coeffs)}
            break
    return SimpleNamespace(
        passed=passed, n=n, kM=kM, M=M, k=k, kernel_rank=len(kernel), witness=witness
    )
