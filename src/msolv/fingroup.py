"""Finite group engine.

Groups are materialized completely: a FiniteGroup is an indexed sequence
of elements (index 0 = identity) enumerated by breadth-first closure from its
generators, plus the (element, generator) product table built during the
enumeration, held as one flat row-major `array('i')`.  No Schreier-Sims, no
coset enumeration: every target in this package is desk-scale and exactness
matters more than asymptotics.

Elements are immutable hashable objects with `*`, `inverse()`, equality and
hashing; two variants are provided here (permutations and invertible
matrices over Z/n) and other modules may supply their own (block matrices
over group rings) as long as they honor the same protocol.

Quotient groups are again FiniteGroup values: their elements are canonical
coset representatives (minimal element index in the parent) and their
multiplication law composes in the parent and re-canonicalizes.

Groups of order at most CAYLEY_LIMIT multiply element indices through a
Cayley table of ints, built on the first `mul`/`inv` call from the
generator table alone, with no element product.  The table holds order**2
int references, about 2 MB at the limit; above it, `mul` and `inv` keep
multiplying elements, so the order-531441 models never allocate one.
Subgroup closures and normal-subgroup lattices of the small corpus groups
spend nearly all their time in `mul`, which the table turns from an element
product, a hash and a lookup into two subscripts.  The brute-force
`centralizer` never reads the table: it multiplies elements through the law.
"""

from __future__ import annotations

from array import array
from operator import countOf
from types import SimpleNamespace
from typing import Iterable, Iterator, Optional, Sequence

from .errors import (
    DEFAULT_CAP,
    CapExceeded,
    IndexOutOfRange,
    MixedVariant,
    NotHomomorphism,
    NotNormal,
    NotSurjective,
    TooLarge,
    VerdictFailed,
)

# largest coordinate space a packed enumeration may index by one flat
# array: its slots and coordinates are array('i') values.  A whole model
# level past it is refused (`models.build_solv_model`).
COORD_LIMIT = 2**31 - 1
# largest order that gets a Cayley table; see the module docstring
CAYLEY_LIMIT = 512


class PermElem:
    """A permutation of {0..d-1}; (p*q)(x) = p(q(x))."""

    __slots__ = ("images",)

    def __init__(self, images: Sequence[int]):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"not a bijection on 0..{len(images)-1}: {images}")
        object.__setattr__(self, "images", images)

    @property
    def degree(self) -> int:
        return len(self.images)

    @staticmethod
    def identity(degree: int) -> "PermElem":
        return PermElem(range(degree))

    @staticmethod
    def from_cycles(degree: int, cycles: Sequence[Sequence[int]]) -> "PermElem":
        images = list(range(degree))
        for cyc in cycles:
            for a in cyc:
                if not 0 <= a < degree:
                    raise ValueError(f"point {a} out of range for degree {degree}")
            for i, a in enumerate(cyc):
                images[a] = cyc[(i + 1) % len(cyc)]
        # building from disjoint cycles only; overlapping cycles would not
        # compose the way the notation promises
        seen = [a for cyc in cycles for a in cyc]
        if len(seen) != len(set(seen)):
            raise ValueError("cycles are not disjoint")
        return PermElem(images)

    @staticmethod
    def _trusted(images: tuple) -> "PermElem":
        """Wrap images already known to be a bijection, unchecked: products
        and inverses of permutations are, so only parsed input pays for
        the check in __init__."""
        p = object.__new__(PermElem)
        p.images = images
        return p

    def __mul__(self, other: "PermElem") -> "PermElem":
        if len(self.images) != len(other.images):
            raise MixedVariant("permutation degrees differ")
        s = self.images
        return PermElem._trusted(tuple([s[i] for i in other.images]))

    def inverse(self) -> "PermElem":
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images):
            inv[j] = i
        return PermElem._trusted(tuple(inv))

    def __call__(self, point: int) -> int:
        return self.images[point]

    def __eq__(self, other) -> bool:
        return isinstance(other, PermElem) and other.images == self.images

    def __hash__(self) -> int:
        return hash(("perm", self.images))

    def cycle_string(self) -> str:
        seen = set()
        parts = []
        for a in range(len(self.images)):
            if a in seen or self.images[a] == a:
                continue
            cyc = [a]
            seen.add(a)
            b = self.images[a]
            while b != a:
                cyc.append(b)
                seen.add(b)
                b = self.images[b]
            parts.append("(" + " ".join(map(str, cyc)) + ")")
        return "".join(parts) if parts else "()"

    def __repr__(self) -> str:
        return f"PermElem[{self.cycle_string()}]"


class MatElem:
    """An invertible square matrix over Z/n.

    The explicit inverse is the invertibility witness; it is computed once
    (via the Howell form of [M | I]) at construction and composed, not
    recomputed, under multiplication.
    """

    __slots__ = ("modulus", "size", "entries", "inv_entries")

    def __init__(self, modulus: int, entries: Sequence[int], _inv: Optional[tuple] = None):
        size = int(round(len(entries) ** 0.5))
        if size * size != len(entries):
            raise ValueError("matrix entries must form a square")
        entries = tuple(a % modulus for a in entries)
        self.modulus = modulus
        self.size = size
        self.entries = entries
        if _inv is None:
            _inv = _invert_entries(modulus, size, entries)
        self.inv_entries = _inv

    @staticmethod
    def identity(modulus: int, size: int) -> "MatElem":
        ent = tuple(1 if i == j else 0 for i in range(size) for j in range(size))
        return MatElem(modulus, ent, _inv=ent)

    @staticmethod
    def from_rows(modulus: int, rows: Sequence[Sequence[int]]) -> "MatElem":
        return MatElem(modulus, [a for r in rows for a in r])

    def rows(self) -> list:
        s = self.size
        return [list(self.entries[i * s : (i + 1) * s]) for i in range(s)]

    def __mul__(self, other: "MatElem") -> "MatElem":
        if not isinstance(other, MatElem):
            return NotImplemented
        if self.modulus != other.modulus or self.size != other.size:
            raise MixedVariant("matrix rings differ")
        n, k = self.modulus, self.size
        prod = _flat_mul(n, k, k, k, self.entries, other.entries)
        inv = _flat_mul(n, k, k, k, other.inv_entries, self.inv_entries)
        return MatElem(self.modulus, prod, _inv=inv)

    def inverse(self) -> "MatElem":
        return MatElem(self.modulus, self.inv_entries, _inv=self.entries)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MatElem)
            and other.modulus == self.modulus
            and other.entries == self.entries
        )

    def __hash__(self) -> int:
        return hash(("mat", self.modulus, self.entries))

    def __repr__(self) -> str:
        return f"MatElem(mod {self.modulus}, {self.rows()})"


def _flat_mul(n: int, rows: int, inner: int, cols: int, a: Sequence[int], b: Sequence[int]) -> tuple:
    """Row-major entries of the product over Z/n of row-major a (rows x inner)
    and b (inner x cols), in row-axpy order: row i of the product sums
    a[i, j] * (row j of b) over the nonzero a[i, j] only, so a zero entry
    of a costs one test."""
    b_rows = [b[j * cols:(j + 1) * cols] for j in range(inner)]
    out = []
    for i in range(rows):
        acc = [0] * cols
        for x, b_row in zip(a[i * inner:(i + 1) * inner], b_rows):
            if x:
                acc = [s + x * y for s, y in zip(acc, b_row)]
        out.extend(s % n for s in acc)
    return tuple(out)


def _invert_entries(n: int, size: int, entries: tuple) -> tuple:
    from .zmodlin import _augmented_howell

    # M is invertible iff its Howell form, the M-parts of the image rows of
    # [M | I], is the unit rows; their I-parts are then M^-1
    rows = [{j: a for j, a in enumerate(entries[i * size : (i + 1) * size]) if a}
            for i in range(size)]
    image, _ = _augmented_howell(n, rows, size)
    units = [{i: 1} for i in range(size)]
    if [{j: a for j, a in row.items() if j < size} for _, row in image] != units:
        raise ValueError(f"matrix not invertible over Z/{n}")
    return tuple(row.get(size + j, 0) for _, row in image for j in range(size))


class _DirectLaw:
    """Multiplication law of honestly-represented elements."""

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        return a.inverse()


class _CosetLaw:
    """Law of a quotient group: compose in the parent, re-canonicalize."""

    def __init__(self, parent: "FiniteGroup", rep_map: dict):
        self.parent = parent
        self.rep_map = rep_map  # parent element index -> representative index

    def mul(self, a, b):
        p = self.parent
        k = p.index[p.law.mul(a, b)]
        return p.elements[self.rep_map[k]]

    def inv(self, a):
        p = self.parent
        k = p.index[p.law.inv(a)]
        return p.elements[self.rep_map[k]]


class FiniteGroup:
    """A fully enumerated finite group.

    Fields: `elements` (index 0 is the identity; a list, or for a whole
    packed Magnus level one flat array of its packed ints, 4 bytes each
    when they fit (see `_bfs`), so read it only by index, slice or
    iteration), `index` (element -> index: a dict, or for a packed Magnus
    level the `_CoordinateIndex` that finds an element by its co-tree
    coordinate, a remainder of the packed int; both support [], `get` and
    `in`), `generators` / `gen_indices`, and
    `gen_table`, one flat row-major `array('i')` of order x ngens ints with
    gen_table[i * ngens + g] = index of elements[i] * generators[g], 4 bytes
    per edge and no object per row.

    `mul` and `inv` work on indices.  At order <= CAYLEY_LIMIT they read a
    Cayley table built on their first call; it costs order**2 int
    references, which is why larger groups multiply elements instead.
    """

    def __init__(self, elements, index, generators, gen_table, law):
        self.elements = elements
        self.index = index
        self.generators = list(generators)
        self.gen_table = gen_table
        self.law = law
        self.identity_index = 0
        self.gen_indices = [index[g] for g in self.generators]
        self._order_cache: dict = {}
        # Cayley table: _cols[j][i] = index of elements[i] * elements[j]
        self._cols: Optional[list] = None
        self._invs: Optional[list] = None

    @property
    def order(self) -> int:
        return len(self.elements)

    def mul(self, i: int, j: int) -> int:
        cols = self._cols
        if cols is None:
            if len(self.elements) > CAYLEY_LIMIT:
                return self.index[self.law.mul(self.elements[i], self.elements[j])]
            cols = self._build_cayley()
        return cols[j][i]

    def inv(self, i: int) -> int:
        if self._invs is None:
            if len(self.elements) > CAYLEY_LIMIT:
                return self.index[self.law.inv(self.elements[i])]
            self._build_cayley()
        return self._invs[i]

    def _build_cayley(self) -> list:
        """Fill the Cayley table from gen_table along the BFS tree.

        If k was first reached as elements[p] * generators[g], then
        a * k = (a * p) * g, so column k is column p pushed through
        generator g's column of gen_table.  The inverse of k is the row
        where column k holds the identity.
        """
        n = len(self.elements)
        table = self.gen_table
        ng = len(self.generators)
        # by_gen[g][a] = index of a * generators[g]; tuples hand back their
        # ints where an array would box a new one per subscript
        by_gen = [tuple(table[g::ng]) for g in range(ng)]
        cols = [tuple(range(n))]
        for pos in _tree_edges(table):
            p, g = divmod(pos, ng)
            cols.append(tuple(map(by_gen[g].__getitem__, cols[p])))
        self._invs = [col.index(0) for col in cols]
        self._cols = cols
        return cols

    def conj(self, i: int, by: int) -> int:
        """Index of by * i * by^{-1}."""
        return self.mul(self.mul(by, i), self.inv(by))

    def power(self, i: int, k: int) -> int:
        if k < 0:
            return self.power(self.inv(i), -k)
        acc = 0
        base = i
        while k:
            if k & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            k >>= 1
        return acc

    def element_order(self, i: int) -> int:
        cached = self._order_cache.get(i)
        if cached:
            return cached
        k, j = 1, i
        while j != 0:
            j = self.mul(j, i)
            k += 1
        self._order_cache[i] = k
        return k

    def full_subgroup(self) -> "Subgroup":
        # a range, not a tuple: on W(2,3,2) a tuple would box 531,441 ints
        return Subgroup(self, range(self.order), tuple(self.gen_indices))

    def element_order_profile(self) -> tuple:
        return tuple(sorted(self.element_order(i) for i in range(self.order)))

    def __repr__(self) -> str:
        return f"FiniteGroup(order={self.order}, gens={len(self.generators)})"


def _check_variant(gens: Sequence) -> None:
    kinds = set()
    for g in gens:
        if isinstance(g, PermElem):
            kinds.add(("perm", g.degree))
        elif isinstance(g, MatElem):
            kinds.add(("mat", g.modulus, g.size))
        else:
            kinds.add(("custom", type(g).__name__))
    if len(kinds) > 1:
        raise MixedVariant(f"generators mix variants: {sorted(kinds)}")


def _bfs(gens: Sequence, identity, law, cap: int):
    """Breadth-first enumeration from `identity` by right products with `gens`.

    Returns (elements, index, gen_table, complete), elements a list or,
    for a whole packed level, a flat array, and gen_table flat and
    row-major as in FiniteGroup, one int appended per edge.  The
    enumeration stops as soon as an element past the first `cap` turns up,
    with complete False and exactly `cap` elements; gen_table then holds
    every edge taken before that one, so its last row may be partial.

    A law with `step_rows` (the packed Magnus law), enumerated over its own
    `generators`, has its generator step run inline here rather than by a
    `law.mul` call per edge: row q of the table holds one (delta, e*w,
    (e-1)*w) per generator for the elements a with a % base == q, and the
    product is a + delta, less e*w when a % (e*w) >= (e-1)*w.  Same
    products in the same order, so the same enumeration.  Its index is a
    `_CoordinateIndex`: the element with remainder c mod `size` sits at
    slots[c].  When the law's co-tree coordinate space fits under the cap
    and `COORD_LIMIT`, as it does for every complete model level, `size`
    is `law.coord_size`, the slots are one flat array('i'), -1 where
    empty, and the elements one flat array('I') of 4-byte unsigned ints
    with no object per element.  4 bytes hold every packed value, which
    is below `law.end`, on every level that `COORD_LIMIT` admits: the
    largest end among them is W(2,3,2)'s 9 * 3^18 < 2^32, and a level-1
    law has end = coord_size (tests/test_crowell.py checks every level).
    Otherwise, as for the capped probe's prefix, `size` is `law.end`,
    past every packed value, so the remainder is the element itself, the
    slots are a dict that reads -1 for a missing key, and the elements,
    ints of any size, a list.  A product whose slot is
    taken must be the element there: two different elements on one
    coordinate raise VerdictFailed naming both, so the enumeration is
    exact whether or not the coordinate map is one-to-one.
    """
    gen_table = array("i")
    edge = gen_table.append
    rows = getattr(law, "step_rows", None)
    if rows is not None and list(gens) == law.generators:
        base, size = law.base, law.coord_size
        if size <= min(cap, COORD_LIMIT):
            # every packed value is below law.end <= 2**32 here (the 4-byte
            # test in test_crowell); a wider one would fail its append loudly
            elements = array("I", [identity])
            slots = array("i", [-1]) * size
        else:
            # a prefix's values can run to thousands of bits
            elements = [identity]
            size = law.end
            slots = _FreeSlots()
        slots[identity % size] = 0
        index = _CoordinateIndex(elements, slots, size)
        append = elements.append
        n = 1
        # the loop reads elements as it grows, so it visits every element
        for a in elements:
            for delta, ew, top in rows[a % base]:
                p = a + delta - ew if a % ew >= top else a + delta
                c = p % size
                k = slots[c]
                if k < 0:
                    if n >= cap:
                        return elements, index, gen_table, False
                    k = n
                    n += 1
                    append(p)
                    slots[c] = k
                elif elements[k] != p:
                    raise VerdictFailed(
                        f"packed elements {elements[k]} and {p} share co-tree coordinate {c}"
                    )
                edge(k)
        return elements, index, gen_table, True
    elements = [identity]
    index = {identity: 0}
    mul = law.mul
    i = 0
    while i < len(elements):
        a = elements[i]
        for g in gens:
            p = mul(a, g)
            k = index.get(p)
            if k is None:
                if len(elements) >= cap:
                    return elements, index, gen_table, False
                k = len(elements)
                elements.append(p)
                index[p] = k
            edge(k)
        i += 1
    return elements, index, gen_table, True


class _FreeSlots(dict):
    """The slots of a packed `_bfs` too large for an array: a missing key
    reads -1, as an empty array slot does, and is not stored."""

    __slots__ = ()

    def __missing__(self, key) -> int:
        return -1


class _CoordinateIndex:
    """The element -> index mapping of a packed enumeration: an int x has
    index slots[x % size] if the element there is x, so a lookup decodes
    no digit.  `elements`, `slots` and `size` are `_bfs`'s: a flat
    array('I') of elements with an array over a whole level's co-tree
    coordinates, or a list with a `_FreeSlots` keyed by the elements
    themselves.  Supports [], `get` and `in`; anything that is not an
    enumerated element (another int, a non-int) is simply absent.
    """

    __slots__ = ("elements", "slots", "size")

    def __init__(self, elements, slots, size: int):
        self.elements = elements
        self.slots = slots
        self.size = size

    def get(self, x, default=None):
        if isinstance(x, int):
            k = self.slots[x % self.size]
            if k >= 0 and self.elements[k] == x:
                return k
        return default

    def __getitem__(self, x) -> int:
        k = self.get(x)
        if k is None:
            raise KeyError(x)
        return k

    def __contains__(self, x) -> bool:
        return self.get(x) is not None

    def count_multiples(self, modulus: int) -> int:
        """How many enumerated elements of a whole level, whose slots are
        an array, are multiples of `modulus`, a divisor of `size`.

        Slot c holds the element x with x % modulus == c % modulus, so the
        multiples are what fills slots 0, modulus, 2 * modulus, ...: one
        strided read of the array, with no call per element.
        """
        if self.size % modulus:
            raise ValueError(f"{modulus} does not divide {self.size}")
        column = memoryview(self.slots)[::modulus]
        return len(column) - countOf(column, -1)


def _tree_edges(table) -> Iterator[int]:
    """For k = 1, 2, ...: the position in `table` of the BFS-tree edge into
    element k, the first position that holds k.

    `_bfs` appends element k at the first edge that reaches it, so k's
    first position comes after k - 1's; one pass in order finds them all.
    This is the Schreier vector of the enumeration (Butler, *Fundamental
    Algorithms for Permutation Groups*, LNCS 559, 1991): position
    row * ngens + g says element k is element row times generator g.
    """
    k = 1
    for pos, child in enumerate(table):
        if child == k:
            yield pos
            k += 1


def closure(gens: Sequence, cap: int = DEFAULT_CAP, identity=None, law=None) -> FiniteGroup:
    """Enumerate the group generated by `gens` (BFS; deterministic order).

    Args:
        gens: generator elements sharing one variant and degree/ring.
        cap: hard bound on the element count.
        identity: identity element; inferred from the first generator when
            omitted (required for empty gens of non-permutation kind).
        law: multiplication strategy; defaults to honest element products.

    Raises:
        CapExceeded: enumeration passed `cap` elements.
        MixedVariant: generators of incompatible kinds.
    """
    gens = list(gens)
    _check_variant(gens)
    if law is None:
        law = _DirectLaw()
    if identity is None:
        if not gens:
            identity = PermElem.identity(1)  # the trivial group, by convention
        else:
            g = gens[0]
            identity = law.mul(g, law.inv(g))
    elements, index, gen_table, complete = _bfs(gens, identity, law, cap)
    if not complete:
        raise CapExceeded(cap, len(elements) + 1)
    return FiniteGroup(elements, index, gens, gen_table, law)


def trivial_group() -> FiniteGroup:
    return closure([])


class Subgroup:
    """A subgroup given by its sorted element-index set inside a parent.

    `indices` is a tuple, or `range(parent.order)` for the whole group as
    `full_subgroup` gives it.  Equality and hashing treat every whole-group
    subgroup of one parent as the same, whichever way its indices are held.
    """

    def __init__(self, parent: FiniteGroup, indices: Sequence[int], gen_indices: tuple):
        self.parent = parent
        self.indices = indices
        self.gen_indices = gen_indices
        self._normal: Optional[bool] = None
        self._set: Optional[frozenset] = None

    @property
    def element_set(self) -> frozenset:
        if self._set is None:
            self._set = frozenset(self.indices)
        return self._set

    @property
    def order(self) -> int:
        return len(self.indices)

    @property
    def is_normal(self) -> bool:
        # conjugating every subgroup generator by every parent generator
        # into the set suffices: conjugation by words follows
        if self._normal is None:
            G = self.parent
            s = self.element_set
            self._normal = all(
                G.conj(h, g) in s for g in G.gen_indices for h in self.gen_indices
            )
        return self._normal

    def as_group(self) -> FiniteGroup:
        """Materialize as a standalone FiniteGroup (same element objects)."""
        G = self.parent
        gens = [G.elements[i] for i in self.gen_indices if i != 0]
        return closure(gens, cap=self.order + 1, identity=G.elements[0], law=G.law)

    def _key(self):
        # indices are distinct, so only the whole group has parent.order of them
        return None if len(self.indices) == self.parent.order else self.indices

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subgroup)
            and other.parent is self.parent
            and other._key() == self._key()
        )

    def __hash__(self) -> int:
        return hash((id(self.parent), self._key()))


def _grow(G: FiniteGroup, elems: list, seen: set, gens: list, g: int) -> None:
    """One Dimino step: extend the closed element list of H to <H, g>.

    `elems` and `seen` hold H, and `gens` the generators it was grown
    from; all three are extended in place.  Nothing happens when g is
    already in H.  Otherwise the new group is built as a union of right
    cosets H*c, starting from H itself: each coset representative c is
    pushed through every generator s, and a product c*s outside the list
    opens the coset H*(c*s) (the first one is H*g).  A union of right
    cosets of H that holds the identity and is closed under right
    products with the generators is the whole group, and H*c*s = H*(c*s)
    means the representatives alone need pushing.  Cost: |H| products
    per new coset, plus (number of cosets) x (number of generators) for
    the representatives.
    """
    if g in seen:
        return
    gens.append(g)
    mul = G.mul
    block = elems[:]  # H, the subgroup being extended
    reps = [0]  # H itself, then one representative per new coset
    for c in reps:
        for s in gens:
            t = mul(c, s)
            if t not in seen:
                reps.append(t)
                coset = [mul(h, t) for h in block]
                elems.extend(coset)
                seen.update(coset)


def subgroup_closure(G: FiniteGroup, gen_idxs: Iterable[int]) -> Subgroup:
    """Subgroup of G generated by the given element indices.

    Dimino's algorithm (`_grow`), one generator at a time: a generator
    already in the subgroup costs one set lookup, and every other one
    costs |H| products per new right coset of the subgroup H built so
    far, plus (number of cosets) x (number of generators) products for
    the coset representatives.  `gen_indices` keeps every nonzero given
    index in order, redundant ones included.
    """
    gen_idxs = [i for i in gen_idxs if i != 0]
    elems, seen, used = [0], {0}, []
    for g in gen_idxs:
        _grow(G, elems, seen, used, g)
    return Subgroup(G, tuple(sorted(seen)), tuple(gen_idxs) or (0,))


def normal_closure(G: FiniteGroup, seed_idxs: Iterable[int], conjugators: Optional[Sequence[int]] = None) -> Subgroup:
    """Smallest subgroup containing the seeds and stable under conjugation.

    Conjugators default to G's generators (normal closure in G); passing a
    subgroup's generators computes the normal closure within that subgroup.

    One subgroup grows by Dimino steps (`_grow`): each pass conjugates
    only the generators added by the pass before, since the conjugates of
    older ones were already found in a subgroup that has only grown
    since.  The cost is that of `subgroup_closure` on all the generators
    at once: |H| products per new coset, plus (number of cosets) x
    (number of generators) for the representatives, plus two products and
    an inverse per conjugate.  `gen_indices` holds the seeds and then
    every conjugate found outside the subgroup of its pass, in the order
    found.
    """
    if conjugators is None:
        conjugators = G.gen_indices
    gens = [i for i in dict.fromkeys(seed_idxs) if i != 0]
    elems, seen, used = [0], {0}, []
    fresh = list(gens)
    while fresh:
        for g in fresh:
            _grow(G, elems, seen, used, g)
        new = [G.conj(h, c) for h in fresh for c in conjugators]
        fresh = [t for t in dict.fromkeys(new) if t not in seen]
        gens.extend(fresh)
    return Subgroup(G, tuple(sorted(seen)), tuple(gens) or (0,))


def derived_subgroup(G: FiniteGroup, sub: Optional[Subgroup] = None) -> Subgroup:
    """Derived subgroup of `sub` (default: of G itself).

    Normal closure (within the subgroup) of commutators of its generators;
    the derived subgroup is exactly that closure.
    """
    if sub is None:
        sub = G.full_subgroup()
    gi = sub.gen_indices
    comms = []
    for a in gi:
        for b in gi:
            c = G.mul(G.mul(a, b), G.mul(G.inv(a), G.inv(b)))
            if c != 0:
                comms.append(c)
    return normal_closure(G, comms, conjugators=gi)


def _derived_terms(G: FiniteGroup):
    """Yield G^[0] = G, G^[1], ... down to the first repeated (perfect or
    trivial) term, computing each term only when it is asked for."""
    term = G.full_subgroup()
    yield term
    while term.order > 1:
        nxt = derived_subgroup(G, term)
        if nxt.order == term.order:
            return
        yield nxt
        term = nxt


def derived_series(G: FiniteGroup) -> list:
    """[G = G^[0], G^[1], ...] down to the first repeated (perfect or trivial) term."""
    return list(_derived_terms(G))


def derived_term(G: FiniteGroup, m: int) -> Subgroup:
    """G^[m], with the series frozen at its stabilization point.

    Only G^[1], ..., G^[m] are computed, not the rest of the series.
    """
    for k, term in enumerate(_derived_terms(G)):
        if k == m:
            break
    return term


class Homomorphism:
    """A verified homomorphism, stored as the full image-index table."""

    def __init__(self, source: FiniteGroup, target: FiniteGroup, images: tuple):
        self.source = source
        self.target = target
        self.images = images

    @staticmethod
    def build(source: FiniteGroup, target: FiniteGroup, images: Sequence[int]) -> "Homomorphism":
        images = tuple(images)
        if len(images) != source.order:
            raise NotHomomorphism("image table length mismatch")
        if images[0] != 0:
            raise NotHomomorphism("identity does not map to identity")
        # consistency on every Cayley edge extends to all pairs by induction
        # on the word length of the right factor
        table = source.gen_table
        ng = len(source.gen_indices)
        for i in range(source.order):
            for g, gi in enumerate(source.gen_indices):
                if images[table[i * ng + g]] != target.mul(images[i], images[gi]):
                    raise NotHomomorphism(f"edge ({i}, generator {g}) breaks multiplicativity")
        return Homomorphism(source, target, images)

    @staticmethod
    def from_gen_images(source: FiniteGroup, target: FiniteGroup, gen_images: Sequence[int]) -> "Homomorphism":
        """Extend generator images along the BFS tree; raises NotHomomorphism
        if the assignment is inconsistent.  The loop checks every Cayley
        edge, as `build` does, so the table it makes is verified."""
        if len(gen_images) != len(source.gen_indices):
            raise NotHomomorphism("one image per generator required")
        table = source.gen_table
        ng = len(gen_images)
        images = [None] * source.order
        images[0] = 0
        for i in range(source.order):
            for g in range(ng):
                j = table[i * ng + g]
                v = target.mul(images[i], gen_images[g])
                if images[j] is None:
                    images[j] = v
                elif images[j] != v:
                    raise NotHomomorphism("generator images do not extend")
        return Homomorphism(source, target, tuple(images))

    def __call__(self, i: int) -> int:
        return self.images[i]

    def image_set(self) -> frozenset:
        return frozenset(self.images)

    def is_surjective(self) -> bool:
        return len(self.image_set()) == self.target.order

    def is_injective(self) -> bool:
        return len(self.image_set()) == self.source.order

    def is_bijective(self) -> bool:
        return self.is_injective() and self.is_surjective()

    def kernel(self) -> Subgroup:
        idxs = [i for i, v in enumerate(self.images) if v == 0]
        sub = subgroup_closure(self.source, idxs)
        if sub.order != len(idxs):
            # only an unverified image table (not from `build`) gets here
            raise NotHomomorphism(
                f"the {len(idxs)} elements sent to the identity generate a "
                f"subgroup of order {sub.order}, so they are not a kernel"
            )
        return Subgroup(self.source, tuple(sorted(idxs)), sub.gen_indices)

    def compose(self, inner: "Homomorphism") -> "Homomorphism":
        """self after inner."""
        if inner.target is not self.source:
            raise NotHomomorphism("composition targets do not match")
        return Homomorphism(inner.source, self.target,
                            tuple(self.images[v] for v in inner.images))


def _left_cosets(G: FiniteGroup, K: Subgroup, over: Optional[Iterable[int]] = None) -> dict:
    """Map each index in `over` (default: all of G) to the least index of
    its left coset aK.

    The one left-coset scan.  `over` must be ascending and a union of left
    cosets of K, as G or a subgroup containing K is: the first index not
    yet seen then opens its coset and is the least index in it, so each
    coset costs |K| products and no sort.
    """
    cls: dict = {}
    mul = G.mul
    for a in range(G.order) if over is None else over:
        if a not in cls:
            for k in K.indices:
                cls[mul(a, k)] = a
    return cls


def _coset_quotient(G: FiniteGroup, N: Subgroup):
    """G/N for normal N, as a FiniteGroup of canonical coset representatives.

    Returns:
        (Q, rep_map) with rep_map[i] the index in G of element i's coset
        representative; Q's elements are those representatives' objects.
    """
    if not N.is_normal:
        raise NotNormal("quotient requires a normal subgroup")
    rep_map = _left_cosets(G, N)
    law = _CosetLaw(G, rep_map)
    q_gens = [G.elements[rep_map[gi]] for gi in G.gen_indices if rep_map[gi] != 0]
    Q = closure(q_gens, cap=G.order + 1, identity=G.elements[0], law=law)
    return Q, rep_map


def quotient_by(G: FiniteGroup, N: Subgroup):
    """G/N for normal N, as a FiniteGroup of canonical coset representatives.

    Returns:
        (Q, proj) with proj the projection Homomorphism G -> Q.
    """
    Q, rep_map = _coset_quotient(G, N)
    proj = Homomorphism.build(G, Q, tuple(Q.index[G.elements[rep_map[i]]] for i in range(G.order)))
    return Q, proj


def m_step_quotient(G: FiniteGroup, m: int):
    """Maximal m-step solvable quotient G/G^[m] with its projection."""
    N = derived_term(G, m)
    return quotient_by(G, N)


def abelianization(G: FiniteGroup):
    return m_step_quotient(G, 1)


def centralizer(G: FiniteGroup, S: Iterable[int]) -> Subgroup:
    """{g : gs = sg for all s in S}, brute force over all elements."""
    S = list(S)
    for s in S:
        if not 0 <= s < G.order:
            raise IndexOutOfRange(f"element index {s}")
    members = []
    for i in range(G.order):
        a = G.elements[i]
        ok = True
        for s in S:
            b = G.elements[s]
            if G.law.mul(a, b) != G.law.mul(b, a):
                ok = False
                break
        if ok:
            members.append(i)
    gens = _reduce_generators(G, members)
    return Subgroup(G, tuple(members), gens)


def center(G: FiniteGroup) -> Subgroup:
    return centralizer(G, G.gen_indices)


def _reduce_generators(G: FiniteGroup, members: Sequence[int]) -> tuple:
    """Greedy small generating set for a subgroup given as an element list."""
    gens: list = []
    elems, have = [0], {0}
    for i in members:
        if i in have:
            continue
        _grow(G, elems, have, gens, i)
        if len(have) == len(members):
            break
    return tuple(gens) or (0,)


def _lattice_basis(rows: Iterable[Sequence[int]]) -> list:
    """Echelon row basis of the integer lattice that `rows` span, folding
    in one row at a time, so the rows may come from a generator."""
    from .zmodlin import _xgcd

    basis: list = []
    for row in rows:
        row = list(row)
        for b in basis:
            c = next(i for i, x in enumerate(b) if x)
            if not row[c]:
                continue
            p, v = b[c], row[c]
            # extended gcd to merge the two rows at column c
            g, s, t = _xgcd(p, v)
            merged = [s * x + t * y for x, y in zip(b, row)]
            row = [(p // g) * y - (v // g) * x for x, y in zip(b, row)]
            b[:] = merged
        if any(row):
            basis.append(row)
            basis.sort(key=lambda r: next(i for i, x in enumerate(r) if x))
    return basis


def abelian_invariants(G: FiniteGroup) -> tuple:
    """Invariant factors (each > 1) of G/G^[1]; empty for perfect/trivial."""
    from .zmodlin import smith_normal_form_int

    k = len(G.gen_indices)
    if k == 0:
        return ()

    # walk the Cayley graph with exponent-vector labels; every collision is a
    # relation of the abelianization, and tree collisions generate them all.
    # Collision rows are folded into a <= k row lattice basis on the fly.
    def relations():
        vec = {0: (0,) * k}
        for i in range(G.order):
            v = vec[i]
            for g in range(k):
                j = G.gen_table[i * k + g]
                w = list(v)
                w[g] += 1
                w = tuple(w)
                if j in vec:
                    rel = tuple(a - b for a, b in zip(w, vec[j]))
                    if any(rel):
                        yield rel
                else:
                    vec[j] = w

    basis = _lattice_basis(relations())
    if not basis:
        return ()
    factors = smith_normal_form_int(basis)
    return tuple(d for d in factors if d > 1)


def left_transversal(G: FiniteGroup, N: Subgroup) -> list:
    """Minimal-index representatives of the left cosets aN, identity first."""
    return sorted(set(_left_cosets(G, N).values()))


def transfer_map(G: FiniteGroup, N: Subgroup, transversal: Optional[Sequence[int]] = None) -> Homomorphism:
    """The transfer G^ab -> N^ab for a normal subgroup N.

    Built from a left-coset transversal {a}: the image of g is the product
    over cosets of a'^{-1} g a where g a N = a' N.  The result does not
    depend on the transversal (tested property).

    Returns a Homomorphism whose source is abelianization(G)[0] and whose
    target is N^ab labelled as abelianization(N.as_group())[0].
    """
    if not N.is_normal:
        raise NotNormal("transfer implemented for normal subgroups")
    cosets = _left_cosets(G, N)
    if transversal is None:
        transversal = sorted(set(cosets.values()))
    return _transfer(G, N, cosets, transversal, abelianization(G)[0], _ab_action(G, N))


def _transfer(G: FiniteGroup, N: Subgroup, cosets: dict, transversal: Sequence[int],
              Gab: FiniteGroup, ab: tuple) -> Homomorphism:
    """transfer_map's worker: the left cosets of N (`_left_cosets`), G^ab
    and the `_ab_action` bundle of (G, N) come from the caller, which
    builds them once for every transfer it takes of one N."""
    Nab, ab_class, _ = ab
    transversal = list(transversal)
    # least index of a coset -> position of its representative
    pos = {cosets.get(a): t for t, a in enumerate(transversal)}
    if None in pos or len(pos) != len(transversal) or len(transversal) * N.order != G.order:
        raise ValueError("not a left transversal")
    images = []
    for q in range(Gab.order):
        g = G.index[Gab.elements[q]]  # any representative works: N >= G^[1]
        acc = 0
        for a in transversal:
            ga = G.mul(g, a)
            a2 = transversal[pos[cosets[ga]]]
            acc = Nab.mul(acc, ab_class[G.mul(G.inv(a2), ga)])
        images.append(acc)
    return Homomorphism.build(Gab, Nab, images)


def natural_ab_map(G: FiniteGroup, N: Subgroup) -> Homomorphism:
    """R_N : N^ab -> G^ab induced by inclusion."""
    Gab, projG = abelianization(G)
    Nab, ab_class, _ = _ab_action(G, N)
    images = [None] * Nab.order
    for i, q in ab_class.items():
        v = projG(i)
        if images[q] is None:
            images[q] = v
        elif images[q] != v:
            raise NotHomomorphism("inclusion does not factor through abelianizations")
    return Homomorphism.build(Nab, Gab, images)


def _ab_action(G: FiniteGroup, N: Subgroup):
    """N^ab, labelled as abelianization(N.as_group()), and G's conjugation
    action on it.

    Returns (Nab, ab_class, action): ab_class maps the G-index of each
    element of N to its class in Nab, and action(g) is the permutation of
    Nab's element indices induced by conjugation by the G-element index g,
    read on one representative per class.  The functions whose answer
    carries these labels build the bundle once per (G, N).
    """
    NG = N.as_group()
    Nab, projN = abelianization(NG)
    ab_class = {G.index[x]: projN(i) for i, x in enumerate(NG.elements)}
    rep = {q: u for u, q in ab_class.items()}
    reps = [rep[q] for q in range(Nab.order)]

    def action(g: int) -> tuple:
        return tuple(ab_class[G.conj(u, g)] for u in reps)

    return Nab, ab_class, action


def conj_action_on_ab(G: FiniteGroup, N: Subgroup, g: int) -> tuple:
    """The permutation of N^ab induced by conjugation by G-element g."""
    return _ab_action(G, N)[2](g)


def conj_action_faithful(H: FiniteGroup, N: Subgroup):
    """Whether H/N -> Aut(N^ab) by conjugation is injective.

    Decided inside H, on the left cosets of N' = derived_subgroup(H, N)
    within N, which are the classes of N^ab: conjugation by h induces an
    automorphism of N^ab, so h acts trivially iff it keeps each generator
    of N in its class.  No copy of N or of N^ab is built, and H/N is
    built without its projection.

    Returns:
        (faithful, kernel) with kernel a Subgroup of the quotient H/N.
    """
    if not N.is_normal:
        raise NotNormal("conjugation action needs a normal subgroup")
    cls = _left_cosets(H, derived_subgroup(H, N), N.indices)
    Q, _ = _coset_quotient(H, N)

    def acts_trivially(h: int) -> bool:
        return all(cls[H.conj(n, h)] == cls[n] for n in N.gen_indices)

    kernel_members = [q for q in range(Q.order) if acts_trivially(H.index[Q.elements[q]])]
    gens = _reduce_generators(Q, kernel_members)
    kernel = Subgroup(Q, tuple(kernel_members), gens)
    return kernel.order == 1, kernel


def quotient_iso_check(f: Homomorphism, H: Subgroup, n: int) -> SimpleNamespace:
    """Finite-level check of the quotient-isomorphism lemma.

    For surjective f: G -> Q, a subgroup H of Q and its preimage H~, the
    lemma says: if ker f is contained in H~^[n] then the induced map
    H~/H~^[n] -> H/H^[n] is an isomorphism.  Both the hypothesis and the
    conclusion are computed; when the hypothesis holds the conclusion must
    (theorem), when it fails the outcome is reported as data.
    """
    if not f.is_surjective():
        raise NotSurjective("quotient_iso_check needs a surjection")
    G, Q = f.source, f.target
    pre_idxs = [i for i in range(G.order) if f(i) in H.element_set]
    pre = Subgroup(G, tuple(pre_idxs), _reduce_generators(G, pre_idxs))
    preG = pre.as_group()
    Dn = derived_term(preG, n)
    ker_idxs = [i for i, v in enumerate(f.images) if v == 0]
    dn_objects = {preG.elements[j] for j in Dn.indices}
    hypothesis = all(G.elements[i] in dn_objects for i in ker_idxs)
    upstairs, proj_up = quotient_by(preG, Dn)
    HG = H.as_group()
    downstairs, proj_dn = quotient_by(HG, derived_term(HG, n))
    images = []
    for q in range(upstairs.order):
        u = upstairs.elements[q]  # an element object of preG, hence of G
        v = Q.elements[f(G.index[u])]
        images.append(proj_dn(HG.index[v]))
    induced = Homomorphism.build(upstairs, downstairs, images)
    return SimpleNamespace(
        hypothesis_holds=hypothesis,
        bijective=induced.is_bijective(),
        upstairs_order=upstairs.order,
        downstairs_order=downstairs.order,
    )


def _invariant_signature(G: FiniteGroup) -> tuple:
    return (
        G.order,
        G.element_order_profile(),
        center(G).order,
        abelian_invariants(G),
        tuple(s.order for s in derived_series(G)),
    )


def find_isomorphism(G1: FiniteGroup, G2: FiniteGroup) -> Optional[Homomorphism]:
    """Explicit isomorphism by generator-image backtracking, or None."""
    if G1.order != G2.order:
        return None
    if _invariant_signature(G1) != _invariant_signature(G2):
        return None
    # irredundant generating sequence for G1, empty for the trivial group
    gens = [i for i in _reduce_generators(G1, range(G1.order)) if i != 0]
    by_order: dict = {}
    for j in range(G2.order):
        by_order.setdefault(G2.element_order(j), []).append(j)

    def extend(assigned: list):
        if len(assigned) == len(gens):
            src = _regroup(G1, gens)
            try:
                h = Homomorphism.from_gen_images(src, G2, assigned)
            except NotHomomorphism:
                return None
            if h.is_bijective():
                full = Homomorphism.build(
                    G1, G2, tuple(h(src.index[G1.elements[i]]) for i in range(G1.order))
                )
                return full
            return None
        k = len(assigned)
        want = G1.element_order(gens[k])
        for cand in by_order.get(want, []):
            # partial consistency: the subgroup generated so far must map
            sub_gens = gens[: k + 1]
            sub = _regroup(G1, sub_gens)
            try:
                h = Homomorphism.from_gen_images(sub, G2, assigned + [cand])
            except NotHomomorphism:
                continue
            if not h.is_injective():
                continue
            res = extend(assigned + [cand])
            if res is not None:
                return res
        return None

    return extend([])


def _regroup(G: FiniteGroup, gen_idxs: Sequence[int]) -> FiniteGroup:
    """Subgroup generated by the given indices, as a standalone group."""
    return closure([G.elements[i] for i in gen_idxs], cap=G.order + 1,
                   identity=G.elements[0], law=G.law)


def iso_test_small(G1: FiniteGroup, G2: FiniteGroup) -> bool:
    """Isomorphism test for groups of order at most 64."""
    if G1.order > 64 or G2.order > 64:
        raise TooLarge("iso_test_small is limited to order 64")
    return find_isomorphism(G1, G2) is not None


def _join_lattice(G: FiniteGroup, seeds: Sequence[Subgroup], extras: Sequence[tuple]) -> list:
    """Close a set of subgroups under joins with extra generators.

    `seeds` are subgroups of G, and each member s is joined with every
    generator-index tuple in `extras`, breadth first, until no join gives
    a new member; the first join to reach a subgroup names it.  A join
    <s, extra> grows s's own closed element list by Dimino steps
    (`_grow`), so only its new cosets cost products, and one whose extra
    generators all lie in s costs nothing.  Its `gen_indices` are those
    of s followed by the extra ones, without repeats or the identity.
    Returns every member, sorted by (order, indices).
    """
    seen = {s.indices: s for s in seeds}
    frontier = list(seen.values())
    while frontier:
        fresh = []
        for s in frontier:
            for extra in extras:
                if all(g in s.element_set for g in extra):
                    continue
                elems, have = list(s.indices), set(s.indices)
                used = [g for g in s.gen_indices if g != 0]
                for g in extra:
                    _grow(G, elems, have, used, g)
                key = tuple(sorted(have))
                if key not in seen:
                    gens = [g for g in dict.fromkeys(s.gen_indices + extra) if g != 0]
                    seen[key] = sub = Subgroup(G, key, tuple(gens))
                    fresh.append(sub)
        frontier = fresh
    return sorted(seen.values(), key=lambda s: (s.order, s.indices))


def normal_subgroups(G: FiniteGroup) -> list:
    """All normal subgroups, as the join-closure of element normal closures.

    Conjugate elements have the same normal closure, so one is taken per
    conjugacy class, at its smallest index: the class of i is its orbit
    under conjugation by G's generators.  Every member, starting from the
    trivial subgroup and these closures, is joined with each closure
    (`_join_lattice`).
    """
    atoms = {}
    classed = {0}
    for i in range(1, G.order):
        if i in classed:
            continue
        orbit = [i]
        classed.add(i)
        for a in orbit:
            for c in G.gen_indices:
                b = G.conj(a, c)
                if b not in classed:
                    classed.add(b)
                    orbit.append(b)
        nc = normal_closure(G, [i])
        atoms.setdefault(nc.indices, nc)
    joins = [nc.gen_indices for nc in atoms.values()]
    trivial = Subgroup(G, (0,), (0,))
    return _join_lattice(G, [trivial, *atoms.values()], joins)


def all_subgroups(G: FiniteGroup) -> list:
    """Every subgroup (order <= 128 guard), breadth first over generation:
    every member, starting from the trivial subgroup, is joined with each
    element outside it (`_join_lattice`)."""
    if G.order > 128:
        raise TooLarge("subgroup enumeration is limited to order 128")
    singles = [(i,) for i in range(1, G.order)]
    return _join_lattice(G, [Subgroup(G, (0,), (0,))], singles)


def semidirect_product(N: FiniteGroup, H: FiniteGroup, action_gen_images: Sequence[Sequence[int]]) -> FiniteGroup:
    """N x| H as a permutation group on the pair set N x H.

    Args:
        action_gen_images: one entry per H-generator: the automorphism of N
            it induces, given as images (N element indices) of N's generators.

    The generators act on pairs (n, h) by left multiplication; the closure
    must have order |N| * |H|, otherwise the action does not extend to a
    homomorphism H -> Aut(N) and a ValueError is raised.
    """
    autos = []
    for imgs in action_gen_images:
        a = Homomorphism.from_gen_images(N, N, list(imgs))
        if not a.is_bijective():
            raise ValueError("action image is not an automorphism")
        autos.append(a)
    nh = H.order
    deg = N.order * nh

    def pt(n_idx: int, h_idx: int) -> int:
        return n_idx * nh + h_idx

    gens = []
    for g in N.gen_indices:
        images = [0] * deg
        for n_i in range(N.order):
            tgt = N.mul(g, n_i)
            for h_i in range(nh):
                images[pt(n_i, h_i)] = pt(tgt, h_i)
        gens.append(PermElem(images))
    for gpos, g in enumerate(H.gen_indices):
        a = autos[gpos]
        images = [0] * deg
        for n_i in range(N.order):
            tgt_n = a(n_i)
            for h_i in range(nh):
                images[pt(n_i, h_i)] = pt(tgt_n, H.mul(g, h_i))
        gens.append(PermElem(images))
    G = closure(gens, cap=2 * deg + 1)
    if G.order != N.order * H.order:
        raise ValueError(
            f"semidirect closure has order {G.order}, expected {N.order * H.order}; "
            "the action is not a homomorphism"
        )
    return G
