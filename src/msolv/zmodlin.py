"""Exact linear algebra over Z/n and over Z.

Everything here follows the row-vector convention: a matrix M with r rows
and c columns represents the map v -> v*M taking length-r row vectors to
length-c row vectors, and "the span of M" means the span of its rows.

Over Z/n row reduction alone does not characterise row spans (Z/n is not a
field); the Howell normal form does.  howell_form is the canonical form used
everywhere in the package: two matrices over the same Z/n have equal row
spans iff their Howell forms are identical.

The Howell loop (`_howell_rows`) works on sparse rows, {col: residue}
dicts of the nonzero entries, so adding a multiple of one row to another
touches only the support of the row added.  In each column the pivot is a
row whose entry has the smallest gcd with n (a unit when there is one), then
the fewest nonzeros.  It is normalised first; each other row in the column
is then cleared by one row update, and a unimodular 2x2 combine runs only
when the pivot does not divide the entry, which never happens for a
prime-power n.  Neither the dict rows nor the pivot rule can show in a
result: the Howell form is canonical, so every sequence of span-preserving
row operations that ends in it ends in the same matrix.

The loop carries no transform.  Whatever needs one, or a kernel, reduces
[M | I] once (`_augmented_howell`), built directly as dict rows: rows with
a nonzero M-part are the Howell form of M and their I-part is the
transform, and the I-part of the rows whose M-part vanished generates the
kernel.

`kernel_rows` is the row-level entry point: from M's dict rows it returns
the Howell form of ker M as dict rows and |ker M|, the product of n/pivot
over them, with no second Howell pass.  Why the rows whose M-part vanished
are that form: they are the trailing rows of the Howell form H of [M | I],
the ones with pivots in the I-part.  The rows of [M | I] are [u*M | u], so
v*M = 0 iff [0 | v] lies in their span.  By the span property of H, such
a [0 | v] whose v is zero before column j lies in the span of H's rows
with pivot at column c + j or later, c the width of M.  So their I-parts
span ker M and keep the span property; their pivot columns increase, their
pivots divide n and the entries above their pivots are reduced, because
all of that holds in H.  A Howell form is canonical, so they are the
Howell form of ker M.

The dense `RMatrix` is the boundary, kept only where a reader outside the
row code needs it: `models.centralizer_experiment` compares spans by
`span_equal`, through `howell_form`, which `perfbench/primitives.py` also
times; `perfbench/spans.py` wraps `RMatrix.mul` and names `kernel_basis`,
the dense wrapper over `kernel_rows`.  `MatElem` multiplies by `_flat_mul`.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from math import gcd, prod
from typing import Iterable, Optional, Sequence

from .errors import DimensionMismatch, RingMismatch, TooLarge


def valuation(n: int, p: int) -> int:
    """p-adic valuation of n; requires n != 0 and p >= 2."""
    if p < 2:
        raise ValueError(f"valuation needs a base p >= 2, got {p}")
    if n == 0:
        raise ValueError("valuation of 0 is infinite")
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


class ResidueRing:
    """The ring Z/n with canonical representatives 0..n-1.

    Args:
        modulus: n >= 2.
    """

    def __init__(self, modulus: int):
        if modulus < 2:
            raise ValueError(f"modulus must be >= 2, got {modulus}")
        self.modulus = modulus

    def stab_unit(self, a: int) -> int:
        """A unit u with u*a = gcd(a, n) in Z/n.

        This is the normalisation step of the Howell form: any element can be
        moved to the canonical generator of the ideal it generates by a unit.
        """
        n = self.modulus
        a %= n
        if a == 0:
            return 1
        g = gcd(a, n)
        u = pow(a // g, -1, n // g)
        # lift to a unit mod n: u is determined mod n/g and some lift is
        # coprime to n because a/g is
        while gcd(u, n) != 1:
            u += n // g
        return u % n

    def __repr__(self) -> str:
        return f"ResidueRing({self.modulus})"


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


@dataclass(frozen=True)
class RMatrix:
    """Immutable matrix over Z/n (row-major entries, canonical residues)."""

    modulus: int
    rows: int
    cols: int
    entries: tuple

    @staticmethod
    def from_rows(modulus: int, rows: Sequence[Sequence[int]], cols: Optional[int] = None) -> "RMatrix":
        rows = [list(r) for r in rows]
        if rows:
            cols = len(rows[0])
            if any(len(r) != cols for r in rows):
                raise DimensionMismatch("ragged rows")
        elif cols is None:
            raise DimensionMismatch("column count needed for empty matrix")
        flat = tuple(a % modulus for r in rows for a in r)
        return RMatrix(modulus, len(rows), cols, flat)

    @staticmethod
    def from_dict_rows(modulus: int, rows: Sequence[dict], cols: int) -> "RMatrix":
        """The dense matrix of {col: residue} rows of canonical residues."""
        flat = [0] * (len(rows) * cols)
        for i, row in enumerate(rows):
            base = i * cols
            for j, a in row.items():
                flat[base + j] = a
        return RMatrix(modulus, len(rows), cols, tuple(flat))

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def _check_ring(self, other: "RMatrix") -> None:
        if self.modulus != other.modulus:
            raise RingMismatch(f"moduli differ: {self.modulus} vs {other.modulus}")

    def mul(self, other: "RMatrix") -> "RMatrix":
        self._check_ring(other)
        if self.cols != other.rows:
            raise DimensionMismatch(f"{self.rows}x{self.cols} times {other.rows}x{other.cols}")
        flat = _flat_mul(self.modulus, self.rows, self.cols, other.cols,
                         self.entries, other.entries)
        return RMatrix(self.modulus, self.rows, other.cols, flat)

    def vstack(self, other: "RMatrix") -> "RMatrix":
        self._check_ring(other)
        if self.cols != other.cols:
            raise DimensionMismatch("column counts differ")
        return RMatrix(self.modulus, self.rows + other.rows, self.cols,
                       self.entries + other.entries)


def howell_form(M: RMatrix) -> RMatrix:
    """Howell normal form over Z/n.

    The result is canonical: row_span(A) == row_span(B) iff
    howell_form(A) == howell_form(B).  Normalisations: zero rows dropped,
    pivot columns strictly increase, every pivot divides n, entries above a
    pivot are reduced modulo that pivot, and the span property holds (any
    span element with leading zeros lies in the span of the trailing rows;
    enforced via annihilator rows).

    Only the rows are reduced; a transform comes from the form of [M | I]
    (`_augmented_howell`).
    """
    form = _howell_rows(M.modulus, _rows_of(M))
    return RMatrix.from_dict_rows(M.modulus, [row for _, row in form], M.cols)


def _rows_of(M: RMatrix) -> list:
    """The rows of M as {col: residue} dicts of their nonzero entries."""
    c, e = M.cols, M.entries
    return [{j: a for j, a in enumerate(e[i * c : (i + 1) * c]) if a} for i in range(M.rows)]


def _axpy(n: int, row: dict, q: int, piv: dict) -> None:
    """row += q * piv over Z/n, in place, touching only the support of piv."""
    for j, y in piv.items():
        x = (row.get(j, 0) + q * y) % n
        if x:
            row[j] = x
        else:
            row.pop(j, None)


def _lin(n: int, s: int, x: dict, t: int, y: dict) -> dict:
    """s * x + t * y over Z/n."""
    out = {j: v for j, a in x.items() if (v := s * a % n)}
    _axpy(n, out, t, y)
    return out


def _howell_rows(n: int, rows: Iterable[dict]) -> list:
    """Howell form over Z/n of {col: residue} rows, as (pivot col, row)
    pairs in increasing pivot column.  The row dicts are reduced in place.

    `pending` files each live row under its leading column, and the columns
    are taken in increasing order.  Of the rows led by a column, the pivot
    is one whose entry has the smallest gcd with n, then the fewest
    nonzeros.  It is normalised by `stab_unit`, so its entry p divides n.
    Every other row there, with entry b, loses (b/p) times it when p | b;
    only otherwise does a unimodular 2x2 combine clear b and lower p to
    gcd(p, b).  Rows above are reduced modulo p, and (n/p) times the pivot
    row is filed as an annihilator row.
    """
    ring = ResidueRing(n)
    pending: dict = {}
    leads: list = []  # heap of the keys of pending

    def file(row: dict) -> None:
        if row:
            lead = min(row)
            if lead in pending:
                pending[lead].append(row)
            else:
                pending[lead] = [row]
                heappush(leads, lead)

    for row in rows:
        file(row)
    form: list = []
    while leads:
        col = heappop(leads)
        led = pending.pop(col)
        piv = led.pop(min(range(len(led)), key=lambda i: (gcd(led[i][col], n), len(led[i]))))
        u = ring.stab_unit(piv[col])
        if u != 1:
            piv = {j: u * a % n for j, a in piv.items()}
        p = piv[col]
        for row in led:
            b = row[col]
            if b % p:
                g, s, t = _xgcd(p, b)
                piv, row = _lin(n, s, piv, t, row), _lin(n, -(b // g), piv, p // g, row)
                p = g  # piv[col] = s*p + t*b = g, and g | p | n
            else:
                _axpy(n, row, -(b // p), piv)
            file(row)
        for _, above in form:
            a = above.get(col, 0)
            if a >= p:
                _axpy(n, above, -(a // p), piv)
        ann = n // p
        if ann != n:
            file({j: x for j, a in piv.items() if (x := ann * a % n)})
        form.append((col, piv))
    return form


def _augmented_howell(n: int, rows: Sequence[dict], cols: int) -> tuple:
    """(image, kernel) of the Howell form over Z/n of [M | I], M given by
    its {col: residue} rows, every col < cols.  The rows of [M | I] are
    new dicts, so M's rows are left alone.

    Pivot columns increase, so the rows with a nonzero M-part come first:
    `image` is their (pivot col, row) pairs, M-part and I-part together.
    `kernel` is the (pivot col, I-part) pairs of the rest, columns shifted
    down by `cols`: the Howell form of {v : v * M = 0} (module docstring).
    """
    form = _howell_rows(n, [{**row, cols + i: 1} for i, row in enumerate(rows)])
    k = next((t for t, (col, _) in enumerate(form) if col >= cols), len(form))
    kernel = [(col - cols, {j - cols: a for j, a in row.items()}) for col, row in form[k:]]
    return form[:k], kernel


def kernel_rows(n: int, rows: Sequence[dict], cols: int) -> tuple:
    """(the Howell form of K = {v : v * M = 0} over Z/n as {col: residue}
    rows, |K|), for M given by its {col: residue} rows, every col < cols.

    One Howell form of [M | I] (`_augmented_howell`), whose kernel rows
    give |K| by their pivots; M's rows are left alone.
    """
    kernel = _augmented_howell(n, rows, cols)[1]
    return [row for _, row in kernel], _pivot_product(n, (row[col] for col, row in kernel))


def _pivot_product(n: int, pivots: Iterable[int]) -> int:
    """The product of n / p over the pivots p of a Howell form: the number
    of vectors in its span."""
    return prod(n // p for p in pivots)


def _reduce(n: int, form: Sequence[tuple], b: dict) -> Optional[list]:
    """Coefficients of b over the (pivot col, row) pairs of a Howell form,
    or None when b is not in its span.  b is reduced in place."""
    coeffs = []
    for col, row in form:
        a = b.get(col, 0)
        p = row[col]
        if a % p:
            return None
        t = a // p
        coeffs.append(t)
        if t:
            _axpy(n, b, -t, row)
    return None if b else coeffs


def _xgcd(a: int, b: int):
    """g, s, t with s*a + t*b = g = gcd(a, b), g > 0."""
    old_r, rr = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while rr:
        q = old_r // rr
        old_r, rr = rr, old_r - q * rr
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def kernel_basis(M: RMatrix) -> RMatrix:
    """Rows generating {v in (Z/n)^rows : v*M = 0}.

    The dense form of `kernel_rows`: the Howell form of the kernel, read
    off one Howell form of [M | I].
    """
    n = M.modulus
    return RMatrix.from_dict_rows(n, kernel_rows(n, _rows_of(M), M.cols)[0], M.rows)


def span_equal(A: RMatrix, B: RMatrix) -> bool:
    """Whether two matrices over the same Z/n have identical row spans."""
    if A.modulus != B.modulus:
        raise RingMismatch("moduli differ")
    if A.cols != B.cols:
        raise DimensionMismatch("ambient dimensions differ")
    return howell_form(A) == howell_form(B)


def smith_normal_form_int(rows: Sequence[Sequence[int]]) -> tuple:
    """Nonzero invariant factors d_1 | d_2 | ... of an integer matrix.

    Exact over Z with arbitrary precision.  The cokernel of the matrix
    (row convention) is the direct sum of Z/d_i plus Z^(cols - len(result)).

    Args:
        rows: integer matrix as a sequence of rows, at most 64 x 64.

    Returns:
        Tuple of invariant factors, each >= 1, in divisibility order.
    """
    m = [list(map(int, r)) for r in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    if any(len(r) != nc for r in m):
        raise DimensionMismatch("ragged rows")
    if nr > 64 or nc > 64:
        raise TooLarge(f"smith_normal_form_int limited to 64x64, got {nr}x{nc}")

    def pivot_search(t):
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                a = abs(m[i][j])
                if a and (best is None or a < best[0]):
                    best = (a, i, j)
        return best

    t = 0
    while t < min(nr, nc):
        found = pivot_search(t)
        if found is None:
            break
        _, pi, pj = found
        m[t], m[pi] = m[pi], m[t]
        for r in m:
            r[t], r[pj] = r[pj], r[t]
        dirty = False
        for i in range(t + 1, nr):
            if m[i][t]:
                q = m[i][t] // m[t][t]
                m[i] = [x - q * y for x, y in zip(m[i], m[t])]
                if m[i][t]:
                    dirty = True
        for j in range(t + 1, nc):
            if m[t][j]:
                q = m[t][j] // m[t][t]
                for r in m:
                    r[j] -= q * r[t]
                if m[t][j]:
                    dirty = True
        if dirty:
            continue
        off = any(m[i][t] for i in range(t + 1, nr)) or any(m[t][j] for j in range(t + 1, nc))
        if not off:
            t += 1
    diag = [abs(m[i][i]) for i in range(min(nr, nc)) if m[i][i]]
    # enforce the divisibility chain: diag(a, b) and diag(gcd, lcm) are
    # equivalent, so bubble gcds forward
    changed = True
    while changed:
        changed = False
        for i in range(len(diag)):
            for j in range(i + 1, len(diag)):
                if diag[j] % diag[i]:
                    g = gcd(diag[i], diag[j])
                    diag[i], diag[j] = g, diag[i] * diag[j] // g
                    changed = True
    return tuple(sorted(diag))


def scalar_kernel(ntilde: int, ell: int, sigma: int) -> int:
    """Canonical generator of ker(ntilde * : Z/ell^sigma -> Z/ell^sigma).

    The kernel is the principal ideal generated by
    ell^(sigma - min(v, sigma)) where v is the ell-adic valuation of ntilde;
    the generator is returned as a canonical residue (0 when the kernel is
    trivial).
    """
    if sigma < 1:
        raise ValueError("sigma must be >= 1")
    mod = ell**sigma
    if ntilde == 0:
        return 1
    v = min(valuation(ntilde, ell), sigma)
    return pow(ell, sigma - v) % mod
