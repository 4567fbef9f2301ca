"""The Howell route to ker f and K_cap: the reference that the cycle-space
oracle (`models._ker_f`, `models._k_cap`) is tested against.

ker f is the Howell form of the kernel of f's dict rows, from one Howell
form of [f | I] (`zmodlin.kernel_rows`) over the rows that
`crowell.build_complex` reads off Q's table.  K_cap = {v in span K :
(x^n - 1) v = 0}: row t of the coefficient matrix is (x^n - 1) K[t], x^n
moving slot j to dst[j], dst the inverse of `models._left_sources`; the
Howell form of its kernel gives the coefficient rows c with
sum c[t] (x^n - 1) K[t] = 0, and each one summed over the rows of K it
names is a basis row.  `row_span_size` counts the span of dict rows from
one Howell form of them, and `dense` makes the RMatrix of such rows.
"""

from msolv import models
from msolv.crowell import build_complex
from msolv.zmodlin import RMatrix, _axpy, _howell_rows, _pivot_product, kernel_rows


def row_span_size(n, rows):
    """Number of vectors in the span over Z/n of {col: residue} rows; the
    rows are left alone."""
    return _pivot_product(n, (row[col] for col, row in _howell_rows(n, map(dict, rows))))


def dense(ctx, rows):
    """The RMatrix of {slot: residue} rows over R^r, r|Q| columns wide."""
    return RMatrix.from_dict_rows(ctx.ring.modulus, rows, ctx.rank * ctx.ring.dimension)


def ker_f(ctx):
    """(Howell form of ker f as {slot: residue} rows, |ker f|)."""
    return kernel_rows(ctx.ring.modulus, build_complex(ctx).f_rows, ctx.ring.dimension)


def k_cap(ctx, K, xn_q):
    """(basis of {v in span K : (x^n - 1) v = 0}, its size), x^n at index
    `xn_q` one level down and K a basis of ker f."""
    n = ctx.ring.modulus
    src = models._left_sources(ctx, xn_q)
    dst = [0] * len(src)
    for k, s in enumerate(src):
        dst[s] = k
    moved = []
    for v in K:
        w = {dst[j]: a for j, a in v.items()}
        _axpy(n, w, -1, v)
        moved.append(w)
    basis = []
    for coeffs in kernel_rows(n, moved, len(src))[0]:
        b = {}
        for t, c in coeffs.items():
            _axpy(n, b, c, K[t])
        basis.append(b)
    return basis, row_span_size(n, basis)


def spans_equal(n, A, B):
    """Whether dict rows A and B span the same module over Z/n, both ways:
    B lies in the span of A, as A and B together span no more, and A in
    the span of B."""
    both = row_span_size(n, [*A, *B])
    return row_span_size(n, A) == both == row_span_size(n, B)
