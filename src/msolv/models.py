"""Finite solvable models, centralizer experiments, surface presentation
utilities and the center-freeness corpus scan.

A SolvModel materializes a finite stand-in for the free m-step solvable
group of rank r.  Every level is the group generated by the Magnus
generator matrices [[q_i, e_i], [0, 1]] over the ring (Z/e)[level below],
starting from the trivial group: over it every q_i is 1, the Magnus image
is [[1, v]] with v the exponent sums mod e, and level 1 is (Z/e)^r.  The
models live in the solvable variety of length <= m but are NOT claimed to
be relatively free in it — they are distinguished finite quotients, and
every report says so.

Degenerate parameters short-circuit: a free group of rank 1 is Z, all of
whose higher derived subgroups vanish, so its model is C_e at every m; and
m <= 1 is the abelian model Q_1 itself.

The centralizer experiment is the finite shadow of the free-group fact
C(x^n) = <x>: the brute-force centralizer of mu(x_i)^n is compared with
the linear-algebra prediction (an element [[q, v]] commutes iff q commutes
one level down and (x^n - 1)v = (q - 1)w_n), and the decomposition
C = <mu(x_i)> * K_cap is asserted.  |K_cap| is the finite-level defect
that disappears in the limit the models approximate.

Elements of every level are packed ints q + |Q| * code, with the vector
part v held as base-e digits, code = sum_k v[k] e^pos(k), the co-tree
slots' digits lowest (`_PackedMagnusLaw` in crowell), and `_context_above`
is the one place a level's context is made.  Elements are made and read
here only through that law's packed interface (its docstring lists it).
A right product by a generator is then a table lookup and one digit bump,
which is what the BFS closure does per edge.  The brute side of the
centralizer experiment reads the closure's Cayley table, the flat
`gen_table` array: el_k x^n along the cycles of generator column i-1 (a
strided view gen_table[i-1::ngens], read in place), with n reduced mod the
order of x, and x^n el_k along the BFS tree (`fingroup._tree_edges`), since
(x^n p) g = x^n (p g).  It is group arithmetic from the Cayley graph alone
and never touches the kernel of f it is checked against; the size of the
module part is counted off the closure's own coordinate index.

The capped probe enumerates its BFS prefix of W_m as packed ints by the
same loop, `fingroup._bfs`, and keeps the BFS tree edge into each element,
read from the capped table by the same `fingroup._tree_edges` as the full
experiment's L.  That loop has one index kind and two stores: a whole
level, refused past `COORD_LIMIT` elements, is indexed by its co-tree
coordinates in one flat array and keeps its elements in another, of
4-byte unsigned ints, since every level the models build has packed
values below its law's end <= 2^32, and the prefix is
indexed by its elements in a dict and keeps a list.  Products with x^n
may leave the prefix, so they stay packed values: x^n el_k by one
generator step along the tree from x^n, and el_k x^n by the n generator
steps folded into one step per quotient index; an element commutes iff
the two ints are equal, so the folded step is made in full only where its
quotient index is that of x^n el_k.
The linear prediction decides its q-part once over Q, as the set of q
commuting with x^n one level down, and reads the vector condition off the
packed int digit by digit, stopping at the first slot that fails.

The K_cap oracle (`_ker_f`, `_k_cap`) eliminates nothing: f is the
boundary map of Q's right Cayley graph, so ker f is its cycle space and
K_cap the part of it that x^n fixes, each with a basis of fundamental
cycles (`_cycle_space`) grown from `ctx.group.mul` and `ctx.images` alone,
so it reads nothing of the brute side.
`_left_sources` is the one encoding of q's left action on R^r, which
both the K_cap oracle and the probe's prediction read: (q - 1) v has
entries v[src[k]] - v[k].  Level orders are predicted before any closure
(`_predicted_orders`), so an oversized packed law is refused up front, and
`check_centralizer_question` is the one place that decides, before anything
is built, whether a centralizer question is valid.

Work that several instances of one CLI run share is done once per run:
the probe's BFS prefix is a run memo (`run_memo`), and the corpus scan
reads each group's m-independent part from a `ScanProfile`.

The corpus scan and the run memos need only `fingroup`, so the Magnus/Fox
stack (`foxcalc`, `crowell`, and `grpring` under them) is imported in the
bodies of the functions that make or read a Magnus level or a free word,
not at the top of this module.  Without a bytecode cache every imported
module is compiled on every run, and a run that only scans a corpus then
compiles none of them.  `zmodlin` is imported the same way, by the full
centralizer's `span_equal` and the surface abelianization, so a K_cap
tower or a capped probe compiles no linear algebra.  The names are looked
up when those functions run, so a patched or traced
`crowell._PackedMagnusLaw` is the one they call.
"""

from __future__ import annotations

import functools
import math
from array import array
from itertools import compress, repeat
from operator import countOf, eq, mod
from types import SimpleNamespace
from typing import List, Sequence

from .errors import (
    REPORT_INT_DIGITS,
    CapExceeded,
    PreconditionViolated,
    TooLarge,
    VerdictFailed,
    brief,
)
from .fingroup import (
    COORD_LIMIT,
    DEFAULT_CAP,
    FiniteGroup,
    Subgroup,
    _bfs,
    _tree_edges,
    center,
    closure,
    conj_action_faithful,
    derived_series,
    normal_subgroups,
    quotient_by,
    trivial_group,
)

MODEL_NOTE = (
    "finite Magnus-matrix model: lies in the solvable variety of length <= m "
    "but is not claimed to be relatively free in it"
)


_RUN_MEMOS: list = []


def run_memo(func):
    """Memoize `func` on its most recent arguments only.

    The instances of one CLI run may repeat an input: one corpus scanned
    at several m, one probe prefix read at several (i, n).  A run memo
    keeps one value, and a call with new arguments drops the old value
    before computing the new one, so a run never holds more than one
    instance would.  `clear_run_memos` empties every run memo; `cli.main`
    calls it when a run starts and when it ends.
    """
    slot: dict = {}

    @functools.wraps(func)
    def memo(*args):
        if args not in slot:
            slot.clear()
            slot[args] = func(*args)
        return slot[args]

    _RUN_MEMOS.append(slot)
    return memo


def clear_run_memos() -> None:
    """Forget every value a `run_memo` holds."""
    for slot in _RUN_MEMOS:
        slot.clear()


def _is_prime_power(e: int) -> bool:
    if e < 2:
        return False
    p = 2
    n = e
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            return n == 1
        p += 1
    return True  # n is prime


def _check_exponent(e: int) -> None:
    """TooLarge if e passes DEFAULT_CAP, else PreconditionViolated unless e
    is a prime power.

    Level 1 is (Z/e)^r, with at least e elements, so past DEFAULT_CAP no
    level above the trivial one fits under the default closure cap.
    Refusing such an e first keeps `_is_prime_power` under 1,415 trial
    divisions, where e = 2^61 - 1 would take about 1.5e9."""
    if e > DEFAULT_CAP:
        raise TooLarge(
            f"coefficient exponent {brief(e)} is past {DEFAULT_CAP}, the default "
            "closure cap: level 1, (Z/e)^r, would have at least e elements"
        )
    if not _is_prime_power(e):
        raise PreconditionViolated(f"coefficient exponent {e} is not a prime power")


class SolvModel:
    def __init__(self, rank: int, exponent: int, m: int, group: FiniteGroup,
                 levels: List[FiniteGroup], series: List[Subgroup], degenerate: bool):
        self.rank = rank
        self.exponent = exponent
        self.m = m
        self.group = group
        self.levels = levels
        self.series = series  # derived series of `group`
        self.degenerate = degenerate
        self.note = MODEL_NOTE


def build_solv_model(r: int, e: int, m: int, cap: int = DEFAULT_CAP) -> SolvModel:
    """Materialize the level-m model; CapExceeded, before any closure, if
    its predicted order passes cap, and TooLarge if it passes `COORD_LIMIT`,
    the largest level the closure indexes by one flat array.

    Every level is a group of packed Magnus ints (see `_PackedMagnusLaw`),
    each one the closure over the level below, starting from the trivial
    group; the model's derived series is computed once and kept on the
    result.  Each enumerated level must have its predicted order.
    """
    from .crowell import _PackedMagnusLaw

    orders = _predicted_orders(r, e, m)
    if orders[-1] > cap:
        raise CapExceeded(cap, orders[-1], predicted=True)
    if orders[-1] > COORD_LIMIT:
        raise TooLarge(
            f"model order {brief(orders[-1])} is past {COORD_LIMIT}, the most "
            "elements a level can be indexed by"
        )
    W = trivial_group()
    levels = []
    for _ in range(len(orders) if m else 0):
        law = _PackedMagnusLaw(_context_above(r, e, W))
        W = closure(law.generators, cap=cap, identity=0, law=law)
        levels.append(W)
    levels = levels or [W]
    for k, (level, order) in enumerate(zip(levels, orders), 1):
        if level.order != order:
            raise VerdictFailed(f"model level {k} has {level.order} elements, predicted {order}")
    degenerate = m <= 1 or r == 1
    series = derived_series(W)
    if not degenerate and len(series) - 1 > m:
        raise VerdictFailed(
            f"model exceeds its solvable length bound: derived length "
            f"{len(series) - 1} > m = {m}"
        )
    return SolvModel(r, e, m, W, levels, series, degenerate)


def _context_above(r: int, e: int, Q: FiniteGroup) -> QuotientContext:
    """The context of the level above Q: x_i -> Q's generator i, over (Z/e)[Q].

    The trivial group has no generators, so there every x_i maps to the
    identity and the level above is (Z/e)^r.
    """
    from .foxcalc import QuotientContext

    return QuotientContext(r, Q, list(Q.gen_indices) or [0] * r, e)


def _predicted_orders(r: int, e: int, m: int) -> list:
    """|W(r, e, k)| for k = 1..m, before anything is enumerated.

    |W_k| = |Q| |ker f| over Q = W_(k-1), from |W_0| = 1: im f is the
    augmentation ideal, free of rank |Q| - 1, so |ker f| = e^((r-1)|Q|+1),
    which is e^r at k = 1.  TooLarge at the first level whose packed law
    would pass the digit limit.
    """
    from .crowell import _PackedMagnusLaw

    _check_exponent(e)
    if r < 1 or m < 0:
        raise PreconditionViolated("need rank >= 1 and level m >= 0")
    if m == 0:
        return [1]
    orders = []
    q = 1
    # a rank-1 free group is Z: every higher derived subgroup vanishes, so
    # the model collapses to level 1, C_e, at every m
    for _ in range(1 if r == 1 else m):
        _PackedMagnusLaw.check_size(r, q)
        q *= e ** ((r - 1) * q + 1)
        orders.append(q)
    return orders


def module_part_basis(model: SolvModel):
    """Identify the module part {elements with top-left 1} with ker f.

    Returns (K basis as {slot: residue} rows, module element count) after
    verifying that the group-theoretic module part has exactly the
    kernel's span size and that each kernel basis row is an enumerated
    group element; size equality plus one-sided containment force set
    equality, so the basis of ker f describes the module part exactly.
    """
    if model.degenerate or model.m < 2:
        raise PreconditionViolated("no module part below level 2")
    W = model.group
    law = W.law
    ctx = law.ctx
    K, span = _ker_f(ctx)
    # the module part is the elements whose quotient index x % |Q| is 0
    module_count = W.index.count_multiples(law.base)
    if module_count != span:
        raise VerdictFailed(
            f"module part has {module_count} elements but ker f spans {span}"
        )
    for i, row in enumerate(K):
        if law.pack(0, row) not in W.index:
            raise VerdictFailed(f"kernel basis row {i} is not a group element")
    return K, module_count


def _ker_f(ctx: QuotientContext, rows: bool = True):
    """(basis of ker f, |ker f|): every cycle of Q's graph (`_cycle_space`)."""
    return _cycle_space(ctx, range(ctx.ring.dimension), rows)


def _k_cap(ctx: QuotientContext, xn_q: int, rows: bool = True):
    """(basis, size) of K_cap, the cycles that x^n fixes (`_cycle_space`)."""
    return _cycle_space(ctx, _left_sources(ctx, xn_q), rows)


def _cycle_space(ctx: QuotientContext, src: Sequence[int], rows: bool):
    """({slot: residue} basis rows, size) of the cycles of Q's right Cayley
    graph (edge j -> j q_b at slot b|Q| + j) fixed by `src`, left
    multiplication by some q, which acts freely.  They are constant on edge
    orbits, so they are the cycles of the orbit graph: vertices src's
    cycles, edge b * (orbit count) + U from U to the orbit of u q_b, u in U.
    A BFS tree from the orbit of 0 must reach every orbit (VerdictFailed if
    not); then the fundamental cycles, e_t plus the tree path to co-tree
    edge t's tail less that to its head, are a free basis of size
    e^(co-tree edges), lifted to R^r over each edge orbit's slots.  With
    `rows` False only the tree is made."""
    G, d, e = ctx.group, ctx.ring.dimension, ctx.ring.modulus
    orbit, members = [-1] * d, []  # each vertex's orbit, and each orbit's vertices
    for v in range(d):
        if orbit[v] < 0:
            members.append([])
        while orbit[v] < 0:
            orbit[v] = len(members) - 1
            members[-1].append(v)
            v = src[v]
    nv = len(members)
    heads = [orbit[G.mul(cyc[0], q)] for q in ctx.images for cyc in members]
    into, depth = [-1] * nv, [0] + [-1] * (nv - 1)  # the tree edge into each vertex
    reached = [0]
    for u in reached:
        for t in range(u, len(heads), nv):
            if depth[heads[t]] < 0:
                into[heads[t]], depth[heads[t]] = t, depth[u] + 1
                reached.append(heads[t])
    if len(reached) != nv:
        raise VerdictFailed(f"the spanning tree reaches {len(reached)} of {nv} vertices")
    basis = []
    for t in range(len(heads) if rows else 0):
        a, b = t % nv, heads[t]
        if into[b] == t:
            continue
        cycle = {t: 1}
        while a != b:  # up the tree from the deeper end, to where they meet
            if depth[a] >= depth[b]:
                cycle[into[a]], a = 1, into[a] % nv
            else:
                cycle[into[b]], b = e - 1, into[b] % nv
        basis.append({s // nv * d + u: c for s, c in cycle.items() for u in members[s % nv]})
    return basis, e ** (len(heads) - nv + 1)


def _left_sources(ctx: QuotientContext, q: int) -> tuple:
    """Slot k of q v reads slot _left_sources(ctx, q)[k] of v, for v in R^r."""
    d = ctx.ring.dimension
    inv = [0] * d
    for src, dst in enumerate(ctx.left_mult_perm(q)):
        inv[dst] = src
    return tuple(b * d + inv[idx] for b in range(ctx.rank) for idx in range(d))


def check_centralizer_question(r: int, e: int, m: int, i: int, n: int) -> None:
    """PreconditionViolated (TooLarge for a huge e) unless the centralizer
    of mu(x_i)^n in W(r, e, m) is a valid question: e a prime power within
    the default closure cap (`_check_exponent`), m >= 2 and r >= 2 (at rank
    1 the model is C_e at every m), 1 <= i <= r, and n >= 1 with e not
    dividing n (else x_i^n dies in the abelianization).  Reads only its
    arguments."""
    _check_exponent(e)
    if m < 2:
        raise PreconditionViolated(f"a centralizer question needs level >= 2, not m = {m}")
    if r < 2:
        raise PreconditionViolated(
            "a centralizer question needs rank >= 2: at rank 1 the model is C_e at every m"
        )
    if not 1 <= i <= r:
        raise PreconditionViolated(f"generator index {brief(i)} outside 1..{brief(r)}")
    if n < 1 or n % e == 0:
        raise PreconditionViolated(
            f"need n >= 1 with x_{i}^n nontrivial mod e = {e}, got n = {brief(n)}"
        )


def _power_products(W: FiniteGroup, i: int, n: int):
    """(R, L, powers) with R[k], L[k] the indices of el_k * x_i^n and
    x_i^n * el_k, and powers[t] the index of x_i^t for t < ord(x_i).

    All three come from W's Cayley table alone: powers is the cycle of
    generator column i-1 through 0, R takes n steps along that column, and
    L follows the BFS tree (`_tree_edges`), since (x^n p) g = x^n (p g)
    gives L[child] = gen_table[L[parent] * ngens + g].

    The column is a strided memoryview of the table, read in place, and
    at n = 1 it is R itself, so no copy of it is made.  Column i-1 is a
    permutation, so for n > 1 R walks each of its cycles once with a and
    b = a x^n in lockstep: two reads per element whatever n is.
    Composing a list copy of the column n - 1 times is faster for small
    n, but its boxed entries add 20-24 MB to the peak RSS of a W(2,3,2)
    run (BENCH_11.json).  n is first reduced mod the order of x, the
    length of powers, so each cycle's first b costs fewer than ord(x)
    steps however large n is.
    """
    table = W.gen_table
    ng = len(W.generators)
    col = memoryview(table)[i - 1 :: ng]
    powers = [0]
    while col[powers[-1]] != 0:
        powers.append(col[powers[-1]])
    n %= len(powers)
    R = col
    if n != 1:
        R = array("i", [-1]) * W.order
        for start in range(W.order):
            if R[start] < 0:
                a = b = start
                for _ in range(n):
                    b = col[b]
                while R[a] < 0:
                    R[a] = b
                    a, b = col[a], col[b]
    L = array("i", [R[0]]) * W.order
    for k, pos in enumerate(_tree_edges(table), 1):
        L[k] = table[L[pos // ng] * ng + pos % ng]
    return R, L, powers


def centralizer_experiment(model: SolvModel, i: int, n: int) -> SimpleNamespace:
    """Brute centralizer of mu(x_i)^n versus the linear-algebra oracle."""
    from .zmodlin import RMatrix, span_equal

    check_centralizer_question(model.rank, model.exponent, model.m, i, n)
    W = model.group
    law = W.law
    ctx = law.ctx

    # brute force: every element against mu(x_i)^n, over the Cayley table
    R, L, powers = _power_products(W, i, n)
    cz_elements = list(compress(W.elements, map(eq, R, L)))
    module = [x for x in cz_elements if law.q(x) == 0]
    mu_n_q = law.q(W.elements[R[0]])

    # linear oracle: K_cap = {v in ker f : (x^n - 1) v = 0}
    module_part_basis(model)  # VerdictFailed unless the module part is ker f
    basis_rows, k_cap_linear = _k_cap(ctx, mu_n_q)

    # exact set equality: sizes agree and the brute vectors lie in the span
    k_basis = RMatrix.from_dict_rows(ctx.ring.modulus, basis_rows, ctx.rank * ctx.ring.dimension)
    brute = RMatrix.from_rows(k_basis.modulus, map(law.vector, module), cols=k_basis.cols)
    stacked = k_basis.vstack(brute)
    oracle_equal = len(module) == k_cap_linear and span_equal(k_basis, stacked)

    # decomposition: C must equal <mu(x_i)> * K_cap as a set
    product_set = {law.mul(W.elements[p], v) for p in powers for v in module}
    decomposition = product_set == set(cz_elements)

    return SimpleNamespace(
        rank=model.rank,
        exponent=model.exponent,
        m=model.m,
        generator=i,
        n=n,
        group_order=W.order,
        x_order=len(powers),
        centralizer_order=len(cz_elements),
        k_cap_brute=len(module),
        k_cap_linear=k_cap_linear,
        oracle_equal=oracle_equal,
        decomposition_holds=decomposition,
        note=MODEL_NOTE,
    )


def kcap_tower(
    r: int, m: int, exponents: Sequence[int], i: int, n: int, cap: int = DEFAULT_CAP
) -> list:
    """|K_cap| along a tower of increasing coefficient exponents.

    The top level's module part equals ker f, so |K_cap| is computable by
    linear algebra alone even when the group itself is far beyond
    materialization (its order is |Q| * |ker f|).  Rows whose level m fits
    under `cap` and `COORD_LIMIT` (past which `build_solv_model` refuses
    it) are additionally verified against the brute-force
    centralizer experiment.  Every exponent's question is checked before
    the first row is computed, and so is the size of what its row reports
    (`_check_row_digits`).

    A row's group_order is the model's order |Q| * |ker f|, brute or
    predicted; verified_brute says whether the full group was
    materialized, and brute_matches is vacuously True for linear-only rows.
    """
    for e in exponents:
        check_centralizer_question(r, e, m, i, n)
    for e in exponents:
        _check_row_digits(r, e, m)
    entries = []
    for e in exponents:
        # a verified row builds level m, and reads level m - 1 off it
        try:
            verified = _predicted_orders(r, e, m)[-1] <= min(cap, COORD_LIMIT)
        except TooLarge:  # level m has no packed law: a linear-only row
            verified = False
        model = build_solv_model(r, e, m if verified else m - 1, cap=cap)
        prev = model.levels[-2] if verified else model.group
        # level m's law already holds the context above level m - 1
        ctx = model.group.law.ctx if verified else _context_above(r, e, prev)
        _, kf_span = _ker_f(ctx, rows=False)
        _, k_cap = _k_cap(ctx, prev.power(ctx.images[i - 1], n), rows=False)
        order = prev.order * kf_span
        matches = True
        if verified:
            rep = centralizer_experiment(model, i, n)
            matches = (
                rep.oracle_equal
                and rep.decomposition_holds
                and rep.k_cap_linear == k_cap
                and model.group.order == order
            )
        entries.append(
            SimpleNamespace(
                e=e,
                q_order=prev.order,
                kernel_span=kf_span,
                k_cap=k_cap,
                group_order=order,
                verified_brute=verified,
                brute_matches=matches,
            )
        )
    return entries


def _check_row_digits(r: int, e: int, m: int) -> None:
    """TooLarge if the tower row of W(r, e, m) would report an int of more
    than REPORT_INT_DIGITS decimal digits.

    Its largest is the model order |Q| e^k, k = (r - 1)|Q| + 1, with |Q|
    predicted one level down.  The test is exact and never makes a huge
    int or float: e >= 2 and 2^4 > 10, so past k = 4 * REPORT_INT_DIGITS
    e^k is surely past 10^REPORT_INT_DIGITS, decided on ints alone, as k
    itself may have hundreds of digits; below it, past
    10^(REPORT_INT_DIGITS + 1) by the float estimate, it surely is too,
    and otherwise |Q| e^k has about REPORT_INT_DIGITS digits and is
    compared exactly.
    """
    q = _predicted_orders(r, e, m - 1)[-1]
    k = (r - 1) * q + 1
    if (
        k <= 4 * REPORT_INT_DIGITS
        and k * math.log10(e) < REPORT_INT_DIGITS + 1
        and q * e**k < 10**REPORT_INT_DIGITS
    ):
        return
    raise TooLarge(
        f"the tower row at e = {e} would report a model order of more than "
        f"{REPORT_INT_DIGITS} decimal digits"
    )


@run_memo
def _bfs_prefix(r: int, e: int, m: int, cap: int):
    """The packed law of W(r, e, m), its first `cap` BFS elements, the BFS
    tree that reached them, and whether they are all of W.

    Returns (law, elements, edges, complete), elements as `_bfs` gives
    them: a flat array('I') when the cap admits the whole level, else a
    list.
    The BFS runs from the identity 0 over `law.generators`, so element k
    is the one `closure` would list at k.  edges[k - 1] is the Cayley-table position
    row * ngens + g of the edge that first reached element k >= 1
    (`_tree_edges`): element k is element `row` times generator g + 1.  A
    capped table keeps the row its cap cut short, so it holds the edge
    into every element of the prefix.  A run memo, built once for
    the probe instances of a run that share (r, e, m, cap), so it holds
    only what the probe reads: not the BFS's index dict or its Cayley rows,
    only one tree edge per element.
    """
    from .crowell import _PackedMagnusLaw

    law = _PackedMagnusLaw(_context_above(r, e, build_solv_model(r, e, m - 1).group))
    elements, _, table, complete = _bfs(law.generators, 0, law, cap)
    return law, elements, array("i", _tree_edges(table)), complete


def _folded_steps(law, i: int, n: int) -> list:
    """n right steps by x_i folded into one step per quotient index q.

    From [[q, v]], n steps along column i-1 of `law.step_rows` move q to
    q x^n one level down and add 1 to the digit of slot (i-1)*d + q x^j,
    x^j also taken one level down, for each j < n.  Entry q is (shift,
    wraps): a x_i^n is a + shift, less e*w for each (e*w, (e-c)*w) in
    wraps with a % (e*w) >= (e-c)*w, where c is the slot's hit count mod e
    (a slot hit a multiple of e times drops out).
    """
    col = [row[i - 1] for row in law.step_rows]
    e = law.e
    folded = []
    for q in range(law.base):
        hits: dict = {}
        p = q
        for _ in range(n):
            delta, ew, _top = col[p]
            w = ew // e
            hits[w] = hits.get(w, 0) + 1
            p += delta - w
        shift = p - q
        wraps = []
        for w, c in hits.items():
            c %= e
            if c:
                shift += c * w
                wraps.append((e * w, (e - c) * w))
        folded.append((shift, tuple(wraps)))
    return folded


def _prefix_power_products(law, elements, edges, i: int, n: int):
    """(left, cz): left[k] = x_i^n el_k, and cz the elements el_k with
    el_k x_i^n = left[k], in prefix order.

    Both sides are packed ints, possibly outside the prefix, taken by
    generator steps of `law.step_rows` alone.  Left multiplication by x^n
    commutes with right products, so left[k] = left[row] g along the
    prefix's BFS-tree edge into element k, starting from left[0] = x^n.
    el_k x^n is one folded step from el_k (`_folded_steps`), whose
    quotient index is (q + shift) mod |Q| for el_k's q: every wrap takes
    off a multiple of |Q|.  Two packed ints differ where their quotient
    indices do, so the folded step is made in full only for the elements
    whose two products agree there.  left comes in the container the
    elements do: a whole level's products are below `law.end`, so they
    fit its array's typecode, while a prefix's run to 256 digits.
    """
    base = law.base
    folded = _folded_steps(law, i, n)
    rows = law.step_rows
    ng = len(law.generators)
    left = array(elements.typecode) if isinstance(elements, array) else []
    left.append(folded[0][0])  # x^n, the step from the identity 0
    for pos in edges:
        a = left[pos // ng]
        delta, ew, top = rows[a % base][pos % ng]
        left.append(a + delta - ew if a % ew >= top else a + delta)
    right_q = [(q + shift) % base for q, (shift, _) in enumerate(folded)]
    cz = []
    for a, b in zip(elements, left):
        q = a % base
        if right_q[q] == b % base:
            shift, wraps = folded[q]
            c = a + shift
            for ew, top in wraps:
                if a % ew >= top:
                    c -= ew
            if c == b:
                cz.append(a)
    return left, cz


def centralizer_probe_capped(
    r: int, e: int, m: int, cap: int, i: int, n: int
) -> SimpleNamespace:
    """Pointwise centralizer checks on a deterministic BFS prefix of W_m.

    For levels whose full closure is out of reach, the first `cap` elements
    in breadth-first generator order (the BFS of `closure`, stopped at
    `cap`) are enumerated and every check is stated pointwise: an
    enumerated element commutes with mu(x_i)^n iff the block-linear
    condition holds for it, and every enumerated centralizer element
    factors as mu(x_i)^t times a module element killed by x_i^n - 1 (the
    cofactor need not itself lie in the prefix).  `complete` is True when
    the prefix is the whole group.

    An invalid question, a cap past `COORD_LIMIT` (the prefix's table and
    tree edges are array('i') values) or an oversized law
    (`_predicted_orders`) is refused before the prefix is looked up, so
    before any closure.
    The prefix is packed ints with its BFS tree (`_bfs_prefix`), and
    whether an element commutes is decided by generator steps alone
    (`_prefix_power_products`): x^n el along the tree, and el x^n by one
    folded step per quotient index, made in full only where its quotient
    index is that of x^n el.  x^o = [[1, v]] for o the order of x
    one level down, so x^(o e) = 1 and both the products and mu(x_i)^n are
    taken at n mod o e; the report echoes n.

    The linear prediction decides its q-part once, as the set of q that
    commute with x^n one level down.  That set is a filter, not a second
    condition: Fox's formula gives f(v) = q - 1 for [[q, v]] in W, and
    applying f to (x^n - 1) v = (q - 1) w_n gives x^n q = q x^n, so the
    vector condition alone already excludes every other q.  For each q in
    it, the vector condition is one congruence per slot k,
    v[src[k]] - v[k] = ((q - 1) w_n)[k] mod e with src from
    `_left_sources`, and digit k of a packed element a is
    a // weight[k] % e; so no element is unpacked, and an element is
    dropped at its first failing slot.  The prediction reads neither
    `law.step_rows` nor the products with x^n; x^n itself, and the
    decomposition's cofactors, are `law.mul` and `law.inv` products.
    """
    check_centralizer_question(r, e, m, i, n)
    if cap < 2:
        raise PreconditionViolated("cap too small to enumerate anything")
    if cap > COORD_LIMIT:
        raise TooLarge(
            f"cap {brief(cap)} is past {COORD_LIMIT}, the most elements a "
            "prefix's generator table can index"
        )
    _predicted_orders(r, e, m)
    law, elements, edges, complete = _bfs_prefix(r, e, m, cap)
    ctx = law.ctx
    prev = ctx.group
    base = law.base
    mu = law.generators[i - 1]
    mu_hat = law.q(mu)

    # powers of the one-level-down image of x_i, for the decomposition;
    # there are o of them, o its order
    hat_powers = {0: 0}
    g = mu_hat
    while g != 0:
        hat_powers[g] = len(hat_powers)
        g = prev.mul(g, mu_hat)
    n_top = n % (len(hat_powers) * e)  # not 0: e divides o e but not n

    _, cz = _prefix_power_products(law, elements, edges, i, n_top)
    mu_inv = law.inv(mu)
    mu_n = 0  # the packed identity
    for _ in range(n_top):
        mu_n = law.mul(mu_n, mu)
    xn_hat = law.q(mu_n)

    # linear prediction, decided once over Q: for each q that commutes with
    # x^n one level down, entry k of rhs_of[q] is entry k of (q - 1) w_n,
    # and slot k pairs the weights of digits src[k] and k
    w_n = law.vector(mu_n)
    weight = law.weight
    slots = [(weight[s], weight[k]) for k, s in enumerate(_left_sources(ctx, xn_hat))]
    rhs_of = {
        q: tuple([(w_n[s] - c) % e for s, c in zip(_left_sources(ctx, q), w_n)])
        for q in range(prev.order)
        if prev.mul(q, xn_hat) == prev.mul(xn_hat, q)
    }
    # the elements whose q is in rhs_of, filtered by (x^n - 1) v = (q - 1) w_n
    # one slot at a time: an element is dropped at its first failing slot
    predicted = [a for a in elements if a % base in rhs_of]
    for k, (ws, w) in enumerate(slots):
        if not predicted:
            break
        predicted = [a for a in predicted if (a // ws - a // w) % e == rhs_of[a % base][k]]

    # brute side: cz, the elements whose two products agree
    decomposition_ok = True
    kcap_seen = 0
    for a in cz:
        q = a % base
        kcap_seen += q == 0
        t = hat_powers.get(q)
        if t is None:
            decomposition_ok = False
        else:
            factor = a
            for _ in range(t):
                factor = law.mul(mu_inv, factor)
            if law.q(factor) != 0 or law.mul(factor, mu_n) != law.mul(mu_n, factor):
                decomposition_ok = False
    return SimpleNamespace(
        rank=r,
        exponent=e,
        m=m,
        generator=i,
        n=n,
        cap=cap,
        enumerated=len(elements),
        complete=complete,
        centralizer_seen=len(cz),
        module_seen=countOf(map(mod, elements, repeat(base)), 0),
        k_cap_seen=kcap_seen,
        oracle_equal_pointwise=predicted == cz,
        decomposition_holds_pointwise=decomposition_ok,
        note=MODEL_NOTE,
    )


# ------------------------------------------------------------- surfaces


def euler_char(g: int, r: int):
    """(chi, hyperbolic) for a genus-g surface with r punctures."""
    if g < 0 or r < 0:
        raise PreconditionViolated("genus and puncture count must be >= 0")
    chi = 2 - 2 * g - r
    return chi, chi < 0


class PresentationData:
    def __init__(self, rank: int, relators: tuple, exponent_matrix: tuple):
        for w in relators:
            if w.rank != rank:
                raise PreconditionViolated("relator rank mismatch")
        self.rank = rank
        self.relators = relators
        self.exponent_matrix = exponent_matrix  # one row per relator, one column per generator


def presentation(rank: int, relators: Sequence[FreeWord]) -> PresentationData:
    rows = []
    for w in relators:
        row = [0] * rank
        for j, exp in w.letters:
            row[j - 1] += exp
        rows.append(tuple(row))
    return PresentationData(
        rank=rank, relators=tuple(relators), exponent_matrix=tuple(rows)
    )


def surface_presentation(g: int) -> PresentationData:
    """<a_1, b_1, ..., a_g, b_g | prod [a_i, b_i]>; relator length 4g."""
    from .foxcalc import commutator, empty_word, generator_word

    if g < 1:
        raise PreconditionViolated("genus must be >= 1")
    rank = 2 * g
    rel = empty_word(rank)
    for i in range(g):
        a = generator_word(rank, 2 * i + 1)
        b = generator_word(rank, 2 * i + 2)
        rel = rel * commutator(a, b)
    return presentation(rank, [rel])


def presentation_abelianization(p: PresentationData) -> SimpleNamespace:
    """The abelianization of p: invariant_factors, the nonzero invariant
    factors of its exponent matrix, free_rank and torsion_free."""
    from .zmodlin import smith_normal_form_int

    if not p.relators:
        return SimpleNamespace(invariant_factors=(), free_rank=p.rank, torsion_free=True)
    factors = smith_normal_form_int([list(r) for r in p.exponent_matrix])
    free_rank = p.rank - len(factors)
    return SimpleNamespace(
        invariant_factors=factors,
        free_rank=free_rank,
        torsion_free=all(f == 1 for f in factors),
    )


# ------------------------------------------------------------ corpus scan


class ScanProfile:
    """The part of a group's center-freeness scan that no m changes.

    Z(G), the derived series and the normal-subgroup lattice are computed
    when the profile is made.  The verdict of whether G/N acts faithfully
    on N^ab is decided for the k-th normal N, and the quotient by the k-th
    derived term is taken with its projection and center, the first time
    some m asks for it (`faithful`, `quotient`): every m past the derived
    length reads the same term.
    """

    def __init__(self, G: FiniteGroup):
        self.group = G
        self.center = center(G)
        self.series = derived_series(G)
        self.normals = normal_subgroups(G)
        self._faithful: dict = {}
        self._quotients: dict = {}

    def faithful(self, k: int) -> bool:
        if k not in self._faithful:
            self._faithful[k] = conj_action_faithful(self.group, self.normals[k])[0]
        return self._faithful[k]

    def quotient(self, k: int):
        """(Q, proj, Z(Q)) for Q = G / series[k]."""
        if k not in self._quotients:
            Q, proj = quotient_by(self.group, self.series[k])
            self._quotients[k] = Q, proj, center(Q)
        return self._quotients[k]


def centerfree_scan(corpus: Sequence, m: int) -> list:
    """Center-freeness of G versus its maximal m-step solvable quotient.

    Corpus entries are (label, group) pairs, the group a FiniteGroup or
    its `ScanProfile`.  For each group the scan records Z(G), Z(G^(m)),
    whether Z(G^(m)) lies in the image of the (m-1)-st derived subgroup,
    and conjugation-faithfulness on N^ab for every normal N containing
    that derived subgroup.  A group is flagged when it is center-free but
    its quotient is not.  ab_faithful lists (|N|, faithful on N^ab?) pairs.

    Everything but the derived-image test is read from the profile, which
    a FiniteGroup gets for this call alone: the quotient G/G^(m) and its
    center are taken once per derived term, so every m at or past the
    derived length reads the same one.  The CLI passes profiles, so a run
    that scans one corpus at several m builds each lattice and each
    quotient once.
    """
    out = []
    for label, G in corpus:
        profile = G if isinstance(G, ScanProfile) else ScanProfile(G)
        G, Z, series = profile.group, profile.center, profile.series
        last = len(series) - 1
        Q, proj, ZQ = profile.quotient(min(m, last))
        upper = series[min(max(m - 1, 0), last)]
        upper_image = {proj(i) for i in upper.indices}
        center_in = all(q in upper_image for q in ZQ.indices)
        faith = [
            (N.order, profile.faithful(k))
            for k, N in enumerate(profile.normals)
            if upper.element_set <= N.element_set
        ]
        out.append(
            SimpleNamespace(
                label=label,
                order=G.order,
                center_order=Z.order,
                quotient_order=Q.order,
                quotient_center_order=ZQ.order,
                flagged=(Z.order == 1 and ZQ.order > 1),
                center_in_derived_image=center_in,
                ab_faithful=tuple(sorted(faith)),
            )
        )
    return out
