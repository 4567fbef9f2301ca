"""Rates of the hot primitives on fixed inputs.

These primitives run hundreds of thousands of times per workload, so the
traced run does not wrap them; their cost is timed here instead, on inputs
that never depend on the workload seed.  Every figure is the median of
REPEATS timed batches.  Import only with ``src`` on sys.path.
"""

from __future__ import annotations

import random
import statistics
import time

from msolv.constructions import counterexample_group
from msolv.crowell import MagnusMatrix
from msolv.fingroup import PermElem, closure
from msolv.foxcalc import FreeWord, QuotientContext, fox_row
from msolv.models import build_solv_model
from msolv.zmodlin import RMatrix, howell_form

REPEATS = 5


def _median_batch_s(batch) -> float:
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        batch()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _group_mul_per_s(G, sweeps: int) -> float:
    pairs = [(i, j) for i in range(G.order) for j in range(G.order)]
    mul = G.mul

    def batch():
        for _ in range(sweeps):
            for i, j in pairs:
                mul(i, j)

    return sweeps * len(pairs) / _median_batch_s(batch)


def _magnus_mul_per_s(e: int, level: int, count: int) -> float:
    """All-pairs products of `count` fixed Magnus matrices over the rank-2
    model of exponent e at `level`, whose order is the ring dimension."""
    lower = build_solv_model(2, e, level).group
    ctx = QuotientContext(2, lower, list(lower.gen_indices), e)
    gens = [MagnusMatrix.generator(ctx, i) for i in (1, 2)]
    gens += [g.inverse() for g in gens]
    rng = random.Random(9)
    mats = []
    for _ in range(count):
        m = MagnusMatrix.identity(ctx)
        for _ in range(12):
            m = m * rng.choice(gens)
        mats.append(m)
    for a in mats:  # fill the left-multiplication cache, as a long run would
        a * a

    def batch():
        for a in mats:
            for b in mats:
                a * b

    return count * count / _median_batch_s(batch)


def _howell_s(modulus: int) -> float:
    """Seconds per howell_form call on seeded 12x12 matrices over Z/modulus."""
    rng = random.Random(modulus)
    mats = [
        RMatrix.from_rows(modulus, [[rng.randrange(modulus) for _ in range(12)] for _ in range(12)])
        for _ in range(8)
    ]

    def batch():
        for M in mats:
            howell_form(M)

    return _median_batch_s(batch) / len(mats)


def _fox_row_per_s() -> float:
    """fox_row on length-1000 reduced words into the 72-element group."""
    G = counterexample_group()
    ctx = QuotientContext(4, G, list(G.gen_indices), 2)
    rng = random.Random(1000)
    words = []
    for _ in range(4):
        letters = []
        while len(letters) < 1000:
            letter = (rng.randint(1, 4), rng.choice((1, -1)))
            if letters and letters[-1] == (letter[0], -letter[1]):
                continue
            letters.append(letter)
        words.append(FreeWord(4, tuple(letters)))

    def batch():
        for w in words:
            fox_row(ctx, w)

    return len(words) / _median_batch_s(batch)


def primitive_rates() -> dict:
    """Metric name -> value for every fixed-input primitive."""
    s4 = closure([PermElem.from_cycles(4, [(0, 1, 2, 3)]), PermElem.from_cycles(4, [(0, 1)])])
    return {
        "fingroup.mul_per_s.S4": _group_mul_per_s(s4, 40),
        "fingroup.mul_per_s.cx72": _group_mul_per_s(counterexample_group(), 4),
        "crowell.magnus_mul_per_s.d9": _magnus_mul_per_s(3, 1, 64),
        "crowell.magnus_mul_per_s.d128": _magnus_mul_per_s(2, 2, 16),
        "zmodlin.howell_form_s.z8_12x12": _howell_s(8),
        "zmodlin.howell_form_s.z27_12x12": _howell_s(27),
        "foxcalc.fox_row_per_s.len1000": _fox_row_per_s(),
    }
