"""Acceptance gate: the twelve headline checks, one test per criterion.

Each test prints a single stamped pass line (visible with -s) and is
itself the pass/fail line under `pytest -v`.  Every criterion carries a
wall-clock budget asserted at the end of the test, with the measured
time in the stamp.  Oracle values frozen here were computed by
independent brute-force enumeration.
"""

import itertools
import json
import random
import subprocess
import sys
import time

import pytest

from msolv.constructions import (
    GTildeInstance,
    build_counterexample,
    counterexample_group,
    dihedral_group_8,
    gtilde_experiment,
    reduction_lemma_check,
)
from msolv.crowell import build_complex, exactness_check, magnus_image, relator_kernel_check
from msolv.errors import PreconditionViolated
from msolv.fingroup import (
    PermElem,
    Subgroup,
    abelianization,
    all_subgroups,
    center,
    centralizer,
    closure,
    conj_action_on_ab,
    derived_series,
    derived_subgroup,
    derived_term,
    iso_test_small,
    left_transversal,
    m_step_quotient,
    natural_ab_map,
    normal_subgroups,
    subgroup_closure,
    transfer_map,
)
from msolv.foxcalc import (
    QuotientContext,
    empty_word,
    expansion_check,
    fox_row,
    generator_word,
    reduce_word,
)
from msolv.grpring import CyclicTower, kernel_projection_check
from msolv.models import (
    build_solv_model,
    centralizer_experiment,
    centralizer_probe_capped,
    module_part_basis,
)
from msolv.zmodlin import scalar_kernel, valuation

# ------------------------------------------------------------- helpers


def stamp(num, desc, t0, bound):
    elapsed = time.perf_counter() - t0
    print(f"[PASS] criterion {num:2d} ({elapsed:6.2f}s < {bound}s): {desc}")
    assert elapsed < bound, f"criterion {num} exceeded its {bound}s budget"


def cyclic_group(k):
    return closure([PermElem(tuple((i + 1) % k for i in range(k)))])


def s3():
    return closure([PermElem((1, 2, 0)), PermElem((1, 0, 2))])


def klein():
    return closure([PermElem((1, 0, 2, 3)), PermElem((0, 1, 3, 2))])


def d8():
    return closure([PermElem((1, 2, 3, 0)), PermElem((3, 2, 1, 0))])


def d12():
    return closure([PermElem((1, 2, 3, 4, 5, 0)), PermElem((5, 4, 3, 2, 1, 0))])


def a4():
    return closure([PermElem((1, 2, 0, 3)), PermElem((0, 2, 3, 1))])


def s4():
    return closure([PermElem((1, 2, 3, 0)), PermElem((1, 0, 2, 3))])


def q8():
    from msolv.fingroup import MatElem

    return closure([MatElem(3, (0, 2, 1, 0)), MatElem(3, (1, 1, 1, 2))])


def random_word(rng, rank, max_len):
    raw = [
        (rng.randrange(1, rank + 1), rng.choice((1, -1)))
        for _ in range(rng.randrange(max_len + 1))
    ]
    return reduce_word(raw, rank)


def all_reduced_words(rank, max_len):
    alphabet = [(i, s) for i in range(1, rank + 1) for s in (1, -1)]
    out = [empty_word(rank)]
    frontier = [[]]
    for _ in range(max_len):
        nxt = []
        for seq in frontier:
            for let in alphabet:
                if seq and seq[-1] == (let[0], -let[1]):
                    continue
                nxt.append(seq + [let])
                out.append(reduce_word(seq + [let], rank))
        frontier = nxt
    return out


# =================================================================== 1


def test_criterion_01_counterexample():
    """72-element group: trivial center, 2-step quotient D8 with center C2."""
    t0 = time.perf_counter()
    b = build_counterexample()
    assert b.group.order == 72
    assert center(b.group).order == 1
    assert b.quotient.order == 8
    assert iso_test_small(b.quotient, dihedral_group_8())
    assert center(b.quotient).order == 2
    assert [s.order for s in derived_series(b.group)] == [72, 18, 9, 1]
    stamp(1, "72-element construction and its dihedral 2-step quotient", t0, 1)


# =================================================================== 2


def test_criterion_02_reduction_lemma():
    """Exhaustive scalar-kernel sweep u <= 2 plus 1000 random u <= 6."""
    t0 = time.perf_counter()
    cases = 0
    for ell in (2, 3):
        for sigma in (1, 2, 3):
            for ntilde in range(1, 13):
                if sigma <= valuation(ntilde, ell):
                    continue
                mod = ell**sigma
                t = scalar_kernel(ntilde, ell, sigma)
                entries = list(range(0, mod, t)) if t else [0]
                for u in (1, 2):
                    for combo in itertools.product(entries, repeat=u * u):
                        rep = reduction_lemma_check(combo, ntilde, ell, sigma)
                        assert rep.passed and not rep.vacuous
                        cases += 1
    assert cases > 1000
    rng = random.Random(2024)
    done = 0
    while done < 1000:
        ell = rng.choice((2, 3))
        sigma = rng.randrange(1, 4)
        ntilde = rng.randrange(1, 13)
        if sigma <= valuation(ntilde, ell):
            continue
        u = rng.randrange(1, 7)
        mod = ell**sigma
        step = scalar_kernel(ntilde, ell, sigma) or mod
        entries = [step * rng.randrange(mod // step) % mod for _ in range(u * u)]
        rep = reduction_lemma_check(entries, ntilde, ell, sigma)
        assert rep.passed and not rep.vacuous
        done += 1
    stamp(2, f"reduction lemma on {cases} exhaustive + 1000 random matrices", t0, 10)


# =================================================================== 3


def test_criterion_03_block_triangular_diagonal():
    """Feasible commuting pairs are exactly the diagonal (x^k, k)."""
    t0 = time.perf_counter()
    for G, x in [(s3(), None), (cyclic_group(6), None)]:
        x = G.gen_indices[0]
        rep = gtilde_experiment(GTildeInstance(G, x, 1, 3, 2))
        assert rep.containment_holds
        assert rep.diagonal_exact
        s = G.element_order(x)
        expect = sorted((G.power(x, k), k) for k in range(s))
        assert sorted(map(tuple, rep.feasible_pairs)) == expect
    stamp(3, "block-triangular feasible set is the exact diagonal (S3, C6)", t0, 30)


# =================================================================== 4


def test_criterion_04_fox_expansion():
    """Expansion identity: exhaustive short words, then 1000 long random."""
    t0 = time.perf_counter()
    words = all_reduced_words(2, 6)
    assert len(words) > 1000
    for G in (klein(), s3()):
        for n in (2, 9):
            ctx = QuotientContext(2, G, list(G.gen_indices), n)
            for w in words:
                assert expansion_check(ctx, w).passed
    choices = [
        cyclic_group(5),
        cyclic_group(12),
        klein(),
        s3(),
        d8(),
        d12(),
        a4(),
        s4(),
        counterexample_group(),
    ]
    assert all(derived_series(G)[-1].order == 1 for G in choices)
    assert max(G.order for G in choices) == 72
    rng = random.Random(4242)
    done = 0
    while done < 1000:
        G = rng.choice(choices)
        images = [rng.randrange(G.order) for _ in range(2)]
        if subgroup_closure(G, images).order != G.order:
            continue
        ctx = QuotientContext(2, G, images, rng.choice((2, 3, 4, 9)))
        assert expansion_check(ctx, random_word(rng, 2, 40)).passed
        done += 1
    stamp(4, "Fox expansion identity, exhaustive and randomized", t0, 60)


# =================================================================== 5


def test_criterion_05_exactness():
    """im f = ker s and s o f = 0 across ranks, quotients, moduli."""
    t0 = time.perf_counter()
    corpus = [cyclic_group(2), cyclic_group(6), klein(), s3(), d8(), cyclic_group(12), a4(), s4()]
    checked = 0
    for G in corpus:
        gens = list(G.gen_indices)
        for rank in range(len(gens), 4):
            images = gens + [0] * (rank - len(gens))
            for n in (2, 3, 4, 9):
                ctx = QuotientContext(rank, G, images, n)
                comp = build_complex(ctx)
                # s o f = 0: every row of f sums to 0 mod n
                assert all(sum(row.values()) % n == 0 for row in comp.f_rows)
                rep = exactness_check(comp)
                assert rep.passed and rep.im_f_equals_ker_s and rep.s_surjective
                checked += 1
    # relator rows land in ker f for honest presentations
    G = s3()
    ctx = QuotientContext(2, G, list(G.gen_indices), 4)
    x1, x2 = generator_word(2, 1), generator_word(2, 2)
    assert relator_kernel_check(build_complex(ctx), [x1.power(3), x2.power(2), (x1 * x2).power(2)])
    G = d8()
    ctx = QuotientContext(2, G, list(G.gen_indices), 2)
    assert relator_kernel_check(build_complex(ctx), [x1.power(4), x2.power(2), (x1 * x2).power(2)])
    stamp(5, f"two-step exactness on {checked} contexts plus relator rows", t0, 60)


# =================================================================== 6


def test_criterion_06_magnus_fox_consistency():
    """Magnus vector blocks equal Fox rows, exhaustive and random."""
    t0 = time.perf_counter()
    G = s3()
    ctx = QuotientContext(2, G, list(G.gen_indices), 2)
    d = G.order
    for w in all_reduced_words(2, 6):
        mm = magnus_image(ctx, w)
        rows = fox_row(ctx, w)
        assert mm.q == ctx.eval_word(w)
        for i, elem in enumerate(rows):
            assert mm.vec[i * d : (i + 1) * d] == elem.coeffs
    rng = random.Random(606)
    groups = [cyclic_group(5), s3(), d8(), klein(), a4()]
    done = 0
    while done < 500:
        G = rng.choice(groups)
        images = [rng.randrange(G.order) for _ in range(2)]
        if subgroup_closure(G, images).order != G.order:
            continue
        ctx = QuotientContext(2, G, images, rng.choice((2, 3, 4, 9)))
        w = random_word(rng, 2, 14)
        mm = magnus_image(ctx, w)
        rows = fox_row(ctx, w)
        d = G.order
        assert mm.q == ctx.eval_word(w)
        for i, elem in enumerate(rows):
            assert mm.vec[i * d : (i + 1) * d] == elem.coeffs
        done += 1
    stamp(6, "Magnus embedding consistent with Fox rows (exhaustive + 500)", t0, 30)


# =================================================================== 7


def test_criterion_07_kernel_projection():
    """Tower kernel projections across all levels and twists."""
    t0 = time.perf_counter()
    levels = [1, 2, 3, 4, 6, 9, 12, 18, 27]
    towers = [
        CyclicTower(4, levels),
        CyclicTower(9, levels),
        CyclicTower(9, [1, 3, 9], base=cyclic_group(3)),
    ]
    checked = skipped = 0
    for t in towers:
        for n in (1, 2, 3, 6):
            for M in t.levels:
                for kM in t.levels:
                    if kM % M or kM == M:
                        continue
                    try:
                        rep = kernel_projection_check(t, n, kM, M)
                    except PreconditionViolated:
                        skipped += 1
                        continue
                    assert rep.passed, (t.modulus, n, kM, M)
                    checked += 1
    assert checked > 50
    stamp(7, f"kernel projection on {checked} level pairs ({skipped} out of scope)", t0, 60)


# =================================================================== 8


def test_criterion_08_transfer_identity():
    """transfer o R_N = product of coset conjugations; index-scaling on invariants."""
    t0 = time.perf_counter()
    corpus = [
        cyclic_group(4),
        cyclic_group(6),
        klein(),
        s3(),
        d8(),
        q8(),
        cyclic_group(12),
        d12(),
        a4(),
        s4(),
        counterexample_group(),
    ]
    assert all(G.order <= 200 for G in corpus)
    seen_pairs = set()
    for G in corpus:
        for N in normal_subgroups(G):
            if N.order == 1:
                continue
            seen_pairs.add((G.order, N.order))
            tr = transfer_map(G, N)
            # transversal independence: shift every non-identity rep by
            # an element of N
            T = left_transversal(G, N)
            nz = N.indices[-1]
            T2 = [T[0]] + [G.mul(a, nz) for a in T[1:]]
            tr2 = transfer_map(G, N, T2)
            assert tr.images == tr2.images
            # composition with R_N equals the sum of conjugations on N^ab;
            # the abelianizations are rebuilt deterministically inside both
            # maps, so indices identify classes across the copies
            R = natural_ab_map(G, N)
            assert R.target.elements == tr.source.elements
            NG = N.as_group()
            Nab, projN = abelianization(NG)
            assert Nab.elements == tr.target.elements
            actions = [conj_action_on_ab(G, N, G.inv(a)) for a in T]
            index = G.order // N.order
            gen_actions = [conj_action_on_ab(G, N, g) for g in G.gen_indices]
            for c in range(Nab.order):
                comp_c = tr(R(c))
                acc = 0
                for act in actions:
                    acc = Nab.mul(acc, act[c])
                assert comp_c == acc
                if all(act[c] == c for act in gen_actions):  # G-invariant class
                    assert comp_c == Nab.power(c, index)
    for required in [(4, 2), (6, 3), (8, 4), (72, 9)]:
        assert required in seen_pairs
    stamp(8, f"transfer identity over {len(seen_pairs)} (|G|, |N|) shapes", t0, 60)


# =================================================================== 9


def test_criterion_09_quotient_iso():
    """Kernel-inside-derived-term hypothesis forces the induced iso."""
    t0 = time.perf_counter()
    from msolv.fingroup import quotient_iso_check

    corpus = [cyclic_group(6), s3(), d8(), q8(), a4(), s4(), counterexample_group()]
    hypothesis_hits = 0
    checked = 0
    for G in corpus:
        Q, f = m_step_quotient(G, 2)
        for H in all_subgroups(Q):
            res = quotient_iso_check(f, H, 2)
            checked += 1
            if res.hypothesis_holds:
                hypothesis_hits += 1
                assert res.bijective, (G.order, H.order)
    assert hypothesis_hits > 0
    stamp(
        9,
        f"quotient-iso implication on {checked} subgroup cases "
        f"({hypothesis_hits} with the hypothesis)",
        t0,
        30,
    )


# =================================================================== 10


def test_criterion_10_model_oracles():
    """Finite models: brute centralizers equal the linear oracle."""
    t0 = time.perf_counter()
    # |W(2,2,2)| regression: analysis predicts 128; the build is authoritative
    model2 = build_solv_model(2, 2, 2)
    assert model2.group.order == 128
    K, module_count = module_part_basis(model2)
    assert module_count == 32  # brute module part equals the linear kernel
    rep = centralizer_experiment(model2, 1, 1)
    assert rep.oracle_equal and rep.decomposition_holds
    assert rep.centralizer_order == 16 and rep.k_cap_brute == 8

    model3 = build_solv_model(2, 3, 2)
    assert model3.group.order == 531441
    for i, n in [(1, 1), (2, 2)]:
        rep = centralizer_experiment(model3, i, n)
        assert rep.oracle_equal and rep.decomposition_holds
        assert rep.centralizer_order == 243
        assert rep.k_cap_brute == rep.k_cap_linear == 81

    capped = centralizer_probe_capped(2, 2, 3, 20000, 1, 1)
    assert capped.enumerated == 20000 and not capped.complete
    assert capped.oracle_equal_pointwise
    assert capped.decomposition_holds_pointwise
    stamp(10, "centralizer oracle equivalence at m = 2 and capped m = 3", t0, 300)


# =================================================================== 11


def test_criterion_11_engine_crosscheck():
    """Group engine vs literal all-pairs definitions on every corpus group."""
    t0 = time.perf_counter()
    corpus = [
        cyclic_group(2),
        cyclic_group(12),
        klein(),
        s3(),
        d8(),
        q8(),
        d12(),
        a4(),
        s4(),
        counterexample_group(),
        build_solv_model(2, 2, 2).group,
    ]
    assert max(G.order for G in corpus) == 128
    rng = random.Random(11)
    for G in corpus:
        n = G.order
        # center by all-pairs commuting
        brute_center = {i for i in range(n) if all(G.mul(i, j) == G.mul(j, i) for j in range(n))}
        assert set(center(G).element_set) == brute_center
        # derived subgroup as closure of all commutators
        comms = {
            G.mul(G.mul(a, b), G.mul(G.inv(a), G.inv(b)))
            for a in range(n)
            for b in range(n)
        }
        assert set(derived_subgroup(G).element_set) == set(
            subgroup_closure(G, sorted(comms)).indices
        )
        # centralizers of random elements by all-pairs
        for _ in range(3):
            x = rng.randrange(n)
            brute = {i for i in range(n) if G.mul(i, x) == G.mul(x, i)}
            assert set(centralizer(G, [x]).indices) == brute
        # abelianization order from Lagrange bookkeeping
        Gab, _ = abelianization(G)
        assert Gab.order * derived_subgroup(G).order == n
        # element orders by iterated multiplication
        for _ in range(5):
            x = rng.randrange(n)
            k, acc = 1, x
            while acc != 0:
                acc = G.mul(acc, x)
                k += 1
            assert G.element_order(x) == k
        # inverses by brute search
        for _ in range(5):
            x = rng.randrange(n)
            assert G.mul(x, G.inv(x)) == 0 and G.mul(G.inv(x), x) == 0
    stamp(11, f"engine agrees with definitions on {len(corpus)} groups", t0, 300)


# =================================================================== 12


def test_criterion_12_cli_determinism(tmp_path):
    """Same seed, any worker count: byte-identical canonical JSON."""
    t0 = time.perf_counter()
    cfg = tmp_path / "det.json"
    cfg.write_text(
        json.dumps(
            {
                "instances": [
                    {"umax": 1, "random": 80},
                    {"umax": 2, "random": 40},
                    {"umax": 1, "random": 20, "lset": "3"},
                ],
                "seed": 31,
            }
        )
    )
    outs = []
    for jobs in ("1", "2", "4"):
        proc = subprocess.run(
            [sys.executable, "-m", "msolv.cli", "reduction-lemma", "--config", str(cfg), "--jobs", jobs],
            capture_output=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        assert proc.stdout.endswith(b"\n")
        outs.append(proc.stdout)
    assert outs[0] == outs[1] == outs[2]
    doc = json.loads(outs[0])
    assert [e["index"] for e in doc["experiments"]] == [0, 1, 2]
    # canonical form: a re-dump with sorted keys and compact separators
    # reproduces the bytes exactly
    redump = (
        json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode()
    assert redump == outs[0]
    stamp(12, "byte-identical reports across 1, 2, 4 workers", t0, 60)
