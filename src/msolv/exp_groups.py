"""The experiments on finite groups: the counterexample, derived series,
m-step quotients, the G-tilde containment, the scalar reduction lemma,
transfers, quotient isomorphisms and the center-freeness scan.

Each experiment takes (params, rng) and returns (report_dict, passed);
`cli.EXPERIMENTS` names them, and `cli.run_experiment` imports this module
on the first instance of one of them.  They read `fingroup`,
`constructions`, `zmodlin` and the corpus scan of `models`, never the
Magnus/Fox stack (`foxcalc`, `crowell`, `grpring`), so a run of any of them
does not compile it: the one exception is a `g1*g2^-1` element of
`gtilde`, whose word `dsl.parse_word` reads with `foxcalc`.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict
from typing import Tuple

from .errors import MsolvError, PreconditionViolated, _int_list
from .fingroup import (
    _ab_action,
    _left_cosets,
    _transfer,
    abelianization,
    all_subgroups,
    center,
    derived_series,
    m_step_quotient,
    normal_subgroups,
    quotient_iso_check,
)
from .constructions import (
    GTildeInstance,
    build_counterexample,
    gtilde_experiment,
    reduction_lemma_check,
)
from .dsl import _group_from_text, parse_element
from .models import ScanProfile, centerfree_scan, run_memo
from .zmodlin import scalar_kernel, valuation


def _exp_counterexample(p: dict, rng) -> Tuple[dict, bool]:
    b = build_counterexample()
    series = derived_series(b.group)
    report = {
        "group": {"order": b.group.order, "center_order": b.center_order},
        "quotient": {
            "order": b.quotient.order,
            "center_order": b.quotient_center_order,
            "dihedral": b.dihedral_witness is not None,
        },
        "derived_orders": [s.order for s in series],
    }
    ok = (
        b.group.order == 72
        and b.center_order == 1
        and b.quotient.order == 8
        and b.quotient_center_order == 2
        and b.dihedral_witness is not None
    )
    return report, ok


def _exp_derived_series(p: dict, rng) -> Tuple[dict, bool]:
    G, label = _group_from_text(p["group"])
    series = derived_series(G)
    layers_abelian = []
    for top, bottom in zip(series, series[1:]):
        # decided inside G: top/bottom is abelian iff bottom is normal in top
        # and holds every commutator, both read off the generators
        inside, gens = bottom.element_set, top.gen_indices
        layers_abelian.append(
            all(G.conj(h, g) in inside for g in gens for h in bottom.gen_indices)
            and all(G.mul(G.mul(a, b), G.inv(G.mul(b, a))) in inside for a in gens for b in gens)
        )
    report = {
        "group": label,
        "orders": [s.order for s in series],
        "layers_abelian": layers_abelian,
        "solvable": series[-1].order == 1,
    }
    return report, all(layers_abelian)


def _exp_msolv_quotient(p: dict, rng) -> Tuple[dict, bool]:
    G, label = _group_from_text(p["group"])
    m = p["m"]
    Q, proj = m_step_quotient(G, m)
    qseries = derived_series(Q)
    report = {
        "group": label,
        "m": m,
        "group_order": G.order,
        "quotient_order": Q.order,
        "kernel_order": G.order // Q.order,
        "quotient_center_order": center(Q).order,
        "quotient_derived_orders": [s.order for s in qseries],
        "quotient_solvable_length": len(qseries) - 1,
    }
    return report, len(qseries) - 1 <= m


def _exp_gtilde(p: dict, rng) -> Tuple[dict, bool]:
    G, label = _group_from_text(p["group"])
    x_idx = parse_element(G, p["x"])
    inst = GTildeInstance(G, x_idx, p["n"], p["l"], p["sigma"])
    rep = gtilde_experiment(inst)
    report = {"group": label, "x": p["x"], **asdict(rep)}
    return report, rep.containment_holds


def _reduction_lemma_cases(p: dict, rng):
    """(E, ntilde, ell, sigma) for every case, in report order: the
    exhaustive sweep with one identity probe per unit ntilde, then the
    random cases.  E is the tuple of a square matrix's entries, row by row,
    over Z/ell^sigma."""
    umax = p["umax"]
    identity = tuple(int(i == j) for i in range(umax) for j in range(umax))
    ells = _int_list(p["lset"])
    sigmamax = p["sigmamax"]
    ntildemax = p["ntildemax"]
    for ell in ells:
        for sigma in range(1, sigmamax + 1):
            mod = ell**sigma
            for ntilde in range(-ntildemax, ntildemax + 1):
                if ntilde == 0 or sigma <= valuation(ntilde, ell):
                    continue
                t = scalar_kernel(ntilde, ell, sigma)
                mults = list(range(0, mod, t)) if t else [0]
                for u in range(1, umax + 1):
                    for combo in itertools.product(mults, repeat=u * u):
                        yield combo, ntilde, ell, sigma
                # one vacuous probe: E = I is outside the hypothesis
                # whenever ntilde is a unit at this modulus
                if ntilde % ell:
                    yield identity, ntilde, ell, sigma
    for _ in range(p["random"]):
        ell = ells[rng.randrange(len(ells))]
        sigma = rng.randint(1, sigmamax)
        while True:
            ntilde = rng.randint(-ntildemax, ntildemax)
            if ntilde and valuation(ntilde, ell) < sigma:
                break
        mod = ell**sigma
        t = scalar_kernel(ntilde, ell, sigma)
        u = rng.randint(1, p["random_umax"])
        step = t or mod
        entries = tuple(step * rng.randrange(mod // step) % mod for _ in range(u * u))
        yield entries, ntilde, ell, sigma


def _exp_reduction_lemma(p: dict, rng) -> Tuple[dict, bool]:
    cases = vacuous = 0
    witness = None
    for E, ntilde, ell, sigma in _reduction_lemma_cases(p, rng):
        rep = reduction_lemma_check(E, ntilde, ell, sigma)
        cases += 1
        vacuous += rep.vacuous
        if not rep.passed and witness is None:
            witness = {
                "ntilde": ntilde,
                "ell": ell,
                "sigma": sigma,
                "entries": list(E),
            }
    report = {
        "cases": cases,
        "vacuous": vacuous,
        "random_cases": p["random"],
        "all_passed": witness is None,
    }
    if witness:
        report["witness"] = witness
    return report, witness is None


def _exp_transfer(p: dict, rng) -> Tuple[dict, bool]:
    G, label = _group_from_text(p["group"])
    if G.order > 200:
        raise PreconditionViolated("transfer sweep is bounded at order 200")
    Gab, projG = abelianization(G)
    entries = []
    all_ok = True
    for N in normal_subgroups(G):
        # N^ab, the cosets of N and G^ab are built once for both transfers
        ab = _ab_action(G, N)
        Nab, ab_class, action = ab
        cosets = _left_cosets(G, N)
        T = sorted(set(cosets.values()))
        tr = _transfer(G, N, cosets, T, Gab, ab)
        # an alternative transversal: shift each non-identity representative
        # by a nontrivial subgroup element
        alt = list(T)
        if N.order > 1:
            nz = next(i for i in N.indices if i != 0)
            alt = [T[0]] + [G.mul(a, nz) for a in T[1:]]
        tr2 = _transfer(G, N, cosets, alt, Gab, ab)
        independent = all(tr(i) == tr2(i) for i in range(Gab.order))
        identity_ok = True
        scaling_ok = True
        index = G.order // N.order
        actions = [action(g) for g in G.gen_indices]
        for n_idx in N.indices:
            acc = 0
            for a in T:
                c = G.mul(G.mul(G.inv(a), n_idx), a)
                acc = Nab.mul(acc, ab_class[c])
            cls = ab_class[n_idx]
            if tr(projG(n_idx)) != acc:
                identity_ok = False
            if all(act[cls] == cls for act in actions):
                if tr(projG(n_idx)) != Nab.power(cls, index):
                    scaling_ok = False
        ok = independent and identity_ok and scaling_ok
        all_ok = all_ok and ok
        entries.append(
            {
                "normal_order": N.order,
                "index": index,
                "transversal_independent": independent,
                "conjugate_product_identity": identity_ok,
                "invariant_scaling": scaling_ok,
            }
        )
    return {"group": label, "normals": entries}, all_ok


def _exp_quotient_iso(p: dict, rng) -> Tuple[dict, bool]:
    G, label = _group_from_text(p["group"])
    m, n = p["m"], p["n"]
    Q, proj = m_step_quotient(G, m)
    entries = []
    all_ok = True
    for H in all_subgroups(Q):
        res = quotient_iso_check(proj, H, n)
        implication = (not res.hypothesis_holds) or res.bijective
        all_ok = all_ok and implication
        entries.append(
            {
                "subgroup_order": H.order,
                "hypothesis_holds": res.hypothesis_holds,
                "bijective": res.bijective,
                "upstairs_order": res.upstairs_order,
                "downstairs_order": res.downstairs_order,
            }
        )
    report = {"group": label, "m": m, "n": n, "subgroups": entries}
    return report, all_ok


DEFAULT_SCAN_GROUPS = (
    "builtin S_3",
    "builtin S_4",
    "builtin D_8",
    "builtin Q8",
    "builtin C_12",
    "builtin paper_counterexample",
)


@run_memo
def _scan_corpus(texts: tuple) -> list:
    """(label, ScanProfile) per group text: the instances of one run that
    scan the same groups parse and profile them once."""
    groups = [_group_from_text(t) for t in texts]
    return [(label, ScanProfile(G)) for G, label in groups]


def _exp_centerfree_scan(p: dict, rng) -> Tuple[dict, bool]:
    groups = p.get("groups")
    texts = tuple(s for s in groups.split(";") if s.strip()) if groups else DEFAULT_SCAN_GROUPS
    if not texts:
        raise MsolvError(f"centerfree-scan --groups names no group: {groups!r}")
    corpus = _scan_corpus(texts)
    entries = centerfree_scan(corpus, p["m"])
    rows = []
    consistent = True
    for e in entries:
        if e.flagged != (e.center_order == 1 and e.quotient_center_order > 1):
            consistent = False
        row = asdict(e)
        row["group"] = row.pop("label")
        rows.append(row)
    report = {"m": p["m"], "entries": rows}
    return report, consistent
