"""The experiments on free-group words and Magnus models: Fox rows,
Magnus images, the Crowell complex, kernel projections through cyclic
towers, the solvable models and their centralizers, and surface
presentations.

Each experiment takes (params, rng) and returns (report_dict, passed);
`cli.EXPERIMENTS` names them, and `cli.run_experiment` imports this module
on the first instance of one of them, and with it the Magnus/Fox stack
(`foxcalc`, `crowell`, `grpring`) that the finite-group experiments of
`exp_groups` never load.  The group and word DSL (`dsl`) is imported only
inside the experiments that parse or print a word or a group, so a
`centralizer` or `solv-model` run never compiles it.
"""

from __future__ import annotations

from typing import Tuple

from .errors import MsolvError, PreconditionViolated, VerdictFailed, _int_list
from .foxcalc import FreeWord, QuotientContext, empty_word, expansion_check, fox_row
from .crowell import (
    build_complex,
    exactness_check,
    magnus_image,
    relation_module_report,
    relator_kernel_check,
)
from .grpring import CyclicTower, kernel_projection_check
from .models import (
    MODEL_NOTE,
    build_solv_model,
    centralizer_experiment,
    centralizer_probe_capped,
    check_centralizer_question,
    euler_char,
    kcap_tower,
    presentation_abelianization,
    surface_presentation,
)


def _exp_centralizer(p: dict, rng) -> Tuple[dict, bool]:
    r, e, m, i, n = p["r"], p["e"], p["m"], p["i"], p["n"]
    if p["capped"]:
        rep = centralizer_probe_capped(r, e, m, p["cap"], i, n)
        report = {"mode": "capped", **vars(rep)}
        return report, rep.oracle_equal_pointwise and rep.decomposition_holds_pointwise
    check_centralizer_question(r, e, m, i, n)
    model = build_solv_model(r, e, m, cap=p["cap"])
    rep = centralizer_experiment(model, i, n)
    report = {"mode": "full", **vars(rep)}
    report["k_cap"] = report.pop("k_cap_brute")
    return report, rep.oracle_equal and rep.decomposition_holds


def _context_from_params(p: dict) -> Tuple[QuotientContext, str, FreeWord]:
    from .dsl import _eval_gen_word, _group_from_text, parse_word

    G, label = _group_from_text(p["group"])
    image_words = [s for s in p["images"].split(",") if s.strip()]
    images = [_eval_gen_word(G, s) for s in image_words]
    rank = p.get("rank") or len(images)
    if len(images) != rank:
        raise MsolvError(f"{len(images)} images given for rank {rank}")
    ctx = QuotientContext(rank, G, images, p["n"])
    word = parse_word(p["word"], rank) if p.get("word") else empty_word(rank)
    return ctx, label, word


def _exp_fox(p: dict, rng) -> Tuple[dict, bool]:
    from .dsl import word_text

    ctx, label, word = _context_from_params(p)
    rep = expansion_check(ctx, word)
    rows = fox_row(ctx, word)
    report = {
        "group": label,
        "modulus": ctx.ring.modulus,
        "word": word_text(word),
        "expansion_holds": rep.passed,
        "lhs": list(rep.lhs.coeffs),
        "rhs": list(rep.rhs.coeffs),
        "fox_rows": [list(d.coeffs) for d in rows],
    }
    return report, rep.passed


def _exp_magnus(p: dict, rng) -> Tuple[dict, bool]:
    from .dsl import word_text

    ctx, label, word = _context_from_params(p)
    try:
        mm = magnus_image(ctx, word)
        consistent = True
        q, vec = mm.q, list(mm.vec)
    except VerdictFailed:  # Fox/Magnus mismatch: report as failure
        consistent = False
        q, vec = -1, []
    report = {
        "group": label,
        "modulus": ctx.ring.modulus,
        "word": word_text(word),
        "q_index": q,
        "vector": vec,
        "fox_consistent": consistent,
    }
    return report, consistent


def _exp_crowell(p: dict, rng) -> Tuple[dict, bool]:
    from .dsl import parse_word, word_text

    ctx, label, _ = _context_from_params(p)
    comp = build_complex(ctx)
    rep = exactness_check(comp)
    report = {
        "group": label,
        "modulus": ctx.ring.modulus,
        "rank": ctx.rank,
        "exact_at_middle": rep.im_f_equals_ker_s,
        "s_surjective": rep.s_surjective,
        "im_f_size": rep.im_f_size,
        "ker_s_size": rep.ker_s_size,
        "ker_f_size": rep.ker_f_size,
    }
    ok = rep.passed
    if p.get("relators"):
        rank = ctx.rank
        rels = [parse_word(s, rank) for s in p["relators"].split(",") if s.strip()]
        in_kernel = relator_kernel_check(comp, rels)
        mod_rep = relation_module_report(comp, rels)
        report["relators"] = [word_text(w) for w in rels]
        report["relators_in_kernel"] = in_kernel
        report["relation_span_size"] = mod_rep.relation_span_size
        report["relation_spans_kernel"] = mod_rep.spans_equal
        ok = ok and in_kernel
    return report, ok


def _exp_kernel_projection(p: dict, rng) -> Tuple[dict, bool]:
    from .dsl import _group_from_text

    levels = sorted(set(_int_list(p["levels"])))
    sigma = frozenset(_int_list(p["sigma_set"]))
    base = None
    base_label = None
    if p.get("base_group"):
        base, base_label = _group_from_text(p["base_group"])
    tower = CyclicTower(p["modulus"], levels, base=base, sigma=sigma)
    n = p["n"]
    checked = []
    skipped = []
    all_ok = True
    for M in levels:
        for kM in levels:
            if kM <= M or kM % M:
                continue
            try:
                rep = kernel_projection_check(tower, n, kM, M)
            except PreconditionViolated as e:
                skipped.append({"kM": kM, "M": M, "reason": str(e)})
                continue
            checked.append(
                {
                    "kM": kM,
                    "M": M,
                    "k": rep.k,
                    "kernel_rank": rep.kernel_rank,
                    "passed": rep.passed,
                }
            )
            if not rep.passed:
                checked[-1]["witness"] = rep.witness
            all_ok = all_ok and rep.passed
    report = {
        "modulus": p["modulus"],
        "base_group": base_label,
        "levels": levels,
        "n": n,
        "sigma_set": sorted(sigma),
        "checked": checked,
        "skipped": skipped,
    }
    return report, all_ok


def _exp_solv_model(p: dict, rng) -> Tuple[dict, bool]:
    r, m = p["r"], p["m"]
    if p.get("tower"):
        exps = _int_list(p["tower"])
        entries = kcap_tower(r, m, exps, p["i"], p["n"], cap=p["cap"])
        rows = [vars(entry) for entry in entries]
        ok = all(entry.brute_matches for entry in entries)
        report = {
            "rank": r,
            "m": m,
            "generator": p["i"],
            "n": p["n"],
            "tower": rows,
            "note": MODEL_NOTE,
        }
        return report, ok
    if "e" not in p:
        raise MsolvError("solv-model requires --e (or --tower)")
    model = build_solv_model(r, p["e"], m, cap=p["cap"])
    series = model.series
    report = {
        "rank": r,
        "exponent": p["e"],
        "m": m,
        "group_order": model.group.order,
        "level_orders": [L.order for L in model.levels],
        "derived_orders": [s.order for s in series],
        "degenerate": model.degenerate,
        "note": model.note,
    }
    return report, len(series) - 1 <= m


def _exp_surface(p: dict, rng) -> Tuple[dict, bool]:
    from .dsl import word_text

    g, r = p["genus"], p["punctures"]
    chi, hyp = euler_char(g, r)
    report = {"genus": g, "punctures": r, "euler_characteristic": chi, "hyperbolic": hyp}
    ok = True
    if g >= 1 and r == 0:
        pres = surface_presentation(g)
        ab = presentation_abelianization(pres)
        report["relator"] = word_text(pres.relators[0])
        report["relator_length"] = len(pres.relators[0])
        report["exponent_matrix"] = [list(row) for row in pres.exponent_matrix]
        report["abelianization"] = {
            "invariant_factors": list(ab.invariant_factors),
            "free_rank": ab.free_rank,
            "torsion_free": ab.torsion_free,
        }
        ok = (
            len(pres.relators[0]) == 4 * g
            and ab.free_rank == 2 * g
            and ab.torsion_free
        )
    return report, ok
