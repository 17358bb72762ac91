"""Verification pipeline: runs every theorem clause and assembles a report.

The report is a plain dict (JSON-ready), deterministic for a fixed seed and
budget apart from the timing section.
"""

from __future__ import annotations

import time

from .fincat import (
    CategoryPresentation,
    Obj,
    is_cluster_tilting,
    is_rigid,
    validate_category,
)
from .localization import check_abelian, verify_rf_axioms
from .modcat import verify_equivalence
from .preabelian import (
    Budget,
    DEFAULT_BUDGET,
    scan_properties,
)
from .quotient import build_quotient, x_t_objects

PASS = "pass"
BOUNDED = "bounded-pass"
FAIL = "fail"
SKIPPED = "skipped"
EXCEEDED = "bounds-exceeded"


def _clause(status, detail="", **payload):
    out = {"status": status}
    if detail:
        out["detail"] = detail
    out.update(payload)
    return out


def _bounded(results: dict) -> dict:
    """One bounded clause from per-clause results (statuses as in ClauseResult).

    All pass: bounded-pass with the checked total.  Otherwise fail when any
    clause failed, and bounds-exceeded when the rest only ran out of budget.
    """
    bad = {k: v.detail for k, v in results.items() if v.status != PASS}
    if not bad:
        return _clause(BOUNDED, checked=sum(v.checked for v in results.values()))
    return _clause(FAIL if any(v.status == FAIL for v in results.values()) else EXCEEDED, str(bad))


def _single(cl) -> dict:
    """The report clause of one ClauseResult; out of budget, it has no checked count."""
    if cl.status == EXCEEDED:
        return _clause(EXCEEDED, cl.detail)
    return _clause(cl.status, cl.detail, checked=cl.checked)


def run_verification(
    P: CategoryPresentation,
    t_spec: Obj | None = None,
    subcat: set | None = None,
    budget: Budget = DEFAULT_BUDGET,
) -> dict:
    """All theorem clauses for one category and one T (or explicit subcategory)."""
    if (t_spec is None) == (subcat is None):
        raise ValueError("pass exactly one of t_spec or subcat")
    report = {
        "category": {
            "name": P.metadata.get("name", "?"),
            "objects": list(P.objects),
            "field": "Q" if P.field.__class__.__name__ == "RationalField" else f"F{P.field.p}",
        },
        "budgets": vars(budget).copy(),
        "clauses": {},
        "timing_s": {},
    }
    clauses = report["clauses"]
    timing = report["timing_s"]

    def timed(name, fn):
        t0 = time.perf_counter()
        out = fn()
        timing[name] = round(time.perf_counter() - t0, 4)
        return out

    # rigidity
    if t_spec is not None:
        report["t"] = P.obj_name(t_spec)
        rigid = timed("rigidity", lambda: is_rigid(P, t_spec))
        clauses["rigidity"] = _clause(PASS if rigid else FAIL, "" if rigid else "Ext^1(T, T) != 0")
        if not rigid:
            report["overall"] = FAIL
            return report
        xt = x_t_objects(P, t_spec)
    else:
        report["subcat"] = sorted(P.objects[i] for i in subcat)
        clauses["rigidity"] = _clause(SKIPPED, "explicit subcategory quotient")
        xt = set(subcat)

    qc = timed("quotient", lambda: build_quotient(P, subcat=xt))
    try:
        _quotient_clauses(P, t_spec, xt, qc, budget, report, timed)
    finally:
        # the verdict tables and kept maps (clear_verdict_tables) of the
        # quotient built here last one verdict; P's maps are its caller's.
        # Unlinking Q and Q^op then breaks the last cycle, so reference
        # counting frees both when this returns
        Q = qc.presentation
        Q.clear_verdict_tables()
        op, Q._opposite = Q._opposite, None
        if op is not None:
            op._opposite = None
    return report


def _noninvertible_witness(Q: CategoryPresentation, regulars) -> str | None:
    """The first of regulars that is not invertible, named "source ->
    target", or None; the walk stops there.  An r: X -> Y of regulars is
    epi, so - o r is injective on each Hom(Y, Z_z), Z_z indecomposable, and
    bijective on all of them, so by Yoneda r is invertible, exactly when
    dim Hom(Y, Z_z) = dim Hom(X, Z_z) for every z, as hom_layout gives them.
    """
    r = next((r for r in regulars if Q.hom_layout(r.source)[1] != Q.hom_layout(r.target)[1]), None)
    return None if r is None else f"{Q.obj_name(r.source)} -> {Q.obj_name(r.target)}"


def _quotient_clauses(P, t_spec, xt, qc, budget, report, timed):
    """The clauses from the quotient on; they fill report."""
    clauses = report["clauses"]
    Q = qc.presentation
    vrep = timed("quotient_validation", lambda: validate_category(Q))
    clauses["quotient"] = _clause(
        PASS if vrep.ok else FAIL,
        "" if vrep.ok else str(vrep),
        objects=list(Q.objects),
        killed=sorted(P.objects[i] for i in qc.xt),
    )

    # preabelian + integrality scans; every bounded clause below reads this one
    prop = timed("property_scan", lambda: scan_properties(Q, budget))
    pre = prop.clauses["preabelian"]
    clauses["preabelian"] = _single(pre)
    if pre.status == EXCEEDED:
        # undecided, so integrality is skipped without a reason
        clauses["integral"] = _clause(SKIPPED)
    elif pre.status != PASS:
        clauses["integral"] = _clause(SKIPPED, "presentation is not preabelian")
    else:
        clauses["integral"] = _bounded({k: v for k, v in prop.clauses.items() if k != "preabelian"})

    preabelian_ok = clauses["preabelian"]["status"] == PASS
    integral_ok = clauses.get("integral", {}).get("status") == BOUNDED

    # calculus of fractions: RF2/LF2 are the scan's regular-leg clauses, and
    # RF1 and RF3/LF3 are proofs counted over the scan's regulars
    if preabelian_ok:
        clauses["rf_axioms"] = _bounded(timed("rf_axioms", lambda: verify_rf_axioms(Q, prop, budget)).clauses)
    else:
        clauses["rf_axioms"] = _clause(SKIPPED, "needs a preabelian quotient")

    # the cluster-tilting clause below reads the scan's regulars here, so the
    # later clauses do not hold the family
    noninvertible = None if t_spec is None else _noninvertible_witness(Q, prop.family.regulars)
    del prop

    # abelian localisation: each middle map regular, so invertible once
    # localised; running out of budget here and below is a clause status,
    # never a lost report
    if preabelian_ok and integral_ok:
        cl = timed("abelian", lambda: check_abelian(Q, budget)).clauses["abelian_middle_maps"]
        clauses["abelian_localisation"] = _single(cl)
    else:
        clauses["abelian_localisation"] = _clause(SKIPPED, "needs an integral quotient")

    # equivalence with the module category
    if t_spec is not None and preabelian_ok and integral_ok:
        eq = timed("equivalence", lambda: verify_equivalence(P, t_spec, qc, budget))
        if eq.ok:
            nontrivial = sum(1 for (_, _, nt) in eq.witnesses["full"] if nt)
            clauses["equivalence"] = _clause(
                PASS,
                checked={k: v.checked for k, v in eq.clauses.items()},
                fractions_with_nonidentity_denominator=nontrivial,
            )
        else:
            clauses["equivalence"] = _bounded(eq.clauses)
    else:
        clauses["equivalence"] = _clause(SKIPPED)

    # cluster-tilting degeneration / regular witnesses
    if t_spec is not None:
        ct = is_cluster_tilting(P, t_spec)
        payload = {"is_cluster_tilting": ct}
        status = PASS
        detail = ""
        payload["all_regular_invertible"] = noninvertible is None
        if noninvertible:
            payload["regular_noninvertible_witness"] = noninvertible
        if ct:
            sigma_t = {P.sigma[i] for i in t_spec.support()} if P.sigma else set()
            payload["xt_equals_sigma_t"] = xt == sigma_t
            if not payload["xt_equals_sigma_t"]:
                status, detail = FAIL, "X_T differs from add Sigma T"
            if noninvertible is not None:
                status, detail = FAIL, "regular non-invertible morphism in the cluster-tilting case"
        clauses["cluster_tilting"] = _clause(status, detail, **payload)

    # running out of budget alone is not a theorem failure
    statuses = {c["status"] for c in clauses.values()}
    report["overall"] = FAIL if FAIL in statuses else EXCEEDED if EXCEEDED in statuses else PASS


def run_cotorsion(P: CategoryPresentation, U: set, V: set | None = None) -> dict:
    """Cotorsion clauses (a) and (b); the triangle condition is out of scope.

    With V omitted it defaults to the perpendicular of U, making (a) hold by
    construction and (b) the real closure condition.
    """
    from .fincat import perp

    Uperp = perp(P, U)
    a_ok = V is None or set(V) == Uperp
    V = Uperp if V is None else set(V)
    Vperp = perp(P, V)
    b_ok = Vperp == set(U)
    return {
        "U": sorted(P.objects[i] for i in U),
        "V": sorted(P.objects[i] for i in V),
        "clauses": {
            "a_U_perp_equals_V": _clause(
                PASS if a_ok else FAIL,
                "" if a_ok else f"U-perp is {sorted(P.objects[i] for i in Uperp)}",
            ),
            "b_V_perp_equals_U": _clause(
                PASS if b_ok else FAIL,
                "" if b_ok else f"V-perp is {sorted(P.objects[i] for i in Vperp)}",
            ),
            "c_triangle_condition": _clause(SKIPPED, "not checked (out of scope)"),
        },
        "overall": PASS if (a_ok and b_ok) else FAIL,
    }
