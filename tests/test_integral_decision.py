"""The integrality decision against the leg clauses it stands in for.

`preabelian._pullbacks_of_epis_are_epi(P, budget)` proves, for P = Q or
Q^op, that every pullback of an epi in P is epi: where `_has_every_kernel`
holds, it asks whether the injective envelope I_z of each simple in soc
Gamma is representable, which makes its torsion part t(I_z) 0.  Where it
proves that, `scan_properties` passes the side's four leg clauses without
asking a pair.  So wherever it decides a side, the plain per-pair leg loop
on that side, uncapped, must pass.  The counts pin how often it decides:
on the proper subcategory quotients of C(A_3), and on every rigid T
measured, where it decides both sides.
"""

import collections
import functools
import hashlib
import itertools
import json

import pytest

from quotcat import preabelian
from quotcat.clustergen import build_cluster_category
from quotcat.fincat import CategoryPresentation, all_rigid_supports, op_morphism, opposite, validate_category
from quotcat.linalg import GF, QQ
from quotcat.preabelian import (
    DEFAULT_BUDGET,
    Budget,
    build_morphism_family,
    run_clause,
    scan_properties,
)
from quotcat.quotient import build_quotient
from quotcat.verify import run_verification

from conftest import generators_into, injective_is_torsion_free

UNCAPPED = Budget(scan_pairs_cap=10**9)


def _sides(Q, fam):
    """(P, twin, clauses) per side: the presentation a leg clause runs in,
    the map carrying Q's maps there, and (given, prop) of its four clauses."""
    op = opposite(Q)
    return (
        (Q, lambda f: f, ((fam.cokernel_maps, "epi"), (fam.epis, "epi"), (fam.monos, "mono"), (fam.regulars, "regular"))),
        (op, functools.partial(op_morphism, op),
         ((fam.kernel_maps, "mono"), (fam.monos, "mono"), (fam.epis, "epi"), (fam.regulars, "regular"))),
    )


def _plain_side(Q, P, twin, clauses, fam, budget):
    """The side's four leg clauses, each asked pair by pair."""
    answer = preabelian._leg_answers(P, budget)
    others = [twin(f) for f in fam.all]
    return [
        run_clause(preabelian._leg_clause(Q, P, answer, [twin(f) for f in given], others, prop, budget))
        for given, prop in clauses
    ]


@pytest.mark.parametrize("field", [QQ, GF(2)], ids=["QQ", "GF2"])
def test_a_decided_side_passes_every_uncapped_leg_clause(field):
    # 372 of the 510 proper subcategory quotients of C(A_3) are preabelian;
    # on 279 of them each side is decided, and the plain loop passes there.
    # Of the 93 undecided sides per side, the uncapped loop fails most; the
    # rest pass it only because the family misses the failing pair
    A3 = build_cluster_category(3, None, field)
    decided, passed_undecided = collections.Counter(), collections.Counter()
    preabelian_quotients = 0
    for k in range(1, A3.n):
        for S in itertools.combinations(range(A3.n), k):
            Q = build_quotient(A3, subcat=set(S)).presentation
            fam = build_morphism_family(Q, UNCAPPED)
            if run_clause(preabelian._preabelian_clause(Q, fam, UNCAPPED)).status != "pass":
                continue
            preabelian_quotients += 1
            for side, (P, twin, clauses) in zip(("pullback", "pushout"), _sides(Q, fam)):
                plain = _plain_side(Q, P, twin, clauses, fam, UNCAPPED)
                passes = all(r.status == "pass" for r in plain)
                if preabelian._pullbacks_of_epis_are_epi(P, UNCAPPED):
                    decided[side] += 1
                    assert passes, (S, side, plain)
                else:
                    passed_undecided[side] += passes
    assert preabelian_quotients == 372
    assert decided == {"pullback": 279, "pushout": 279}
    assert passed_undecided == ({"pullback": 17, "pushout": 13} if field is QQ else {"pullback": 20, "pushout": 19})


def _rigid_quotients(P, step):
    for s in all_rigid_supports(P, P.n)[::step]:
        yield s, build_quotient(P, P.obj({P.objects[i]: 1 for i in s})).presentation


@pytest.mark.parametrize(
    "category,step,count",
    [((3, None, QQ), 1, 44), ((4, "><>", GF(101)), 7, 28)],
    ids=["A3/Q every rigid T", "A4(><>)/F101 every 7th rigid T"],
)
def test_every_rigid_t_is_decided_on_both_sides(category, step, count):
    quotients = list(_rigid_quotients(build_cluster_category(*category), step))
    assert len(quotients) == count
    for s, Q in quotients:
        assert all(preabelian._pullbacks_of_epis_are_epi(P, DEFAULT_BUDGET) for P in (Q, opposite(Q))), s


@pytest.mark.parametrize(
    "category,step,count",
    [((3, None, QQ), 1, 44), ((4, "><>", GF(101)), 7, 28)],
    ids=["A3/Q every rigid T", "A4(><>)/F101 every 7th rigid T"],
)
def test_the_socle_is_t_on_q_and_sigma_squared_t_on_q_op(category, step, count):
    # the z with S_z in soc Gamma, as the decision finds them, are T's
    # summands on Q's side and those of sigma^2 T on the side of Q^op,
    # which Hom_C(T, -) = D Hom_C(-, sigma^2 T) in a 2-CY category predicts
    P = build_cluster_category(*category)
    supports = all_rigid_supports(P, P.n)[::step]
    assert len(supports) == count
    for s in supports:
        qc = build_quotient(P, P.obj({P.objects[i]: 1 for i in s}))
        Q = qc.presentation
        where = {p: q for q, p in enumerate(qc.keep)}
        sides = {Q: {where[t] for t in s}, opposite(Q): {where[P.sigma[P.sigma[t]]] for t in s}}
        for R, summands in sides.items():
            assert preabelian._pullbacks_of_epis_are_epi(R, DEFAULT_BUDGET), s
            assert preabelian._socle(R).support() == summands, (s, R.metadata)


def test_an_undecided_scan_asks_for_every_kernel_once_per_side(monkeypatch):
    # C(A_3)/add{P1, P2, I2} has every kernel on each side and is decided
    # on neither, so its leg clauses ask existence questions; they read the
    # answer the decision asked for, and no side asks twice.  Q's True is
    # Q^op's too (gl.dim Gamma = gl.dim Gamma^op), so only Q is asked, and
    # the answer Q^op reads is the one a direct decision gives
    A3 = build_cluster_category(3)
    Q = build_quotient(A3, subcat={"P1", "P2", "I2"}).presentation
    asked = []
    has_every_kernel = preabelian._has_every_kernel
    monkeypatch.setattr(preabelian, "_has_every_kernel", lambda P, budget: asked.append(P) or has_every_kernel(P, budget))
    rep = scan_properties(Q, DEFAULT_BUDGET)
    assert [c.status for c in rep.clauses.values()].count("fail") > 0
    assert asked == [Q]
    op = opposite(Q)
    assert op._every_kernel[DEFAULT_BUDGET.search_fields] is True
    assert has_every_kernel(op, DEFAULT_BUDGET)


def test_a_decided_scan_finds_each_socle_once(monkeypatch):
    # T = P1+P3 of C(A_3) is decided on both sides; the decision hands back
    # the socle it found, and the scan keeps that one, so each side makes
    # one _socle pass
    A3 = build_cluster_category(3)
    Q = build_quotient(A3, A3.obj({"P1": 1, "P3": 1})).presentation
    found = []
    socle = preabelian._socle
    monkeypatch.setattr(preabelian, "_socle", lambda P: found.append(P) or socle(P))
    scan_properties(Q, DEFAULT_BUDGET)
    op = opposite(Q)
    assert found == [Q, op]
    assert Q._socle is not None and op._socle is not None


def test_a_decided_scan_asks_no_pair_and_counts_every_pair_the_loop_asks(monkeypatch):
    # T = P1+P3 of C(A_3) is decided on both sides: no pair is asked and no
    # square is built, and each clause passes with the plain loop's count,
    # at a cap that cuts some clauses and at one that cuts none
    A3 = build_cluster_category(3)
    Q = build_quotient(A3, A3.obj({"P1": 1, "P3": 1})).presentation
    monkeypatch.setattr(preabelian, "_leg_answers", lambda *args: pytest.fail("a decided side asked a pair"))
    for budget in (Budget(scan_pairs_cap=120), UNCAPPED):
        Q.clear_verdict_tables()
        rep = scan_properties(Q, budget)
        assert not Q._squares and not opposite(Q)._squares
        fam = rep.family
        counts = []
        for P, twin, clauses in _sides(Q, fam):
            others = [twin(f) for f in fam.all]
            for given, _ in clauses:
                pairs = itertools.islice(preabelian._leg_pairs([twin(f) for f in given], others), budget.scan_pairs_cap)
                counts.append(sum(1 for _ in pairs))
        got = [(c.status, c.checked) for name, c in rep.clauses.items() if name != "preabelian"]
        assert got == [("pass", k) for k in counts]
        assert (budget is UNCAPPED) == (max(counts) > 120)


def test_the_decision_needs_the_gate(monkeypatch):
    # a sink-map kernel search out of budget leaves P2's quotient undecided
    # on both sides, as does a two-dimensional End; the default budget
    # decides P2's
    A3 = build_cluster_category(3)
    Q = build_quotient(A3, A3.obj({"P2": 1})).presentation
    for P in (Q, opposite(Q)):
        assert not preabelian._pullbacks_of_epis_are_epi(P, Budget(retries=0, grid_cap=1))
        assert preabelian._pullbacks_of_epis_are_epi(P, DEFAULT_BUDGET)
    # End(X) = Q x Q, spanned by two orthogonal idempotents
    E = CategoryPresentation(QQ, ["X"], {(0, 0): 2}, {(0, 0, 0): [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]}, [[1, 1]])
    checked = []
    monkeypatch.setattr(preabelian, "_representing_object", lambda *args: checked.append(args))
    assert not any(preabelian._pullbacks_of_epis_are_epi(P, DEFAULT_BUDGET) for P in (E, opposite(E)))
    assert not checked


def test_a_torsion_injective_leaves_the_side_undecided():
    # C(A_3)/add{P1, P2, I2} has every kernel and cokernel, and a failing
    # pair on each side: so on each side some z in soc Gamma keeps
    # t(I_z)(z) != 0
    A3 = build_cluster_category(3)
    Q = build_quotient(A3, subcat={"P1", "P2", "I2"}).presentation
    for P in (Q, opposite(Q)):
        assert preabelian._has_every_kernel(P, DEFAULT_BUDGET)
        assert not preabelian._pullbacks_of_epis_are_epi(P, DEFAULT_BUDGET)
    fam = build_morphism_family(Q, UNCAPPED)
    for P, twin, clauses in _sides(Q, fam):
        assert any(r.status == "fail" for r in _plain_side(Q, P, twin, clauses, fam, UNCAPPED))


def _two_reject_category():
    """The maps z -> y -> w -> t and u -> w, with z -> y -> w nonzero and
    y -> w -> t = u -> w -> t = 0.

    Its modules are the representations of the reversed quiver t -> w -> y
    -> z, w -> u, with t -> w -> y = t -> w -> u = 0; Gamma has gl.dim 2 and
    soc Gamma = S_z + S_u + S_w.  I_z is uniserial w -> y -> z.  Its one
    quotient that embeds in Gamma is S_w (in P_t = (t -> w)), so rej(I_z)
    is y -> z, which is the projective P_y: the second reject is 0.  So is
    I_u's, from rej(I_u) = S_u = P_u.  So t(I_z) = 0 for each z in soc
    Gamma, but only I_w is representable (by Hom(-, Z_t)), and the
    decision leaves this side undecided."""
    one = QQ.one
    t, w, y, z, u = range(5)
    maps = [(z, y), (y, w), (u, w), (w, t), (z, w)]
    dims = {(i, i): 1 for i in range(5)} | {m: 1 for m in maps}
    comp = {(i, i, i): [[[one]]] for i in range(5)} | {(z, y, w): [[[one]]]}
    for i, j in maps:
        comp[(i, i, j)] = comp[(i, j, j)] = [[[one]]]
    return CategoryPresentation(QQ, ["t", "w", "y", "z", "u"], dims, comp, [[one]] * 5)


def test_a_torsion_part_can_take_two_rejects():
    # the reject chain passes every z of soc Gamma, the check does not, and
    # the side the chain alone would decide passes the uncapped plain loop
    P = _two_reject_category()
    assert validate_category(P).ok
    assert preabelian._every_kernel(P, UNCAPPED)
    socle, into = preabelian._socle(P), generators_into(P)
    assert all(injective_is_torsion_free(P, into, {}, z) for z in socle.copies())
    assert not preabelian._pullbacks_of_epis_are_epi(P, UNCAPPED)
    fam = build_morphism_family(P, UNCAPPED)
    assert run_clause(preabelian._preabelian_clause(P, fam, UNCAPPED)).status == "pass"
    P_side = _sides(P, fam)[0]
    assert all(r.status == "pass" for r in _plain_side(P, *P_side, fam, UNCAPPED))


@pytest.mark.parametrize(
    "budget,digest",
    [
        (DEFAULT_BUDGET, "9cde2e065ac843b4eebbf77011fffb8d3117fc938dd3fca28e2a1f7fb66d558f"),
        (Budget(scan_pairs_cap=120), "28a88f50f8d9aebd90461b07609d3ffa37221d73e540d726feb917cfb1192b07"),
        (UNCAPPED, "77d90b6e6b7a1b27cf75dbf5933dc491a9e1945908dcaa957b635cc559ba1603"),
    ],
    ids=["default", "cap120", "uncapped"],
)
def test_the_two_reject_verdict_is_pinned(budget, digest):
    # the one input whose side the reject chain passes and the check does
    # not, so the sampled leg clauses answer there: its report, without
    # timing_s, at three budgets
    rep = run_verification(_two_reject_category(), subcat=set(), budget=budget)
    rep.pop("timing_s")
    assert hashlib.sha256(json.dumps(rep, sort_keys=True).encode()).hexdigest() == digest
