"""The representability check of the socle injectives against the
computations it stands in for.

On a side P past `_has_every_kernel`'s gate, `preabelian._representing_object`
asks, for each z with S_z in soc Gamma, whether I_z = D Hom(Z_z, -) is
Hom(-, Z_w) for some w.  `_pullbacks_of_epis_are_epi` decides the side
exactly when it finds a w for every z: a projective module is
torsion-free, so t(I_z) = 0.  On Q's decided side
`localization._abelian_clause` yields once per basis morphism and
factorises none: Hom(Z, -) is then right exact, so every middle map is
regular.

So wherever the check passes, the reject chain (conftest's
injective_is_torsion_free, which computes t(I_z) from its definition) must
pass, and the plain middle-map loop, run directly, must pass with the count
the clause reports.
On rigid T, Serre duality predicts w = sigma^2 z on Q's side, and on the
side of Q^op, z = sigma^2 w.
"""

import collections
import itertools

import pytest

from quotcat import localization, preabelian
from quotcat.clustergen import build_cluster_category
from quotcat.fincat import CategoryPresentation, all_rigid_supports, opposite, validate_category
from quotcat.linalg import GF, QQ
from quotcat.localization import check_abelian
from quotcat.preabelian import DEFAULT_BUDGET, ClauseResult, run_clause, scan_properties
from quotcat.quotient import build_quotient
from quotcat.verify import run_verification

from conftest import generators_into, injective_is_torsion_free
from test_integral_decision import _two_reject_category


def _basis_count(Q):
    return sum(Q.hom_dim(i, j) for i in range(Q.n) for j in range(Q.n))


def _loop(Q):
    """The middle-map loop, run directly: what the clause did before the check."""
    return run_clause(localization._middle_map_loop(Q, DEFAULT_BUDGET))


@pytest.mark.parametrize("field", [QQ, GF(2)], ids=["QQ", "GF2"])
def test_the_check_passes_only_where_the_reject_chain_passes(field):
    # over the 510 proper subcategory quotients of C(A_3): every z of a side
    # past the gate that the check passes has t(I_z) = 0 by rejects too, a
    # side is decided exactly when the check passes every z of its socle,
    # and every quotient whose abelian clause the check decides passes the
    # loop
    A3 = build_cluster_category(3, None, field)
    asked = collections.Counter()
    proven = 0
    for k in range(1, A3.n):
        for S in itertools.combinations(range(A3.n), k):
            Q = build_quotient(A3, subcat=set(S)).presentation
            for P in (Q, opposite(Q)):
                if not preabelian._has_every_kernel(P, DEFAULT_BUDGET):
                    continue
                into, acts, checks = generators_into(P), {}, []
                for z in preabelian._socle(P).copies():
                    check = preabelian._representing_object(P, z) is not None
                    chain = injective_is_torsion_free(P, into, acts, z)
                    assert chain or not check, (S, P is Q, z)
                    asked[check, chain] += 1
                    checks.append(check)
                decided = preabelian._pullbacks_of_epis_are_epi(P, DEFAULT_BUDGET) is not None
                assert decided == all(checks), (S, P is Q)
            scan = scan_properties(Q, DEFAULT_BUDGET)
            if scan.clauses["preabelian"].status == "pass" and Q._socle is not None:
                assert _loop(Q) == ClauseResult("pass", _basis_count(Q)), S
                proven += 1
    assert proven == 279
    # here the check and the chain agree on every z; the two-reject category
    # below is a z the chain passes and the check does not
    assert asked == {(True, True): 1644, (False, False): 240}


def _rigid_quotients(category, step):
    P = build_cluster_category(*category)
    for s in all_rigid_supports(P, P.n)[::step]:
        yield P, s, build_quotient(P, P.obj({P.objects[i]: 1 for i in s}))


@pytest.mark.parametrize(
    "category,step,count",
    [((3, None, QQ), 1, 44), ((4, "><>", GF(101)), 7, 28)],
    ids=["A3/Q every rigid T", "A4(><>)/F101 every 7th rigid T"],
)
def test_rigid_t_represents_each_socle_injective_by_sigma_squared(category, step, count):
    # the w found is sigma^2 z on Q's side, and z = sigma^2 w on the side of
    # Q^op; the loop, run directly on a fresh quotient through the Yoneda
    # path, finds every middle map regular, with the count the clause gives
    # by proof once the scan has decided Q's side
    cases = 0
    for P, s, qc in _rigid_quotients(category, step):
        Q = qc.presentation
        where = {p: q for q, p in enumerate(qc.keep)}
        sigma2 = {where[p]: where.get(P.sigma[P.sigma[p]]) for p in qc.keep}
        loop = _loop(Q)
        assert loop == ClauseResult("pass", _basis_count(Q)), s
        scan_properties(Q, DEFAULT_BUDGET)
        op = opposite(Q)
        assert Q._socle is not None and op._socle is not None, s
        assert all(preabelian._representing_object(Q, z) == sigma2[z] for z in Q._socle.copies()), s
        assert all(sigma2[preabelian._representing_object(op, z)] == z for z in op._socle.copies()), s
        assert check_abelian(Q).clauses["abelian_middle_maps"] == loop, s
        cases += 1
    assert cases == count


def test_the_two_reject_category_fails_the_check_and_takes_the_loop(monkeypatch):
    # the reject chain passes every z of soc Gamma = S_z + S_u + S_w, but
    # only I_w is representable (by Hom(-, Z_t)), so the side is undecided,
    # and its verdict factorises each basis morphism, finding a middle map
    # that is not regular
    E = _two_reject_category()
    assert preabelian._every_kernel(E, DEFAULT_BUDGET)
    assert not preabelian._pullbacks_of_epis_are_epi(E, DEFAULT_BUDGET)
    socle = preabelian._socle(E).copies()
    assert all(injective_is_torsion_free(E, generators_into(E), {}, z) for z in socle)
    found = {z: preabelian._representing_object(E, z) for z in socle}
    names = {E.objects[z]: None if w is None else E.objects[w] for z, w in found.items()}
    assert names == {"w": "t", "z": None, "u": None}
    factorised = []
    factorise = localization.coim_im_factorise
    monkeypatch.setattr(localization, "coim_im_factorise", lambda Q, f, budget: factorised.append(f) or factorise(Q, f, budget))
    rep = run_verification(E, subcat=set())
    assert rep["clauses"]["abelian_localisation"] == {
        "status": "fail",
        "detail": "middle map not regular at (2,1,0)",
        "checked": 4,
    }
    assert len(factorised) == 4


def test_clear_verdict_tables_forgets_the_check(monkeypatch):
    # a cleared quotient keeps no socle, on either side, so a verdict asked
    # of it afresh without a scan takes the loop; and a fresh quotient that
    # fails the check takes the loop too
    A3 = build_cluster_category(3)
    Q = build_quotient(A3, A3.obj({"P1": 1, "P3": 1})).presentation
    op = opposite(Q)
    scan_properties(Q, DEFAULT_BUDGET)
    assert Q._socle is not None and op._socle is not None
    Q.clear_verdict_tables()
    assert Q._socle is None and op._socle is None
    factorised = []
    factorise = localization.coim_im_factorise
    monkeypatch.setattr(localization, "coim_im_factorise", lambda Q, f, budget: factorised.append(f) or factorise(Q, f, budget))
    assert check_abelian(Q).clauses["abelian_middle_maps"] == ClauseResult("pass", _basis_count(Q))
    assert len(factorised) == _basis_count(Q)
    factorised.clear()
    E = build_quotient(_two_reject_category(), subcat=set()).presentation
    scan_properties(E, DEFAULT_BUDGET)
    assert E._socle is None
    assert check_abelian(E).clauses["abelian_middle_maps"].status == "fail"
    assert len(factorised) == 4


def _three_maps_category(composite):
    """The maps z -> x -> w and z -> w, each Hom space between distinct
    objects one-dimensional, with z -> x -> w the given multiple of the
    basis of Hom(z, w)."""
    one = QQ.one
    z, x, w = range(3)
    maps = [(z, x), (x, w), (z, w)]
    dims = {(i, i): 1 for i in range(3)} | {m: 1 for m in maps}
    comp = {(i, i, i): [[[one]]] for i in range(3)} | {(z, x, w): [[[QQ.of(composite)]]]}
    for i, j in maps:
        comp[(i, i, j)] = comp[(i, j, j)] = [[[one]]]
    return CategoryPresentation(QQ, ["z", "x", "w"], dims, comp, [[one]] * 3)


@pytest.mark.parametrize("composite,found", [(0, None), (1, "w")])
def test_the_pairing_decides_where_the_dimensions_match(composite, found):
    # only w passes the dimension filter for z, whatever the composite; with
    # z -> x -> w = 0 the pairing at x is the 1 x 1 zero matrix, and I_z is
    # not Hom(-, Z_w): I_z kills x -> w, which Hom(-, Z_w) does not
    P = _three_maps_category(composite)
    assert validate_category(P).ok
    assert preabelian._has_every_kernel(P, DEFAULT_BUDGET)
    assert 0 in preabelian._socle(P).support()
    w = preabelian._representing_object(P, 0)
    assert (w if w is None else P.objects[w]) == found
