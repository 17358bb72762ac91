"""The representability check of the socle injectives against the
computations it stands in for.

On a side P past `_has_every_kernel`'s gate, `preabelian._representing_object`
asks, for each z with S_z in soc Gamma, whether I_z = D Hom(Z_z, -) is
Hom(-, Z_w) for some w.  Where it finds w, `_pullbacks_of_epis_are_epi`
asks no reject chain for z: a projective module is torsion-free.  Where it
finds a w for every z of Q's side, `localization._abelian_clause` yields
once per basis morphism and factorises none: Hom(Z, -) is then right exact
(`preabelian.socle_is_right_exact`), so every middle map is regular.

So wherever the check passes, the reject chain must pass, and the plain
middle-map loop, run directly, must pass with the count the clause reports.
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
from quotcat.preabelian import DEFAULT_BUDGET, ClauseResult, run_clause, scan_properties, socle_is_right_exact
from quotcat.quotient import build_quotient
from quotcat.verify import run_verification

from test_integral_decision import _two_reject_category


def _basis_count(Q):
    return sum(Q.hom_dim(i, j) for i in range(Q.n) for j in range(Q.n))


def _loop(Q):
    """The middle-map loop, run directly: what the clause did before the check."""
    return run_clause(localization._middle_map_loop(Q, DEFAULT_BUDGET))


@pytest.mark.parametrize("field", [QQ, GF(2)], ids=["QQ", "GF2"])
def test_the_check_passes_only_where_the_reject_chain_passes(field):
    # over the 510 proper subcategory quotients of C(A_3): every z of a side
    # past the gate that the check passes has t(I_z) = 0 by rejects too, and
    # every quotient whose abelian clause the check decides passes the loop
    A3 = build_cluster_category(3, None, field)
    asked = collections.Counter()
    proven = 0
    for k in range(1, A3.n):
        for S in itertools.combinations(range(A3.n), k):
            Q = build_quotient(A3, subcat=set(S)).presentation
            for P in (Q, opposite(Q)):
                if not preabelian._has_every_kernel(P, DEFAULT_BUDGET):
                    continue
                into, acts = preabelian._generators_into(P), {}
                for z in preabelian._socle(P).copies():
                    check = preabelian._representing_object(P, z) is not None
                    chain = preabelian._injective_is_torsion_free(P, into, acts, z)
                    assert chain or not check, (S, P is Q, z)
                    asked[check, chain] += 1
            scan = scan_properties(Q, DEFAULT_BUDGET)
            if scan.clauses["preabelian"].status == "pass" and socle_is_right_exact(Q):
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
        assert socle_is_right_exact(Q) and socle_is_right_exact(op), s
        assert all(w == sigma2[z] for z, w in Q._socle_injectives.items()), s
        assert all(sigma2[w] == z for z, w in op._socle_injectives.items()), s
        assert check_abelian(Q).clauses["abelian_middle_maps"] == loop, s
        cases += 1
    assert cases == count


def test_the_two_reject_category_fails_the_check_and_takes_the_loop(monkeypatch):
    # its side is decided by the reject chain alone: of soc Gamma = S_z + S_u
    # + S_w only I_w is representable (by Hom(-, Z_t)), and its verdict
    # factorises each basis morphism, finding a middle map that is not
    # regular
    E = _two_reject_category()
    assert preabelian._pullbacks_of_epis_are_epi(E, DEFAULT_BUDGET)
    names = {E.objects[z]: None if w is None else E.objects[w] for z, w in E._socle_injectives.items()}
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
    # a cleared quotient keeps no socle and no representing objects, on
    # either side, so a verdict asked of it afresh without a scan takes the
    # loop; and a fresh quotient that fails the check takes the loop too
    A3 = build_cluster_category(3)
    Q = build_quotient(A3, A3.obj({"P1": 1, "P3": 1})).presentation
    op = opposite(Q)
    scan_properties(Q, DEFAULT_BUDGET)
    assert socle_is_right_exact(Q) and Q._socle_injectives and op._socle_injectives
    Q.clear_verdict_tables()
    for P in (Q, op):
        assert P._socle is None and P._socle_injectives == {}
        assert not socle_is_right_exact(P)
    factorised = []
    factorise = localization.coim_im_factorise
    monkeypatch.setattr(localization, "coim_im_factorise", lambda Q, f, budget: factorised.append(f) or factorise(Q, f, budget))
    assert check_abelian(Q).clauses["abelian_middle_maps"] == ClauseResult("pass", _basis_count(Q))
    assert len(factorised) == _basis_count(Q)
    factorised.clear()
    E = build_quotient(_two_reject_category(), subcat=set()).presentation
    scan_properties(E, DEFAULT_BUDGET)
    assert E._socle is not None and not socle_is_right_exact(E)
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
