"""A decided verdict's shortcuts against the computations they replace.

Four answers a verdict held or could read off a proven identity are no
longer computed the long way:

- Q^op's _every_kernel reads Q's True: gl.dim Gamma = gl.dim Gamma^op
  (`preabelian._every_kernel`).  The oracle is `_has_every_kernel` asked
  directly of the opposite of a fresh copy of Q.
- `coim_im_factorise` takes w = f where u is 1_X and ftilde = w where v is
  1_Y.  The oracle solves w o u = f and v o ftilde = w.  The abelian clause
  factorises nothing where the scan decided Q's side, as on every verdict
  here, so the test runs the middle-map loop beside it and asks the loop
  for the clause's result.
- `HFunctor.preimage` reduces [phi | 0] against the echelon rows [H(b_a)
  | e_a].  The oracle solves over the columns H(b_a).
- On Q's decided side a regular-roof try meets one rank condition
  (`preabelian.socle_condition`).  The oracle is is_epi's Yoneda
  conditions in Q and in Q^op.

Each must give the answer, or the map, its oracle gives, on every case a
verdict meets, over every rigid T of C(A_3)/Q, every 7th of
C(A_4,"><>")/GF(101) and the 510 proper subcategory quotients of C(A_3)
over Q and over GF(2).
"""

import collections

import pytest

from quotcat import localization, modcat, preabelian, verify
from quotcat.fincat import CategoryPresentation, op_morphism, opposite
from quotcat.linalg import GF, QQ, Matrix
from quotcat.modcat import HFunctor
from quotcat.preabelian import (
    RankCondition,
    epi_conditions,
    factors_through_map,
    last_one,
    lifts_through_epi,
    run_clause,
    scan_properties,
    solve_on_basis,
)
from quotcat.quotient import build_quotient
from quotcat.verify import run_verification
from test_socle_rank import CAPPED, _rigid_verdicts, _subcategory_verdicts


def _fresh(Q):
    """A presentation with Q's data and none of its tables."""
    hom = {(i, j): Q.hom_dim(i, j) for i in range(Q.n) for j in range(Q.n) if Q.hom_dim(i, j)}
    return CategoryPresentation(Q.field, Q.objects, hom, Q.comp, Q.identities)


def _solved_preimage(H, X, Y, phi):
    """Some f with H(f) = phi, or None: one solve over the columns H(b)."""
    want = [a for row in phi.data for a in row]
    m = Matrix.from_columns(H.P.field, len(want), H.images(X, Y))
    return solve_on_basis(H.P, X, Y, m, want)


def _yoneda_regular_conditions(Q, leg, A, X):
    """is_epi's rank conditions on leg(m) in Q and on its twin in Q^op."""
    op = opposite(Q)
    g = last_one(leg)
    return epi_conditions(Q, g, X) + epi_conditions(op, lambda m: op_morphism(op, g(m)), A)


class _Agreeing(RankCondition):
    """condition, asserting on each tried map that the Yoneda conditions
    hold exactly when it does."""

    def __init__(self, condition, yoneda, tried):
        super().__init__(condition.builder, condition.required)
        self.yoneda = yoneda
        self.tried = tried

    def holds(self, m):
        got = super().holds(m)
        assert got == all(c.holds(m) for c in self.yoneda), m
        self.tried[got] += 1
        return got


# name -> (verdicts, (True/True, False/False) every-kernel pairs on Q^op,
# factorisations of the loop run beside the abelian clause (all, by an
# identity), preimages (found, none), roof tries (regular, not))
CORPORA = {
    "A3/Q every rigid T": (lambda: _rigid_verdicts(3, None, QQ, 1), (44, 0), (516, 504), (624, 111), (477, 4)),
    "A4(><>)/F101 every 7th rigid T": (
        lambda: _rigid_verdicts(4, "><>", GF(101), 7),
        (28, 0),
        (787, 748),
        (961, 182),
        (554, 40),
    ),
    "A3/Q subcategories": (lambda: _subcategory_verdicts(QQ), (372, 138), (1692, 1674), (0, 0), (0, 0)),
    "A3/GF(2) subcategories": (lambda: _subcategory_verdicts(GF(2)), (372, 138), (1692, 1674), (0, 0), (0, 0)),
}


@pytest.mark.parametrize("corpus", list(CORPORA))
def test_held_answers_are_the_recomputed_answers(corpus, monkeypatch):
    verdicts, kernels, factorisations, preimages, tries = CORPORA[corpus]
    every_kernel = collections.Counter()
    factored = collections.Counter()
    solved = []
    tried = collections.Counter()

    scan = verify.scan_properties

    def scanned(Q, budget):
        rep = scan(Q, budget)
        got = opposite(Q)._every_kernel[budget.search_fields]
        direct = preabelian._has_every_kernel(opposite(_fresh(Q)), budget)
        assert got == direct, Q.objects
        every_kernel[got] += 1
        return rep

    abelian = verify.check_abelian

    def abelian_beside_the_loop(Q, budget):
        before = sum(factored.values())
        rep = abelian(Q, budget)
        assert Q._socle is not None and sum(factored.values()) == before, Q.objects
        loop = run_clause(localization._middle_map_loop(Q, budget))
        assert loop == rep.clauses["abelian_middle_maps"], Q.objects
        return rep

    factorise = localization.coim_im_factorise

    def factorised(Q, f, budget):
        fac = factorise(Q, f, budget)
        w = factors_through_map(Q, f, fac.u)
        assert w is not None and lifts_through_epi(Q, w, fac.v) is fac.ftilde, f
        factored[fac.u is Q.identity(f.source) or fac.v is Q.identity(f.target)] += 1
        return fac

    preimage = HFunctor.preimage

    def reduced(H, X, Y, phi):
        f = preimage(H, X, Y, phi)
        assert f is _solved_preimage(H, X, Y, phi), (X, Y)
        solved.append(f is not None)
        return f

    conditions = modcat._regular_conditions

    def agreeing(Q, leg, A, X):
        got = conditions(Q, leg, A, X)
        if Q._socle is None:
            return got
        (condition,) = got
        return [_Agreeing(condition, _yoneda_regular_conditions(Q, leg, A, X), tried)]

    monkeypatch.setattr(verify, "scan_properties", scanned)
    monkeypatch.setattr(verify, "check_abelian", abelian_beside_the_loop)
    monkeypatch.setattr(localization, "coim_im_factorise", factorised)
    monkeypatch.setattr(HFunctor, "preimage", reduced)
    monkeypatch.setattr(modcat, "_regular_conditions", agreeing)
    for P, kw in verdicts():
        run_verification(P, budget=CAPPED, **kw)
    counts = (
        (every_kernel[True], every_kernel[False]),
        (sum(factored.values()), factored[True]),
        (solved.count(True), solved.count(False)),
        (tried[True], tried[False]),
    )
    assert counts == (kernels, factorisations, preimages, tries)


@pytest.mark.parametrize("corpus", ["A3/Q every rigid T", "A4(><>)/F101 every 7th rigid T"])
def test_the_roof_condition_is_regularity_on_every_family_map(corpus):
    # a verdict's roof searches try few maps that are mono or epi alone,
    # so the condition is asked here of every map of each decided scan's
    # family, as the one leg of a search from its source to its target
    verdicts = CORPORA[corpus][0]
    kinds = collections.Counter()
    for P, kw in verdicts():
        Q = build_quotient(P, kw["t_spec"]).presentation
        fam = scan_properties(Q, CAPPED).family
        assert Q._socle is not None
        op = opposite(Q)
        for f in fam.all:
            condition = preabelian.socle_condition(Q, lambda m: m, f.source, f.target)
            yoneda = _yoneda_regular_conditions(Q, lambda m: m, f.source, f.target)
            assert condition.holds(f) == all(c.holds(f) for c in yoneda), f
            epi = all(c.holds(f) for c in epi_conditions(Q, lambda m: m, f.target))
            mono = all(c.holds(op_morphism(op, f)) for c in epi_conditions(op, lambda m: m, f.source))
            kinds[epi, mono] += 1
    # every kind of map is asked: regular, epi alone, mono alone, neither
    assert len(kinds) == 4, kinds
