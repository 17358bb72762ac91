"""Epi, mono and PROJECTIVES' add-T test from one rank, against the
computations they replace.

On a side P that `scan_properties` decided, `preabelian._socle_answers`
reads epi and mono off one rank of Hom(Z, f), Z the sum of the Z_z with S_z
in soc Gamma.  The Yoneda path it stands in for ranks - o f on every
Hom(-, Z_k), in P for epi and in P^op for mono.  Both are exact, so they
must agree on every map a verdict asks, over the rigid-T corpora and over
every proper subcategory quotient of C(A_3), where many sides are left
undecided and keep the Yoneda path.

PROJECTIVES asks whether H(p) is bijective for the approximation p: T_0 ->
x, instead of searching for a roof from x to some partner in add T
(`conftest.iso_to_add_t`).  The two must agree on every x, where Q's side
is decided and where no scan decided it.
"""

import collections
import itertools

import pytest

from quotcat import modcat, preabelian
from quotcat.clustergen import build_cluster_category
from quotcat.fincat import all_rigid_supports, approximation, op_morphism, opposite, precompose_matrices
from quotcat.linalg import GF, QQ
from quotcat.modcat import HFunctor, in_s
from quotcat.preabelian import Budget, scan_properties
from quotcat.quotient import build_quotient
from quotcat.verify import run_verification

from conftest import iso_to_add_t

CAPPED = Budget(scan_pairs_cap=120)


def _yoneda_epi(P, f):
    """Whether - o f is one to one on every Hom(target f, Z_k): is_epi's
    Yoneda path, without its tables."""
    return all(not m.ncols or m.rank() == m.ncols for m in precompose_matrices(P, f))


def _yoneda_answers(P, f):
    op = opposite(P)
    return _yoneda_epi(P, f), _yoneda_epi(op, op_morphism(op, f))


def _rigid_verdicts(n, orientation, field, step):
    P = build_cluster_category(n, orientation, field)
    for s in all_rigid_supports(P, P.n)[::step]:
        yield P, {"t_spec": P.obj({P.objects[i]: 1 for i in s})}


def _subcategory_verdicts(field):
    A3 = build_cluster_category(3, None, field)
    for k in range(1, A3.n):
        for S in itertools.combinations(range(A3.n), k):
            yield A3, {"subcat": set(S)}


# name -> (verdicts, maps checked, verdicts with a decided side, overall
# statuses).  Q^op reads Q's True on every kernel, so no verdict asks mono
# of its sink maps, whose twins Q's rank used to answer
CORPORA = {
    "A3/Q every rigid T": (lambda: _rigid_verdicts(3, None, QQ, 1), 4554, 44, {"pass": 44}),
    "A4(><>)/F101 every 7th rigid T": (lambda: _rigid_verdicts(4, "><>", GF(101), 7), 4747, 28, {"pass": 28}),
    "A3/Q subcategories": (lambda: _subcategory_verdicts(QQ), 18304, 279, {"pass": 279, "fail": 231}),
    "A3/GF(2) subcategories": (lambda: _subcategory_verdicts(GF(2)), 9985, 279, {"pass": 279, "fail": 231}),
}


@pytest.mark.parametrize("corpus", list(CORPORA))
def test_socle_answers_are_the_yoneda_answers(corpus, monkeypatch):
    # every (epi, mono) a decided side answers in a verdict from a map's own
    # rank is the Yoneda pair of that map
    verdicts, maps, decided, statuses = CORPORA[corpus]
    real = preabelian._socle_answers
    checked = []

    def checked_answers(P, f):
        got = real(P, f)
        assert got == _yoneda_answers(P, f), (P.objects, f)
        checked.append(f)
        return got

    monkeypatch.setattr(preabelian, "_socle_answers", checked_answers)
    overall = collections.Counter()
    with_a_decided_side = 0
    for P, kw in verdicts():
        before = len(checked)
        overall[run_verification(P, budget=CAPPED, **kw)["overall"]] += 1
        with_a_decided_side += len(checked) > before
    assert (len(checked), with_a_decided_side, overall) == (maps, decided, statuses)


@pytest.mark.parametrize(
    "verdicts,count",
    [(CORPORA["A3/Q every rigid T"][0], 4725), (CORPORA["A3/Q subcategories"][0], 20199)],
    ids=["A3/Q every rigid T", "A3/Q subcategories"],
)
def test_a_decided_opposite_answers_the_twins(verdicts, count):
    # a verdict asks epi and mono of Q's maps, so Q^op's rank answers none
    # there; asked of the twins of the scan family, it gives the Yoneda
    # pair in Q^op, which is Q's (mono, epi)
    twins = 0
    for P, kw in verdicts():
        qc = build_quotient(P, **({"T": kw["t_spec"]} if "t_spec" in kw else kw))
        Q = qc.presentation
        op = opposite(Q)
        fam = scan_properties(Q, CAPPED).family
        if op._socle is None:
            continue
        for f in fam.all:
            g = op_morphism(op, f)
            got = (preabelian.is_epi(op, g), preabelian.is_mono(op, g))
            assert got == _yoneda_answers(op, g) == (preabelian.is_mono(Q, f), preabelian.is_epi(Q, f)), f
            twins += 1
    assert twins == count


@pytest.mark.parametrize(
    "verdicts,count",
    [(lambda: _rigid_verdicts(3, None, QQ, 1), 44), (lambda: _rigid_verdicts(4, "><>", GF(101), 7), 28)],
    ids=["A3/Q every rigid T", "A4(><>)/F101 every 7th rigid T"],
)
def test_projectives_rank_is_the_roof_search(verdicts, count):
    # on each decided quotient soc Gamma is T's summands, and for every x,
    # T's own summands included, H(p) is bijective exactly when a roof
    # connects x with an object of add T
    cases = objects = in_add_t = 0
    for P, kw in verdicts():
        T = kw["t_spec"]
        qc = build_quotient(P, T)
        Q = qc.presentation
        scan_properties(Q, CAPPED)
        H = HFunctor(Q, qc.project_obj(T))
        assert Q._socle is not None and Q._socle.support() == H.T.support(), T.mult
        tsupp = sorted(H.T.support())
        for x in range(Q.n):
            p = approximation(Q, tsupp, Q.single(x))
            rank = in_s(H, p)
            assert rank == iso_to_add_t(Q, x, tsupp, CAPPED), (T.mult, x)
            objects += 1
            in_add_t += rank
        cases += 1
    assert cases == count
    assert 0 < in_add_t < objects


def test_projectives_rank_is_the_roof_search_off_a_decided_side(monkeypatch):
    # with no side decided, every verdict passes, and for every x PROJECTIVES'
    # answer, x in T or H(p) bijective, is whether a roof connects x with an
    # object of add T; the rank reads H on the localisation, as FULL does
    monkeypatch.setattr(preabelian, "_pullbacks_of_epis_are_epi", lambda P, budget: None)
    real = modcat._projectives_clause
    answers = []

    def compared(H, budget):
        Q = H.P
        assert Q._socle is None and opposite(Q)._socle is None
        tsupp = sorted(H.T.support())
        for x in range(Q.n):
            p = approximation(Q, tsupp, Q.single(x))
            rank = x in tsupp or in_s(H, p)
            assert rank == iso_to_add_t(Q, x, tsupp, budget), (H.T.mult, x)
            answers.append(rank)
        return real(H, budget)

    monkeypatch.setattr(modcat, "_projectives_clause", compared)
    verdicts = itertools.chain(_rigid_verdicts(3, None, QQ, 1), _rigid_verdicts(4, "><>", GF(101), 7))
    overall = collections.Counter(run_verification(P, budget=CAPPED, **kw)["overall"] for P, kw in verdicts)
    assert overall == {"pass": 72}
    assert len(answers) == 460 and 0 < sum(answers) < len(answers)
