"""Differential tests: two independent deciders of one fact agree.

Every clause of a C(A_3) verdict is a statement about dimensions and ranks
of integer structure constants that reduce well mod 101, so its status and
its count of checked cases must agree between Q and GF(101).  Witness
coordinates may differ and are not compared.

Hom(T, -) is computed twice: on the quotient, as a verdict computes it,
and on the parent C through the lifts of quotient maps.  Since Hom(T, X_T)
= 0 they must agree entry for entry.

Epi and mono in the quotient are decided twice: by Yoneda ranks over
every indecomposable, as the scan decides them, and by whether Hom_Q(T, f)
is onto or one to one.  They must agree on every map of the scan family.

Equality of right fractions is decided twice: by `fractions_equal`, on a
pullback of the two denominators in the quotient, and through the
equivalence with mod End(T)^op, by comparing the module maps
`h_fraction` gives.  They must agree on random roofs.
"""

from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from quotcat.clustergen import build_cluster_category
from quotcat.fincat import Morphism, all_rigid_supports, approximation, basis_morphisms, compose, postcompose_matrix
from quotcat.linalg import GF, QQ
from quotcat.localization import Fraction, fractions_equal
from quotcat.modcat import HFunctor, h_fraction
from quotcat.preabelian import Budget, build_morphism_family, is_epi, is_mono
from quotcat.quotient import build_quotient
from quotcat.verify import run_verification

CAPPED = Budget(scan_pairs_cap=120)


@pytest.fixture(scope="module")
def A3_pair():
    return build_cluster_category(3), build_cluster_category(3, field=GF(101))


def _clauses(P, supp):
    rep = run_verification(P, P.obj({P.objects[i]: 1 for i in supp}), budget=CAPPED)
    return {name: (c["status"], c.get("checked")) for name, c in rep["clauses"].items()}


@settings(max_examples=8)
@given(data=st.data())
def test_every_clause_agrees_over_q_and_f101(A3_pair, data):
    P, F = A3_pair
    supp = data.draw(st.sampled_from(all_rigid_supports(P, 3)))
    assert all_rigid_supports(F, 3) == all_rigid_supports(P, 3)
    assert _clauses(F, supp) == _clauses(P, supp)


# -- Hom(T, -) on the quotient against Hom_C(T, -) of the lifts ---------------------


def _rigid_cases(step):
    """(P, T) for every rigid T of C(A_3) over Q, then every step-th rigid T
    of C(A_4, "><>") over GF(101), with T's quotient."""
    a3 = build_cluster_category(3)
    a4 = build_cluster_category(4, "><>", GF(101))
    for P, supports in ((a3, all_rigid_supports(a3, 3)), (a4, all_rigid_supports(a4, 4)[::step])):
        for supp in supports:
            T = P.obj({P.objects[i]: 1 for i in supp})
            yield P, T, build_quotient(P, T)


def test_h_on_the_quotient_is_hom_c_of_the_lifts():
    # every basis map of Q has the matrix of its lift, every x the module
    # data of its lift, and T's approximation of x in Q is the projection
    # of C's
    cases = 0
    for P, T, qc in _rigid_cases(7):
        supp = sorted(T.support())
        Q, T_Q = qc.presentation, qc.project_obj(T)
        HQ, HC = HFunctor(Q, T_Q), HFunctor(P, T)
        for i, j, a, f in basis_morphisms(Q):
            assert HQ.mor_matrix(f) == HC.mor_matrix(qc.lift(f)), (P.field, supp, i, j, a)
        for x, p in enumerate(qc.keep):
            MQ, MC = HQ.module(Q.single(x)), HC.module(P.single(p))
            assert (MQ.dim, MQ.positions, MQ.copy_actions) == (MC.dim, MC.positions, MC.copy_actions), (supp, x)
            appr = approximation(Q, sorted(T_Q.support()), Q.single(x))
            assert appr == qc.project(approximation(P, sorted(supp), P.single(p))), (P.field, supp, x)
        cases += 1
    assert cases == 44 + 28


def test_hom_t_detects_epis_and_monos():
    # the bridge of ROADMAP item 17: a map f of the scan family is epi in Q
    # exactly when Hom_Q(T, f) is onto, and mono exactly when it is one to one
    maps = 0
    for P, T, qc in _rigid_cases(4):
        Q, T_Q = qc.presentation, qc.project_obj(T)
        for f in build_morphism_family(Q).all:
            m = postcompose_matrix(Q, f, T_Q)
            rank = m.rank()
            assert (rank == m.nrows, rank == m.ncols) == (is_epi(Q, f), is_mono(Q, f)), (P.field, T.mult, f)
            maps += 1
    assert maps == 4725 + 8602


# -- fraction equality against the module side --------------------------------------

# name -> (n, orientation, field, T)
ROOF_CATEGORIES = {
    "A3/Q": (3, None, QQ, "P1+P3"),
    "A4(><>)/F101": (4, "><>", GF(101), "I1+P1"),
}


@lru_cache(maxsize=None)
def _roof_setting(name):
    """The quotient by X_T, the functor H on it and the regular maps of the scan family."""
    n, orientation, field, spec = ROOF_CATEGORIES[name]
    P = build_cluster_category(n, orientation, field)
    T = P.obj({s: 1 for s in spec.split("+")})
    qc = build_quotient(P, T)
    return qc, HFunctor(qc.presentation, qc.project_obj(T)), build_morphism_family(qc.presentation).regulars


def _random_map(data, Q, X, Y):
    coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=Q.hom_space_dim(X, Y), max_size=Q.hom_space_dim(X, Y)))
    return Morphism.from_vector(Q, X, Y, coeffs)


@settings(max_examples=40)
@given(name=st.sampled_from(sorted(ROOF_CATEGORIES)), data=st.data())
def test_fraction_equality_agrees_with_the_module_maps(name, data):
    # G is F amplified by a regular s (equal to F), or F's amplification
    # with a map added to its numerator, or an unrelated roof over F's
    # source; fractions_equal and h_fraction must agree in every case
    qc, H, regulars = _roof_setting(name)
    Q = qc.presentation
    r = data.draw(st.sampled_from(regulars))
    Y = Q.single(data.draw(st.integers(0, Q.n - 1)))
    F = Fraction(Q, r, _random_map(data, Q, r.source, Y))
    how = data.draw(st.sampled_from(["amplified", "shifted", "other"]))
    if how == "other":
        r2 = data.draw(st.sampled_from([g for g in regulars if g.target == r.target]))
        G = Fraction(Q, r2, _random_map(data, Q, r2.source, Y))
    else:
        s = data.draw(st.sampled_from([g for g in regulars if g.target == r.source]))
        num = compose(Q, F.num, s)
        if how == "shifted":
            num = num + _random_map(data, Q, s.source, Y)
        G = Fraction(Q, compose(Q, r, s), num)
    equal = fractions_equal(Q, F, G)
    assert equal == (h_fraction(H, F) == h_fraction(H, G))
    if how == "amplified":
        assert equal
