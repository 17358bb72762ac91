"""One object per map: a presentation keeps each Morphism value once.

`Morphism(P, source, target, blocks)` returns the map that `P._maps` keeps
under (source.mult, target.mult, the coordinates), so equal maps are one
object and every table keyed by maps hits by identity.  `identity` and
`hom_basis` keep theirs per multiplicity vector.  These tests check that
every constructor and every operation on maps returns the kept object for a
value it has seen, that a kept map has the source, target and coordinates
its constructor was given, that P, Q and Q^op never share a map, that
`clear_verdict_tables` empties the tables of Q and Q^op, and that a sweep of
verdicts keeps no more maps of its input than its basis maps.  They run on
random coordinate vectors over C(A_3)/Q with T = P1+P3 and
C(A_4, "><>")/GF(101) with T = I1+P1.
"""

from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from quotcat.clustergen import build_cluster_category
from quotcat.fincat import (
    Morphism,
    all_rigid_supports,
    basis_morphisms,
    compose,
    op_morphism,
    opposite,
    split_rows,
    stack_cols,
)
from quotcat.linalg import GF, QQ, unit_vector
from quotcat.preabelian import Budget, build_morphism_family, scan_properties
from quotcat.quotient import build_quotient
from quotcat.verify import run_verification

CAPPED = Budget(scan_pairs_cap=120)

# name -> (n, orientation, field, T)
CASES = {
    "A3/Q T=P1+P3": (3, None, QQ, {"P1": 1, "P3": 1}),
    "A4(><>)/F101 T=I1+P1": (4, "><>", GF(101), {"I1": 1, "P1": 1}),
}

COEFFS = st.sampled_from([0, 0, 1, -1, 2, 3])


@lru_cache(maxsize=None)
def _case(case):
    """(P, qc, Q) of case, kept across examples so the tables fill up."""
    n, orientation, field, t = CASES[case]
    P = build_cluster_category(n, orientation, field)
    qc = build_quotient(P, P.obj(t))
    return P, qc, qc.presentation


def _objects(P):
    """The singles and the sums of two of them."""
    singles = [P.single(i) for i in range(P.n)]
    return singles + [x + y for i, x in enumerate(singles) for y in singles[i:]]


def _vector(data, d):
    return data.draw(st.lists(COEFFS, min_size=d, max_size=d))


def _map(data, P, X, Y):
    return Morphism.from_vector(P, X, Y, _vector(data, P.hom_space_dim(X, Y)))


def _objs(data, P, k):
    return [data.draw(st.sampled_from(_objects(P))) for _ in range(k)]


def _presentation(data, case):
    P, _, Q = _case(case)
    return data.draw(st.sampled_from([P, Q, opposite(Q)]))


@pytest.mark.parametrize("case", sorted(CASES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_equal_values_are_one_object(case, data):
    R = _presentation(data, case)
    fld = R.field
    X, Y, Z = _objs(data, R, 3)
    vec = _vector(data, R.hom_space_dim(X, Y))
    f = Morphism.from_vector(R, X, Y, vec)
    assert Morphism.from_coords(R, X, Y, [fld.of(c) for c in vec]) is f
    assert Morphism.from_vector(R, X, Y, vec) is f
    assert Morphism(R, X, Y, [[list(b) for b in row] for row in f.blocks]) is f
    g, h = _map(data, R, Y, Z), _map(data, R, X, Y)
    k = _map(data, R, Z, data.draw(st.sampled_from(_objects(R))))
    # composition, by two bracketings
    assert compose(R, k, compose(R, g, f)) is compose(R, compose(R, k, g), f)
    assert compose(R, R.identity(Y), f) is f is compose(R, f, R.identity(X))
    # the linear structure
    assert f + h is h + f
    assert f + R.zero_morphism(X, Y) is f
    assert f.scale(1) is f and f.scale(0) is R.zero_morphism(X, Y)
    assert f.scale(2).scale(fld.inv(fld.of(2))) is f
    assert (f + h).scale(3) is f.scale(3) + h.scale(3)
    # identities, zero maps and bases
    assert R.identity(X) is Morphism.from_coords(R, X, X, R.identity(X).to_vector())
    assert R.zero_morphism(X, Y) is Morphism.from_vector(R, X, Y, [0] * R.hom_space_dim(X, Y))
    basis = R.hom_basis(X, Y)
    assert R.hom_basis(X, Y) is basis
    d = len(basis)
    assert all(b is Morphism.from_coords(R, X, Y, unit_vector(fld, d, i)) for i, b in enumerate(basis))
    for i, j, a, b in basis_morphisms(R):
        assert b is R.hom_basis(R.single(i), R.single(j))[a] is R.basis_morphism(i, j, a)
    # direct sums: [f | h'] is f pr_X + h' pr_W, and the rows of a map into
    # a sum are its composites with the projections
    W = data.draw(st.sampled_from(_objects(R)))
    h2 = _map(data, R, W, Y)
    prX, prW = split_rows(R, R.identity(X + W), [X, W])
    assert stack_cols(R, [f, h2]) is compose(R, f, prX) + compose(R, h2, prW)
    m = _map(data, R, Z, X + W)
    rows = split_rows(R, m, [X, W])
    assert rows[0] is compose(R, prX, m) and rows[1] is compose(R, prW, m)


@pytest.mark.parametrize("case", sorted(CASES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_the_way_back_is_the_map_itself(case, data):
    R = _presentation(data, case)
    op = opposite(R)
    X, Y, Z = _objs(data, R, 3)
    f, g = _map(data, R, X, Y), _map(data, R, Y, Z)
    twin = op_morphism(op, f)
    assert twin.P is op and op_morphism(R, twin) is f
    assert op_morphism(op, compose(R, g, f)) is compose(op, twin, op_morphism(op, g))
    # a map of op built from f's coordinates in op's order is f's twin
    assert Morphism(op, Y, X, [[row[s] for row in f.blocks] for s in range(len(X.copies()))]) is twin


@pytest.mark.parametrize("case", sorted(CASES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_project_and_lift_keep_one_object(case, data):
    P, qc, Q = _case(case)
    X, Y = _objs(data, Q, 2)
    qf = _map(data, Q, X, Y)
    lifted = qc.lift(qf)
    assert lifted.P is P and qc.project(lifted) is qf
    assert qc.lift(qc.project(lifted)) is lifted
    pX, pY = _objs(data, P, 2)
    f = _map(data, P, pX, pY)
    assert qc.project(f) is qc.project(qc.lift(qc.project(f)))


@pytest.mark.parametrize("case", sorted(CASES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_a_kept_map_is_the_value_it_was_built_with(case, data):
    # maps into different targets, or out of different sources, with the
    # same coordinates are different maps
    R = _presentation(data, case)
    objects = _objects(R)[: R.n + 4]
    vec = _vector(data, max(R.hom_space_dim(X, Y) for X in objects for Y in objects))
    for X in objects:
        for Y in objects:
            d = R.hom_space_dim(X, Y)
            f = Morphism.from_vector(R, X, Y, vec[:d])
            assert (f.P, f.source, f.target, f.to_vector()) == (R, X, Y, [R.field.of(c) for c in vec[:d]])
            g = Morphism(R, X, Y, f.blocks)
            assert g is f and (g.source, g.target) == (X, Y)


@pytest.mark.parametrize("case", sorted(CASES))
def test_P_Q_and_Q_op_share_no_map(case):
    P, qc, Q = _case(case)
    op = opposite(Q)
    for R in (P, Q, op):
        for X in _objects(R)[:6]:
            R.identity(X)
            for Y in _objects(R)[:6]:
                R.zero_morphism(X, Y)
                R.hom_basis(X, Y)
    build_morphism_family(Q, CAPPED)
    owners = {}
    for R in (P, Q, op):
        assert all(f.P is R for f in R._maps.values())
        for f in R._maps.values():
            assert owners.setdefault(id(f), R) is R
    # the zero map of the zero object has one key in Q and Q^op
    zero = [R.zero_morphism(R.obj((0,) * R.n), R.obj((0,) * R.n)) for R in (Q, op)]
    assert zero[0] is not zero[1] and (zero[0].P, zero[1].P) == (Q, op)


@pytest.mark.parametrize("case", sorted(CASES))
def test_clear_verdict_tables_empties_the_kept_maps(case):
    n, orientation, field, t = CASES[case]
    P = build_cluster_category(n, orientation, field)
    Q = build_quotient(P, P.obj(t)).presentation
    op = opposite(Q)
    assert scan_properties(Q, CAPPED).ok
    for R in (Q, op):
        R.identity(R.single(0))
        R.hom_basis(R.single(0), R.single(0))
        assert R._maps and R._identities and R._bases
    Q.clear_verdict_tables()
    for R in (Q, op):
        assert not (R._maps or R._identities or R._bases)
    # the tables fill again, with new objects
    f = Q.identity(Q.single(0))
    assert Q._maps == {(f.source.mult, f.target.mult, tuple(f.to_vector())): f}
    assert Q._identities == {f.source.mult: f}


def test_a_sweep_keeps_no_more_maps_of_its_input_than_its_basis_maps():
    P = build_cluster_category(3)
    basis = sum(P.hom_dim(i, j) for i in range(P.n) for j in range(P.n))
    for support in all_rigid_supports(P, P.n):
        T = P.obj([int(i in support) for i in range(P.n)])
        assert run_verification(P, T, budget=CAPPED)["overall"] == "pass"
        assert 0 < len(P._maps) <= basis
    assert all(f.source.total == f.target.total == 1 for f in P._maps.values())
