import pytest

from quotcat.errors import MissingSuspension, ShapeError
from quotcat.fincat import (
    approximation,
    compose,
    is_cluster_tilting,
    is_rigid,
    op_morphism,
    opposite,
    perp,
    postcompose_matrix,
    precompose_matrix,
    stack_cols,
    sum_projections,
    validate_category,
)
from quotcat.linalg import QQ

from conftest import arrow_category, chain4_category


def test_point_category_validates(point):
    assert validate_category(point).ok


def test_arrow_category_validates(arrow):
    assert validate_category(arrow).ok


def test_chain_category_validates():
    assert validate_category(chain4_category()).ok


def test_corrupted_unit_reported():
    rep = validate_category(arrow_category(unit_coeff=2))
    assert not rep.ok
    kinds = {k for k, _ in rep.violations}
    assert "left-unit" in kinds or "right-unit" in kinds


def test_corrupted_associativity_reported_with_triple():
    rep = validate_category(chain4_category(assoc_coeff=2))
    assert not rep.ok
    assoc = [d for k, d in rep.violations if k == "associativity"]
    assert any(d[:4] == (0, 1, 2, 3) for d in assoc)


def test_compose_identity_and_zero(arrow):
    x, y = arrow.single("x"), arrow.single("y")
    f = arrow.basis_morphism(0, 1, 0)
    assert compose(arrow, arrow.identity(y), f) == f
    assert compose(arrow, f, arrow.identity(x)) == f
    z = arrow.zero_morphism(y, y)
    assert compose(arrow, z, f).is_zero()


def test_compose_shape_error(arrow):
    f = arrow.basis_morphism(0, 1, 0)
    with pytest.raises(ShapeError):
        compose(arrow, f, f)


def test_compose_direct_sums(arrow):
    # (x+y) -> y via [f, id]; postcompose with id_y keeps it fixed
    X = arrow.obj({"x": 1, "y": 1})
    y = arrow.single("y")
    m = arrow.zero_morphism(X, y)
    m.blocks[0][0] = [QQ.one]
    m.blocks[0][1] = [QQ.one]
    assert compose(arrow, arrow.identity(y), m) == m
    assert arrow.hom_space_dim(X, y) == 2
    assert len(m.to_vector()) == 2


def test_morphism_vector_roundtrip(arrow):
    X = arrow.obj({"x": 2, "y": 1})
    Y = arrow.obj({"x": 1, "y": 2})
    basis = arrow.hom_basis(X, Y)
    assert len(basis) == arrow.hom_space_dim(X, Y)
    for i, b in enumerate(basis):
        v = b.to_vector()
        assert v[i] == QQ.one and sum(1 for c in v if c != QQ.zero) == 1


def test_perp_vacuous(point):
    assert perp(point, set(), "right") == {0}
    assert perp(point, set(), "left") == {0}


def test_perp_needs_sigma(arrow):
    with pytest.raises(MissingSuspension):
        perp(arrow, {0}, "right")


def test_rigid_zero_object(point):
    assert is_rigid(point, point.zero_obj())
    # the point object has Ext^1(pt, pt) = Hom(pt, pt) != 0 under sigma = id
    assert not is_rigid(point, point.single(0))
    assert not is_cluster_tilting(point, point.zero_obj())


def test_approximation_identity_case(arrow):
    # C in add S: the reduced approximation is an isomorphism onto C
    x = arrow.single("x")
    a = approximation(arrow, {"x"}, x, "right")
    assert a.source == x
    assert not a.is_zero()


def test_approximation_zero_case(arrow):
    # no maps from y to x at all
    a = approximation(arrow, {"y"}, arrow.single("x"), "right")
    assert a.source.is_zero()


def test_approximation_covering(arrow):
    # right add-x approximation of y: Hom(x, -) surjectivity via rank oracle
    y = arrow.single("y")
    a = approximation(arrow, {"x"}, y, "right")
    x = arrow.single("x")
    m = postcompose_matrix(arrow, a, x)
    assert m.rank() == arrow.hom_space_dim(x, y)


def test_opposite_roundtrip():
    P = chain4_category()
    op = opposite(P)
    assert validate_category(op).ok
    f = P.basis_morphism(0, 1, 0)
    g = P.basis_morphism(1, 2, 0)
    gf = compose(P, g, f)
    # in the opposite category the same composite reads f^op o g^op
    fo, go = op_morphism(op, f), op_morphism(op, g)
    assert op_morphism(P, compose(op, fo, go)) == gf


def test_precompose_postcompose_matrices(arrow):
    f = arrow.basis_morphism(0, 1, 0)  # x -> y
    x, y = arrow.single("x"), arrow.single("y")
    pre = precompose_matrix(arrow, f, y)  # Hom(y,y) -> Hom(x,y)
    assert (pre.nrows, pre.ncols) == (1, 1)
    assert pre.data[0][0] == QQ.one
    post = postcompose_matrix(arrow, f, x)  # Hom(x,x) -> Hom(x,y)
    assert post.data[0][0] == QQ.one


def test_morphism_hash_is_cached_and_equal_for_equal_morphisms():
    from quotcat.clustergen import build_cluster_category
    from quotcat.quotient import build_quotient

    P = build_cluster_category(3)
    T = P.obj({"P1": 1, "P3": 1})
    qc = build_quotient(P, T)
    X = P.obj({"P1": 2, "P2": 1})
    p1, p2 = P.single("P1"), P.single("P2")
    proj = sum_projections(P, [p1, X])[1]
    pairs = [
        (P.identity(X), P.morphism_from_vector(X, X, P.identity(X).to_vector())),
        (P.basis_morphism(0, 1, 0), P.hom_basis(p1, p2)[0]),
        (proj, P.morphism_from_vector(p1 + X, X, proj.to_vector())),
        (stack_cols(P, [proj, P.identity(X)]), stack_cols(P, [proj.scale(1), P.identity(X)])),
    ]
    Q = qc.presentation
    for i, j, a in ((0, 1, 0), (1, 1, 0)):
        qf = Q.basis_morphism(i, j, a)
        pairs.append((qc.lift(qf), qc.lift(qc.project(qc.lift(qf)))))
    for f, g in pairs:
        assert f == g and hash(f) == hash(g)
        for m in (f, g):
            blocks = tuple(tuple(tuple(b) for b in row) for row in m.blocks)
            assert m._hash == hash((m.source, m.target, blocks)) == hash(m)
