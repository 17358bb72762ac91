import pytest

from quotcat.clustergen import build_cluster_category
from quotcat.errors import NotRigid
from quotcat.fincat import Morphism, compose, validate_category
from quotcat.quotient import build_quotient, x_t_objects


@pytest.fixture(scope="module")
def A3():
    return build_cluster_category(3)


@pytest.fixture(scope="module")
def QCT(A3):
    # cluster-tilting case
    return build_quotient(A3, A3.obj({"P1": 1, "P2": 1, "P3": 1}))


def _names(P, idxs):
    return {P.objects[i] for i in idxs}


def test_x_t_empty_when_t_covers(A3):
    # P1 + P2 + P3 + S2 + I2 + I3 hits everything... use a T with full reach
    T = A3.obj({name: 1 for name in A3.objects})
    assert x_t_objects(A3, T) == set()


def test_x_t_cluster_tilting_is_sigma_t(A3):
    T = A3.obj({"P1": 1, "P2": 1, "P3": 1})
    xt = x_t_objects(A3, T)
    # X_T = add Sigma T for cluster-tilting T
    sigma_t = {A3.sigma[A3.index(n)] for n in ("P1", "P2", "P3")}
    assert xt == sigma_t
    assert _names(A3, xt) == {"SP1", "SP2", "SP3"}


def test_x_t_two_summand_scan_oracle(A3):
    T = A3.obj({"P1": 1, "P3": 1})
    xt = x_t_objects(A3, T)
    expected = {
        i
        for i in range(A3.n)
        if A3.hom_dim(A3.index("P1"), i) == 0 and A3.hom_dim(A3.index("P3"), i) == 0
    }
    assert xt == expected


def test_build_quotient_requires_rigid(A3):
    with pytest.raises(NotRigid):
        build_quotient(A3, A3.obj({"P1": 1, "S2": 1}))
    # a T that is not rigid still names its X_T as an explicit subcategory
    q = build_quotient(A3, subcat=x_t_objects(A3, A3.obj({"P1": 1, "S2": 1})))
    assert validate_category(q.presentation).ok
    assert q.presentation.n <= 9


def test_quotient_by_nothing_is_parent(A3):
    T = A3.obj({name: 1 for name in A3.objects})
    q = build_quotient(A3, subcat=x_t_objects(A3, T))
    assert validate_category(q.presentation).ok
    assert q.presentation.n == A3.n
    for i in range(A3.n):
        for j in range(A3.n):
            assert q.presentation.hom_dim(i, j) == A3.hom_dim(i, j)
            assert q.f_spaces[(i, j)].dim == 0


def test_xt_objects_become_zero(QCT):
    # X_T objects are dropped: they are zero objects of the quotient
    assert QCT.presentation.n == 6
    assert set(QCT.presentation.objects) == {"P1", "P2", "P3", "S2", "I2", "I3"}


def test_quotient_revalidates(QCT):
    # the quotient is not validated as it is built; this checks it
    assert validate_category(QCT.presentation).ok


def test_dimension_formula(QCT):
    P = QCT.parent
    for i in QCT.keep:
        for j in QCT.keep:
            qd = len(QCT.rep_coords[(i, j)])
            assert qd == P.hom_dim(i, j) - QCT.f_spaces[(i, j)].dim


def test_ideal_property(QCT):
    # v o w o u stays in the ideal, exhaustively over bases
    P = QCT.parent
    for (i, j), rs in QCT.f_spaces.items():
        if rs.dim == 0:
            continue
        for row in rs.rows:
            w = Morphism.from_vector(P, P.single(i), P.single(j), list(row))
            for i2 in QCT.keep:
                for a in range(P.hom_dim(i2, i)):
                    u = P.basis_morphism(i2, i, a)
                    for j2 in QCT.keep:
                        for b in range(P.hom_dim(j, j2)):
                            v = P.basis_morphism(j, j2, b)
                            composite = compose(P, v, compose(P, w, u))
                            assert QCT.f_spaces[(i2, j2)].contains(composite.to_vector())


def test_project_lift_roundtrip(QCT):
    Q = QCT.presentation
    for i in range(Q.n):
        for j in range(Q.n):
            for a in range(Q.hom_dim(i, j)):
                qf = Q.basis_morphism(i, j, a)
                assert QCT.project(QCT.lift(qf)) == qf


def test_project_identity(QCT):
    P = QCT.parent
    for i in QCT.keep:
        qid = QCT.project(P.identity(P.single(i)))
        assert qid == QCT.presentation.identity(QCT.presentation.single(P.objects[i]))


def test_project_kills_factoring_maps(A3, QCT):
    # any map factoring through an X_T object projects to zero
    P = A3
    for x in QCT.xt:
        Zx = P.single(x)
        for i in QCT.keep:
            for u in P.hom_basis(P.single(i), Zx):
                for j in QCT.keep:
                    for v in P.hom_basis(Zx, P.single(j)):
                        assert QCT.project(compose(P, v, u)).is_zero()


def test_section6_quotient(A3):
    q = build_quotient(A3, subcat={"P1", "P2", "S2"})
    assert validate_category(q.presentation).ok
    assert set(q.presentation.objects) == {"P3", "I2", "I3", "SP1", "SP2", "SP3"}
    f = A3.basis_morphism(A3.index("P3"), A3.index("I2"), 0)
    assert not q.project(f).is_zero()


def test_cross_check_quotient_dims_against_t_pairing(A3, QCT):
    # dim Hom_{C/X_T}(i, j) equals dim Hom_C(T, j)-side pairing for the
    # cluster-tilting case: the quotient is the module category of End(T).
    # Sanity level: total quotient dimension equals dim of End(T)-module homs
    # computed from Hom_C(T, -) dimensions (checked properly in modcat tests).
    P = A3
    t_idx = [P.index(n) for n in ("P1", "P2", "P3")]
    for j in QCT.keep:
        hj = sum(P.hom_dim(t, j) for t in t_idx)
        assert hj > 0  # surviving objects are seen by T
