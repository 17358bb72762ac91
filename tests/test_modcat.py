import itertools

import pytest

from quotcat import modcat
from quotcat.clustergen import build_cluster_category
from quotcat.errors import BoundsExceeded, NotInS, NotRegular
from quotcat.fincat import Obj, all_rigid_supports, compose, opposite, precompose_matrix, validate_category
from quotcat.localization import Fraction, compose_fractions, fractions_equal, from_morphism
from quotcat.linalg import GF, QQ, Matrix, RowSpace, intertwiners
from quotcat.modcat import (
    HFunctor,
    _leg_sources,
    _regular_conditions,
    endomorphism_algebra,
    h_fraction,
    in_s,
    module_hom_space,
    verify_equivalence,
)
from quotcat.preabelian import Budget, SearchResult, build_morphism_family, is_regular, search_open_conditions
from quotcat.quotient import build_quotient, x_t_objects
from quotcat.verify import run_verification

from conftest import identity_fraction, iso_fraction_exists


@pytest.fixture(scope="module")
def A3():
    return build_cluster_category(3)


@pytest.fixture(scope="module")
def A2():
    return build_cluster_category(2)


@pytest.fixture(scope="module")
def TCT(A3):
    return A3.obj({"P1": 1, "P2": 1, "P3": 1})


@pytest.fixture(scope="module")
def H_CT(A3, TCT):
    return HFunctor(A3, TCT)


def _actions(P, T, X):
    """The dense action matrices on Hom(T, X), one per basis element of End(T)."""
    return [precompose_matrix(P, e, X) for e in P.hom_basis(T, T)]


def _commutes_with_actions(H, X, Y, m):
    """Whether the matrix m: Hom(T, X) -> Hom(T, Y) commutes with every dense
    action matrix."""
    return all(m * am == an * m for am, an in zip(_actions(H.P, H.T, X), _actions(H.P, H.T, Y)))


def _algebra_mult(P, T):
    """The product table of End(T)^op as Algebra built it: mult[a][b] is the
    coefficient vector of a * b, the composite (basis b) o (basis a) in P."""
    basis = P.hom_basis(T, T)
    return [[compose(P, basis[b], basis[a]).to_vector() for b in range(len(basis))] for a in range(len(basis))]


def test_one_dimensional_algebra(A3):
    T = A3.obj({"P1": 1})
    alg = endomorphism_algebra(A3, T)
    assert alg.objects == ["P1"] and alg.hom_dim(0, 0) == 1
    assert validate_category(alg).ok


def test_end_algebra_dimension_cluster_tilting(A3, TCT):
    # quiver 1 <- 2 <- 3: six paths, so a 6-dimensional algebra
    alg = endomorphism_algebra(A3, TCT)
    assert alg.hom_dim(0, 0) == 6
    assert alg.hom_dim(0, 0) == sum(
        A3.hom_dim(A3.index(a), A3.index(b))
        for a in ("P1", "P2", "P3")
        for b in ("P1", "P2", "P3")
    )
    assert validate_category(alg).ok


@pytest.mark.parametrize("summands", [{"P1": 1, "P2": 1, "P3": 1}, {"P1": 2, "P2": 1}])
def test_end_algebra_is_the_one_object_presentation_of_its_product(A3, summands):
    T = A3.obj(summands)
    alg = endomorphism_algebra(A3, T)
    assert alg.n == 1 and alg.objects == [A3.obj_name(T)]
    assert alg.identities == [A3.identity(T).to_vector()]
    assert alg.comp[(0, 0, 0)] == _algebra_mult(A3, T)
    assert validate_category(alg).ok


def test_module_axioms_validated(A3, TCT, H_CT):
    # the identity acts as the identity, and the action of a * b is the
    # product of the actions of a and b
    alg = endomorphism_algebra(A3, TCT)
    mult, ident = alg.comp[(0, 0, 0)], alg.identities[0]
    f = A3.field

    def combination(actions, coeffs):
        out = Matrix.zeros(f, actions[0].nrows, actions[0].ncols)
        for c, m in zip(coeffs, actions):
            if c:
                out = out + m.scale(c)
        return out

    for name in A3.objects:
        M = H_CT.module(A3.single(name))
        acts = _actions(A3, TCT, M.X)
        assert combination(acts, ident) == Matrix.identity(f, M.dim)
        for a, b in itertools.product(range(len(acts)), repeat=2):
            assert combination(acts, mult[a][b]) == acts[a] * acts[b]


def test_h_object_zero_on_xt(A3, TCT, H_CT):
    for name in ("SP1", "SP2", "SP3"):
        assert H_CT.module(A3.single(name)).dim == 0


def test_h_object_dims_cross_checked(A3, TCT, H_CT):
    for name in A3.objects:
        expected = sum(
            A3.hom_dim(A3.index(t), A3.index(name)) for t in ("P1", "P2", "P3")
        )
        assert H_CT.module(A3.single(name)).dim == expected


def test_h_regular_module_projective_generator(A3, TCT, H_CT):
    # H(T) is the regular module: its endomorphisms match End(T)
    M = H_CT.module(TCT)
    assert M.dim == 6
    assert len(module_hom_space(M, M)) == 6


def test_h_mor_functorial(A3, TCT, H_CT):
    for i in range(A3.n):
        for j in range(A3.n):
            for a in range(A3.hom_dim(i, j)):
                f = A3.basis_morphism(i, j, a)
                for k in range(A3.n):
                    for b in range(A3.hom_dim(j, k)):
                        g = A3.basis_morphism(j, k, b)
                        lhs = H_CT.mor_matrix(compose(A3, g, f))
                        rhs = H_CT.mor_matrix(g) * H_CT.mor_matrix(f)
                        assert lhs == rhs


def test_h_mor_commutes_with_actions(A3, TCT, H_CT):
    for i in range(A3.n):
        for j in range(A3.n):
            for a in range(A3.hom_dim(i, j)):
                f = A3.basis_morphism(i, j, a)
                assert _commutes_with_actions(H_CT, f.source, f.target, H_CT.mor_matrix(f))


def test_in_s_trivial_cases(A3, TCT, H_CT):
    assert in_s(H_CT, A3.identity(A3.single("P1")))
    f = A3.basis_morphism(A3.index("P1"), A3.index("P2"), 0)
    # source and target modules have different dimensions here
    assert H_CT.module(A3.single("P1")).dim != H_CT.module(A3.single("P2")).dim
    assert not in_s(H_CT, f)


def test_in_s_bridge_identity_all_rigid(A3):
    # in_s(f) iff the projected morphism is regular, for every rigid T
    for supp in all_rigid_supports(A3, 3):
        T = A3.obj({A3.objects[i]: 1 for i in supp})
        qc = build_quotient(A3, T)
        H = HFunctor(A3, T)
        for i in range(A3.n):
            for j in range(A3.n):
                for a in range(A3.hom_dim(i, j)):
                    f = A3.basis_morphism(i, j, a)
                    assert in_s(H, f) == is_regular(qc.presentation, qc.project(f))


def test_ker_h_equals_factoring_subspace(A3, TCT, H_CT):
    qc = build_quotient(A3, TCT)
    for i in qc.keep:
        for j in qc.keep:
            d = A3.hom_dim(i, j)
            if d == 0:
                continue
            ker_dim = 0
            for a in range(d):
                if H_CT.mor_matrix(A3.basis_morphism(i, j, a)).is_zero():
                    ker_dim += 1
            # one-dimensional spaces: kernel dim is just a count; compare
            # against the ideal dimension
            assert ker_dim == qc.f_spaces[(i, j)].dim


def _quotient_h(P, T):
    """The quotient by X_T and Hom(T, -) on it, as a verdict builds them."""
    qc = build_quotient(P, T)
    return qc, HFunctor(qc.presentation, qc.project_obj(T))


def test_h_fraction_identity_and_plain(A3, TCT, H_CT):
    # H on the quotient is Hom_C(T, -) of the lifts, entry for entry
    qc, H = _quotient_h(A3, TCT)
    Q = qc.presentation
    X = Q.single("S2")
    F = identity_fraction(Q, X)
    m = h_fraction(H, F)
    assert m == Matrix.identity(A3.field, H_CT.module(qc.lift_obj(X)).dim)
    for i in range(Q.n):
        for j in range(Q.n):
            for a in range(Q.hom_dim(i, j)):
                qf = Q.basis_morphism(i, j, a)
                assert h_fraction(H, from_morphism(Q, qf)) == H_CT.mor_matrix(qc.lift(qf))


def test_h_fraction_denominator_must_be_inverted(A3, TCT):
    qc, H = _quotient_h(A3, TCT)
    Q = qc.presentation
    # hand-build a fraction object with a non-regular denominator, bypassing
    # the constructor, which refuses it, to confirm the guard fires
    z = Q.zero_morphism(Q.single("S2"), Q.single("S2"))
    with pytest.raises(NotRegular):
        Fraction(Q, z, z)
    F = Fraction.__new__(Fraction)
    F.denom = F.num = z
    with pytest.raises(NotInS):
        h_fraction(H, F)


def test_equal_fractions_have_equal_h_images(A2):
    # cross-decider agreement, exhaustive over basis-regular roofs in C(A_2)
    T = A2.obj({"P1": 1, "P2": 1})
    qc, H = _quotient_h(A2, T)
    Q = qc.presentation
    fam = build_morphism_family(Q)
    fracs = []
    for r in fam.regulars:
        for i in range(Q.n):
            for j in range(Q.n):
                for a in range(Q.hom_dim(i, j)):
                    f = Q.basis_morphism(i, j, a)
                    if f.source == r.source:
                        fracs.append(Fraction(Q, r, f))
    for F in fracs:
        for G in fracs:
            if F.source != G.source or F.target != G.target:
                continue
            eq = fractions_equal(Q, F, G)
            heq = h_fraction(H, F) == h_fraction(H, G)
            assert eq == heq


def test_h_fraction_respects_composition(A2):
    T = A2.obj({"P1": 1, "P2": 1})
    qc, H = _quotient_h(A2, T)
    Q = qc.presentation
    bs = [
        Q.basis_morphism(i, j, a)
        for i in range(Q.n)
        for j in range(Q.n)
        for a in range(Q.hom_dim(i, j))
    ]
    for f in bs:
        for g in bs:
            if f.target != g.source:
                continue
            F, G = from_morphism(Q, f), from_morphism(Q, g)
            GF = compose_fractions(Q, G, F)
            assert h_fraction(H, GF) == h_fraction(H, G) * h_fraction(H, F)


def test_module_hom_space_trivia(A3, TCT, H_CT):
    zero = H_CT.module(Obj((0,) * A3.n))
    n = H_CT.module(A3.single("P1"))
    assert module_hom_space(zero, n) == []
    one_alg_T = A3.obj({"P1": 1})
    Hs = HFunctor(A3, one_alg_T)
    reg = Hs.module(one_alg_T)
    assert len(module_hom_space(reg, reg)) == 1


def _dense_module_hom_space(M, N):
    """The flat solve that module_hom_space replaced: every action matrix on
    all of Hom(T, X) is one relation of a single-vertex system."""
    f = M.P.field
    relations = [(0, 0, am, an) for am, an in zip(_actions(M.P, M.T, M.X), _actions(N.P, N.T, N.X))]
    return [
        Matrix(f, N.dim, M.dim, [v[i * M.dim : (i + 1) * M.dim] for i in range(N.dim)])
        for v in intertwiners(f, [M.dim], [N.dim], relations)
    ]


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=["QQ", "GF101"])
@pytest.mark.parametrize("side", ["C", "Cop"])
@pytest.mark.parametrize("summands", [{"P1": 1, "P2": 1, "P3": 1}, {"P1": 2, "P2": 1}, {"P1": 1, "P3": 1}])
def test_block_solve_is_the_dense_solve(field, side, summands):
    # the same matrices in the same order for the lifted indecomposables of
    # the quotient in every ordered pair, as FULL reads them; for H(T) with
    # itself, whose block unknowns are not in flat order, the same span
    P = build_cluster_category(3, field=field)
    T = P.obj(summands)
    qc = build_quotient(P, T)
    P = opposite(P) if side == "Cop" else P
    H = HFunctor(P, T)
    lifted = [qc.lift_obj(qc.presentation.single(x)) for x in range(qc.presentation.n)]
    for X, Y in itertools.product(lifted, repeat=2):
        M, N = H.module(X), H.module(Y)
        maps = module_hom_space(M, N)
        assert maps == _dense_module_hom_space(M, N), (X, Y)
        assert all(_commutes_with_actions(H, X, Y, m) for m in maps)
    M = H.module(T)
    maps, dense = module_hom_space(M, M), _dense_module_hom_space(M, M)
    assert len(maps) == len(dense) == P.hom_space_dim(T, T)
    flat = [[[x for row in m.data for x in row] for m in ms] for ms in (maps, dense)]
    spans = [RowSpace.from_rows(P.field, M.dim * M.dim, vs) for vs in flat]
    assert [span.dim for span in spans] == [len(maps)] * 2
    assert all(spans[1].contains(v) for v in flat[0])
    assert all(_commutes_with_actions(H, T, T, m) for m in maps)


def test_block_solve_memory_at_a6():
    # the flat system for H(T) at C(A_6) peaks at about 41 MB; the blocks
    # stay well under 1 MB
    import tracemalloc

    P = build_cluster_category(6)
    T = P.obj({f"P{i}": 1 for i in range(1, 7)})
    H = HFunctor(P, T)
    M = H.module(T)
    tracemalloc.start()
    try:
        maps = module_hom_space(M, M)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(maps) == P.hom_space_dim(T, T)
    assert peak < 4 * 2**20, peak


def test_verify_equivalence_a2_all_rigid(A2):
    for supp in all_rigid_supports(A2, 2):
        T = A2.obj({A2.objects[i]: 1 for i in supp})
        rep = verify_equivalence(A2, T)
        assert rep.ok, (supp, rep.clauses)


def test_verify_equivalence_a3_selected(A3, TCT):
    rep = verify_equivalence(A3, TCT)
    assert rep.ok, rep.clauses
    # cluster-tilting: no fraction needs a denominator other than an identity
    assert all(not nt for (_, _, nt) in rep.witnesses["full"])
    T2 = A3.obj({"P1": 1, "P3": 1})
    rep2 = verify_equivalence(A3, T2)
    assert rep2.ok, rep2.clauses
    assert any(nt for (_, _, nt) in rep2.witnesses["full"])


def test_a_verdict_builds_h_once_per_parent_map(A3, monkeypatch):
    # FAITHFUL's C half builds Hom_C(T, f) once per basis map f of C whose
    # ends are both kept (13 of 30: a map with an end in X_T passes by
    # definition); H lives on the quotient, and its half of FAITHFUL, FULL's
    # solves and h_fraction read one table of it (26 quotient maps).  FULL
    # keeps one roof per object for the maps in H's image, so their
    # fractions share its denominator, where a search per map drew a scalar
    # of the identity per target
    built = []

    def counted(P, f, Z):
        built.append(f)
        return postcompose(P, f, Z)

    postcompose = modcat.postcompose_matrix
    monkeypatch.setattr(modcat, "postcompose_matrix", counted)
    rep = run_verification(A3, A3.obj({"P1": 1, "P3": 1}), budget=Budget(scan_pairs_cap=120))
    assert rep["clauses"]["equivalence"]["status"] == "pass"
    assert len(built) == len(set(built)) == 39
    xt = x_t_objects(A3, A3.obj({"P1": 1, "P3": 1}))
    kept = sum(A3.hom_dim(i, j) for i in range(A3.n) for j in range(A3.n) if i not in xt and j not in xt)
    assert sum(f.P is A3 for f in built) == kept == 13


class _Zeroed(HFunctor):
    """H with every map sent to zero."""

    def mor_matrix(self, f):
        m = super().mor_matrix(f)
        return Matrix.zeros(m.field, m.nrows, m.ncols)


def test_faithful_clause_negative_control(A3, TCT):
    # corrupting the functor data must break the FAITHFUL clause; C's own
    # kernel check does not read H, so the failure is H's faithfulness on
    # the quotient, at its first nonzero Hom space
    qc = build_quotient(A3, TCT)
    Q = qc.presentation
    rep = verify_equivalence(A3, TCT, qc, H=_Zeroed(Q, qc.project_obj(TCT)))
    assert rep.clauses["faithful"].status == "fail"
    assert rep.clauses["faithful"].checked == sum(A3.hom_dim(i, j) for i in range(A3.n) for j in range(A3.n))
    assert rep.clauses["faithful"].detail == f"H-image dimension mismatch on ({Q.objects[0]}, {Q.objects[0]})"


def test_faithful_clause_names_a_parent_image_outside_the_factoring_maps(A3, TCT, monkeypatch):
    # one basis map of C whose Hom_C(T, -) image is corrupted to zero, though
    # it does not factor through X_T, fails C's kernel check at that map
    f0 = A3.basis_morphism(A3.index("P1"), A3.index("P2"), 0)
    real = modcat.postcompose_matrix

    def corrupted(P, f, Z):
        m = real(P, f, Z)
        return Matrix.zeros(m.field, m.nrows, m.ncols) if f == f0 else m

    monkeypatch.setattr(modcat, "postcompose_matrix", corrupted)
    rep = verify_equivalence(A3, TCT)
    assert rep.clauses["faithful"].status == "fail"
    assert rep.clauses["faithful"].detail == "kernel mismatch at basis (P1 -> P2, 0)"
    assert rep.clauses["full"].status == rep.clauses["projectives"].status == "pass"


def test_equivalence_out_of_budget_keeps_the_faithful_failure(A3, TCT):
    # FULL runs out of budget, yet the report stands and keeps FAITHFUL's failure
    qc = build_quotient(A3, TCT)
    H = _Zeroed(qc.presentation, qc.project_obj(TCT))
    rep = verify_equivalence(A3, TCT, qc, budget=Budget(retries=0, grid_cap=1), H=H)
    assert rep.clauses["faithful"].status == "fail"
    assert rep.clauses["full"].status == "bounds-exceeded"
    assert not rep.ok


def test_iso_fraction_reflexive(A3, TCT):
    Q = build_quotient(A3, TCT).presentation
    assert iso_fraction_exists(Q, 0, Q.single(0))
    # P1 and S2 are not isomorphic in the localisation of the CT quotient
    assert not iso_fraction_exists(Q, Q.index("P1"), Q.single("S2"))


def _full_product(bounds):
    """The enumerator the leg sources replaced: every nonzero m with
    m_i <= bounds[i], in (sum, lexicographic) order."""
    full = sorted(itertools.product(*(range(b + 1) for b in bounds)), key=lambda m: (sum(m), m))
    return [m for m in full if any(m)]


def _empty_by_shape(Q, A, X):
    """Whether the search for a regular map A -> X is certified empty by the
    shape test of search_open_conditions.

    With no random tries and a grid cap of 1, a search that passes the shape
    test over a nonzero Hom space goes on to a grid and raises.
    """
    conditions = _regular_conditions(Q, lambda h: h, A, X)
    try:
        res = search_open_conditions(
            Q, A, X, [b.to_vector() for b in Q.hom_basis(A, X)], conditions, Budget(retries=0, grid_cap=1), 0
        )
    except BoundsExceeded:
        return False
    return res.status == SearchResult.CERTIFIED_EMPTY


def _shape_quotients():
    a3 = build_cluster_category(3)
    for supp in all_rigid_supports(a3, 3):
        yield build_quotient(a3, a3.obj({a3.objects[i]: 1 for i in supp}))
    a4 = build_cluster_category(4, "><>", GF(101))
    yield build_quotient(a4, a4.obj({"I1": 1, "P1": 1}))


def test_leg_sources_are_the_shapes_a_search_does_not_rule_out():
    # the pruned enumerator skips exactly the sources whose search the shape
    # test certifies empty, and keeps the order of the full product
    skipped = 0
    for qc in _shape_quotients():
        Q = qc.presentation
        for x in range(Q.n):
            X = Q.single(x)
            old = _full_product([Q.hom_dim(i, x) for i in range(Q.n)])
            want = [m for m in old if not _empty_by_shape(Q, Obj(m), X)]
            assert [A.mult for A in _leg_sources(Q, X)] == want, (Q.objects, x)
            skipped += len(old) - len(want)
    assert skipped


_WITNESS_SCRIPT = """
from quotcat.clustergen import build_cluster_category
from quotcat.modcat import HFunctor, module_hom_space, realize_module_map
from quotcat.quotient import build_quotient, x_t_objects

A3 = build_cluster_category(3)
T = A3.obj({"P1": 1, "P3": 1})
qc = build_quotient(A3, T)
Q = qc.presentation
H = HFunctor(Q, qc.project_obj(T))
for x in range(Q.n):
    for y in range(Q.n):
        Mx, My = (H.module(Q.single(i)) for i in (x, y))
        for phi in module_hom_space(Mx, My):
            if not phi.is_zero():
                F = realize_module_map(H, x, y, phi)
                print(x, y, F.aux.mult, [str(c) for c in F.denom.to_vector() + F.num.to_vector()])
"""


def test_realize_witnesses_ignore_hash_seed():
    # search salts are strings, so the witnesses do not depend on PYTHONHASHSEED
    import os
    import pathlib
    import subprocess
    import sys

    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    outs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        run = subprocess.run(
            [sys.executable, "-c", _WITNESS_SCRIPT], env=env, capture_output=True, text=True, timeout=300
        )
        assert run.returncode == 0, run.stderr
        outs.append(run.stdout)
    assert outs[0] and outs[0] == outs[1]
