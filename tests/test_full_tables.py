"""FULL's tables against the per-map walk they replace.

`realize_module_map` works in the quotient Q alone, with H = Hom_Q(T, -):
it answers a module map in H's image from one roof per object, and walks
the leg sources only for the other maps, reading tables kept on H.  The
oracle here is the walk every map once made, on the parent C with H =
Hom_C(T, -): over the leg sources of x in order, a certified search for a
regular denominator r among the r whose lifted composite with phi lands in
H's image, then a numerator solved in C and projected.  Both must give the
same witness tuples (source, target, whether the denominator is not an
identity), and every fraction either returns must map to its phi under H.
The tables must live on H: a presentation gains none.
"""

import itertools

import pytest

from quotcat.clustergen import build_cluster_category
from quotcat.fincat import Morphism, all_rigid_supports
from quotcat.linalg import GF, Matrix, RowSpace
from quotcat.localization import Fraction
from quotcat import modcat
from quotcat.errors import NotInS
from quotcat.modcat import HFunctor, _regular_roofs, h_fraction, module_hom_space, verify_equivalence
from quotcat.preabelian import DEFAULT_BUDGET, Budget, solve_on_basis
from quotcat.quotient import QuotientCategory, build_quotient
from quotcat.verify import run_verification


def _flat(m):
    return [a for row in m.data for a in row]


def _lifted_h_fraction(H, qc, F):
    """H(lift numerator) o H(lift denominator)^{-1} for H on the parent."""
    return H.mor_matrix(qc.lift(F.num)) * H.mor_matrix(qc.lift(F.denom)).inverse()


def _oracle_realize(H, qc, x, y, phi, budget=DEFAULT_BUDGET):
    """The per-map walk on the parent: a fraction x => y with H-image phi,
    or None; H is Hom_C(T, -)."""
    Q, P = qc.presentation, qc.parent
    X, Y_par = Q.single(x), qc.lift_obj(Q.single(y))
    field = Q.field

    def image(A):
        return [_flat(H.mor_matrix(g)) for g in P.hom_basis(qc.lift_obj(A), Y_par)]

    def denominators(A):
        cols = [_flat(phi * H.mor_matrix(qc.lift(r))) for r in Q.hom_basis(A, X)]
        unknowns = cols + [[field.neg(a) for a in v] for v in image(A)]
        mat = Matrix(field, len(cols[0]), len(unknowns), [list(row) for row in zip(*unknowns)])
        proj = RowSpace(field, len(cols))
        for v in mat.kernel_basis():
            proj.add(v[: len(cols)])
        return [Morphism.from_vector(Q, A, X, v) for v in proj.rows]

    for A, r in _regular_roofs(Q, X, denominators, lambda r: r, budget, f"full:{x}:{y}"):
        want = _flat(phi * H.mor_matrix(qc.lift(r)))
        img = image(A)
        img_mat = Matrix(field, len(want), len(img), [[v[i] for v in img] for i in range(len(want))])
        f_par = solve_on_basis(P, qc.lift_obj(A), Y_par, img_mat, want)
        if f_par is None:
            continue
        F = Fraction(Q, r, qc.project(f_par))
        if _lifted_h_fraction(H, qc, F) == phi:
            return F
    return None


def _oracle_witnesses(P, T, qc=None):
    qc, H = qc or build_quotient(P, T), HFunctor(P, T)
    Q = qc.presentation
    out = []
    for x, y in itertools.product(range(Q.n), repeat=2):
        Mx, My = (H.module(qc.lift_obj(Q.single(i))) for i in (x, y))
        for phi in module_hom_space(Mx, My):
            if phi.is_zero():
                continue
            F = _oracle_realize(H, qc, x, y, phi)
            assert F is not None and _lifted_h_fraction(H, qc, F) == phi, (Q.objects[x], Q.objects[y])
            out.append((Q.objects[x], Q.objects[y], F.denom.source != F.denom.target))
    return out


def _cases():
    a3 = build_cluster_category(3)
    for supp in all_rigid_supports(a3, 3):
        yield a3, supp
    a4 = build_cluster_category(4, "><>", GF(101))
    for supp in all_rigid_supports(a4, 4)[::7]:
        yield a4, supp


def _checked_realize(monkeypatch):
    """Wrap realize_module_map: every fraction it returns must map to its phi."""
    real = modcat.realize_module_map
    returned = []

    def checked(H, x, y, phi, budget=DEFAULT_BUDGET):
        F = real(H, x, y, phi, budget)
        if F is not None:
            assert h_fraction(H, F) == phi
            returned.append(F)
        return F

    monkeypatch.setattr(modcat, "realize_module_map", checked)
    return returned


def test_full_witnesses_are_the_per_map_walks(monkeypatch):
    returned = _checked_realize(monkeypatch)
    cases = nonidentity = 0
    for P, supp in _cases():
        T = P.obj({P.objects[i]: 1 for i in supp})
        del returned[:]
        rep = verify_equivalence(P, T)
        assert rep.ok, (supp, rep.clauses)
        assert rep.witnesses["full"] == _oracle_witnesses(P, T), (P.field, supp)
        assert len(returned) == len(rep.witnesses["full"])
        cases += 1
        nonidentity += sum(nt for _, _, nt in rep.witnesses["full"])
    assert cases == 44 + 28 and nonidentity


def _attributes(qc):
    Q = qc.presentation
    return [set(vars(C)) for C in (qc.parent, Q, Q._opposite)]


def test_full_tables_live_on_h():
    # the parent, the quotient and its opposite gain no attribute that the
    # per-map walk did not give them: every new table is H's
    spec = {"P1": 1, "P3": 1}
    P, walked = build_cluster_category(3), build_cluster_category(3)
    qc, qc_walked = build_quotient(P, P.obj(spec)), build_quotient(walked, walked.obj(spec))
    Q = qc.presentation
    H = HFunctor(Q, qc.project_obj(P.obj(spec)))
    rep = verify_equivalence(P, P.obj(spec), qc, H=H)
    assert rep.ok and any(nt for _, _, nt in rep.witnesses["full"])
    assert rep.witnesses["full"] == _oracle_witnesses(walked, walked.obj(spec), qc_walked)
    # (only the walk pre-composes in the parent, which builds its
    # comp_by_pair, so the verdict's side may hold fewer)
    assert all(new <= old for new, old in zip(_attributes(qc), _attributes(qc_walked)))
    # the roofs, the H-images and the module Hom dimensions are all H's
    for table in (H._roofs, H._matrices, H._hom_dims):
        assert table
    assert {key[0] for key in H._roofs} <= set(range(Q.n))


def test_a_verdict_lifts_nothing_to_the_parent(monkeypatch):
    # H lives on the quotient, so no clause carries a map or an object of
    # the quotient back to the parent
    lifted = []
    for name in ("lift", "lift_obj"):
        real = getattr(QuotientCategory, name)
        monkeypatch.setattr(QuotientCategory, name, lambda qc, z, real=real: lifted.append(z) or real(qc, z))
    P = build_cluster_category(3)
    rep = run_verification(P, P.obj({"P1": 1, "P3": 1}), budget=Budget(scan_pairs_cap=120))
    assert rep["overall"] == "pass"
    assert rep["clauses"]["equivalence"]["fractions_with_nonidentity_denominator"] > 0
    assert lifted == []
    qc = build_quotient(P, P.obj({"P1": 1}))
    assert qc.lift_obj(qc.presentation.single(0)) == P.single(qc.keep[0]) and lifted


def test_preimage_inverts_h_on_the_quotient():
    # H is faithful on the quotient, so the image rule gives back each basis
    # map of Hom_Q(x, y) from its H-image, and refuses a map outside it
    P = build_cluster_category(3)
    T = P.obj({"P1": 1, "P3": 1})
    qc = build_quotient(P, T)
    Q = qc.presentation
    H = HFunctor(Q, qc.project_obj(T))
    outside = 0
    for x, y in itertools.product(range(Q.n), repeat=2):
        X, Y = Q.single(x), Q.single(y)
        for b in Q.hom_basis(X, Y):
            assert H.preimage(X, Y, H.mor_matrix(b)) == b
        for phi in module_hom_space(H.module(X), H.module(Y)):
            f = H.preimage(X, Y, phi)
            if f is None:
                outside += 1
            else:
                assert H.mor_matrix(f) == phi
    assert outside


def test_a_kept_roof_that_misses_phi_reports_inconsistent_data():
    # H doubled on every endomorphism of the quotient agrees with FAITHFUL
    # (the same maps go to zero) but not with composition: the identity
    # module map of x is H of half the identity, and [r_x, (1/2) r_x] maps
    # to half of it
    P = build_cluster_category(3)
    T = P.obj({"P1": 1, "P3": 1})

    class Doubled(HFunctor):
        def mor_matrix(self, f):
            m = super().mor_matrix(f)
            return m.scale(2) if f.source == f.target else m

    qc = build_quotient(P, T)
    Q, T_Q = qc.presentation, qc.project_obj(T)
    H = Doubled(Q, T_Q)
    phi = Matrix.identity(P.field, H.module(Q.single(0)).dim)
    with pytest.raises(NotInS, match="kept roof"):
        modcat.realize_module_map(H, 0, 0, phi)
    assert H._roofs
    rep = verify_equivalence(P, T, qc, H=Doubled(Q, T_Q))
    assert rep.clauses["faithful"].status == "pass"
    assert rep.clauses["full"].status == "fail"
    assert rep.clauses["full"].detail.startswith("inconsistent functor data: the kept roof")


def test_projectives_names_the_pair_whose_dimensions_differ():
    P = build_cluster_category(3)
    T = P.obj({"P1": 1, "P3": 1})

    qc = build_quotient(P, T)
    Q = qc.presentation

    class Miscounted(HFunctor):
        def module_hom_dim(self, X, Y):
            d = super().module_hom_dim(X, Y)
            return d + 1 if (X, Y) == (Q.single("P3"), Q.single("P1")) else d

    rep = verify_equivalence(P, T, qc, H=Miscounted(Q, qc.project_obj(T)))
    assert rep.clauses["full"].status == "pass"
    assert rep.clauses["projectives"].status == "fail"
    want = f"End dimension mismatch on (P3, P1): {P.hom_dim(P.index('P3'), P.index('P1'))}"
    assert rep.clauses["projectives"].detail.startswith(want)


def test_projectives_reads_the_module_hom_dimensions_full_filled(monkeypatch):
    # after a complete FULL no module Hom space is solved again; when FULL
    # stops at its first map, PROJECTIVES solves the pairs it needs
    P = build_cluster_category(3)
    T = P.obj({"P1": 1, "P2": 1, "P3": 1})
    solved = []

    def counted(M, N):
        solved.append((M.X, N.X))
        return solve(M, N)

    solve = modcat.module_hom_space
    monkeypatch.setattr(modcat, "module_hom_space", counted)
    projectives = modcat._projectives_clause

    def watched(*args):
        del solved[:]
        return projectives(*args)

    monkeypatch.setattr(modcat, "_projectives_clause", watched)
    assert verify_equivalence(P, T).ok
    assert solved == []

    def unrealised(*args, **kwargs):
        return None

    monkeypatch.setattr(modcat, "realize_module_map", unrealised)
    rep = verify_equivalence(P, T)
    assert rep.clauses["full"].status == "fail"
    assert rep.clauses["projectives"].status == "pass"
    Q = build_quotient(P, T).presentation
    pairs = set(itertools.product((Q.single(f"P{i}") for i in (1, 2, 3)), repeat=2))
    assert set(solved) <= pairs and len(solved) == len(set(solved)) > 0
