import gc
import itertools
from collections import Counter
from functools import lru_cache

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from quotcat.clustergen import build_cluster_category
from quotcat.errors import BoundsExceeded
from quotcat.fincat import (
    Morphism,
    Obj,
    all_rigid_supports,
    approximation,
    basis_morphisms,
    compose,
    covers,
    op_morphism,
    opposite,
    postcompose_matrix,
    precompose_matrix,
    stack_cols,
    validate_category,
)
from quotcat.linalg import GF, QQ, Matrix
from quotcat.preabelian import (
    DEFAULT_BUDGET,
    Budget,
    ClauseResult,
    MorphismFamily,
    RankCondition,
    SearchResult,
    build_morphism_family,
    coim_im_factorise,
    cokernel,
    epi_conditions,
    factors_through_map,
    is_epi,
    is_mono,
    is_regular,
    kernel,
    lifts_through_epi,
    multiplicities,
    pullback,
    pushout,
    run_clause,
    scan_properties,
    search_open_conditions,
    solve_on_basis,
    _every_sink_map_has_a_kernel,
    _has_every_kernel,
    _preabelian_clause,
)
from quotcat.quotient import build_quotient

from conftest import solve_two_sided_inverse


@pytest.fixture(scope="module")
def A3():
    return build_cluster_category(3)


@pytest.fixture(scope="module")
def QCT(A3):
    return build_quotient(A3, A3.obj({"P1": 1, "P2": 1, "P3": 1}))


@pytest.fixture(scope="module")
def Q2(A3):
    # 2-summand rigid: the quotient has regular non-isomorphisms
    return build_quotient(A3, A3.obj({"P1": 1, "P3": 1}))


@pytest.fixture(scope="module")
def A2():
    return build_cluster_category(2)


def all_basis_morphisms(Q):
    for i in range(Q.n):
        for j in range(Q.n):
            for a in range(Q.hom_dim(i, j)):
                yield Q.basis_morphism(i, j, a)


def test_identity_regular(QCT):
    Q = QCT.presentation
    idm = Q.identity(Q.single(0))
    assert is_regular(Q, idm)


def test_zero_map_not_epi(QCT):
    Q = QCT.presentation
    z = Q.zero_morphism(Q.single(0), Q.single(1))
    assert not is_epi(Q, z)
    assert not is_mono(Q, z)


def test_regular_noninvertible_exists(Q2):
    # located by exhaustive scan over indecomposable-to-indecomposable maps
    Q = Q2.presentation
    found = []
    for f in all_basis_morphisms(Q):
        if f.source != f.target and is_regular(Q, f):
            if solve_two_sided_inverse(Q, f) is None:
                found.append(f)
    assert found, "expected a regular non-invertible morphism for a 2-summand rigid T"


def test_no_regular_noninvertible_for_cluster_tilting(QCT):
    # cluster-tilting degeneration: every regular morphism is invertible
    Q = QCT.presentation
    fam = build_morphism_family(Q)
    for f in fam.regulars:
        assert solve_two_sided_inverse(Q, f) is not None


def test_cokernel_of_identity_is_zero(QCT):
    Q = QCT.presentation
    M, c = cokernel(Q, Q.identity(Q.single(2)))
    assert M.is_zero() and c.target.is_zero()


def test_cokernel_of_zero_is_identity(QCT):
    Q = QCT.presentation
    X, Y = Q.single(0), Q.single(3)
    M, c = cokernel(Q, Q.zero_morphism(X, Y))
    assert M == Y
    assert solve_two_sided_inverse(Q, c) is not None


def test_kernel_trivial_cases(QCT):
    Q = QCT.presentation
    K, j = kernel(Q, Q.identity(Q.single(1)))
    assert K.is_zero()
    X, Y = Q.single(1), Q.single(4)
    K2, j2 = kernel(Q, Q.zero_morphism(X, Y))
    assert K2 == X
    assert solve_two_sided_inverse(Q, j2) is not None


def test_kernels_cokernels_all_basis_morphisms(QCT, Q2):
    for qc in (QCT, Q2):
        Q = qc.presentation
        for f in all_basis_morphisms(Q):
            cres = cokernel(Q, f)
            assert cres is not None
            M, c = cres
            assert compose(Q, c, f).is_zero()
            assert is_epi(Q, c)
            kres = kernel(Q, f)
            assert kres is not None
            K, j = kres
            assert compose(Q, f, j).is_zero()
            assert is_mono(Q, j)


def test_cokernel_universal_property(QCT):
    # every p with p o f = 0 factors uniquely through the accepted c
    Q = QCT.presentation
    for f in all_basis_morphisms(Q):
        M, c = cokernel(Q, f)
        for z in range(Q.n):
            Z = Q.single(z)
            for p in Q.hom_basis(f.target, Z):
                if compose(Q, p, f).is_zero():
                    assert factors_through_map(Q, p, c) is not None


def test_cokernel_uniqueness_across_seeds(Q2):
    Q = Q2.presentation
    for f in all_basis_morphisms(Q):
        M1, c1 = cokernel(Q, f, Budget(seed=11))
        M2, c2 = cokernel(Q, f, Budget(seed=3003))
        assert M1 == M2  # multiplicity vectors are an isomorphism invariant
        u = factors_through_map(Q, c2, c1)
        v = factors_through_map(Q, c1, c2)
        assert u is not None and v is not None
        assert compose(Q, v, u) == Q.identity(M1)
        assert compose(Q, u, v) == Q.identity(M2)


def test_cokernel_leaves_no_garbage_cycles(Q2):
    # the multiplicity recursion is a module-level function, not a closure
    # that refers to itself, so a cokernel frees everything by reference count
    Q = Q2.presentation
    maps = list(all_basis_morphisms(Q))
    assert len(maps) == 11
    for f in maps:
        cokernel(Q, f)
    gc.collect()
    gc.disable()
    try:
        for f in maps:
            cokernel(Q, f)
        assert gc.collect() == 0
    finally:
        gc.enable()


@st.composite
def multiplicity_problems(draw):
    """(down, floor, up, ceiling): small dimension columns with up[i][i] >= 1;
    half the time an equality, down = up and floor = ceiling."""
    n = draw(st.integers(1, 3))
    k = draw(st.integers(1, 3))
    up = [[draw(st.integers(1 if i == z else 0, 2)) for z in range(n)] for i in range(n)]
    ceiling = [draw(st.integers(-1, 5)) for _ in range(n)]
    if draw(st.booleans()):
        return up, ceiling, up, ceiling
    down = [[draw(st.integers(0, 2)) for _ in range(k)] for _ in range(n)]
    floor = [draw(st.integers(-1, 4)) for _ in range(k)]
    return down, floor, up, ceiling


@given(multiplicity_problems())
# m = 0 does not fit under a negative ceiling, even where no row does
@example(([[0]], [0], [[1]], [-1]))
@example(([[1], [1]], [1], [[1, 0], [0, 1]], [2, -1]))
def test_multiplicities_match_brute_force(problem):
    down, floor, up, ceiling = problem
    n = len(up)

    def total(cols, m):
        return [sum(mi * col[z] for mi, col in zip(m, cols)) for z in range(len(cols[0]))]

    # up[i][i] >= 1, so m_i <= ceiling[i]
    box = itertools.product(range(max(ceiling) + 1), repeat=n)
    want = sorted(
        (
            m
            for m in box
            if all(a >= b for a, b in zip(total(down, m), floor))
            and all(a <= b for a, b in zip(total(up, m), ceiling))
        ),
        key=lambda m: (sum(m), m),
    )
    assert multiplicities(down, floor, up, ceiling) == want


def unfiltered_multiplicities(down, floor, up, ceiling):
    """The enumerator without its row prefilter: every row is walked, the
    rows that cannot fit under the ceiling once included."""
    last = [max((i for i, row in enumerate(down) if row[z] > 0), default=-1) for z in range(len(floor))]
    out = []

    def extend(mult, need, room):
        i = len(mult)
        if any(a > 0 and r < i for a, r in zip(need, last)):
            return
        if i == len(up):
            out.append(tuple(mult))
            return
        mult.append(0)
        while min(room, default=0) >= 0:
            extend(mult, need, room)
            mult[i] += 1
            need = [a - b for a, b in zip(need, down[i])]
            room = [a - b for a, b in zip(room, up[i])]
        mult.pop()

    extend([], list(floor), list(ceiling))
    out.sort(key=sum)
    return out


@lru_cache(maxsize=None)
def a4_quotient_dims():
    """dim Hom(i, j) of C/X_T for every rigid T of C(A_4, "><>")/GF(101)."""
    A4 = build_cluster_category(4, "><>", GF(101))
    out = []
    for support in all_rigid_supports(A4, 4):
        Q = build_quotient(A4, A4.obj({A4.objects[i]: 1 for i in support})).presentation
        out.append(tuple(map(tuple, Q._dim)))
    return tuple(out)


@settings(max_examples=150)
@given(st.data())
def test_multiplicities_match_the_unfiltered_enumerator_on_A4_quotients(data):
    # the three shapes the verdict asks: cokernel targets (D, t, D, t), leg
    # sources (D, floor, D^T, ceiling) and add-T partners (ones, [1], unit,
    # bounds), whose bounds are 0 off at most four summands, as off T's;
    # floors and ceilings are random, negative entries included
    dims = data.draw(st.sampled_from(a4_quotient_dims()))
    n = len(dims)
    D = [list(row) for row in dims]
    vec = st.lists(st.integers(-1, 4), min_size=n, max_size=n)
    shape = data.draw(st.sampled_from(["cokernel", "legs", "partners"]))
    if shape == "cokernel":
        t = data.draw(vec)
        problem = (D, t, D, t)
    elif shape == "legs":
        problem = (D, data.draw(vec), [list(col) for col in zip(*D)], data.draw(vec))
    else:
        unit = [[int(i == z) for z in range(n)] for i in range(n)]
        summands = data.draw(st.sets(st.integers(0, n - 1), max_size=4))
        bounds = [b if i in summands else 0 for i, b in enumerate(data.draw(vec))]
        problem = ([[1]] * n, [1], unit, bounds)
    assert multiplicities(*problem) == unfiltered_multiplicities(*problem)


def test_section6_certified_no_cokernel(A3):
    q6 = build_quotient(A3, subcat={"P1", "P2", "S2"})
    Q6 = q6.presentation
    assert validate_category(Q6).ok
    f = q6.project(A3.basis_morphism(A3.index("P3"), A3.index("I2"), 0))
    assert not f.is_zero()
    assert cokernel(Q6, f) is None


def test_prime_field_search_past_the_full_grid_is_certified():
    # 101^3 points exceed the grid cap; the joint grid {0..D}^3 does not
    witnesses = []
    for field in (QQ, GF(101)):
        P = build_cluster_category(3, field=field)
        X, Y = P.obj({"P1": 1, "P2": 1, "P3": 1}), P.single("P3")
        basis = [b.to_vector() for b in P.hom_basis(X, Y)]
        assert len(basis) == 3
        res = search_open_conditions(P, X, Y, basis, epi_conditions(P, lambda m: m, Y), Budget(retries=0), 0)
        assert res.status == SearchResult.FOUND
        witnesses.append(res.witness.to_vector())
    assert witnesses == [[0, 0, 1], [0, 0, 1]]


def test_prime_field_negative_past_the_full_grid_is_certified():
    # no element of this 3-dimensional subspace is epi, over Q or F_101
    for field in (QQ, GF(101)):
        P = build_cluster_category(3, field=field)
        X, Y = P.obj({"P1": 1, "P2": 1, "SP2": 1, "SP3": 1}), P.single("P2")
        basis = [b.to_vector() for b in P.hom_basis(X, Y)]
        subspace = [basis[0], basis[2], basis[3]]
        res = search_open_conditions(P, X, Y, subspace, epi_conditions(P, lambda m: m, Y), Budget(retries=0), 0)
        assert res.status == SearchResult.CERTIFIED_EMPTY


def _pairwise_conditions(P):
    """Three 1 x 1 conditions on m = (x, y) in Hom(P1+P2, P2): x, y and x + y
    nonzero.  Each alone has a witness on {0, 1}^2; over F_2 no m meets all
    three, and over Q the joint grid is {0..3}^2."""
    fld = P.field
    X, Y = P.obj({"P1": 1, "P2": 1}), P.single("P2")
    basis = [b.to_vector() for b in P.hom_basis(X, Y)]
    assert len(basis) == 2
    forms = [(1, 0), (0, 1), (1, 1)]

    def condition(form):
        return RankCondition(
            lambda m: Matrix(fld, 1, 1, [[fld.of(sum(c * v for c, v in zip(form, m.to_vector())))]]), 1
        )

    return X, Y, basis, [condition(form) for form in forms]


def test_joint_grid_over_f2_certifies_empty_by_exhausting_it():
    P = build_cluster_category(3, field=GF(2))
    X, Y, basis, conditions = _pairwise_conditions(P)
    res = search_open_conditions(P, X, Y, basis, conditions, Budget(), 0)
    assert res.status == SearchResult.CERTIFIED_EMPTY


def test_joint_grid_over_the_cap_with_no_fallback_tries_runs_out_of_budget():
    P = build_cluster_category(3)
    X, Y, basis, conditions = _pairwise_conditions(P)
    with pytest.raises(BoundsExceeded, match=r"joint grid 4\^2 exceeds the cap"):
        search_open_conditions(P, X, Y, basis, conditions, Budget(retries=0, grid_cap=4), 0)


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=["Q", "F101"])
@pytest.mark.parametrize("budget", [Budget(), Budget(retries=0, grid_cap=1)], ids=["default", "tight"])
def test_an_empty_subspace_takes_the_general_path(field, budget):
    # d = 0: every grid is the one point, the zero map, so a condition the
    # zero map meets gives FOUND with it, and one it fails certifies empty
    P = build_cluster_category(3, field=field)
    X, Y = P.obj({"P1": 1, "P2": 1}), P.single("P2")
    zero = P.zero_morphism(X, Y)

    def constant(entry):
        return RankCondition(lambda m: Matrix(field, 1, 1, [[field.of(entry)]]), 1)

    met, failed = constant(1), constant(0)
    for conditions, want in (
        ([met], SearchResult.FOUND),
        ([failed], SearchResult.CERTIFIED_EMPTY),
        ([met, failed], SearchResult.CERTIFIED_EMPTY),
        (epi_conditions(P, lambda m: m, Y), SearchResult.CERTIFIED_EMPTY),
    ):
        res = search_open_conditions(P, X, Y, [], conditions, budget, 0)
        assert res.status == want
        if want == SearchResult.FOUND:
            assert res.witness == zero and res.witness.is_zero()


@lru_cache(maxsize=None)
def prime_field_categories():
    return tuple(build_cluster_category(3, field=GF(p)) for p in (2, 3, 7, 101))


@settings(max_examples=60)
@given(st.data())
def test_prime_field_search_matches_full_scan(data):
    # where F_p^d fits the grid cap, the status and the witness are those of
    # scanning all of F_p^d in lexicographic order
    P = data.draw(st.sampled_from(prime_field_categories()))
    fld = P.field
    names = st.lists(st.sampled_from(P.objects), min_size=1, max_size=3)
    X = P.obj(Counter(data.draw(names)))
    Y = P.obj(Counter(data.draw(names)[:2]))
    basis = [b.to_vector() for b in P.hom_basis(X, Y)]
    assume(basis)
    d = max(k for k in range(1, len(basis) + 1) if fld.p**k <= 400)
    subspace = data.draw(st.permutations(basis))[:d]
    conditions = epi_conditions(P, lambda m: m, Y)
    want = None
    for coeffs in itertools.product(range(fld.p), repeat=d):
        vec = [fld.zero] * len(basis)
        for c, v in zip(coeffs, subspace):
            vec = [fld.add(x, fld.mul(c, y)) for x, y in zip(vec, v)]
        if all(c.holds(Morphism.from_vector(P, X, Y, vec)) for c in conditions):
            want = vec
            break
    res = search_open_conditions(P, X, Y, subspace, conditions, Budget(retries=0), 0)
    if want is None:
        assert res.status == SearchResult.CERTIFIED_EMPTY
    else:
        assert (res.status, res.witness.to_vector()) == (SearchResult.FOUND, want)


def test_bounds_exceeded_is_distinct(QCT):
    # strangling the budget must raise, not return a certified negative
    Q = QCT.presentation
    f = next(iter(all_basis_morphisms(Q)))
    # find a basis morphism whose search actually needs a nontrivial space
    for f in all_basis_morphisms(Q):
        if f.source != f.target:
            break
    with pytest.raises(BoundsExceeded):
        cokernel(Q, f, Budget(retries=0, grid_cap=1))


def test_budget_from_dict_rejects_nonsense():
    assert Budget.from_dict({"seed": -3, "retries": 0, "scan_double_objects": 0}).seed == -3
    bad = [
        {"retries": -1},
        {"scan_random_per_pair": -1},
        {"scan_double_objects": -2},
        {"grid_cap": 0},
        {"scan_pairs_cap": 0},
        {"coeff_base": 0},
        {"coeff_base": -4},
        {"retries": None},
        {"from_dict": 1},
    ]
    for d in bad:
        key = next(iter(d))
        with pytest.raises(ValueError, match=key):
            Budget.from_dict(d)


def test_budget_checks_itself_where_it_is_built():
    # a budget built in code is refused as a config would be, naming the
    # field, not deep inside a scan nor passed through to a report
    bad = [
        {"retries": -3},
        {"scan_random_per_pair": -1},
        {"scan_double_objects": -1},
        {"grid_cap": 0},
        {"scan_pairs_cap": 0},
        {"coeff_base": 0},
        {"retries": True},
        {"seed": 1.0},
        {"grid_cap": "10"},
        {"scan_pairs_cap": None},
    ]
    for kw in bad:
        key = next(iter(kw))
        with pytest.raises(ValueError, match=key):
            Budget(**kw)
    least = Budget(seed=-3, retries=0, coeff_base=1, grid_cap=1, scan_random_per_pair=0, scan_pairs_cap=1, scan_double_objects=0)
    assert vars(least) == {
        "seed": -3,
        "retries": 0,
        "coeff_base": 1,
        "grid_cap": 1,
        "scan_random_per_pair": 0,
        "scan_pairs_cap": 1,
        "scan_double_objects": 0,
    }
    assert Budget.from_dict({"retries": "3", "grid_cap": 7.0}) == Budget(retries=3, grid_cap=7)


def test_pullback_along_identity(QCT):
    Q = QCT.presentation
    c = Q.basis_morphism(0, 1, 0) if Q.hom_dim(0, 1) else None
    for f in all_basis_morphisms(Q):
        if f.source != f.target:
            c = f
            break
    sq = pullback(Q, c, Q.identity(c.target))
    assert sq.check_commutes(Q)
    # the leg over the identity is an isomorphism onto the source of c
    assert sq.A == c.source
    assert solve_two_sided_inverse(Q, sq.a) is not None


def test_pullback_preserves_mono_and_regular(Q2):
    Q = Q2.presentation
    fam = build_morphism_family(Q)
    mono = fam.monos[0]
    for c in fam.all:
        if c.target == mono.target and c is not mono:
            sq = pullback(Q, c, mono)
            assert is_mono(Q, sq.a)
            break
    reg = fam.regulars[0]
    for c in fam.all:
        if c.target == reg.target and c is not reg:
            sq = pullback(Q, c, reg)
            assert is_regular(Q, sq.a)
            break


def _mediating_to_pullback(Q, sq, u, v):
    """Solve a o w = u, b o w = v for a cone (u, v); None if no mediator."""
    a, b = postcompose_matrix(Q, sq.a, u.source), postcompose_matrix(Q, sq.b, u.source)
    m = Matrix(Q.field, a.nrows + b.nrows, a.ncols, a.data + b.data)
    return solve_on_basis(Q, u.source, sq.A, m, u.to_vector() + v.to_vector())


def test_pullback_universal_property(QCT):
    Q = QCT.presentation
    fam = build_morphism_family(Q)
    checked = 0
    for d in fam.epis[:3]:
        for c in fam.all:
            if c.target != d.target or checked >= 5:
                continue
            sq = pullback(Q, c, d)
            # cones from each indecomposable: solve u, v with c u = d v
            for w in range(Q.n):
                W = Q.single(w)
                for u in Q.hom_basis(W, sq.B):
                    cu = compose(Q, sq.c, u)
                    v = lifts_through_epi(Q, cu, sq.d)
                    if v is None:
                        continue
                    med = _mediating_to_pullback(Q, sq, u, v)
                    assert med is not None
                    assert compose(Q, sq.a, med) == u
                    assert compose(Q, sq.b, med) == v
            checked += 1
    assert checked


def test_pushout_dual_cases(Q2):
    Q = Q2.presentation
    fam = build_morphism_family(Q)
    epi = fam.epis[0]
    for b in fam.all:
        if b.source == epi.source and b is not epi:
            sq = pushout(Q, epi, b)
            assert is_epi(Q, sq.d)
            break
    reg = fam.regulars[0]
    for b in fam.all:
        if b.source == reg.source and b is not reg:
            sq = pushout(Q, reg, b)
            assert is_regular(Q, sq.d)
            break


def test_coim_im_identity_and_zero(QCT):
    Q = QCT.presentation
    X = Q.single(0)
    fac = coim_im_factorise(Q, Q.identity(X))
    assert solve_two_sided_inverse(Q, fac.ftilde) is not None
    Y = Q.single(3)
    fac0 = coim_im_factorise(Q, Q.zero_morphism(X, Y))
    assert fac0.coim.is_zero() and fac0.im.is_zero()


def test_ftilde_regular_everywhere(A2):
    # semi-abelian characterisation: the middle map is always regular
    for supp_names in (("P1",), ("P1", "P2")):
        A2p = A2
        T = A2p.obj({n: 1 for n in supp_names})
        from quotcat.fincat import is_rigid

        if not is_rigid(A2p, T):
            continue
        qc = build_quotient(A2p, T)
        Q = qc.presentation
        for f in all_basis_morphisms(Q):
            fac = coim_im_factorise(Q, f)
            assert is_regular(Q, fac.ftilde)
            assert compose(Q, fac.v, compose(Q, fac.ftilde, fac.u)) == f


def test_scan_properties_integral(QCT, Q2):
    for qc in (QCT, Q2):
        rep = scan_properties(qc.presentation, Budget(scan_pairs_cap=120))
        assert rep.ok, rep.clauses


def test_scan_properties_section6_fails(A3):
    q6 = build_quotient(A3, subcat={"P1", "P2", "S2"})
    assert validate_category(q6.presentation).ok
    rep = scan_properties(q6.presentation, Budget(scan_pairs_cap=60))
    assert rep.clauses["preabelian"].status == "fail"
    assert "P3 -> I2" in rep.clauses["preabelian"].detail


def test_scan_family_holds_the_preabelian_witnesses(QCT, Q2):
    # the preabelian clause's cokernel and kernel maps are the scan's
    # cokernel-type and kernel-type entries, in basis order
    budget = Budget(scan_pairs_cap=1)
    for qc in (QCT, Q2):
        Q = qc.presentation
        fam = scan_properties(Q, budget).family
        plain = build_morphism_family(Q, budget)
        assert (fam.all, fam.epis, fam.monos, fam.regulars) == (plain.all, plain.epis, plain.monos, plain.regulars)
        assert fam.cokernel_maps == [cokernel(Q, f, budget)[1] for *_, f in basis_morphisms(Q)]
        assert fam.kernel_maps == [kernel(Q, f, budget)[1] for *_, f in basis_morphisms(Q)]


def test_scan_reports_an_exhausted_preabelian_clause(A3):
    qc = build_quotient(A3, A3.obj({"P1": 1, "P2": 1}))
    rep = scan_properties(qc.presentation, Budget(retries=0, grid_cap=1))
    assert list(rep.clauses) == ["preabelian"]
    assert rep.clauses["preabelian"].status == "bounds-exceeded"
    assert rep.family.all


def test_sink_map_criterion_agrees_with_the_preabelian_clause(A3):
    # Q is preabelian iff every sink map is mono or has a kernel, and the
    # same holds in Q^op (Auslander's criterion, ROADMAP item 18): against
    # the basis-morphism clause on every proper subcategory quotient of C(A_3)
    verdicts = Counter()
    for k in range(A3.n):
        for S in itertools.combinations(range(A3.n), k):
            Q = build_quotient(A3, subcat=set(S)).presentation
            criterion = _every_sink_map_has_a_kernel(Q, DEFAULT_BUDGET)
            assert _every_sink_map_has_a_kernel(opposite(Q), DEFAULT_BUDGET) == criterion, S
            clause = run_clause(_preabelian_clause(Q, MorphismFamily(), DEFAULT_BUDGET))
            assert (clause.status == "pass") == criterion, (S, clause)
            verdicts[criterion] += 1
    assert verdicts == {True: 372, False: 139}


def test_sink_map_criterion_is_false_on_the_section6_quotient(A3):
    # C(A_3)/add{P1, P2, S2} has a map with no cokernel, so by the two-sided
    # lemma a map with no kernel too.  Its ends are one-dimensional and its
    # indecomposables pairwise non-isomorphic, so the gate holds and the
    # False is the sink maps' own answer, on either side
    Q6 = build_quotient(A3, subcat={"P1", "P2", "S2"}).presentation
    for P in (Q6, opposite(Q6)):
        assert all(P.hom_dim(i, i) == 1 for i in range(P.n))
        assert not _every_sink_map_has_a_kernel(P, DEFAULT_BUDGET)
        assert not _has_every_kernel(P, DEFAULT_BUDGET)


def test_a_sink_map_kernel_out_of_budget_leaves_the_criterion_unknown(A3):
    # at T = P2 a sink-map kernel search runs out of budget on either side:
    # whether every kernel exists is then unknown, so not known to hold
    Q = build_quotient(A3, A3.obj({"P2": 1})).presentation
    tight = Budget(retries=0, grid_cap=1)
    for P in (Q, opposite(Q)):
        with pytest.raises(BoundsExceeded):
            _every_sink_map_has_a_kernel(P, tight)
        assert not _has_every_kernel(P, tight)
        assert _has_every_kernel(P, DEFAULT_BUDGET)


def test_run_clause_counts_a_case_where_the_body_yields():
    def body(yield_first):
        for case in (1, 2, 3):
            if yield_first:
                yield
            if case == 2:
                return "case 2 fails"
            if not yield_first:
                yield

    assert run_clause(body(True)) == ClauseResult("fail", 2, "case 2 fails")
    assert run_clause(body(False)) == ClauseResult("fail", 1, "case 2 fails")
    assert run_clause(iter([None] * 3)) == ClauseResult("pass", 3)


def test_run_clause_bounds_exceeded_keeps_the_count():
    def body():
        yield
        yield
        raise BoundsExceeded("grid 3^3 exceeds the cap")

    assert run_clause(body()) == ClauseResult("bounds-exceeded", 2, "grid 3^3 exceeds the cap")


def is_projective_object(Q, X, family):
    """Lifting property of X against every epi of family: each epi covers X.
    A test of the sampled family only; PROJECTIVES is the verdict's
    projectivity check."""
    return all(covers(Q, c, X) for c in family.epis)


def is_injective_object(Q, X, family):
    """Extension property of X along every mono of family: projectivity in Q^op."""
    op = opposite(Q)
    return is_projective_object(op, X, MorphismFamily(epis=[op_morphism(op, j) for j in family.monos]))


def test_zero_object_projective(QCT):
    Q = QCT.presentation
    fam = build_morphism_family(Q)
    zero = Obj((0,) * Q.n)
    assert is_projective_object(Q, zero, family=fam)
    assert is_injective_object(Q, zero, family=fam)


def test_t_summands_projective(A3, QCT):
    Q = QCT.presentation
    fam = build_morphism_family(Q)
    for name in ("P1", "P2", "P3"):
        assert is_projective_object(Q, Q.single(name), family=fam)
    # non-summands need not be projective; S2 is not
    assert not is_projective_object(Q, Q.single("S2"), family=fam)


def test_sigma2_t_summands_injective(A3, QCT):
    Q = QCT.presentation
    fam = build_morphism_family(Q)
    for name in ("P1", "P2", "P3"):
        s2 = A3.sigma[A3.sigma[A3.index(name)]]
        s2name = A3.objects[s2]
        assert s2name in Q.objects
        assert is_injective_object(Q, Q.single(s2name), family=fam)


def test_enough_projectives_and_injectives(A3, QCT):
    # projected minimal right add-T approximations are epis; dually monos
    tnames = ("P1", "P2", "P3")
    S = [A3.index(t) for t in tnames]
    s2S = [A3.sigma[A3.sigma[i]] for i in S]
    Q = QCT.presentation
    for i in QCT.keep:
        C = A3.single(i)
        a = approximation(A3, S, C)
        qa = QCT.project(a)
        assert is_epi(Q, qa)
        b = op_morphism(A3, approximation(opposite(A3), s2S, C))  # a left approximation
        qb = QCT.project(b)
        assert is_mono(Q, qb)


def test_mono_and_injective_match_direct_rank_tests(QCT, Q2):
    # is_mono and is_injective_object run in the opposite presentation; pin
    # them to their rank definitions on post- and pre-composition here
    for qc in (QCT, Q2):
        Q = qc.presentation
        # the family does not depend on scan_pairs_cap, so a cap of 1 keeps the scan short
        fam = scan_properties(Q, Budget(scan_pairs_cap=1)).family
        singles = [Q.single(z) for z in range(Q.n)]
        for m in fam.all + fam.cokernel_maps + fam.kernel_maps:
            direct = all(postcompose_matrix(Q, m, Z).rank() == Q.hom_space_dim(Z, m.source) for Z in singles)
            assert is_mono(Q, m) == direct
        for X in singles + [Obj((0,) * Q.n), singles[0] + singles[-1]]:
            direct = all(precompose_matrix(Q, j, X).rank() == Q.hom_space_dim(j.source, X) for j in fam.monos)
            assert is_injective_object(Q, X, family=fam) == direct


def test_pushout_squares_are_pushouts(QCT, Q2):
    # pushouts are pullbacks in the opposite presentation; check each square
    # and its universal property against cocones solved directly in Q
    for qc in (QCT, Q2):
        Q = qc.presentation
        fam = build_morphism_family(Q)
        pairs = [(a, b) for a in fam.all for b in fam.all if a.source == b.source]
        for a, b in pairs:
            sq = pushout(Q, a, b)
            assert (sq.A, sq.B, sq.C) == (a.source, a.target, b.target)
            assert sq.check_commutes(Q)
            legs = stack_cols(Q, [sq.c, sq.d])
            for w in range(Q.n):
                W = Q.single(w)
                for u in Q.hom_basis(sq.B, W):
                    v = factors_through_map(Q, compose(Q, u, a), b)
                    if v is None:
                        continue
                    med = factors_through_map(Q, stack_cols(Q, [u, v]), legs)
                    assert med is not None
                    assert compose(Q, med, sq.c) == u
                    assert compose(Q, med, sq.d) == v


def test_scan_budget_exhaustion_is_not_failure(A3):
    # at this budget a sink-map kernel search runs out on either side, so
    # neither side is decided and the leg clauses search for their squares
    qc = build_quotient(A3, A3.obj({"P2": 1}))
    rep = scan_properties(qc.presentation, Budget(retries=0, grid_cap=1))
    assert rep.clauses["preabelian"].status == "pass"
    statuses = {name: c.status for name, c in rep.clauses.items()}
    assert "fail" not in statuses.values(), statuses
    assert "bounds-exceeded" in statuses.values(), statuses


def _stacked_two_sided_inverse(Q, f):
    """Some g with g o f = id and f o g = id, or None, from one stacked
    system: the pre-composition rows (g o f = id) over the post-composition
    rows (f o g = id)."""
    X, Y = f.source, f.target
    pre, post = precompose_matrix(Q, f, X), postcompose_matrix(Q, f, Y)
    m = Matrix(Q.field, pre.nrows + post.nrows, pre.ncols, pre.data + post.data)
    return solve_on_basis(Q, Y, X, m, Q.identity(X).to_vector() + Q.identity(Y).to_vector())


@pytest.mark.parametrize("n,orientation,field", [(3, None, QQ), (4, "><>", GF(101))], ids=["A3-QQ", "A4-GF101"])
def test_two_sided_inverse_is_the_stacked_solve(n, orientation, field):
    # a left inverse kept when it is also a right one: the same answer as
    # solving both equations at once, on every family map of every rigid T
    P = build_cluster_category(n, orientation, field)
    for supp in all_rigid_supports(P, n):
        Q = build_quotient(P, P.obj({P.objects[i]: 1 for i in supp})).presentation
        for f in build_morphism_family(Q).all:
            got, want = solve_two_sided_inverse(Q, f), _stacked_two_sided_inverse(Q, f)
            assert (got and got.to_vector()) == (want and want.to_vector()), (supp, f)


def _postcomposed_lift(Q, f, c):
    """Some g with c o g = f, or None, from the post-composition solve."""
    return solve_on_basis(Q, f.source, c.source, postcompose_matrix(Q, c, f.source), f.to_vector())


@pytest.mark.parametrize(
    "n,orientation,field,supports",
    [(3, None, QQ, [("P1",), ("P1", "P3"), ("S2", "I2")]), (4, "><>", GF(101), [("I1", "P1"), ("P1", "P3")])],
    ids=["A3-QQ", "A4-GF101"],
)
def test_lift_through_the_image_map_is_the_postcomposed_solve(n, orientation, field, supports):
    # v: Im -> Y is a kernel map, so mono, and the lift of the coimage map
    # through it is unique: the solve in Q^op finds the post-composition one
    P = build_cluster_category(n, orientation, field)
    for names in supports:
        Q = build_quotient(P, P.obj({name: 1 for name in names})).presentation
        for f in all_basis_morphisms(Q):
            fac = coim_im_factorise(Q, f)
            w = factors_through_map(Q, f, fac.u)
            want = _postcomposed_lift(Q, w, fac.v)
            assert want is not None and lifts_through_epi(Q, w, fac.v) == want == fac.ftilde, (names, f)

