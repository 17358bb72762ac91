import gc
from functools import lru_cache

import pytest
from hypothesis import example, given, settings, strategies as st

from quotcat import fincat
from quotcat.clustergen import build_cluster_category
from quotcat.errors import MissingSuspension, ShapeError
from quotcat.fincat import (
    CategoryPresentation,
    Morphism,
    Obj,
    all_rigid_supports,
    approximation,
    basis_morphisms,
    compose,
    is_cluster_tilting,
    is_rigid,
    op_morphism,
    opposite,
    perp,
    postcompose_matrix,
    precompose_matrix,
    split_rows,
    stack_cols,
    validate_category,
)
from quotcat.linalg import GF, QQ
from quotcat.modcat import endomorphism_algebra
from quotcat.preabelian import build_morphism_family
from quotcat.quotient import build_quotient

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


def test_missing_table_associativity_reported():
    # with no (w, x, y) table g o f is zero, yet (h o g) o f reads 1 from the
    # (x, y, z) and (w, x, z) tables
    P = chain4_category()
    del P.comp[(0, 1, 2)]
    rep = validate_category(P)
    assert ("associativity", (0, 1, 2, 3, 0, 0, 0)) in rep.violations


def reference_violations(P):
    """The unit and associativity violations by composing basis morphisms:
    one loop over the tables that exist, one over the (i, j, k) that are
    missing, where g o f is zero."""
    out = []
    for i, j, a, m in basis_morphisms(P):
        if compose(P, P.identity(P.single(j)), m) != m:
            out.append(("left-unit", (i, j, a)))
        if compose(P, m, P.identity(P.single(i))) != m:
            out.append(("right-unit", (i, j, a)))
    for (i, j, k) in P.comp:
        for l in range(P.n):
            for a in range(P.hom_dim(i, j)):
                fa = P.basis_morphism(i, j, a)
                for b in range(P.hom_dim(j, k)):
                    gb = P.basis_morphism(j, k, b)
                    for c in range(P.hom_dim(k, l)):
                        hc = P.basis_morphism(k, l, c)
                        if compose(P, hc, compose(P, gb, fa)) != compose(P, compose(P, hc, gb), fa):
                            out.append(("associativity", (i, j, k, l, a, b, c)))
    for (j, k, l), hg_table in P.comp.items():
        for i in range(P.n):
            if (i, j, k) in P.comp:
                continue
            for a in range(P.hom_dim(i, j)):
                fa = P.basis_morphism(i, j, a)
                for b, row in enumerate(hg_table):
                    for c, hg in enumerate(row):
                        if not compose(P, Morphism(P, P.single(j), P.single(l), [[hg]]), fa).is_zero():
                            out.append(("associativity", (i, j, k, l, a, b, c)))
    return out


@lru_cache(maxsize=None)
def validation_bases():
    return (build_cluster_category(3), build_cluster_category(4, "><>", GF(101)), chain4_category())


@st.composite
def perturbed(draw):
    """A copy of a valid presentation with one structure constant changed,
    one comp table deleted, or both; or with one constant of a table (i, j, k),
    i, j, k pairwise distinct, changed, which leaves the unit laws holding, so
    that associativity is checked on generating words."""
    P = draw(st.sampled_from(validation_bases()))
    comp = {key: [[list(vec) for vec in row] for row in table] for key, table in P.comp.items()}
    keys = sorted(comp)
    kind = draw(st.sampled_from(["change", "delete", "both", "associativity"]))
    if kind != "delete":
        distinct = [key for key in keys if len(set(key)) == 3]
        table = comp[draw(st.sampled_from(distinct if kind == "associativity" else keys))]
        vec = draw(st.sampled_from([vec for row in table for vec in row]))
        e = draw(st.integers(0, len(vec) - 1))
        vec[e] = P.field.add(vec[e], P.field.of(draw(st.integers(1, 5))))
    if kind in ("delete", "both"):
        del comp[draw(st.sampled_from(keys))]
    hom = {(i, j): P.hom_dim(i, j) for i in range(P.n) for j in range(P.n) if P.hom_dim(i, j)}
    return CategoryPresentation(P.field, P.objects, hom, comp, P.identities, sigma=P.sigma)


def unspanned_chain4():
    """chain4_category with w -> y -> z composing to zero.  The unit laws
    hold, but the words of the generators w -> x, x -> y, y -> z no longer
    reach Hom(w, z), so validation falls back to the full loop, which finds
    ((y -> z) o (x -> y)) o (w -> x) != (y -> z) o ((x -> y) o (w -> x))."""
    P = chain4_category()
    comp = dict(P.comp)
    comp[(0, 2, 3)] = [[[P.field.zero]]]
    hom = {(i, j): P.hom_dim(i, j) for i in range(P.n) for j in range(P.n) if P.hom_dim(i, j)}
    return CategoryPresentation(P.field, P.objects, hom, comp, P.identities)


@settings(max_examples=60)
@given(perturbed())
@example(unspanned_chain4())
def test_validation_matches_basis_composites(P):
    got = [v for v in validate_category(P).violations if v[0] in ("left-unit", "right-unit", "associativity")]
    assert sorted(got) == sorted(reference_violations(P))


def test_valid_presentations_are_checked_on_generating_words(monkeypatch):
    # a silent fallback to the full check keeps every verdict but loses the
    # speed, so the full check must not run on a valid presentation
    from test_golden_reports import GENERATED

    full = []
    on_basis = fincat._associativity_on_basis
    monkeypatch.setattr(fincat, "_associativity_on_basis", lambda P, rep: (full.append(P), on_basis(P, rep)))
    for n, orientation, field in GENERATED:
        assert validate_category(build_cluster_category(n, orientation, field)).ok
    a4 = build_cluster_category(4, "><>", GF(101))
    supports = all_rigid_supports(a4, a4.n)
    assert len(supports) == 196
    for supp in supports:
        assert validate_category(build_quotient(a4, a4.obj({a4.objects[i]: 1 for i in supp})).presentation).ok
    a4q = build_cluster_category(4)
    assert validate_category(endomorphism_algebra(a4q, a4q.obj({f"P{i}": 1 for i in range(1, 5)}))).ok
    assert full == []
    # the wrap sees the fallback an associativity failure takes
    broken = chain4_category(assoc_coeff=2)
    assert not validate_category(broken).ok and full == [broken]
    # and the fallback words that do not span take
    unspanned = unspanned_chain4()
    assert fincat._grow_words(
        unspanned.field, unspanned._dim, unspanned.identities, fincat._word_generators(unspanned), unspanned.comp
    ) is None
    assert validate_category(unspanned).violations == [("associativity", (0, 1, 2, 3, 0, 0, 0))]
    assert full == [broken, unspanned]


def table_product(P):
    """P's own basis product, read from its structure constants, and the
    (i, j, k, a, b) it is asked for."""
    asked = []

    def product(i, j, k, a, b):
        asked.append((i, j, k, a, b))
        table = P.comp.get((i, j, k))
        return list(table[a][b]) if table is not None else [P.field.zero] * P.hom_dim(i, k)

    return product, asked


def test_word_product_rebuilds_the_table_from_generator_products():
    # End(T)^op has one 10-dimensional Hom space, so a basis element is a
    # combination of several words; the quotient by T = P2 has six objects
    a4 = build_cluster_category(4)
    end = endomorphism_algebra(a4, a4.obj({f"P{i}": 1 for i in range(1, 5)}))
    assert end.hom_dim(0, 0) == 10
    for P in (end, build_quotient(a4, a4.obj({"P2": 1})).presentation, chain4_category()):
        dims = [[P.hom_dim(i, j) for j in range(P.n)] for i in range(P.n)]
        gens = fincat._word_generators(P)
        product, asked = table_product(P)
        hom, comp = fincat.structure_constants(P.field, dims, fincat.word_product(P.field, dims, P.identities, gens, product))
        assert comp == P.comp
        assert all(b in gens[(j, k)] for _, j, k, _, b in asked)
        assert len(asked) == len(set(asked))
    # words that do not span give no product
    P = unspanned_chain4()
    dims = [[P.hom_dim(i, j) for j in range(P.n)] for i in range(P.n)]
    assert fincat.word_product(P.field, dims, P.identities, fincat._word_generators(P), table_product(P)[0]) is None


def test_validation_composes_no_morphism(monkeypatch):
    P = build_cluster_category(4)

    def refuse(*args, **kwargs):
        raise AssertionError("validation built a morphism")

    monkeypatch.setattr(fincat, "compose", refuse)
    monkeypatch.setattr(Morphism, "__init__", refuse)
    assert validate_category(P).ok


def reference_compose(P, g, f):
    """g o f by the loop compose had before it called _composite: every
    block triple read straight off the structure constants."""
    fld = P.field
    zero = fld.zero
    srcs, mids, tgts = f.source.copies(), f.target.copies(), g.target.copies()
    out = [[[zero] * P.hom_dim(i, k) for i in srcs] for k in tgts]
    for t, k in enumerate(tgts):
        for s, i in enumerate(srcs):
            acc = out[t][s]
            if not acc:
                continue
            for m, j in enumerate(mids):
                table = P.comp.get((i, j, k))
                if table is None:
                    continue
                for a, fa in enumerate(f.blocks[m][s]):
                    if fa == zero:
                        continue
                    for b, gb in enumerate(g.blocks[t][m]):
                        if gb == zero:
                            continue
                        coeff = fld.mul(fa, gb)
                        for c, rc in enumerate(table[a][b]):
                            if rc != zero:
                                acc[c] = fld.add(acc[c], fld.mul(coeff, rc))
    return Morphism(P, f.source, g.target, out)


@settings(max_examples=150)
@given(data=st.data())
def test_compose_is_the_reference_loop(data):
    # random maps of C(A_3)/Q and C(A_4, "><>")/GF(101), zero coordinates included
    P = data.draw(st.sampled_from(validation_bases()[:2]))

    def obj():
        mult = [0] * P.n
        for i in data.draw(st.lists(st.integers(0, P.n - 1), min_size=1, max_size=3)):
            mult[i] += 1
        return P.obj(mult)

    def morphism(X, Y):
        d = P.hom_space_dim(X, Y)
        vec = data.draw(st.lists(st.sampled_from([0, 0, 1, -1, 2, 3]), min_size=d, max_size=d))
        return Morphism.from_vector(P, X, Y, vec)

    X, Y, Z = obj(), obj(), obj()
    f, g = morphism(X, Y), morphism(Y, Z)
    got, want = compose(P, g, f), reference_compose(P, g, f)
    assert (got.source, got.target, got.blocks) == (want.source, want.target, want.blocks)


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
    m = Morphism.from_vector(arrow, X, y, [1, 1])
    assert m.blocks == [[[QQ.one], [QQ.one]]]
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
    assert perp(point, set()) == {0}


def test_perp_needs_sigma(arrow):
    with pytest.raises(MissingSuspension):
        perp(arrow, {0})


def test_rigid_zero_object(point):
    assert is_rigid(point, Obj((0,) * point.n))
    # the point object has Ext^1(pt, pt) = Hom(pt, pt) != 0 under sigma = id
    assert not is_rigid(point, point.single(0))
    assert not is_cluster_tilting(point, Obj((0,) * point.n))


def test_approximation_identity_case(arrow):
    # C in add S: the reduced approximation is an isomorphism onto C
    x = arrow.single("x")
    a = approximation(arrow, {"x"}, x)
    assert a.source == x
    assert not a.is_zero()


def test_approximation_zero_case(arrow):
    # no maps from y to x at all
    a = approximation(arrow, {"y"}, arrow.single("x"))
    assert a.source.is_zero()


def test_approximation_covering(arrow):
    # right add-x approximation of y: Hom(x, -) surjectivity via rank oracle
    y = arrow.single("y")
    a = approximation(arrow, {"x"}, y)
    x = arrow.single("x")
    m = postcompose_matrix(arrow, a, x)
    assert m.rank() == arrow.hom_space_dim(x, y)


def _restarting_approximation(P, S, C):
    """The reference for approximation's one-pass walk: the greedy loop
    that starts again from copy 0 after every deletion."""
    S = sorted(s if isinstance(s, int) else P.index(s) for s in S)
    mult = [0] * P.n
    for x in S:
        mult[x] = P.hom_space_dim(P.single(x), C)
    blocks = [[] for _ in C.copies()]
    for x in S:
        for b in P.hom_basis(P.single(x), C):
            for t in range(len(C.copies())):
                blocks[t].append(b.blocks[t][0])
    a = Morphism(P, Obj(tuple(mult)), C, blocks)
    changed = True
    while changed:
        changed = False
        for pos in range(len(a.source.copies())):
            trial = fincat._delete_copy(P, a, pos)
            if fincat._approx_is_covering(P, S, trial):
                a = trial
                changed = True
                break
    return a


def test_one_pass_approximation_is_the_restarting_loop():
    # right approximations of every kept object of each quotient C/X_T, and
    # the left ones through the opposite presentation
    a3, a4 = build_cluster_category(3), build_cluster_category(4, "><>", GF(101))
    cases = [(a3, all_rigid_supports(a3, 3)), (a4, [(a4.index("I1"), a4.index("P1"))])]
    assert len(cases[0][1]) == 44
    for P, supports in cases:
        for supp in supports:
            T = P.obj({P.objects[i]: 1 for i in supp})
            for i in build_quotient(P, T).keep:
                for R in (P, opposite(P)):
                    assert approximation(R, supp, P.single(i)) == _restarting_approximation(R, supp, P.single(i))


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


def _copied_op_morphism(Q, f):
    """op_morphism as it was before twins: a fresh copy of every block."""
    blocks = [
        [list(f.blocks[t][s]) for t in range(len(f.target.copies()))]
        for s in range(len(f.source.copies()))
    ]
    return Morphism(Q, f.target, f.source, blocks)


@pytest.mark.parametrize("case", ["A3/Q", "A4(><>)/F101"])
def test_op_morphism_twin_is_kept_and_equals_the_copy(case):
    P = build_cluster_category(3) if case == "A3/Q" else build_cluster_category(4, "><>", GF(101))
    op = opposite(P)
    X = P.single(0) + P.single(1)
    maps = [f for _, _, _, f in basis_morphisms(P)] + build_morphism_family(P).all
    zero = Obj((0,) * P.n)
    maps += [P.zero_morphism(X, zero), P.zero_morphism(zero, X)]
    assert any(f.source.total > 1 for f in maps)
    for f in maps:
        twin = op_morphism(op, f)
        assert op_morphism(op, f) is twin
        copy = _copied_op_morphism(op, f)
        assert twin == copy and hash(twin) == hash(copy)
        back = op_morphism(P, twin)
        assert back == f and hash(back) == hash(f)


def test_op_morphism_twin_holds_no_reference_back():
    P = build_cluster_category(3)
    op = opposite(P)
    f = P.identity(P.single(0) + P.single(1))
    twin = op_morphism(op, f)
    assert f._op is twin and twin._op is None
    assert all(r is not f for r in gc.get_referents(twin))
    # the twin shares f's coefficient vectors rather than copying them
    assert twin.blocks[1][0] is f.blocks[0][1]


def test_obj_equality_and_hash():
    X, Y = Obj((1, 0, 2)), Obj((0, 1, 0))
    same = Obj((1, 0, 2))
    assert X == X and X == same and not X != same
    assert X != Y and not X == Y
    assert X != (1, 0, 2) and X != "X" and not X == None  # noqa: E711
    for m in ((1, 0, 2), (0, 1, 0), ()):
        assert hash(Obj(m)) == hash((m,))
    assert len({X, same, Y}) == 2 and {X: 1}[same] == 1


@given(st.lists(st.integers(0, 3), max_size=6))
def test_obj_hash_and_copies_are_kept_from_construction(m):
    # the dataclass's hash, hash((mult,)), and the copies are computed once
    m = tuple(m)
    X = Obj(m)
    assert hash(X) == hash((m,)) == X._hash
    assert X.copies() is X._copies and X.copies() == tuple(i for i, k in enumerate(m) for _ in range(k))
    assert hash(X + X) == hash((tuple(2 * k for k in m),))


def test_precompose_postcompose_matrices(arrow):
    f = arrow.basis_morphism(0, 1, 0)  # x -> y
    x, y = arrow.single("x"), arrow.single("y")
    pre = precompose_matrix(arrow, f, y)  # Hom(y,y) -> Hom(x,y)
    assert (pre.nrows, pre.ncols) == (1, 1)
    assert pre.data[0][0] == QQ.one
    post = postcompose_matrix(arrow, f, x)  # Hom(x,x) -> Hom(x,y)
    assert post.data[0][0] == QQ.one


def test_equal_morphisms_are_one_object():
    from quotcat.clustergen import build_cluster_category
    from quotcat.quotient import build_quotient

    P = build_cluster_category(3)
    T = P.obj({"P1": 1, "P3": 1})
    qc = build_quotient(P, T)
    X = P.obj({"P1": 2, "P2": 1})
    p1, p2 = P.single("P1"), P.single("P2")
    proj = split_rows(P, P.identity(p1 + X), [p1, X])[1]
    pairs = [
        (P.identity(X), Morphism.from_vector(P, X, X, P.identity(X).to_vector())),
        (P.basis_morphism(0, 1, 0), P.hom_basis(p1, p2)[0]),
        (proj, Morphism.from_vector(P, p1 + X, X, proj.to_vector())),
        (stack_cols(P, [proj, P.identity(X)]), stack_cols(P, [proj.scale(1), P.identity(X)])),
    ]
    Q = qc.presentation
    for i, j, a in ((0, 1, 0), (1, 1, 0)):
        qf = Q.basis_morphism(i, j, a)
        pairs.append((qc.lift(qf), qc.lift(qc.project(qc.lift(qf)))))
    for f, g in pairs:
        assert f is g
