import itertools
import random

import pytest

from quotcat import clustergen
from quotcat.catfile import resolve_object_name
from quotcat.clustergen import (
    Copresentation,
    DiagonalModel,
    Presentation,
    QuiverAn,
    Rep,
    RepHom,
    build_cluster_category,
    cokernel_rep,
    diagonal_dimension_oracle,
    direct_sum,
    dual_hom,
    dual_rep,
    hom_flat_dim,
    hom_from_flat,
    hom_rep,
    inj_interval,
    interval_rep,
    kernel_rep,
    path_matrix,
    proj_interval,
    search_labelling,
    TauContext,
    _block_coefficient,
    _block_matrix,
    _canonical_hom,
    _ClusterBuilder,
    _hom_coefficient,
    _identify_interval,
    _irreducible_maps,
    _labelling,
)
from quotcat.errors import GenerationError
from quotcat.fincat import (
    Obj,
    all_rigid_supports,
    approximation,
    check_serre_symmetry,
    is_cluster_tilting,
    is_rigid,
    _word_generators,
    op_morphism,
    opposite,
    perp,
    postcompose_matrix,
    validate_category,
)
from quotcat.linalg import GF, QQ, Matrix, RowSpace, unit_vector

from test_golden_reports import GENERATED

GENERATED_IDS = [f"A{n}{'' if o is None else o}/{f!r}" for n, o, f in GENERATED]


@pytest.fixture(scope="module")
def A3():
    return build_cluster_category(3)


@pytest.fixture(scope="module")
def A2():
    return build_cluster_category(2)


# -- quiver representations ------------------------------------------------


def linear_quiver(n):
    return QuiverAn(n, "<" * (n - 1))


def indecomposable_reps(quiver, field=QQ):
    """The n(n+1)/2 interval representations, ordered by (a, b)."""
    return [interval_rep(quiver, field, a, b) for a in range(1, quiver.n + 1) for b in range(a, quiver.n + 1)]


def is_projective(quiver, iv):
    return any(proj_interval(quiver, v) == iv for v in range(1, quiver.n + 1))


def nakayama_p_to_i(ctx, h, src_parts, tgt_parts):
    """Nakayama image of h from the sum of the P_v, v in src_parts, to the
    sum over tgt_parts: each (a -> b) block's multiple of the canonical map
    P_a -> P_b becomes that multiple of the canonical map I_a -> I_b."""
    nak = ctx.nak
    quiver, field = nak.quiver, nak.field
    _, p_offs_s = direct_sum([nak.P[a] for a in src_parts], quiver, field)
    _, p_offs_t = direct_sum([nak.P[b] for b in tgt_parts], quiver, field)
    S, offs_s = direct_sum([nak.I[a] for a in src_parts], quiver, field)
    T, offs_t = direct_sum([nak.I[b] for b in tgt_parts], quiver, field)
    blocks = [[] for _ in range(quiver.n)]
    for bi, b in enumerate(tgt_parts):
        for ai, a in enumerate(src_parts):
            coeff = _block_coefficient(h, p_offs_s[ai], p_offs_t[bi], nak.P[a], nak.P[b], nak.delta[(a, b)])
            if coeff != field.zero:
                image = nak.gamma[(a, b)].scale(coeff)
                for v in range(quiver.n):
                    blocks[v].append((offs_t[bi][v], offs_s[ai][v], image.mats[v]))
    return RepHom(S, T, [_block_matrix(field, T.dims[v], S.dims[v], blocks[v]) for v in range(quiver.n)])


# -- coefficients against a canonical hom ------------------------------------


def _p3_hom(field, vec):
    """The family of vertex maps P3 -> P3 of C(A_3)'s linear quiver with
    flattened coordinates vec, a module map or not."""
    P3 = interval_rep(linear_quiver(3), field, 1, 3)
    return hom_from_flat(P3, P3, [field.of(x) for x in vec])


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["Q", "F5"])
def test_hom_coefficient_of_a_multiple_is_its_scalar(field):
    P3 = interval_rep(linear_quiver(3), field, 1, 3)
    assert _canonical_hom(P3, P3).flatten() == [field.one] * 3
    # a canon whose first entry is zero is read at its first nonzero entry
    for canon in (_canonical_hom(P3, P3), _p3_hom(field, [0, 2, 3])):
        for c in (0, 1, 3, -2):
            assert _hom_coefficient(canon.scale(c), canon) == field.of(c)


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["Q", "F5"])
def test_hom_coefficient_refuses_a_non_multiple(field):
    canon = _p3_hom(field, [0, 2, 3])
    for vec in ([0, 2, 4], [1, 2, 3], [0, 0, 3], [0, 2, 0]):
        with pytest.raises(GenerationError, match="hom is not a multiple of the canonical basis"):
            _hom_coefficient(_p3_hom(field, vec), canon)


def test_hom_coefficient_in_a_zero_space():
    q = linear_quiver(3)
    A, B = interval_rep(q, QQ, 2, 3), interval_rep(q, QQ, 1, 2)  # Hom(I2, P2) = 0
    assert _canonical_hom(A, B) is None and hom_flat_dim(A, B) == 1
    assert _hom_coefficient(hom_from_flat(A, B, [QQ.zero]), None) == QQ.zero
    with pytest.raises(GenerationError, match="nonzero hom in zero space"):
        _hom_coefficient(hom_from_flat(A, B, [QQ.one]), None)


def tau_interval(ctx, iv):
    """AR translate of a non-projective interval on the projective side,
    independent of the tau^{-1} the generator computes: tau M is the kernel
    of the Nakayama image of the projective presentation of M."""
    quiver, field = ctx.quiver, ctx.field
    pres = Presentation(quiver, field, interval_rep(quiver, field, *iv))
    kpres = Presentation(quiver, field, pres.K)  # its cover is an iso: K is projective
    assert kpres.pi.is_iso()
    K, _ = kernel_rep(nakayama_p_to_i(ctx, pres.iota.compose(kpres.pi), kpres.parts, pres.parts))
    return _identify_interval(K)


def tau(M, ctx):
    """AR translate of an interval module; None for a projective."""
    iv = _identify_interval(M)
    return None if is_projective(M.quiver, iv) else interval_rep(M.quiver, M.field, *tau_interval(ctx, iv))


def tau_inv(M, ctx):
    """Inverse AR translate of an interval module; None for an injective."""
    iv = _identify_interval(M)
    return None if ctx.is_injective(iv) else ctx.tau_inv_std(iv)


def ext1_rep(M, N):
    """dim Ext^1(M, N) via a projective presentation of M."""
    pres = Presentation(M.quiver, M.field, M)
    rs = RowSpace(M.field, hom_flat_dim(pres.K, N))
    for g in hom_rep(pres.P0, N):
        rs.add(g.compose(pres.iota).flatten())
    return len(hom_rep(pres.K, N)) - rs.dim


def test_indecomposable_rep_counts():
    assert len(indecomposable_reps(linear_quiver(1))) == 1
    assert indecomposable_reps(linear_quiver(1))[0].dims == (1,)
    assert len(indecomposable_reps(linear_quiver(3))) == 6


def test_projective_injective_simple_intervals():
    q = linear_quiver(3)
    assert proj_interval(q, 1) == (1, 1)
    assert proj_interval(q, 3) == (1, 3)
    assert inj_interval(q, 1) == (1, 3)
    assert inj_interval(q, 3) == (3, 3)
    q2 = QuiverAn(3, ">>")
    assert proj_interval(q2, 1) == (1, 3)
    assert inj_interval(q2, 3) == (1, 3)
    assert inj_interval(q2, 1) == (1, 1)


def test_hom_rep_contains_identity():
    q = linear_quiver(3)
    for a in range(1, 4):
        for b in range(a, 4):
            M = interval_rep(q, QQ, a, b)
            basis = hom_rep(M, M)
            assert len(basis) == 1  # intervals are bricks


def test_ext1_vanishes_on_projectives():
    q = linear_quiver(3)
    P3 = interval_rep(q, QQ, 1, 3)
    for a in range(1, 4):
        for b in range(a, 4):
            assert ext1_rep(P3, interval_rep(q, QQ, a, b)) == 0


def test_ext1_ar_duality_s2_pairs():
    # dim Ext^1(M, N) = dim Hom(N, tau M) on the simple-at-2 related pairs
    q = linear_quiver(3)
    ctx = TauContext(q, QQ)
    S2 = interval_rep(q, QQ, 2, 2)
    for a in range(1, 4):
        for b in range(a, 4):
            N = interval_rep(q, QQ, a, b)
            t = tau(S2, ctx)
            assert ext1_rep(S2, N) == len(hom_rep(N, t))
            tN = tau(N, ctx)
            expected = len(hom_rep(S2, tN)) if tN is not None else 0
            assert ext1_rep(N, S2) == expected


def test_tau_projective_undefined_and_inverse():
    q = linear_quiver(3)
    ctx = TauContext(q, QQ)
    assert tau(interval_rep(q, QQ, 1, 2), ctx) is None  # P2
    assert tau_inv(interval_rep(q, QQ, 2, 3), ctx) is None  # I2
    # tau and tau^{-1} are mutually inverse away from the boundary cases
    S2 = interval_rep(q, QQ, 2, 2)
    assert tau(tau_inv(S2, ctx), ctx).dims == S2.dims


@pytest.mark.parametrize("orientation", ["".join(o) for o in itertools.product("<>", repeat=3)])
def test_nakayama_transport_round_trip(orientation):
    # the map the projective-side tau carries P -> I, and the generator's
    # transport carries back I -> P
    q = QuiverAn(4, orientation)
    ctx = TauContext(q, QQ)
    for a in range(1, 5):
        for b in range(a, 5):
            if is_projective(q, (a, b)):
                continue
            pres = Presentation(q, QQ, interval_rep(q, QQ, a, b))
            kpres = Presentation(q, QQ, pres.K)
            inc = pres.iota.compose(kpres.pi)
            nu_inc = nakayama_p_to_i(ctx, inc, kpres.parts, pres.parts)
            assert ctx.nak.transport(nu_inc, kpres.parts, pres.parts) == inc


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_sigma_is_tau_on_non_projective_modules(n):
    # sigma is read off the tau^{-1} table; the projective-side tau agrees
    # with it on every non-projective interval of every orientation of A_n
    for orientation in ("".join(o) for o in itertools.product("<>", repeat=n - 1)):
        builder = _ClusterBuilder(n, orientation, QQ)
        index = {k: i for i, k in enumerate(builder.keys)}
        sigma = builder.sigma_perm()
        for iv in builder.intervals:
            if not is_projective(builder.quiver, iv):
                want = index[("mod",) + tau_interval(builder.ctx, iv)]
                assert sigma[index[("mod",) + iv]] == want, (orientation, iv)


# -- the injective side against a direct construction ----------------------
#
# The generator reaches injective envelopes and cokernels through the duality
# D = Hom_k(-, k): an injective copresentation of N is D of a projective
# presentation of D N over the opposite quiver, and a cokernel is D of a
# kernel.  The reference below builds the same things on the injective side
# itself: socle bases and functionals on them, maps into injectives, and a
# cokernel read off the complement indices of the image.


def socle_vertex_basis(M, v):
    """Basis of the socle component at v: joint kernel of outgoing arrows."""
    rows = []
    for k, (s, t) in enumerate(M.quiver.arrows()):
        if s == v:
            rows.extend(M.mats[k].data)
    return Matrix(M.field, len(rows), M.dims[v - 1], rows).kernel_basis()


def hom_to_injective(M, v, functional, I_v):
    """The hom M -> I_v matching a linear functional on M_v."""
    row = Matrix(M.field, 1, len(functional), [functional])
    mats = []
    for w in range(1, M.quiver.n + 1):
        if I_v.dim_at(w) == 0:
            mats.append(Matrix.zeros(M.field, 0, M.dims[w - 1]))
        else:
            mats.append(row * path_matrix(M, w, v))
    return RepHom(M, I_v, mats)


def inj_envelope(quiver, field, M):
    """Injective envelope of M: summand vertices, embedding, sum rep."""
    parts = []
    funcs = []
    for v in range(1, quiver.n + 1):
        soc = socle_vertex_basis(M, v)
        soc_m = Matrix(field, len(soc), M.dims[v - 1], soc)
        for b in range(len(soc)):
            parts.append(v)
            funcs.append(soc_m.solve(unit_vector(field, len(soc), b)))  # dual basis on the socle
    ireps = [interval_rep(quiver, field, *inj_interval(quiver, v)) for v in parts]
    Isum, offsets = direct_sum(ireps, quiver, field)
    homs = [hom_to_injective(M, v, xi, irep) for v, xi, irep in zip(parts, funcs, ireps)]
    mats = []
    for w in range(quiver.n):
        blocks = [(off[w], 0, h.mats[w]) for h, off in zip(homs, offsets)]
        mats.append(_block_matrix(field, Isum.dims[w], M.dims[w], blocks))
    return parts, RepHom(M, Isum, mats), Isum


def cokernel_by_complement(f):
    """Cokernel with projection: reduce mod the image at each vertex, then
    read the coordinates at the image's complement indices."""
    N, field = f.target, f.target.field
    proj_mats, sect_mats = [], []
    for v in range(N.quiver.n):
        m = f.mats[v]
        rs = RowSpace.from_rows(field, N.dims[v], [m.col(j) for j in range(m.ncols)])
        comp = rs.complement_indices()
        cols = [rs.reduce(unit_vector(field, N.dims[v], j)) for j in range(N.dims[v])]
        proj_mats.append(Matrix.from_columns(field, len(comp), [[c[i] for i in comp] for c in cols]))
        sect_mats.append(Matrix.from_columns(field, N.dims[v], [unit_vector(field, N.dims[v], i) for i in comp]))
    cmats = [proj_mats[t - 1] * a * sect_mats[s - 1] for (s, t), a in zip(N.quiver.arrows(), N.mats)]
    C = Rep(N.quiver, field, [m.nrows for m in proj_mats], cmats)
    return C, RepHom(N, C, proj_mats)


def copresentation_by_envelopes(quiver, field, N):
    """The fields of Copresentation, from two injective envelopes."""
    i0_parts, iota, I0 = inj_envelope(quiver, field, N)
    C, proj = cokernel_by_complement(iota)
    i1_parts, eps, I1 = inj_envelope(quiver, field, C)
    return {"i0_parts": i0_parts, "iota": iota, "I0": I0, "i1_parts": i1_parts, "I1": I1, "d": eps.compose(proj)}


FIELDS = (QQ, GF(2), GF(3))


def all_quivers(top):
    return [QuiverAn(n, "".join(o)) for n in range(1, top + 1) for o in itertools.product("<>", repeat=n - 1)]


def test_copresentation_is_the_injective_envelope_construction():
    # every interval module of every orientation of A_1..A_5, over Q, F2, F3
    count = 0
    for field in FIELDS:
        for q in all_quivers(5):
            for N in indecomposable_reps(q, field):
                cop = Copresentation(q, field, N)
                got = {key: getattr(cop, key) for key in ("i0_parts", "iota", "I0", "i1_parts", "I1", "d")}
                assert got == copresentation_by_envelopes(q, field, N), (q, field, N)
                assert dual_rep(dual_rep(N)) == N
                count += 1
    assert count == 1053


def random_interval_sum(rng, q, field):
    ivs = [tuple(sorted(rng.choices(range(1, q.n + 1), k=2))) for _ in range(rng.randint(1, 3))]
    return direct_sum([interval_rep(q, field, *iv) for iv in ivs], q, field)[0]


def test_cokernel_is_the_complement_index_cokernel():
    # seeded random maps between sums of one to three intervals
    rng = random.Random(20111)
    quivers = all_quivers(5)
    for _ in range(400):
        field, q = rng.choice(FIELDS), rng.choice(quivers)
        M, N = random_interval_sum(rng, q, field), random_interval_sum(rng, q, field)
        f = hom_from_flat(M, N, [field.zero] * hom_flat_dim(M, N))
        for b in hom_rep(M, N):
            f = RepHom(M, N, [x + y for x, y in zip(f.mats, b.scale(field.of(rng.randint(-2, 2))).mats)])
        C, proj = cokernel_rep(f)
        assert (C, proj) == cokernel_by_complement(f), (q, field, M, N)
        assert proj.compose(f) == hom_from_flat(M, C, [field.zero] * hom_flat_dim(M, C))
        assert dual_rep(dual_rep(M)) == M and dual_rep(dual_rep(N)) == N
        assert dual_hom(dual_hom(f)) == f


# -- generated categories ----------------------------------------------------


@pytest.mark.parametrize("n,count", [(1, 2), (2, 5), (3, 9), (4, 14)])
def test_indecomposable_counts(n, count):
    P = build_cluster_category(n)
    assert P.n == count == n * (n + 3) // 2


def test_generated_category_validates(A3):
    assert validate_category(A3).ok


def test_two_cy_symmetry(A3):
    assert check_serre_symmetry(A3) == []


def test_all_hom_dims_at_most_one(A3):
    assert all(A3.hom_dim(i, j) <= 1 for i in range(A3.n) for j in range(A3.n))


def test_oracle_table_matches_generated(A3):
    # independent diff: re-derive the full table through the stored labelling
    model = DiagonalModel(3)
    lab = {name: tuple(d) for name, d in A3.metadata["labelling"].items()}
    for x in A3.objects:
        for y in A3.objects:
            expected = model.expected_dim(lab[x], lab[y])
            assert A3.hom_dim(A3.index(x), A3.index(y)) == expected


def test_oracle_trivial_cases():
    model = DiagonalModel(3)
    d = model.diagonals[0]
    assert model.expected_dim(d, d) == 1  # identity comes from the twisted self-crossing
    table = diagonal_dimension_oracle(3)
    assert table[((0, 2), (2, 4))] == 0  # share a vertex after the twist: no crossing
    assert len(model.diagonals) == 9
    rotated = {model.rotate(x) for x in model.diagonals}
    assert rotated == set(model.diagonals)


def test_labelling_rejects_a_table_no_diagonals_fit(A3):
    dims = [[A3.hom_dim(i, j) for j in range(A3.n)] for i in range(A3.n)]
    stored = [tuple(A3.metadata["labelling"][name]) for name in A3.objects]
    assert _labelling(3, A3.sigma, dims) == stored
    dims[0][1] = 1 - dims[0][1]
    assert search_labelling(DiagonalModel(3), A3.sigma, dims) is None
    with pytest.raises(GenerationError):
        _labelling(3, A3.sigma, dims)


def _fan(n):
    """The documented convention for the linear orientation: [a, b] and SP_i."""
    lab = {f"M[{a},{b}]": (a - 1, b + 1) for a in range(1, n + 1) for b in range(a, n + 1)}
    lab.update({f"SP{i}": (i, n + 2) for i in range(1, n + 1)})
    return lab


@pytest.mark.parametrize("n", range(1, 7))
def test_linear_orientation_is_labelled_by_the_fan(n):
    P = build_cluster_category(n)
    labelling = P.metadata["labelling"]
    assert len(labelling) == P.n == len(_fan(n))
    for name, diagonal in _fan(n).items():
        assert tuple(labelling[P.objects[resolve_object_name(P, name)]]) == diagonal


def test_nonlinear_orientations_build():
    for orient in (">>", "><", "<>"):
        P = build_cluster_category(3, orient)
        assert P.n == 9
        assert validate_category(P).ok
        assert check_serre_symmetry(P) == []


def test_prime_field_generation():
    P = build_cluster_category(3, field=GF(101))
    assert P.n == 9
    assert validate_category(P).ok


# -- rigidity, cluster tilting, section-6 scenario ---------------------------


def test_perp_empty_is_everything(A3):
    assert perp(A3, set()) == set(range(9))


def test_perp_section6(A3):
    # U = add {P2, P3, SP3} has U-perp with indecomposables P1, P2, S2
    U = {A3.index("P2"), A3.index("P3"), A3.index("SP3")}
    got = {A3.objects[i] for i in perp(A3, U)}
    assert got == {"P1", "P2", "S2"}


def test_perp_brute_force_scan(A2):
    # exhaustive hom_dim scan oracle, one indecomposable at a time
    for t in range(A2.n):
        expected = {
            c for c in range(A2.n) if A2.hom_dim(t, A2.sigma[c]) == 0
        }
        assert perp(A2, {t}) == expected


def test_perp_antitone(A3):
    small = {A3.index("P2")}
    large = small | {A3.index("P3")}
    assert perp(A3, large) <= perp(A3, small)


def test_rigid_examples(A3):
    assert is_rigid(A3, Obj((0,) * A3.n))
    T = A3.obj({"P1": 1, "P2": 1, "P3": 1})
    assert is_rigid(A3, T)
    # two crossing diagonals: P1 = {0,2} and S2 = {1,3} cross
    assert not is_rigid(A3, A3.obj({"P1": 1, "S2": 1}))


def test_cluster_tilting_examples(A3):
    assert is_cluster_tilting(A3, A3.obj({"P1": 1, "P2": 1, "P3": 1}))
    assert not is_cluster_tilting(A3, A3.obj({"P1": 1, "P2": 1}))
    assert not is_cluster_tilting(A3, Obj((0,) * A3.n))


def test_cluster_tilting_objects_have_n_summands(A3):
    # exhaustive scan: maximal rigid = cluster tilting = n summands in type A
    for supp in all_rigid_supports(A3, 4):
        T = A3.obj({A3.objects[i]: 1 for i in supp})
        assert len(supp) <= 3
        assert is_cluster_tilting(A3, T) == (len(supp) == 3)


def test_rigid_counts_hexagon(A3):
    sizes = {}
    for supp in all_rigid_supports(A3, 3):
        sizes[len(supp)] = sizes.get(len(supp), 0) + 1
    # 9 diagonals, 21 non-crossing pairs, 14 triangulations of the hexagon
    assert sizes == {1: 9, 2: 21, 3: 14}


def test_approximation_minimal_and_covering(A3):
    T = ["P1", "P2", "P3"]
    S = [A3.index(t) for t in T]
    for name in A3.objects:
        C = A3.single(name)
        a = approximation(A3, S, C)
        # surjectivity of Hom(t, X0) -> Hom(t, C) re-verified by rank
        for t in S:
            Z = A3.single(t)
            m = postcompose_matrix(A3, a, Z)
            assert m.rank() == A3.hom_space_dim(Z, C)
        # greedy deletion in the reverse order must give the same multiplicities
        b = _reverse_greedy(A3, S, C)
        assert a.source.mult == b
        if name in T:
            assert a.source == C


def _reverse_greedy(P, S, C):
    from quotcat.fincat import _approx_is_covering, _delete_copy

    mult = [0] * P.n
    for x in S:
        mult[x] = P.hom_space_dim(P.single(x), C)
    from quotcat.fincat import Morphism, Obj

    X0 = Obj(tuple(mult))
    blocks = [[] for _ in C.copies()]
    for x in S:
        for bm in P.hom_basis(P.single(x), C):
            for t in range(len(C.copies())):
                blocks[t].append(bm.blocks[t][0])
    a = Morphism(P, X0, C, blocks)
    changed = True
    while changed:
        changed = False
        for pos in reversed(range(len(a.source.copies()))):
            trial = _delete_copy(P, a, pos)
            if _approx_is_covering(P, S, trial):
                a = trial
                changed = True
                break
    return a.source.mult


def test_left_approximation(A3):
    # a minimal left approximation is a right one in the opposite category
    S = [A3.index(t) for t in ("P1", "P2", "P3")]
    C = A3.single("S2")
    a = op_morphism(A3, approximation(opposite(A3), S, C))
    assert a.source == C
    from quotcat.fincat import precompose_matrix

    for t in S:
        Z = A3.single(t)
        m = precompose_matrix(A3, a, Z)
        assert m.rank() == A3.hom_space_dim(C, Z)


def test_a2_is_the_pentagon_category(A2):
    # independent structural model: C(A_2) is a 5-cycle of arrows where
    # every composite of two consecutive arrows vanishes
    P = A2
    assert P.n == 5
    succ = {}
    for i in range(P.n):
        targets = [j for j in range(P.n) if j != i and P.hom_dim(i, j) == 1]
        assert len(targets) == 1  # exactly one outgoing arrow
        succ[i] = targets[0]
    # one 5-cycle, not several small ones
    seen, cur = set(), 0
    while cur not in seen:
        seen.add(cur)
        cur = succ[cur]
    assert len(seen) == 5
    # consecutive composites vanish
    from quotcat.fincat import compose

    for i in range(P.n):
        j = succ[i]
        k = succ[j]
        f = P.basis_morphism(i, j, 0)
        g = P.basis_morphism(j, k, 0)
        assert compose(P, g, f).is_zero()


def test_nonlinear_orientation_full_pipeline():
    # the whole theorem pipeline holds for a non-default orientation too
    from quotcat.preabelian import Budget
    from quotcat.verify import run_verification

    P = build_cluster_category(3, ">>")
    T = P.obj({P.objects[i]: 1 for i in range(P.n) if P.objects[i].startswith("P")})
    assert is_cluster_tilting(P, T)
    rep = run_verification(P, t_spec=T, budget=Budget(scan_pairs_cap=50))
    assert rep["overall"] == "pass", rep["clauses"]


def test_all_orientations_a4_generate():
    import itertools

    for bits in itertools.product("<>", repeat=3):
        P = build_cluster_category(4, "".join(bits))
        assert P.n == 14  # internal checks run during generation


def test_small_prime_fields_generate_and_quotient():
    # even characteristic 2 passes the per-instance certification, and the
    # no-cokernel counterexample stays certified (prefilter is field-free)
    from quotcat.preabelian import cokernel
    from quotcat.quotient import build_quotient

    for p in (2, 3):
        P = build_cluster_category(3, field=GF(p))
        q6 = build_quotient(P, subcat={"P1", "P2", "S2"})
        assert validate_category(q6.presentation).ok
        f6 = q6.project(P.basis_morphism(P.index("P3"), P.index("I2"), 0))
        assert not f6.is_zero()
        assert cokernel(q6.presentation, f6) is None


# -- structure constants from the irreducible maps -------------------------


def built(n, orientation=None, field=QQ):
    """The builder after build(), and the presentation it built."""
    builder = _ClusterBuilder(n, orientation, field)
    return builder, builder.build()


def irreducible_maps(P):
    """The builder's G, read off the labelling P's metadata records."""
    labelling = [tuple(P.metadata["labelling"][name]) for name in P.objects]
    dims = [[P.hom_dim(i, j) for j in range(P.n)] for i in range(P.n)]
    return _irreducible_maps(P.metadata["n"], labelling, dims)


@pytest.fixture(scope="module", params=GENERATED, ids=GENERATED_IDS)
def generated(request):
    return built(*request.param)


def test_every_constant_is_the_basis_product(generated):
    # the table is filled from the products s o y with s irreducible, and
    # validation's generator triples read those same products, so every
    # constant is compared here with compose_basis, the product of module
    # maps and cocycles
    builder, P = generated
    keys, zero = builder.keys, P.field.zero
    for i, j, k in itertools.product(range(P.n), repeat=3):
        dij, djk, dik = P.hom_dim(i, j), P.hom_dim(j, k), P.hom_dim(i, k)
        if not (dij and djk and dik):
            continue
        table = P.comp.get((i, j, k))
        for a, b in itertools.product(range(dij), range(djk)):
            got = table[a][b] if table is not None else [zero] * dik
            assert got == builder.compose_basis(keys[i], keys[j], keys[k], a, b), (i, j, k, a, b)


def test_the_labelling_gives_the_irreducible_maps(generated):
    P = generated[1]
    assert irreducible_maps(P) == _word_generators(P)


def test_one_missing_irreducible_map_stops_generation(A3, monkeypatch):
    gens = irreducible_maps(A3)
    tables = []
    monkeypatch.setattr(clustergen, "structure_constants", lambda *args: tables.append(args))
    for drop in gens:
        monkeypatch.setattr(
            clustergen, "_irreducible_maps", lambda *args: {ij: g for ij, g in gens.items() if ij != drop}
        )
        with pytest.raises(GenerationError, match="do not span"):
            build_cluster_category(3)
    assert tables == []


def test_generation_asks_only_the_products_with_an_irreducible_map(monkeypatch):
    asked = []
    compose_basis = _ClusterBuilder.compose_basis
    monkeypatch.setattr(
        _ClusterBuilder, "compose_basis", lambda self, *args: (asked.append(args), compose_basis(self, *args))[1]
    )
    P = built(5)[1]
    dim = P.hom_dim
    expected = sum(
        dim(i, j) * len(g) for (j, k), g in irreducible_maps(P).items() for i in range(P.n) if dim(i, k)
    )
    # every basis product of the full table was 508 calls
    assert len(asked) == expected == 160
