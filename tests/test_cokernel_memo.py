"""The certified kernel/cokernel search does each Q-only computation once.

The candidate targets of a cokernel depend only on the presentation and the
target counts, so `cokernel` enumerates them once per (presentation,
targets) and keeps the list on the presentation.  The target counts and the
subspace {c : c o f = 0} come from one pass of `precompose_matrices` over f,
and the rank conditions on a tried c share one pass over c.  The shape test
of `search_open_conditions` runs only after the random phase, so a search
found at random builds no probe matrix.  Within a verdict each candidate
search runs once per (Y, M, subspace), a search draws only the tries it
makes, a zero draw is not tried, and the over-cap fallback goes on with
the seed's stream.  These tests pin all of these, and check on random
morphisms that the certificates hold and do not depend on the memo, and
that the pullback legs read off the kernel, like every split_rows, are the
projections composed with the map, whichever pairs were asked before.  A
cokernel of a map the epi table already holds as epi makes no pass, and a
pullback along an identity or of a mono with itself is built without a
kernel; those cases are pinned to their constructed answers.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import arrow_category
from quotcat import preabelian
from quotcat.clustergen import build_cluster_category
from quotcat import fincat
from quotcat.fincat import (
    Morphism,
    basis_morphisms,
    compose,
    postcompose_matrix,
    precompose_matrix,
    split_rows,
    stack_cols,
    sum_copy_map,
    sum_obj,
)
from quotcat.linalg import GF, QQ
from quotcat.preabelian import (
    Budget,
    RankCondition,
    SearchResult,
    _combine,
    cokernel,
    epi_conditions,
    is_epi,
    is_mono,
    kernel,
    pullback,
    search_open_conditions,
)
from quotcat.quotient import build_quotient

CAPPED = Budget(scan_pairs_cap=120)


@pytest.fixture(scope="module")
def A3():
    return build_cluster_category(3)


def _quotient(A3, names):
    return build_quotient(A3, A3.obj({s: 1 for s in names})).presentation


# -- one enumeration per (presentation, targets) ------------------------------


@pytest.mark.parametrize("t", [("P1", "P3"), ("P2",)])
def test_each_multiplicity_list_is_enumerated_once(A3, monkeypatch, t):
    # kernels and pushouts run the search in Q^op, so keys name the presentation
    Q = _quotient(A3, t)
    searched = []
    keys = []

    def search(P, *args, **kwargs):
        searched.append(P)
        try:
            return run_cokernel(P, *args, **kwargs)
        finally:
            searched.pop()

    def enumerate_(down, floor, up, ceiling):
        keys.append((id(searched[-1]), tuple(floor)))
        return run_multiplicities(down, floor, up, ceiling)

    run_cokernel, run_multiplicities = preabelian.cokernel, preabelian.multiplicities
    monkeypatch.setattr(preabelian, "cokernel", search)
    monkeypatch.setattr(preabelian, "multiplicities", enumerate_)
    rep = preabelian.scan_properties(Q, CAPPED)
    assert all(c.status == "pass" for c in rep.clauses.values())
    assert keys and len(keys) == len(set(keys))
    # a second scan reaches the same targets and reads every kept list
    asked = len(keys)
    Q.clear_verdict_tables()
    preabelian.scan_properties(Q, CAPPED)
    assert len(keys) == asked


# -- one pass of precompose_matrices per morphism ---------------------------------


@pytest.mark.parametrize("t", [("P1", "P3"), ("P2",)])
def test_one_pass_per_cokernel_and_per_tried_map(A3, monkeypatch, t):
    Q = _quotient(A3, t)
    passes = []

    def counted(P, f):
        passes.append(f)  # held, so no two entries share an id
        return run(P, f)

    def assembled(*args):
        raise AssertionError("the cokernel search assembles no block-diagonal matrix")

    run = fincat.precompose_matrices
    monkeypatch.setattr(preabelian, "precompose_matrices", counted)
    monkeypatch.setattr(preabelian, "precompose_matrix", assembled)
    basis = [f for _, _, _, f in fincat.basis_morphisms(Q)]
    # is_epi keeps its answer, so the first epi basis map's cokernel is read
    # off the epi table
    next(f for f in basis if is_epi(Q, f))
    held = 0
    for f in basis:
        passes.clear()
        known = Q._epis.get(f)
        res = cokernel(Q, f)
        assert res is not None
        if known:
            # an epi the table holds (an earlier witness): (0, Y -> 0), no pass
            held += 1
            zero = Q.obj([0] * Q.n)
            assert passes == [] and res == (zero, Q.zero_morphism(f.target, zero))
            continue
        # the targets and the subspace: one pass over f, and its first
        assert [p for p in passes if p is f] == [f] and passes[0] is f
        # each tried c (the witness among them): one pass for every inj-into-z
        assert len({id(p) for p in passes}) == len(passes)
        # the pass decides whether f is epi; a searched witness is kept as epi
        assert Q._epis[f] == res[0].is_zero()
        assert res[0].is_zero() or Q._epis[res[1]] is True
    assert held


# -- the shape test runs after the random phase ---------------------------------


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=["QQ", "GF101"])
def test_shape_test_certifies_what_no_grid_could(field):
    # rank 2 of a 1 x 1 matrix: past the random phase the shape test certifies
    # empty before the grid, which grid_cap=1 would refuse
    Q = arrow_category(field)
    x, y = Q.single(0), Q.single(1)
    cond = RankCondition(lambda m: precompose_matrix(Q, m, y), 2)
    res = search_open_conditions(Q, x, y, [b.to_vector() for b in Q.hom_basis(x, y)], [cond], Budget(retries=10, grid_cap=1), 0)
    assert res.status == SearchResult.CERTIFIED_EMPTY


def test_search_found_at_random_builds_no_probe():
    Q = arrow_category()
    x, y = Q.single(0), Q.single(1)
    built = []

    def condition(Z):
        def builder(m):
            built.append((Z, m))
            return precompose_matrix(Q, m, Z)

        return RankCondition(builder, 1)

    conditions = [condition(y), condition(Q.single(1) + Q.single(1))]
    res = search_open_conditions(Q, x, y, [b.to_vector() for b in Q.hom_basis(x, y)], conditions, Budget(), 0)
    assert res.status == SearchResult.FOUND and not res.witness.is_zero()
    # one build per condition, each for the first (and found) combination
    assert built == [(y, res.witness), (Q.single(1) + Q.single(1), res.witness)]


# -- certificates on random morphisms ---------------------------------------------


@pytest.fixture(scope="module")
def warm(A3):
    """One quotient reused across examples, so its memo stays warm."""
    return _quotient(A3, ("P1", "P3"))


def _small_objects(Q):
    """The sums of one or two indecomposables."""
    singles = [Q.single(i) for i in range(Q.n)]
    return singles + [x + y for i, x in enumerate(singles) for y in singles[i:]]


@st.composite
def morphisms(draw, Q, into=None):
    """A morphism between sums of at most two indecomposables with at least
    two nonzero coordinates, so not a multiple of a basis morphism.

    The pair of objects is drawn among those with dim Hom >= 2, and the
    vector is built with two or more nonzero coordinates, so nothing is
    filtered out.  into fixes the target.
    """
    objs = _small_objects(Q)
    pairs = [(X, Y) for X in objs for Y in ([into] if into else objs) if Q.hom_space_dim(X, Y) >= 2]
    X, Y = draw(st.sampled_from(pairs))
    d = Q.hom_space_dim(X, Y)
    support = draw(st.lists(st.integers(0, d - 1), min_size=2, max_size=d, unique=True))
    vec = [0] * d
    for pos in support:
        vec[pos] = draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))
    return Morphism.from_vector(Q, X, Y, [Q.field.of(c) for c in vec])


def _rank(m):
    return m.rank() if m.nrows and m.ncols else 0


def _check_cokernel(Q, f, res):
    M, c = res
    Y = f.target
    assert compose(Q, c, f).is_zero()
    assert is_epi(Q, c)
    for z in range(Q.n):
        Z = Q.single(z)
        assert Q.hom_space_dim(M, Z) == Q.hom_space_dim(Y, Z) - _rank(precompose_matrix(Q, f, Z))


def _check_kernel(Q, f, res):
    K, k = res
    X = f.source
    assert compose(Q, f, k).is_zero()
    assert is_mono(Q, k)
    for z in range(Q.n):
        Z = Q.single(z)
        assert Q.hom_space_dim(Z, K) == Q.hom_space_dim(Z, X) - _rank(postcompose_matrix(Q, f, Z))


@settings(max_examples=60)
@given(data=st.data())
def test_certificates_on_random_morphisms(A3, warm, data):
    f = data.draw(morphisms(warm))
    cold = _quotient(A3, ("P1", "P3"))
    f_cold = Morphism.from_vector(cold, f.source, f.target, f.to_vector())
    for search, check in ((cokernel, _check_cokernel), (kernel, _check_kernel)):
        res = search(warm, f)
        assert res is not None
        check(warm, f, res)
        # the memo is transparent: a cold presentation gives the same answer
        res_cold = search(cold, f_cold)
        assert (res_cold[0], res_cold[1].to_vector()) == (res[0], res[1].to_vector())


def _sum_projections(P, parts):
    """The canonical projections of the direct sum of parts, one per part,
    as maps with identity and zero blocks."""
    S = sum_obj(parts)
    z = P.field.zero
    cmap = sum_copy_map(parts)
    return [
        Morphism(
            P,
            S,
            part,
            [
                [
                    list(P.identities[j]) if (qi, cpos) == (pi, t) else [z] * P.hom_dim(i, j)
                    for i, (qi, cpos) in zip(S.copies(), cmap)
                ]
                for t, j in enumerate(part.copies())
            ],
        )
        for pi, part in enumerate(parts)
    ]


def _constructed_square(Q, c, d):
    """(A, a, b) of the pullback of (c, d) when it is along an identity or of
    a mono with itself, which pullback builds without a kernel; else None."""
    D = c.target
    if d == Q.identity(D):
        return c.source, Q.identity(c.source), c
    if c == Q.identity(D):
        return d.source, d, Q.identity(d.source)
    if c == d and is_mono(Q, c):
        return c.source, Q.identity(c.source), Q.identity(c.source)
    return None


@settings(max_examples=40)
@given(data=st.data())
def test_pullback_legs_are_the_projections_of_the_kernel(warm, data):
    # a trivial pair's square is the constructed one; every other pair's
    # legs are the projections of the kernel
    c = data.draw(morphisms(warm))
    d = data.draw(st.one_of(morphisms(warm, into=c.target), st.just(c)))
    sq = pullback(warm, c, d)
    built = _constructed_square(warm, c, d)
    if built is not None:
        assert (sq.A, sq.a, sq.b) == built
    else:
        parts = [c.source, d.source]
        _, j = kernel(warm, stack_cols(warm, [c, d.scale(-1)]))
        assert [sq.a, sq.b] == [compose(warm, proj, j) for proj in _sum_projections(warm, parts)]
    # split_rows is the projections composed with any map into a sum
    objs = _small_objects(warm)
    X, W = data.draw(st.sampled_from(objs)), data.draw(st.sampled_from(objs))
    A = data.draw(st.sampled_from([A for A in objs if warm.hom_space_dim(A, X + W)]))
    dim = warm.hom_space_dim(A, X + W)
    vec = data.draw(st.lists(st.sampled_from([0, -2, -1, 1, 3]), min_size=dim, max_size=dim))
    h = Morphism.from_vector(warm, A, X + W, vec)
    assert split_rows(warm, h, [X, W]) == [compose(warm, proj, h) for proj in _sum_projections(warm, [X, W])]


def _pairs_into_common_targets(Q, rng, n):
    """n pairs (c, d) of maps between sums of at most two indecomposables,
    with a common target and coordinates drawn from -3..3."""
    objs = _small_objects(Q)
    pairs = []
    while len(pairs) < n:
        D = rng.choice(objs)
        sources = [X for X in objs if Q.hom_space_dim(X, D)]
        if sources:
            c, d = (
                Morphism.from_vector(Q, X, D, [rng.randint(-3, 3) for _ in range(Q.hom_space_dim(X, D))])
                for X in (rng.choice(sources), rng.choice(sources))
            )
            pairs.append((c, d))
    return pairs


@pytest.mark.parametrize("case", ["A3/Q T=P1+P3", "A4(><>)/F101 T=I1+P1"])
def test_a_pullback_is_the_square_of_the_pair_asked(case):
    # asking (d, c) first leaves the square of (c, d) the one ker [c, -d]
    # gives: its legs are the projections of that kernel, computed on a
    # quotient that never built a square
    if case.startswith("A3"):
        P, t = build_cluster_category(3), {"P1": 1, "P3": 1}
    else:
        P, t = build_cluster_category(4, "><>", GF(101)), {"I1": 1, "P1": 1}
    Q, fresh = (build_quotient(P, P.obj(t)).presentation for _ in range(2))
    for c, d in _pairs_into_common_targets(Q, random.Random(5), 60):
        pullback(Q, d, c)
        sq = pullback(Q, c, d)
        built = _constructed_square(Q, c, d)
        if built is not None:
            assert (sq.A, sq.a, sq.b) == built
            continue
        cf, df = (Morphism.from_vector(fresh, m.source, m.target, m.to_vector()) for m in (c, d))
        K, j = kernel(fresh, stack_cols(fresh, [cf, df.scale(-1)]))
        projections = [compose(fresh, proj, j) for proj in _sum_projections(fresh, [c.source, d.source])]
        assert sq.A == K
        assert [leg.to_vector() for leg in (sq.a, sq.b)] == [proj.to_vector() for proj in projections]


# -- one search per subspace, only the draws tried --------------------------------


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=["QQ", "GF101"])
def test_a_repeated_subspace_is_searched_once(monkeypatch, field):
    # 2f is another cokernel key with the targets and the subspaces of f, so
    # its candidate searches are all read from the table
    P = build_cluster_category(3, field=field)
    Q = _quotient(P, ("P1", "P3"))
    runs = []

    def counted(P_, X, Y, subspace, *args, **kwargs):
        if P_ is Q:
            runs.append((X.mult, Y.mult, tuple(map(tuple, subspace))))
        return run_search(P_, X, Y, subspace, *args, **kwargs)

    run_search = preabelian.search_open_conditions
    monkeypatch.setattr(preabelian, "search_open_conditions", counted)
    for _, _, _, f in basis_morphisms(Q):
        cokernel(Q, f)
        before = len(runs)
        twice = f.scale(2)
        again = cokernel(Q, twice)
        assert len(runs) == before
        cold_Q = _quotient(P, ("P1", "P3"))
        cold = cokernel(cold_Q, Morphism.from_vector(cold_Q, f.source, f.target, twice.to_vector()))
        assert (again[0], again[1].to_vector()) == (cold[0], cold[1].to_vector())
    assert runs and len(runs) == len(set(runs))
    assert Q._searches


def _fresh_random_phase(Q, X, Y, subspace, conditions, budget, salt):
    """The random phase with a fresh generator per search and every draw
    tried, zero draws included: FOUND and its witness, or None."""
    for coeffs in _random_draws_of(budget.seed, len(subspace), budget, salt):
        m = _combine(Q, X, Y, subspace, coeffs)
        if all(c.holds(m) for c in conditions if c.required > 0):
            return SearchResult(SearchResult.FOUND, m)
    return None


def _random_draws_of(seed, d, budget=Budget(), salt=0):
    """The random phase's draws for a budget seed, a salt and dimension d, all
    budget.retries of them, zero ones included."""
    rng = random.Random(f"{seed}:{salt}:{d}")
    radii = (budget.coeff_base ** (1 + attempt // 3) for attempt in range(budget.retries))
    return [[rng.randint(-r, r) for _ in range(d)] for r in radii]


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=["QQ", "GF101"])
def test_a_zero_first_draw_changes_no_search(field):
    # P1+P2 -> P2 is found, but not by the draws (c, 0); P1+P2 -> P3 is
    # certified empty past the random phase
    P = build_cluster_category(3, field=field)
    seeds = [s for s in range(3000) if not any(_random_draws_of(s, 2)[0])][:6]
    assert len(seeds) == 6
    for y in ("P2", "P3"):
        X, Y = P.obj({"P1": 1, "P2": 1}), P.single(y)
        basis = [b.to_vector() for b in P.hom_basis(X, Y)]
        assert len(basis) == 2
        for seed in seeds:
            budget = Budget(seed=seed)
            conditions = epi_conditions(P, lambda m: m, Y)
            want = _fresh_random_phase(P, X, Y, basis, conditions, budget, 0)
            if want is None:  # the phases after the random one
                want = search_open_conditions(P, X, Y, basis, conditions, Budget(seed=seed, retries=0), 0)
            got = search_open_conditions(P, X, Y, basis, conditions, budget, 0)
            assert got.status == want.status
            assert (got.witness and got.witness.to_vector()) == (want.witness and want.witness.to_vector())


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=["QQ", "GF101"])
def test_the_over_cap_fallback_goes_on_with_the_stream(field):
    # one try in the random phase, a zero one, then a joint grid over the
    # cap: the fallback's draws are the stream's second and later ones
    P = build_cluster_category(3, field=field)
    X, Y = P.obj({"P1": 1, "P2": 1}), P.single("P2")
    basis = [b.to_vector() for b in P.hom_basis(X, Y)]
    conditions = epi_conditions(P, lambda m: m, Y)
    seed = next(s for s in range(3000) if not any(_random_draws_of(s, 2)[0]))
    cap = max((c.required + 1) ** 2 for c in conditions)
    assert (sum(c.required for c in conditions) + 1) ** 2 > cap
    budget = Budget(seed=seed, retries=1, grid_cap=cap)
    rng = random.Random(f"{seed}:0:2")
    rng.randint(-4, 4), rng.randint(-4, 4)  # the random phase's one draw
    for attempt in range(4):
        radius = 4 ** (2 + attempt // 4)
        m = _combine(P, X, Y, basis, [rng.randint(-radius, radius) for _ in range(2)])
        if all(c.holds(m) for c in conditions):
            break
    else:
        pytest.fail("no fallback draw is a witness")
    res = search_open_conditions(P, X, Y, basis, conditions, budget, 0)
    assert (res.status, res.witness.to_vector()) == (SearchResult.FOUND, m.to_vector())


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=["QQ", "GF101"])
def test_a_search_found_at_its_first_try_draws_one_vector(monkeypatch, field):
    # the random phase draws each try only when it comes up, so a search
    # found at its first try makes d randint calls, not retries * d
    P = build_cluster_category(3, field=field)
    X, Y = P.obj({"P1": 1, "P2": 1}), P.single("P2")
    basis = [b.to_vector() for b in P.hom_basis(X, Y)]
    conditions = epi_conditions(P, lambda m: m, Y)

    def first_try_finds(seed):
        (coeffs,) = _random_draws_of(seed, 2, Budget(retries=1))
        return any(coeffs) and all(c.holds(_combine(P, X, Y, basis, coeffs)) for c in conditions)

    seed = next(s for s in range(3000) if first_try_finds(s))
    (first,) = _random_draws_of(seed, 2, Budget(retries=1))
    calls = []

    class Counting(random.Random):
        def randint(self, a, b):
            calls.append((a, b))
            return super().randint(a, b)

    monkeypatch.setattr(preabelian.random, "Random", Counting)
    res = search_open_conditions(P, X, Y, basis, conditions, Budget(seed=seed), 0)
    assert res.status == SearchResult.FOUND
    assert res.witness.to_vector() == _combine(P, X, Y, basis, first).to_vector()
    assert calls == [(-4, 4)] * 2
