"""Each answer given without a search agrees with the search it replaces.

`pullback` builds the square along an identity, and of a mono with itself,
without a kernel.  `cokernel` (and `kernel`, through Q^op) answers a map the
epi table holds as epi, and the zero map, without a search, and keeps the
epi answer its own pass decides.  A found cokernel witness is kept as
epi.  These tests run each of them against the search or the Yoneda pass
it replaces, on a quotient built afresh, over C(A_3)/Q with T = P1+P3 and
C(A_4, "><>")/GF(101) with T = I1+P1.
"""

from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from quotcat.clustergen import build_cluster_category
from quotcat.fincat import (
    Morphism,
    Obj,
    basis_morphisms,
    compose,
    op_morphism,
    opposite,
    precompose_matrices,
    split_rows,
    stack_cols,
)
from quotcat.linalg import GF, QQ, block_diagonal_kernel_basis
from quotcat.localization import Fraction, check_abelian, fractions_equal
from quotcat.modcat import _regular_roofs, verify_equivalence
from quotcat.preabelian import (
    DEFAULT_BUDGET,
    Budget,
    LimitSquare,
    SearchResult,
    build_morphism_family,
    cokernel,
    epi_conditions,
    is_epi,
    is_mono,
    is_regular,
    kernel,
    multiplicities,
    pullback,
    scan_properties,
    search_open_conditions,
)
from quotcat.quotient import build_quotient

from conftest import solve_two_sided_inverse

CAPPED = Budget(scan_pairs_cap=120)

# name -> (n, orientation, field, T)
CASES = {
    "A3/Q T=P1+P3": (3, None, QQ, {"P1": 1, "P3": 1}),
    "A4(><>)/F101 T=I1+P1": (4, "><>", GF(101), {"I1": 1, "P1": 1}),
}


@lru_cache(maxsize=None)
def _category(case):
    n, orientation, field, t = CASES[case]
    P = build_cluster_category(n, orientation, field)
    return P, P.obj(t)


def _fresh(case):
    """The quotient of case built afresh: every table empty."""
    P, T = _category(case)
    return build_quotient(P, T).presentation


@lru_cache(maxsize=None)
def _warm(case):
    """One quotient of case kept across examples, so its tables fill up,
    with its family's regular maps."""
    Q = _fresh(case)
    return Q, build_morphism_family(Q, CAPPED).regulars


def _carry(Q, f):
    """f with its coordinates, as a map of Q."""
    return Morphism.from_vector(Q, f.source, f.target, f.to_vector())


def _small_objects(Q):
    singles = [Q.single(i) for i in range(Q.n)]
    return singles + [x + y for i, x in enumerate(singles) for y in singles[i:]]


@st.composite
def maps(draw, Q, into=None):
    """A map between sums of at most two indecomposables, zero maps and
    identities included; into fixes the target."""
    objs = _small_objects(Q)
    if draw(st.integers(0, 5)) == 0:
        return Q.identity(into or draw(st.sampled_from(objs)))
    pairs = [(X, Y) for X in objs for Y in ([into] if into else objs) if Q.hom_space_dim(X, Y)]
    X, Y = draw(st.sampled_from(pairs))
    d = Q.hom_space_dim(X, Y)
    return Morphism.from_vector(Q, X, Y, draw(st.lists(st.sampled_from([0, 0, 1, -1, 2, 3]), min_size=d, max_size=d)))


# -- the searches and passes the short cuts replace ----------------------------------


def _searched_cokernel(Q, f, budget=DEFAULT_BUDGET):
    """The cokernel search itself: each candidate M of the target counts in
    turn, with no table and no answer given without a search."""
    blocks = precompose_matrices(Q, f)
    targets = [m.ncols - m.rank() if m.ncols else 0 for m in blocks]
    for mult in multiplicities(Q._dim, targets, Q._dim, targets):
        M = Obj(mult)
        kills_f = block_diagonal_kernel_basis(Q.field, [blocks[k] for k in M.copies()])
        conditions = epi_conditions(Q, lambda c: c, M)
        res = search_open_conditions(Q, f.target, M, kills_f, conditions, budget, f"cokernel:{M.mult}")
        if res.status == SearchResult.FOUND:
            return M, res.witness
    return None


def _searched_kernel(Q, f):
    op = opposite(Q)
    res = _searched_cokernel(op, op_morphism(op, f))
    return res and (res[0], op_morphism(Q, res[1]))


def _cold_epi(Q, f):
    """is_epi of f's coordinates on Q with every table emptied first."""
    Q.clear_verdict_tables()
    return is_epi(Q, _carry(Q, f))


def _cold_mono(Q, f):
    op = opposite(Q)
    return _cold_epi(op, op_morphism(op, f))


# -- degenerate kernels and cokernels ------------------------------------------------


def _check_against_search(case, Q, f):
    fresh = _fresh(case)
    for short, searched, decide in ((cokernel, _searched_cokernel, is_epi), (kernel, _searched_kernel, is_mono)):
        decide(Q, f)  # the table holds f's answer, as a scan leaves it
        got, want = short(Q, f), searched(fresh, _carry(fresh, f))
        assert (got is None) == (want is None)
        if got is None:
            continue
        assert got[0] == want[0]
        if f.is_zero():
            # (Y, 1_Y) for a cokernel, (X, 1_X) for a kernel; the search finds
            # some automorphism there
            assert got[1] == Q.identity(got[0])
            assert solve_two_sided_inverse(fresh, want[1]) is not None
        else:
            # an epi's (mono's) (0, 0) and every searched witness: the same map
            assert got[1].to_vector() == want[1].to_vector()


@pytest.mark.parametrize("case", sorted(CASES))
def test_basis_identity_and_zero_maps_agree_with_the_search(case):
    Q, _ = _warm(case)
    objs = _small_objects(Q)
    given = [f for _, _, _, f in basis_morphisms(Q)]
    given += [Q.identity(X) for X in objs] + [Q.zero_morphism(X, Y) for X in objs[:3] for Y in objs[-3:]]
    for f in given:
        _check_against_search(case, Q, f)
    assert any(is_epi(Q, f) and not f.is_zero() for f in given)


@pytest.mark.parametrize("case", sorted(CASES))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_degenerate_cokernels_and_kernels_agree_with_the_search(case, data):
    Q, _ = _warm(case)
    _check_against_search(case, Q, data.draw(maps(Q)))


# -- limit squares without a kernel ------------------------------------------------------


def _kernel_square(Q, c, d):
    """(A, a, b) from the searched kernel of [c | -d] on Q."""
    K, j = _searched_kernel(Q, stack_cols(Q, [c, d.scale(-1)]))
    a, b = split_rows(Q, j, [c.source, d.source])
    return K, a, b


def _pair(data, Q, regulars, kind, maps_for_c=True):
    """(c, d) of kind: d = 1, c = 1, or c = d mono."""
    if kind == "c = d mono":
        c = data.draw(st.sampled_from(regulars)) if not maps_for_c else data.draw(maps(Q).filter(lambda f: is_mono(Q, f)))
        return c, c
    f = data.draw(maps(Q)) if maps_for_c else data.draw(st.sampled_from(regulars))
    one = Q.identity(f.target)
    return (f, one) if kind == "d = 1" else (one, f)


KINDS = ["d = 1", "c = 1", "c = d mono"]


@pytest.mark.parametrize("case", sorted(CASES))
@settings(max_examples=30, deadline=None)
@given(data=st.data(), kind=st.sampled_from(KINDS))
def test_trivial_squares_agree_with_kernel_squares(case, data, kind):
    Q, regulars = _warm(case)
    c, d = _pair(data, Q, regulars, kind)
    sq = pullback(Q, c, d)
    fresh = _fresh(case)
    K, a, b = _kernel_square(fresh, _carry(fresh, c), _carry(fresh, d))
    assert sq.A == K
    # the constructed square has an identity leg, so the map from the kernel
    # square to it is the kernel's leg there; it is an automorphism of A
    phi = _carry(Q, b if kind == "c = 1" else a)
    assert solve_two_sided_inverse(Q, phi) is not None
    assert (compose(Q, sq.a, phi), compose(Q, sq.b, phi)) == (_carry(Q, a), _carry(Q, b))


def _numerator(data, Q, A, Y):
    d = Q.hom_space_dim(A, Y)
    return Morphism.from_vector(Q, A, Y, data.draw(st.lists(st.sampled_from([0, 1, -1, 2]), min_size=d, max_size=d)))


@pytest.mark.parametrize("case", sorted(CASES))
@settings(max_examples=30, deadline=None)
@given(data=st.data(), kind=st.sampled_from(KINDS))
def test_trivial_squares_give_the_kernel_squares_fraction_answers(case, data, kind):
    # fractions_equal(F, G) reads the square of (F.denom, G.denom); on the
    # fresh quotient that square is the kernel's, put in its table
    Q, regulars = _warm(case)
    c, d = _pair(data, Q, regulars, kind, maps_for_c=False)
    Y = data.draw(st.sampled_from(_small_objects(Q)))
    f, g = _numerator(data, Q, c.source, Y), _numerator(data, Q, d.source, Y)
    if data.draw(st.booleans()):
        # [c, f] = [d, g] when f a = g b on the square (A, a, b) of (c, d):
        # (B, 1, c) for d = 1, (C, d, 1) for c = 1, (B, 1, 1) for c = d
        if kind == "c = 1":
            g = compose(Q, f, d)
        else:
            f = compose(Q, g, c) if kind == "d = 1" else g
    F, G = Fraction(Q, c, f), Fraction(Q, d, g)
    fresh = _fresh(case)
    cf, df = _carry(fresh, c), _carry(fresh, d)
    K, a, b = _kernel_square(fresh, cf, df)
    fixed = (CAPPED.seed, CAPPED.retries, CAPPED.coeff_base, CAPPED.grid_cap)
    fresh._squares[(cf, df, *fixed)] = LimitSquare(K, cf.source, df.source, cf.target, a, b, cf, df)
    Ff, Gf = Fraction(fresh, cf, _carry(fresh, f)), Fraction(fresh, df, _carry(fresh, g))
    assert fractions_equal(Q, F, G, CAPPED) == fractions_equal(fresh, Ff, Gf, CAPPED)


# -- kept epi answers ----------------------------------------------------------------------


@pytest.mark.parametrize("case", sorted(CASES))
def test_kept_epi_answers_agree_with_a_cold_pass(case):
    # after a scan, the abelian clause and the equivalence, every answer in
    # the epi tables of Q and Q^op is the one is_epi gives for that map with
    # its tables emptied
    P, T = _category(case)
    qc = build_quotient(P, T)
    Q = qc.presentation
    scan_properties(Q, CAPPED)
    check_abelian(Q, CAPPED)
    verify_equivalence(P, T, qc=qc, budget=CAPPED)
    fresh = _fresh(case)
    kept = 0
    for R, cold in ((Q, fresh), (opposite(Q), opposite(fresh))):
        for f, answer in list(R._epis.items()):
            assert _cold_epi(cold, f) == answer
            kept += 1
    assert kept


@pytest.mark.parametrize("case", sorted(CASES))
@settings(max_examples=30, deadline=None)
@given(data=st.data(), s=st.sampled_from([1, -1, 2, 5]), t=st.sampled_from([1, -3, 4]))
def test_one_answer_per_one_dimensional_hom_space(case, data, s, t):
    Q, _ = _warm(case)
    lines = [(X, Y) for X in _small_objects(Q) for Y in _small_objects(Q) if Q.hom_space_dim(X, Y) == 1]
    (b,) = Q.hom_basis(*data.draw(st.sampled_from(lines)))
    fresh = _fresh(case)
    first = is_epi(Q, b.scale(s))
    # nonzero multiples of one map are all epi or all not, all mono or all not
    assert is_epi(Q, b.scale(t)) == first == _cold_epi(fresh, b.scale(t))
    assert is_mono(Q, b.scale(s)) == is_mono(Q, b.scale(t)) == _cold_mono(fresh, b.scale(t))


@pytest.mark.parametrize("case", sorted(CASES))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_found_witnesses_are_kept_as_epi_and_mono(case, data):
    # a cokernel witness is kept as epi, and a leg of a regular roof is
    # regular, as a cold pass finds
    Q, _ = _warm(case)
    f = data.draw(maps(Q))
    res = cokernel(Q, f)
    fresh = _fresh(case)
    if res is not None and not f.is_zero() and not res[0].is_zero():  # a searched witness
        assert Q._epis[res[1]] is True and _cold_epi(fresh, res[1])
    X = data.draw(st.sampled_from(_small_objects(Q)))
    roofs = _regular_roofs(Q, X, lambda A: Q.hom_basis(A, X), lambda h: h, CAPPED, "test")
    for _, h in roofs:
        assert is_regular(Q, h)
        assert _cold_epi(fresh, h) and _cold_mono(fresh, h)
        break
