import pytest
from hypothesis import settings

from quotcat.fincat import CategoryPresentation, Obj, compose, opposite, split_rows
from quotcat.linalg import QQ
from quotcat.modcat import _regular_conditions
from quotcat.preabelian import DEFAULT_BUDGET, SearchResult, factors_through_map, multiplicities, search_open_conditions

# One profile for every property test: examples may be slow (a quotient or a
# search), and a failure prints the blob that replays it with @reproduce_failure.
settings.register_profile("quotcat", deadline=None, print_blob=True)
settings.load_profile("quotcat")


def solve_two_sided_inverse(Q, f):
    """Some g with g o f = id and f o g = id, or None: the tests' oracle for
    invertibility, by solving rather than by Hom dimensions.

    An invertible f has exactly one left inverse, so g is the left inverse
    the solve finds, kept only when it is a right inverse too.
    """
    g = factors_through_map(Q, Q.identity(f.source), f)
    return g if g is not None and compose(Q, f, g) == Q.identity(f.target) else None


def iso_fraction_exists(Q, x, W, budget=DEFAULT_BUDGET):
    """Whether a roof with two regular legs connects x and W in the quotient
    Q: the tests' oracle for an isomorphism of the localised category, by a
    certified search rather than by H.

    The search runs over maps h: A -> x + W, so both legs are linear in one
    searched element.  A runs over the sources from which a map into x and
    a map into W can both be regular as far as dimensions go: the floor and
    ceiling of modcat._leg_sources, entrywise max and min over the two.
    """
    X = Q.single(x)
    XW, targets = X + W, [X, W]
    op = opposite(Q)
    floor = [max(col) for col in zip(*(Q.hom_layout(Y)[1] for Y in targets))]
    ceiling = [min(col) for col in zip(*(op.hom_layout(Y)[1] for Y in targets))]
    for mult in multiplicities(Q._dim, floor, op._dim, ceiling):
        A = Obj(mult)
        basis = Q.hom_basis(A, XW)
        if not basis:
            continue
        conditions = [
            c
            for k, Y in enumerate(targets)
            for c in _regular_conditions(Q, lambda h, k=k: split_rows(Q, h, targets)[k], A, Y)
        ]
        vecs = [b.to_vector() for b in basis]
        res = search_open_conditions(Q, A, XW, vecs, conditions, budget, f"iso:{x}:{W.mult}:{A.mult}")
        if res.status == SearchResult.FOUND:
            return True
    return False


def iso_to_add_t(Q, x, tsupp, budget=DEFAULT_BUDGET):
    """Whether x is localised-isomorphic to some object of add T in Q, by
    iso_fraction_exists: the tests' oracle for PROJECTIVES' one rank.

    The partner may be decomposable (semisimple degenerations), so every
    nonzero multiplicity vector over T's summands tsupp with m_i <= dim
    Hom(i, x) is tried.
    """
    bounds = [Q.hom_dim(i, x) if i in tsupp else 0 for i in range(Q.n)]
    unit = [[int(i == z) for z in range(Q.n)] for i in range(Q.n)]
    partners = multiplicities([[1]] * Q.n, [1], unit, bounds)
    return any(iso_fraction_exists(Q, x, Obj(mult), budget) for mult in partners)


def point_category(field=QQ):
    """One object, Hom = k * id: the field as a category."""
    one = field.one
    return CategoryPresentation(
        field,
        ["pt"],
        {(0, 0): 1},
        {(0, 0, 0): [[[one]]]},
        [[one]],
        sigma=[0],
    )


def arrow_category(field=QQ, unit_coeff=1):
    """Two objects x, y with a single map x -> y (mod kA_2 as a category).

    unit_coeff != 1 corrupts the structure constant of id_y o f, giving a
    negative control for validation.
    """
    one = field.one
    comp = {
        (0, 0, 0): [[[one]]],
        (1, 1, 1): [[[one]]],
        (0, 0, 1): [[[one]]],
        (0, 1, 1): [[[field.of(unit_coeff)]]],
    }
    return CategoryPresentation(
        field,
        ["x", "y"],
        {(0, 0): 1, (1, 1): 1, (0, 1): 1},
        comp,
        [[one], [one]],
    )


def chain4_category(field=QQ, assoc_coeff=1):
    """w -> x -> y -> z with one-dimensional Hom spaces down the chain.

    All composites are the canonical basis paths; assoc_coeff != 1 skews one
    double-composite so that associativity fails at (w, x, y, z).
    """
    one = field.one
    objs = ["w", "x", "y", "z"]
    hom = {(i, i): 1 for i in range(4)}
    for i in range(4):
        for j in range(i + 1, 4):
            hom[(i, j)] = 1
    comp = {}
    for i in range(4):
        for j in range(i, 4):
            for k in range(j, 4):
                comp[(i, j, k)] = [[[one]]]
    comp[(0, 1, 3)] = [[[field.of(assoc_coeff)]]]
    return CategoryPresentation(field, objs, hom, comp, [[one]] * 4)


@pytest.fixture
def point():
    return point_category()


@pytest.fixture
def arrow():
    return arrow_category()
