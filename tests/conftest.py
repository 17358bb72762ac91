import pytest
from hypothesis import settings

from quotcat.fincat import CategoryPresentation, compose
from quotcat.linalg import QQ
from quotcat.preabelian import factors_through_map

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
