"""Localisation of an integral presentation at its regular morphisms.

Morphisms of the localised category are right fractions: a roof
X <- A -> Y whose backwards leg is regular.  Composition completes squares
by pullback, equality is decided on a pullback of denominators, and
kernels/cokernels transfer from the underlying category.  All of it is
exact linear algebra on the quotient presentation; each square is pullback's
for the ordered pair asked, kept in a table the property scan fills too.
"""

from __future__ import annotations

import itertools

from .errors import NoCokernel, NoKernel, NotRegular, ShapeError
from .fincat import CategoryPresentation, Morphism, Obj, basis_morphisms, compose
from .preabelian import (
    Budget,
    ClauseReport,
    DEFAULT_BUDGET,
    PropertyReport,
    coim_im_factorise,
    cokernel,
    is_epi,
    is_mono,
    is_regular,
    kernel,
    pullback,
    pushout,
    run_clause,
)


class Fraction:
    """A right fraction [r, f]: the roof X <-r- A -f-> Y with r regular."""

    __slots__ = ("Q", "source", "target", "aux", "denom", "num")

    def __init__(self, Q: CategoryPresentation, denom: Morphism, num: Morphism):
        if denom.source != num.source:
            raise ShapeError("fraction legs must share their auxiliary object")
        if not is_regular(Q, denom):
            raise NotRegular("fraction denominator is not regular")
        self.Q = Q
        self.aux = denom.source
        self.source = denom.target
        self.target = num.target
        self.denom = denom
        self.num = num

    def __repr__(self):
        Q = self.Q
        return (
            f"Fraction({Q.obj_name(self.source)} <= {Q.obj_name(self.aux)}"
            f" => {Q.obj_name(self.target)})"
        )


def from_morphism(Q: CategoryPresentation, f: Morphism) -> Fraction:
    """The image [id, f] of f under the localisation functor."""
    return Fraction(Q, Q.identity(f.source), f)


def identity_fraction(Q: CategoryPresentation, X: Obj) -> Fraction:
    return from_morphism(Q, Q.identity(X))


def invert_regular(Q: CategoryPresentation, r: Morphism) -> Fraction:
    """[r, id]: the formal inverse of a regular morphism."""
    if not is_regular(Q, r):
        raise NotRegular("cannot invert: morphism is not regular")
    return Fraction(Q, r, Q.identity(r.source))


def compose_fractions(Q: CategoryPresentation, G: Fraction, F: Fraction, budget: Budget = DEFAULT_BUDGET) -> Fraction:
    """G o F via the square completion of (numerator of F, denominator of G).

    The pullback leg against the regular denominator is regular (integral
    presentation), which the Fraction constructor re-verifies.
    """
    if F.target != G.source:
        raise ShapeError("fractions do not compose")
    sq = pullback(Q, F.num, G.denom, budget)
    # sq.a : P -> aux(F) is the leg against the regular denominator
    return Fraction(Q, compose(Q, F.denom, sq.a), compose(Q, G.num, sq.b))


def fractions_equal(Q: CategoryPresentation, F: Fraction, G: Fraction, budget: Budget = DEFAULT_BUDGET) -> bool:
    """Decide [r, f] = [r', f'] on the pullback of the two denominators.

    Both pullback legs are regular, the roofs agree over the common refinement
    iff the numerators agree there; faithfulness of the localisation functor
    makes this sound and complete.
    """
    if F.source != G.source or F.target != G.target:
        raise ShapeError("fractions must be parallel to compare")
    sq = pullback(Q, F.denom, G.denom, budget)
    # legs: sq.a : P -> aux(F), sq.b : P -> aux(G); r o a = r' o b
    return compose(Q, F.num, sq.a) == compose(Q, G.num, sq.b)


def is_identity_fraction(Q: CategoryPresentation, F: Fraction, budget: Budget = DEFAULT_BUDGET) -> bool:
    if F.source != F.target:
        return False
    return fractions_equal(Q, F, identity_fraction(Q, F.source), budget)


def fraction_two_sided_inverse(Q: CategoryPresentation, F: Fraction, G: Fraction, budget: Budget = DEFAULT_BUDGET) -> bool:
    """True when G o F and F o G are both identity fractions."""
    return is_identity_fraction(Q, compose_fractions(Q, G, F, budget), budget) and is_identity_fraction(
        Q, compose_fractions(Q, F, G, budget), budget
    )


# -- kernels and cokernels in the localisation ---------------------------------


def localised_cokernel(Q: CategoryPresentation, F: Fraction, budget: Budget = DEFAULT_BUDGET) -> Fraction:
    """[coker(numerator)] is a cokernel of the fraction."""
    res = cokernel(Q, F.num, budget)
    if res is None:
        raise NoCokernel("numerator has no cokernel in the underlying category")
    _, c = res
    return from_morphism(Q, c)


def to_left_fraction(Q: CategoryPresentation, F: Fraction, budget: Budget = DEFAULT_BUDGET):
    """(s, g) with s o f = g o r and s regular: the left form of [r, f]."""
    sq = pushout(Q, F.num, F.denom, budget)
    # square: c o num = d o denom with c : Y -> D, d : X -> D; c is the leg
    # parallel to the regular denominator, hence regular
    s, g = sq.c, sq.d
    if not is_regular(Q, s):
        raise NotRegular("pushout leg is not regular; presentation is not integral")
    return s, g


def localised_kernel(Q: CategoryPresentation, F: Fraction, budget: Budget = DEFAULT_BUDGET) -> Fraction:
    """[ker g] for the left form x_s [g] of the fraction."""
    _, g = to_left_fraction(Q, F, budget)
    res = kernel(Q, g, budget)
    if res is None:
        raise NoKernel("left-form numerator has no kernel in the underlying category")
    _, j = res
    return from_morphism(Q, j)


# -- axiom scans -----------------------------------------------------------------


def _rf1_clause(Q: CategoryPresentation, regulars, budget: Budget):
    """Clause body: identities are regular and the class is composition closed."""
    for i in range(Q.n):
        if not is_regular(Q, Q.identity(Q.single(i))):
            return f"identity of {Q.objects[i]} is not regular"
    pairs = ((r, s) for r in regulars for s in regulars if r.target == s.source)
    for r, s in itertools.islice(pairs, budget.scan_pairs_cap):
        yield
        if not is_regular(Q, compose(Q, s, r)):
            return "regulars are not closed under composition"


def _cancellation_clause(Q: CategoryPresentation, regulars, cancels, kind: str):
    """Clause body: every regular morphism is mono (epi)."""
    for r in regulars:
        yield
        if not cancels(Q, r):
            return f"a regular morphism is not {kind}"


def verify_rf_axioms(Q: CategoryPresentation, scan: PropertyReport, budget: Budget = DEFAULT_BUDGET) -> ClauseReport:
    """RF1-RF3 for the regular class, plus the LF duals.

    scan is scan_properties(Q, budget) of a preabelian Q: its morphism
    family is the one the clauses range over, and RF2 / LF2 (a regular r
    and any f into (out of) its target (source) complete to a square whose
    leg opposite r is regular) are its pullback_regular_leg and
    pushout_regular_leg clauses.  RF3 / LF3: r o f = r o f' forces f = f'
    (f o r = f' o r forces f = f'); the identity refinement suffices because
    regulars are mono (epi).
    """
    regulars = scan.family.regulars
    report = ClauseReport()
    report.clauses["RF1_identities_and_closure"] = run_clause(_rf1_clause(Q, regulars, budget))
    report.clauses["RF2_square_completion"] = scan.clauses["pullback_regular_leg"]
    report.clauses["RF3_left_cancellation"] = run_clause(_cancellation_clause(Q, regulars, is_mono, "mono"))
    report.clauses["LF2_square_completion"] = scan.clauses["pushout_regular_leg"]
    report.clauses["LF3_right_cancellation"] = run_clause(_cancellation_clause(Q, regulars, is_epi, "epi"))
    return report


def _abelian_clause(Q: CategoryPresentation, budget: Budget):
    """Clause body: for every basis morphism, the middle map of its coim-im
    factorisation is regular and its fraction is two-sided invertible by the
    equality decider."""
    for i, j, a, f in basis_morphisms(Q):
        try:
            fac = coim_im_factorise(Q, f, budget)
        except (NoKernel, NoCokernel) as e:
            return f"factorisation failed at ({i},{j},{a}): {e}"
        yield
        if not is_regular(Q, fac.ftilde):
            return f"middle map not regular at ({i},{j},{a})"
        frac = from_morphism(Q, fac.ftilde)
        inv = invert_regular(Q, fac.ftilde)
        if not fraction_two_sided_inverse(Q, frac, inv, budget):
            return f"middle map not invertible at ({i},{j},{a})"


def check_abelian(Q: CategoryPresentation, budget: Budget = DEFAULT_BUDGET) -> ClauseReport:
    """Abelianness of the localisation via the coim-im middle map."""
    return ClauseReport({"abelian_middle_maps": run_clause(_abelian_clause(Q, budget))})
