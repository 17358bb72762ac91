"""Localisation of an integral presentation at its regular morphisms.

Morphisms of the localised category are right fractions: a roof
X <- A -> Y whose backwards leg is regular.  Composition completes squares
by pullback, equality is decided on a pullback of denominators, and
kernels/cokernels transfer from the underlying category.  All of it is
exact linear algebra on the quotient presentation; each square is pullback's
for the ordered pair asked, kept in a table the property scan fills too.

The verdict computes only what needs computing: RF2/LF2 are the property
scan's regular-leg clauses.  The abelian clause asks that each middle map
be regular: by proof where the property scan decided Q's side, and by
factorising each basis morphism elsewhere.
RF1, RF3/LF3 and the middle map's inverse hold by proof (verify_rf_axioms,
_abelian_clause), so no fraction is composed for them.
"""

from __future__ import annotations

import collections

from .errors import NoCokernel, NoKernel, NotRegular, ShapeError
from .fincat import CategoryPresentation, Morphism, basis_morphisms, compose
from .preabelian import (
    Budget,
    ClauseReport,
    ClauseResult,
    DEFAULT_BUDGET,
    PropertyReport,
    coim_im_factorise,
    cokernel,
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


# -- the fraction axioms and abelianness -------------------------------------------


def verify_rf_axioms(Q: CategoryPresentation, scan: PropertyReport, budget: Budget = DEFAULT_BUDGET) -> ClauseReport:
    """RF1-RF3 for the regular class, plus the LF duals.

    scan is scan_properties(Q, budget) of a preabelian Q: its morphism
    family is the one the clauses range over, and RF2 / LF2 (a regular r
    and any f into (out of) its target (source) complete to a square whose
    leg opposite r is regular) are its pullback_regular_leg and
    pushout_regular_leg clauses.

    RF1 and RF3 / LF3 hold by proof, so they pass; the checked count of each
    is the number of family cases the proof covers:
    - RF1: identities are regular, and s o r is regular for regulars r, s.
      An identity is epi and mono, and composites of epis are epi and of
      monos mono, in any category.  Its cases are the composable pairs
      (r then s) of regulars, at most scan_pairs_cap of them.
    - RF3 / LF3: r o f = r o f' forces f = f' (f o r = f' o r forces
      f = f'); the identity refinement suffices.  That is r mono (epi).
      fam.regulars holds exactly the maps that is_epi and is_mono both
      accepted, and both are exact: f is epi iff - o f is injective on
      every Hom(-, Z) (Yoneda, a rank test per indecomposable Z), and
      is_mono is is_epi in Q^op.  Its cases are the regulars.
    """
    regulars = scan.family.regulars
    sources = collections.Counter(r.source for r in regulars)
    pairs = sum(sources[r.target] for r in regulars)
    return ClauseReport(
        {
            "RF1_identities_and_closure": ClauseResult("pass", min(pairs, budget.scan_pairs_cap)),
            "RF2_square_completion": scan.clauses["pullback_regular_leg"],
            "RF3_left_cancellation": ClauseResult("pass", len(regulars)),
            "LF2_square_completion": scan.clauses["pushout_regular_leg"],
            "LF3_right_cancellation": ClauseResult("pass", len(regulars)),
        }
    )


def _abelian_clause(Q: CategoryPresentation, budget: Budget):
    """Clause body: for every basis morphism, the middle map of its coim-im
    factorisation is regular.

    Where the property scan decided Q's side (Q._socle), Hom(Z, -) is
    right exact on Q (preabelian._pullbacks_of_epis_are_epi proves it), and
    every middle map of Q is regular by proof, so the body yields once per
    basis morphism and factorises none; elsewhere _middle_map_loop
    factorises each.  The proof: let f: X -> Y have kernel k, cokernel c,
    coimage u: X -> Coim (a cokernel of k) and image v: Im -> Y (a kernel
    of c), so f = v o ftilde o u.  They exist: Q has every kernel, as Q's
    side is decided, and so does Q^op (preabelian._every_kernel), so Q has
    every cokernel.  Write F = Hom(Z, -).  F(k) is a kernel of F(f) and
    F(c) a cokernel, F(u) a cokernel of F(k) and F(v) a kernel of F(c).
    So F(u) is onto with kernel ker F(f), F(v) is one to one with image im
    F(f), and F(f) = F(v) F(ftilde) F(u) makes F(ftilde) the bijection coim
    F(f) -> im F(f).  By preabelian._socle_answers' lemma ftilde is then
    epi and mono.  checked is what the loop counts where every case holds.

    Invertibility in the localisation follows (Gabriel-Zisman, "Calculus of
    fractions and homotopy theory", 1967, I.2): for a regular s, [s, 1] is
    a two-sided inverse of [1, s].  [s, 1] o [1, s] completes the pair
    (s, s) to the square (1, 1) and gives [1, 1]; [1, s] o [s, 1] completes
    (1, 1) and gives [s, s], equal to [1, 1] on the square (1, s) of (s, 1).
    pullback builds exactly these squares without a kernel (c = d with c
    mono, then d = 1), so compose_fractions and fractions_equal on these
    fractions re-derive this proof and cannot fail for a regular s.
    """
    if Q._socle is not None:
        for _ in range(sum(Q.hom_dim(i, j) for i in range(Q.n) for j in range(Q.n))):
            yield
        return None
    return (yield from _middle_map_loop(Q, budget))


def _middle_map_loop(Q: CategoryPresentation, budget: Budget):
    """Clause body: factorise each basis morphism and test its middle map."""
    for i, j, a, f in basis_morphisms(Q):
        try:
            fac = coim_im_factorise(Q, f, budget)
        except (NoKernel, NoCokernel) as e:
            return f"factorisation failed at ({i},{j},{a}): {e}"
        yield
        if not is_regular(Q, fac.ftilde):
            return f"middle map not regular at ({i},{j},{a})"


def check_abelian(Q: CategoryPresentation, budget: Budget = DEFAULT_BUDGET) -> ClauseReport:
    """Abelianness of the localisation via the coim-im middle map: each basis
    morphism's middle map is regular, hence invertible in the localisation
    (proof in _abelian_clause)."""
    return ClauseReport({"abelian_middle_maps": run_clause(_abelian_clause(Q, budget))})
